"""Tests of the benchmark itself: repeatable counts, clean patching, names.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# a short, fast workload; not the default seed, so no reference comparison
WORKLOAD, SEED, ITERATIONS = "mixer-species", 3, 2
EXACT_COUNTS = ("cut.calls", "solve.lu_calls", "sens.local_evals",
                "pipeline.forward_calls", "gcmma.inner_evals")


def _run(trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", WORKLOAD, "--seed",
           str(SEED), "--seconds", "1", "--trace", str(trace),
           "--iterations", str(ITERATIONS), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _history():
    out = ROOT / ".bench_out" / f"{WORKLOAD}-seed{SEED}-trace1" / "history.csv"
    return out.read_bytes()


@pytest.fixture(scope="module")
def traced_twice():
    first = _result(_run(1))
    history = _history()
    second = _result(_run(1))
    return first, second, history, _history()


def test_counts_repeat_exactly(traced_twice):
    first, second, _, _ = traced_twice
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name


def test_history_is_bitwise_repeatable(traced_twice):
    _, _, history_a, history_b = traced_twice
    assert history_a.count(b"\n") == 1 + 1 + ITERATIONS  # header, warm-up, measured
    assert history_a == history_b


def test_metric_names_match_benchmark_json(traced_twice):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = traced_twice[0]
    plain = _result(_run(0))
    assert traced["correct"] and plain["correct"]
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_recorder_restores_every_patched_attribute():
    targets = spans.layer_targets()
    before = [(spans._resolve(t.owner), t.attr) for t in targets]
    originals = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in before]
    rec = spans.Recorder().install(targets)
    patched = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in before]
    assert all(p is not q for p, q in zip(patched, originals))
    rec.uninstall()
    after = [vars(o)[a] if isinstance(o, type) else getattr(o, a) for o, a in before]
    assert all(p is q for p, q in zip(after, originals))


def test_probe_time_is_taken_out_of_the_clock():
    host = probe.HostSpeed()
    handler = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        wall0, clock0, probed0 = time.perf_counter(), host.clock(), host.total
        while time.perf_counter() - wall0 < 3.5 * probe.PERIOD:
            pass
        wall1, clock1, probed1 = time.perf_counter(), host.clock(), host.total
    assert len(host.samples) >= 3
    assert probed1 > probed0
    assert (wall1 - wall0) - (clock1 - clock0) == pytest.approx(probed1 - probed0, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reference_check_flags_a_changed_value():
    ref = json.loads(workloads.REFERENCE.read_text())["mixer-species"]
    rows = [list(r) for r in ref["rows"][:3]]
    header = ["iteration"] + ref["columns"] + ["newton_iters", "feasible"]
    result = workloads.RunResult("mixer-species", workloads.DEFAULT_SEED,
                                 setup_times=[], setup_probes=[], iter_times=[])
    workloads._check_reference(result, "mixer-species", header, rows)
    assert result.failed == 0
    rows[2][0] *= 1.0 + 1e-4
    workloads._check_reference(result, "mixer-species", header, rows)
    assert result.failed == 1 and result.problems


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
