"""The benchmark's workloads: seeded inputs, the timed loop and output checks.

Every workload is a closed loop: one process runs one design iteration
after another until the time budget is spent, each iteration starting when
the previous one has finished. The program receives only the generated
config file and, for `bend96-grad`, the generated design vectors.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from probe import REFERENCE_S, HostSpeed, probe_once, scale
from spans import Recorder, SpanIndex, end_to_end_targets, forward_durations, \
    layer_metrics, layer_targets

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 1
HELDOUT_SEED = 101  # never run while tuning; a claimed gain must also hold here
# set-ups per run, half before and half after the timed loop, so that
# setup_s (their median) samples the host at two moments of the run; each
# set-up is scaled by the mean of the probes run just before and after it
N_SETUP = 30
# relative jitter of the initial inclusion radius; at 2e-3 the mixer's GCMMA
# path split between seeds after about 7 iterations, at 2e-5 the seeds'
# objective histories stay within 1% over the first 15
RADIUS_JITTER = 2e-5
REF_RTOL = 1e-6  # history values against reference.json (default seed)
REF_ATOL = 1e-9
MIN_MEASURED = 2  # measured iterations a run always completes

# bend96-grad: disks (x, y, r) of the bend fixture, jittered per design
BEND96_DISKS = ((0.35, 0.45, 0.12), (0.75, 0.35, 0.10), (0.4, 0.8, 0.09))
BEND96_CENTER_JITTER = 0.005
BEND96_RADIUS_JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # template under configs/
    base_radius: float = None  # optimization workloads: inclusion radius

    @property
    def optimization(self):
        return self.base_radius is not None


# Why each workload is here: README.md. BENCHMARK.json gates all but
# pump-bdf2, whose run-to-run spread on a shared 2-core host exceeded the
# bound a gated metric may have; it stays runnable for the transient path.
WORKLOADS = {w.name: w for w in (
    Workload("bend-opt", "bend.cfg", 0.13),
    Workload("bend96-grad", "bend96.cfg"),
    Workload("pump-bdf2", "pump.cfg", 0.16),
    Workload("mixer-species", "mixer.cfg", 0.14),
)}


class _Stop(Exception):
    """Raised from the checkpoint hook once the run has measured enough."""


@dataclass
class RunResult:
    workload: str
    seed: int
    setup_times: list
    setup_probes: list  # per set-up: mean of the probes next to it
    iter_times: list
    forward_times: list = field(default_factory=list)  # per forward analysis
    gradient_times: list = field(default_factory=list)  # per gradient call
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    probe_times: list = field(default_factory=list)  # host-speed probe samples
    layers: dict = None
    history_rows: int = 0  # iterations that should have a history.csv row
    rows: list = None  # history values, for the reference file
    grad_norms: list = None  # bend96-grad: |dZ/ds| per design


def write_config(workload, seed, path):
    """Instantiate the workload's config template for this seed."""
    text = (CONFIGS / workload.config).read_text()
    if workload.optimization:
        rng = np.random.default_rng(seed)
        radius = workload.base_radius * (1.0 + RADIUS_JITTER * rng.uniform(-1.0, 1.0))
        text = text.replace("{radius}", repr(float(radius)))
    path.write_text(text)


def bend96_design(mesh, template, seed, k):
    """Design k of the seeded bend96-grad sequence (fixture formula)."""
    from cutflow.design import DesignVector
    rng = np.random.default_rng([seed, k])
    bound = template.upper[0]
    xy = mesh.nodes
    s = np.full(mesh.n_nodes, -bound)
    for cx, cy, r in BEND96_DISKS:
        cx += BEND96_CENTER_JITTER * rng.uniform(-1.0, 1.0)
        cy += BEND96_CENTER_JITTER * rng.uniform(-1.0, 1.0)
        r *= 1.0 + BEND96_RADIUS_JITTER * rng.uniform(-1.0, 1.0)
        d = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy) - r
        s = np.maximum(s, np.clip(-d, -bound, bound))
    return DesignVector(values=s, lower=template.lower, upper=template.upper,
                        n_nodal=template.n_nodal)


def _setup(cfg_path):
    from cutflow import config, driver
    cfg = config.parse_config(str(cfg_path))
    model, problem = driver.build_model(cfg)
    design = cfg.initial_design(model.mesh)
    return cfg, model, problem, design


def run(name, seed, seconds, trace, outdir, iterations=None, reference=True):
    """Run one workload; returns a RunResult with checks applied.

    The run measures until `seconds` have passed on the run's clock, which
    leaves out probe time (at least MIN_MEASURED iterations), or exactly
    `iterations` iterations when that is given.
    With `reference` false the default seed is not compared against
    reference.json (used while recording it).
    """
    workload = WORKLOADS[name]
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    cfg_path = outdir / "run.cfg"
    write_config(workload, seed, cfg_path)

    setup_times, setup_probes, setup_windows = [], [], []
    host = HostSpeed()

    def set_up():
        start = host.clock()
        before = probe_once()
        for _ in range(N_SETUP // 2):
            t0 = time.perf_counter()
            built = _setup(cfg_path)
            setup_times.append(time.perf_counter() - t0)
            after = probe_once()
            setup_probes.append(0.5 * (before + after))
            before = after
        setup_windows.append((start, host.clock()))
        return built

    rec = Recorder(clock=host.clock)
    with rec.install(layer_targets() if trace else end_to_end_targets()):
        cfg, model, problem, design = set_up()

        def done(n_measured, elapsed):
            if iterations is not None:
                return n_measured >= iterations
            return n_measured >= MIN_MEASURED and elapsed >= seconds

        result = RunResult(workload=name, seed=seed, setup_times=setup_times,
                           setup_probes=setup_probes, iter_times=[],
                           probe_times=host.samples)
        with host.sampling():
            if workload.optimization:
                window = _optimize(cfg, outdir, rec, result, done)
            else:
                window = _gradients(cfg, model, problem, design, seed, outdir, rec,
                                    result, done, host.clock)
        set_up()

    ix = SpanIndex(rec.spans, [window])
    n_iter = max(len(result.iter_times), 1)
    result.forward_times = forward_durations(ix)
    result.gradient_times = [s.duration for s in ix.named("sens.total")]
    _check(result, workload, outdir, rec, reference)
    if trace:
        result.layers = layer_metrics(ix, SpanIndex(rec.spans, setup_windows),
                                      n_iter, len(setup_times))
        rec.write(outdir / "spans.jsonl")
    return result


def _optimize(cfg, outdir, rec, result, done):
    """run_optimization until done; one checkpoint marks each iteration end.

    The first iteration is a warm-up: it holds the driver's own model build
    and the cold first solve, so timing starts at its checkpoint.
    """
    from cutflow import driver
    marks = []

    def on_checkpoint(span):
        marks.append(span.end)
        if len(marks) > 1:
            result.iter_times.append(marks[-1] - marks[-2])
        if done(len(marks) - 1, marks[-1] - marks[0]):
            raise _Stop

    rec.hooks["output.checkpoint"] = on_checkpoint
    try:
        driver.run_optimization(cfg, outdir=str(outdir))
    except _Stop:
        pass
    except Exception:
        traceback.print_exc(file=sys.stderr)
        result.failed += 1
        result.attempted += 1
        result.problems.append("exception in run_optimization")
    result.attempted += len(marks)
    result.history_rows = len(marks)
    return (marks[0], marks[-1]) if len(marks) > 1 else (0.0, -1.0)


def _gradients(cfg, model, problem, design, seed, outdir, rec, result, done, clock):
    """Cold solve + total design gradient on each design of the sequence."""
    from cutflow import driver
    from cutflow.output import HistoryWriter
    area = cfg.domain_area()
    # fixed normalization: each design's values stand alone, whatever came before
    problem.normalization = {i: 1.0 for i in range(len(problem.objective))}
    names = [c.name for c in cfg.criteria]
    hist = HistoryWriter(str(outdir / "history.csv"), names, len(cfg.constraints))
    result.grad_norms = []
    start = None
    k = 0
    while True:
        dv = bend96_design(model.mesh, design, seed, k)
        t0 = clock()
        start = t0 if start is None else start
        result.attempted += 1
        try:
            res = model.solve_steady(dv)
            Z, g, dZ, dg, _ = driver.total_design_gradient(model, res, problem, dv,
                                                           area, iteration=k)
            feasible = bool(np.all(g <= cfg.gcmma.tol_feasibility))
            hist.append(k, Z, list(g), res.crit_values, len(res.newton_trace),
                        feasible)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result.failed += 1
            result.problems.append(f"exception on design {k}")
            break
        end = clock()
        result.iter_times.append(end - t0)
        result.grad_norms.append(float(np.linalg.norm(dZ)))
        k += 1
        if done(k, end - start):
            break
    result.history_rows = k
    return (start, end) if result.iter_times else (0.0, -1.0)


def _read_history(path):
    with open(path) as f:
        lines = f.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _check(result, workload, outdir, rec, reference):
    """Output checks; each failed row or call counts as one failed iteration."""
    if not (outdir / "history.csv").is_file():
        result.problems.append("no history.csv written")
        result.failed += 1
        return
    header, rows = _read_history(outdir / "history.csv")
    if len(rows) != result.history_rows:
        result.problems.append(
            f"history.csv has {len(rows)} rows for {result.history_rows} iterations")
        result.failed += 1
    # objective, constraints and criteria: every column but the counters
    values = [[float(v) for v in row[1:-2]] for row in rows]
    bad = sum(not all(math.isfinite(v) for v in row) for row in values)
    if bad:
        result.problems.append(f"{bad} history rows hold non-finite values")
        result.failed += bad
    grads = [s for s in rec.spans if s.name == "sens.total" and s.extra]
    bad = sum(not s.extra["finite"] for s in grads)
    bad += sum(not math.isfinite(v) for v in result.grad_norms or [])
    if bad:
        result.problems.append(f"{bad} gradients hold non-finite values")
        result.failed += bad
    result.rows = values
    if reference and result.seed == DEFAULT_SEED:
        _check_reference(result, workload.name, header, values)


def _check_reference(result, name, header, values):
    ref = json.loads(REFERENCE.read_text())[name]
    if ref["columns"] != header[1:-2]:
        result.problems.append("history columns differ from reference.json")
        result.failed += 1
        return
    got = [row + ([result.grad_norms[i]] if "grad_norms" in ref else [])
           for i, row in enumerate(values)]
    want = [row + ([ref["grad_norms"][i]] if "grad_norms" in ref else [])
            for i, row in enumerate(ref["rows"])]
    n = min(len(got), len(want))
    off = [i for i in range(n)
           if not np.allclose(got[i], want[i], rtol=REF_RTOL, atol=REF_ATOL)]
    if off:
        result.problems.append(
            f"iterations {off} differ from reference.json beyond rtol {REF_RTOL}")
        result.failed += len(off)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def iter_s(result):
    """Mean time per timed iteration, on the reference host: (value, unit, samples)."""
    iters = result.iter_times
    return (_mean(iters) * scale(result.probe_times), "s", len(iters))


def end_to_end(result, peak_rss_mb):
    """End-to-end metrics: name -> (value, unit, samples).

    Times are on the reference host: wall times scaled by the run's probe
    (probe.py).
    """
    k = scale(result.probe_times)
    return {
        "setup_s": (_median([REFERENCE_S * t / p for t, p in
                             zip(result.setup_times, result.setup_probes)]), "s",
                    len(result.setup_times)),
        "iter_s": iter_s(result),
        "analyze_s": (k * _mean(result.forward_times), "s",
                      len(result.forward_times)),
        "gradient_s": (k * _mean(result.gradient_times), "s",
                       len(result.gradient_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def reference_entry(result, header_path):
    """reference.json entry for a default-seed run."""
    header, _ = _read_history(header_path)
    entry = {"seed": result.seed, "columns": header[1:-2], "rows": result.rows}
    if result.grad_norms is not None:
        entry["grad_norms"] = result.grad_norms
    return entry
