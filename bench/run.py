"""cutflow benchmark: time per design iteration, end to end and per layer.

One workload in this process (the form BENCHMARK.json's command takes):

    python3 bench/run.py --workload bend-opt --seed 1 --seconds 30 --trace 0

prints the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
traced run (`--trace 1`); the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Every workload, each in a fresh process, untraced and then traced:

    python3 bench/run.py [--seed 1] [--seconds 30]

Regenerate reference.json (default seed, fixed iteration counts):

    python3 bench/run.py --record-reference

Run from the repository root; the program is imported from ./src.
"""

import os

# Thread caps go into the environment before numpy is imported, so BLAS
# and OpenMP start with one thread in this process and in its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
# iterations per workload in reference.json; runs compare their common prefix
REFERENCE_ITERATIONS = {"bend-opt": 11, "bend96-grad": 4, "pump-bdf2": 9,
                        "mixer-species": 29}


def _import_program():
    """Import cutflow from ./src, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "cutflow" / "__init__.py").is_file():
        sys.exit(f"error: no cutflow sources at {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import cutflow
    if Path(cutflow.__file__).resolve().parent != (src / "cutflow").resolve():
        sys.exit(f"error: imported cutflow from {cutflow.__file__}, not {src}")


def provenance():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args):
    """One workload in this process; the JSON result is the last line."""
    import probe
    import workloads
    outdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           outdir, iterations=args.iterations,
                           reference=args.record_to is None)
    if args.trace:
        metrics = {k: (v, u, None) for k, (v, u) in result.layers.items()}
        metrics["trace.iter_s"] = workloads.iter_s(result)
        metrics["host.probe_s"] = (statistics.fmean(result.probe_times), "s",
                                   len(result.probe_times))
    else:
        metrics = workloads.end_to_end(result, _peak_rss_mb())
    prov = provenance()
    scale = probe.scale(result.probe_times)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(result.iter_times)} measured iterations, "
          f"{result.attempted} attempted, {result.failed} failed")
    print(f"# host scale {scale:.4f}: mean probe "
          f"{statistics.fmean(result.probe_times):.4g} s over "
          f"{len(result.probe_times)} samples, reference {probe.REFERENCE_S} s; "
          + ("trace.iter_s is scaled, layer times are not" if args.trace
             else "times below are wall times x scale"))
    print("# provenance " + json.dumps(prov))
    for name, (value, unit, n) in metrics.items():
        samples = "" if n is None else f"  (n={n})"
        print(f"#   {name:28s} {value:14.6g} {unit}{samples}")
    for problem in result.problems:
        print(f"# CHECK FAILED: {problem}")
    correct = result.failed == 0 and not result.problems
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "iter_times": result.iter_times,
              "setup_times": result.setup_times,
              "setup_probes": result.setup_probes, "probe_times": result.probe_times,
              "scale": scale, "problems": result.problems,
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in metrics.items()}}
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.record_to:
        Path(args.record_to).write_text(json.dumps(
            workloads.reference_entry(result, outdir / "history.csv")))
    print(json.dumps({
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def _child(workload, seed, seconds, trace, extra=()):
    """Run one workload in a fresh process; returns its parsed result line."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_all(args):
    """Every workload untraced, then traced; prints a summary table."""
    import workloads
    ok = True
    summary = []
    for name in workloads.WORKLOADS:
        plain = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        ok &= plain["correct"] and traced["correct"]
        summary.append((name, plain, traced))
    print("\n== summary (seed %d, %ds per run) ==" % (args.seed, args.seconds))
    for name, plain, traced in summary:
        fail_frac = plain["failed"] / plain["attempted"]
        print(f"{name}: correct={plain['correct'] and traced['correct']} "
              f"fail_frac={fail_frac:.3g} ({plain['failed']}/{plain['attempted']})")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:14s} {m['value']:12.6g} {m['unit']}")
        if "iter_s" in plain["metrics"] and "trace.iter_s" in traced["metrics"]:
            base = plain["metrics"]["iter_s"]["value"]
            over = traced["metrics"]["trace.iter_s"]["value"] - base
            print(f"  tracing overhead: {over:+.4g} s per iteration "
                  f"({100.0 * over / base:+.1f}% of iter_s)")
    return 0 if ok else 1


def record_reference(args):
    """Write reference.json from default-seed runs of fixed length."""
    import workloads
    reference = {}
    OUT.mkdir(exist_ok=True)
    for name, n in REFERENCE_ITERATIONS.items():
        path = OUT / f"reference-{name}.json"
        res = _child(name, workloads.DEFAULT_SEED, args.seconds, 0,
                     ("--iterations", str(n), "--record-to", str(path)))
        if not res["correct"]:
            print(f"error: {name} failed its checks", file=sys.stderr)
            return 1
        reference[name] = json.loads(path.read_text())
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="measure exactly this many iterations instead of "
                             "--seconds (tests and reference recording)")
    parser.add_argument("--record-to", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.record_reference:
        return record_reference(args)
    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
