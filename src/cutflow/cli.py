"""Command line interface.

Subcommands: analyze, optimize, gradcheck, sweep. Exit codes: 0 success,
2 configuration error, 3 solver failure (nonconvergence, singular linear
system or enrichment capacity exceeded; diagnostic.txt is written to
--output, or to the configured output directory without it), 4 output/I-O
error (including an unreadable checkpoint).
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import parse_config
from .driver import run_analysis, run_gradcheck, run_optimization, run_sweep
from .errors import (CapacityError, ConfigurationError, NonconvergenceError,
                     OutputError, SolverError)


def _float_list(text):
    """argparse type: comma-separated numbers."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None


def _positive(kind):
    """argparse type: a positive finite number of the given kind."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"not a positive {kind.__name__}: {text!r}")
        return value
    return parse


def _common(sub):
    sub.add_argument("--config", required=True, help="run configuration file")
    sub.add_argument("--output", default=None, help="output directory")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cutflow",
        description="CutFEM topology optimization for laminar flow problems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    a = subs.add_parser("analyze", help="solve one geometry and report criteria")
    _common(a)

    o = subs.add_parser("optimize", help="run the GCMMA optimization loop")
    _common(o)
    o.add_argument("--restart", default=None, help="checkpoint file to resume from")

    g = subs.add_parser("gradcheck", help="adjoint gradients vs finite differences")
    _common(g)
    g.add_argument("--vars", type=_positive(int), default=5,
                   help="number of design variables")
    g.add_argument("--step", type=_positive(float), default=1e-5, help="FD step size")

    s = subs.add_parser("sweep", help="parameter sweep of repeated analyses")
    _common(s)
    s.add_argument("--parameter", required=True,
                   choices=("k_pressure", "alpha_nitsche"))
    s.add_argument("--values", required=True, type=_float_list,
                   help="comma-separated parameter values")

    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "analyze":
            summary = run_analysis(cfg, outdir=args.output)
            for k, v in summary["criteria"].items():
                print(f"{k} = {v!r}")
        elif args.command == "optimize":
            summary = run_optimization(cfg, outdir=args.output, restart=args.restart)
            print(f"iterations = {summary['iterations']}")
            print(f"objective = {summary['objective']!r}")
            print(f"feasible = {summary['feasible']}")
            print(f"converged = {summary['converged']}")
        elif args.command == "gradcheck":
            rows = run_gradcheck(cfg, outdir=args.output, n_vars=args.vars,
                                 step=args.step)
            worst = max(r[3] for r in rows)
            for idx, an, fd, rel in rows:
                print(f"s[{idx}]: adjoint={an!r} fd={fd!r} rel={rel:.3e}")
            print(f"worst rel error = {worst:.3e}")
        elif args.command == "sweep":
            run_sweep(cfg, args.parameter, args.values, outdir=args.output)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NonconvergenceError, SolverError, CapacityError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        outdir = args.output or cfg.output.directory
        try:
            os.makedirs(outdir, exist_ok=True)
            with open(os.path.join(outdir, "diagnostic.txt"), "w") as f:
                f.write(f"{exc}\ntrace = {getattr(exc, 'trace', None)!r}\n"
                        f"step = {getattr(exc, 'step', None)!r}\n")
        except OSError:
            pass
        return 3
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
