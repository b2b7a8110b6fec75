"""Span recorder that times cutflow's layers from outside the program.

`Recorder.install` replaces module and class attributes with timing
wrappers, at the names the callers look up at call time, and
`Recorder.uninstall` puts every original back. A span holds its name,
start, end, parent span id, an error flag and a few extras read from the
call's arguments or result. Spans stay in memory until the run ends.

Calls made while a `sens.geometry` span is open (the local re-cut finite
differences) are recorded under the target's `local` name, so global
assembly and per-element assembly land in different metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

LOCAL_SCOPE = "sens.geometry"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int
    end: float = 0.0
    error: bool = False
    extra: dict = None

    @property
    def duration(self):
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `owner` is a module or `module:Class` path."""

    owner: str
    attr: str
    name: str
    local: str = None  # span name inside a LOCAL_SCOPE span
    probe: object = None  # probe(args, kwargs, result) -> dict of extras
    callbacks: tuple = ()  # (keyword, span name): callables passed in to wrap
    lu_proxy: bool = False  # wrap the returned SuperLU so .solve is timed


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """Collects spans from the wrappers it installs."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the run's clock; probe time is taken out of it
        self.spans = []
        self.hooks = {}  # span name -> hook(span), run after the span closes
        self._stack = []
        self._local_depth = 0
        self._patches = []

    # -- installation ---------------------------------------------------------
    def install(self, targets):
        for t in targets:
            owner = _resolve(t.owner)
            original = vars(owner)[t.attr] if isinstance(owner, type) else \
                getattr(owner, t.attr)
            self._patches.append((owner, t.attr, original))
            setattr(owner, t.attr, self._wrap(original, t))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------------
    def _open(self, name):
        span = Span(id=len(self.spans), name=name, start=0.0,
                    parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(span.id)
        if name == LOCAL_SCOPE:
            self._local_depth += 1
        span.start = self.clock()
        return span

    def _close(self, span):
        span.end = self.clock()
        self._stack.pop()
        if span.name == LOCAL_SCOPE:
            self._local_depth -= 1

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def _wrap(self, fn, target):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.local if target.local and rec._local_depth else target.name
            for key, cb_name in target.callbacks:
                if kwargs.get(key) is not None:
                    kwargs[key] = functools.partial(rec.call, cb_name, kwargs[key])
            span = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = True
                trace = getattr(exc, "trace", None)
                if trace is not None:
                    span.extra = {"iters": max(len(trace) - 1, 0)}
                raise
            finally:
                rec._close(span)
            if target.probe is not None:
                span.extra = target.probe(args, kwargs, result)
            if target.lu_proxy:
                result = _LUProxy(result, rec)
            hook = rec.hooks.get(name)
            if hook is not None:
                hook(span)
            return result

        return wrapper

    # -- output ---------------------------------------------------------------
    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.name, s.start, s.end, s.parent,
                                    s.error, s.extra]) + "\n")


class _LUProxy:
    """Stands in for a SuperLU factorization; times each triangular solve."""

    def __init__(self, lu, recorder):
        self._lu = lu
        self._rec = recorder

    def solve(self, *args, **kwargs):
        return self._rec.call("solve.trisolve", self._lu.solve, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


# -- probes: extras read from a call's arguments and result ---------------------

def _cut_probe(args, kwargs, cm):
    from cutflow.cut import CUT
    return {"cut": int(np.count_nonzero(cm.classification == CUT)),
            "dofs": int(cm.n_dofs)}


def _assemble_probe(args, kwargs, result):
    J = result[1]
    return {"nnz": int(J.nnz)} if J is not None else None


def _newton_probe(args, kwargs, result):
    return {"iters": len(result[1]) - 1}


def _march_probe(args, kwargs, result):
    return {"steps": len(result[0]) - 1}


def _lu_probe(args, kwargs, lu):
    return {"fill": lu.nnz / max(args[0].nnz, 1)}


def _gradient_probe(args, kwargs, result):
    _, g, dZ, dg, report = result
    finite = bool(np.all(np.isfinite(dZ)) and np.all(np.isfinite(dg))
                  and np.all(np.isfinite(g)))
    return {"flagged": len(report.flagged_nodes), "finite": finite}


def _geometry_probe(args, kwargs, grad):
    from cutflow.cut import CUT
    return {"cut": int(np.count_nonzero(args[1].cm.classification == CUT))}


class _RepeatProbe:
    """Flags a geometry build whose design bytes equal the previous one's."""

    def __init__(self):
        self.last = None

    def __call__(self, args, kwargs, result):
        key = args[1].values.tobytes()
        repeat = key == self.last
        self.last = key
        return {"repeat": repeat}


def _checkpoint_probe(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


class _HistoryProbe:
    """Bytes each history append adds to its file."""

    def __init__(self):
        self.sizes = {}

    def __call__(self, args, kwargs, result):
        path = args[0].path
        if path not in self.sizes:  # the file holds the header and one row
            with open(path, "rb") as f:
                self.sizes[path] = len(f.readline())
        size = os.path.getsize(path)
        grown = size - self.sizes[path]
        self.sizes[path] = size
        return {"bytes": grown}


def end_to_end_targets():
    """The few wrappers the untraced run needs: forward, gradient, checkpoint.

    They fire a handful of times per design iteration, so their cost is
    negligible next to one forward solve.
    """
    return [
        Target("cutflow.pipeline:ForwardModel", "solve_steady", "pipeline.forward"),
        Target("cutflow.pipeline:ForwardModel", "solve_transient", "pipeline.forward"),
        Target("cutflow.pipeline:ForwardModel", "geometry", "pipeline.geometry",
               probe=_RepeatProbe()),
        Target("cutflow.driver", "_steady_on_geometry", "pipeline.forward"),
        Target("cutflow.driver", "transfer_flow_state", "driver.transfer"),
        Target("cutflow.driver", "total_design_gradient", "sens.total",
               probe=_gradient_probe),
        Target("cutflow.driver", "transient_total_gradient", "sens.total",
               probe=_gradient_probe),
        Target("cutflow.driver", "write_checkpoint", "output.checkpoint",
               probe=_checkpoint_probe),
    ]


def layer_targets():
    """Every per-layer wrapper, at the name each caller looks up."""
    return end_to_end_targets() + [
        Target("cutflow.config", "parse_config", "config.parse"),
        Target("cutflow.config", "build_mesh", "grid.build"),
        Target("cutflow.config", "build_filter", "design.filter"),
        Target("cutflow.design:LevelSetMap", "build", "design.levelset"),
        Target("cutflow.design:LevelSetMap", "jacobian", "design.jacobian"),
        Target("cutflow.pipeline", "build_cut_model", "cut.build", probe=_cut_probe),
        Target("cutflow.pipeline", "build_context", "forms.context"),
        Target("cutflow.sensitivities", "element_context", "forms.local_context"),
        Target("cutflow.flow", "assemble_flow", "flow.assemble",
               local="flow.local_assemble", probe=_assemble_probe),
        Target("cutflow.flow", "flow_time_matrix", "flow.time_matrix"),
        Target("cutflow.transport", "solve_indicator", "transport.indicator"),
        Target("cutflow.transport", "assemble_species", "transport.species",
               local="transport.local_species"),
        Target("cutflow.solve", "newton_solve", "solve.newton", probe=_newton_probe),
        Target("cutflow.pipeline", "newton_solve", "solve.newton", probe=_newton_probe),
        # the driver imports steady_solve from cutflow.solve at call time
        Target("cutflow.solve", "steady_solve", "solve.steady"),
        Target("cutflow.pipeline", "steady_solve", "solve.steady"),
        Target("cutflow.pipeline", "march", "solve.march", probe=_march_probe),
        Target("scipy.sparse.linalg", "splu", "solve.lu", probe=_lu_probe,
               lu_proxy=True),
        Target("cutflow.pipeline", "evaluate_criterion", "criteria.eval"),
        Target("cutflow.sensitivities", "evaluate_criterion", "criteria.eval",
               local="criteria.local_eval"),
        Target("cutflow.sensitivities", "geometry_gradient", LOCAL_SCOPE,
               probe=_geometry_probe),
        Target("cutflow.sensitivities", "_transient_geometry_gradient", LOCAL_SCOPE,
               probe=_geometry_probe),
        Target("cutflow.gcmma:GCMMA", "step", "gcmma.step",
               callbacks=(("evaluate", "gcmma.evaluate"),)),
        Target("cutflow.output:HistoryWriter", "append", "output.history",
               probe=_HistoryProbe()),
    ]


# -- metrics --------------------------------------------------------------------

class SpanIndex:
    """Spans grouped by name and by parent, for self times and ratios."""

    def __init__(self, spans, windows):
        self.all = spans
        self.spans = [s for s in spans
                      if any(lo <= s.start and s.end <= hi for lo, hi in windows)]
        self.by_name = {}
        for s in self.spans:
            self.by_name.setdefault(s.name, []).append(s)
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def named(self, name):
        return self.by_name.get(name, [])

    def total(self, name):
        return sum(s.duration for s in self.named(name))

    def count(self, name):
        return len(self.named(name))

    def self_time(self, name):
        return sum(s.duration - sum(c.duration for c in self.children.get(s.id, ()))
                   for s in self.named(name))

    def extra_sum(self, name, key):
        return sum((s.extra or {}).get(key, 0) for s in self.named(name))


FORWARD = ("pipeline.forward", "pipeline.geometry", "driver.transfer")


def forward_durations(ix):
    """Wall time of each forward analysis (design -> criteria).

    A warm-started optimizer forward runs as three top-level pieces:
    geometry, state transfer, and a solve on that geometry. A cold one is
    `solve_steady` or `solve_transient`, which build their geometry inside.
    Each forward builds exactly one geometry, so a top-level piece that is
    or holds a geometry build starts the next forward.
    """
    top = sorted((s for name in FORWARD for s in ix.named(name)
                  if s.parent < 0 or ix.all[s.parent].name not in FORWARD),
                 key=lambda s: s.start)
    durations = []
    for s in top:
        starts = s.name == "pipeline.geometry" or any(
            c.name == "pipeline.geometry" for c in ix.children.get(s.id, ()))
        if starts or not durations:
            durations.append(0.0)
        durations[-1] += s.duration
    return durations


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(ix, setup_ix, n_iter, n_setup):
    """Per-layer metrics: name -> (value, unit).

    Times and counts are per measured design iteration, except the set-up
    layers (per set-up) and the means and ratios, which are per call.
    """
    m = {}

    def time_per_iter(metric, span_name):
        m[metric] = (ix.total(span_name) / n_iter, "s")

    def count_per_iter(metric, value):
        m[metric] = (value / n_iter, "count")

    for layer in ("config.parse", "grid.build", "design.filter"):
        m[layer + "_s"] = (setup_ix.total(layer) / n_setup, "s")

    time_per_iter("design.levelset_s", "design.levelset")
    time_per_iter("design.jacobian_s", "design.jacobian")

    cuts = ix.named("cut.build")
    time_per_iter("cut.build_s", "cut.build")
    count_per_iter("cut.calls", len(cuts))
    m["cut.cut_elems"] = (_mean(s.extra["cut"] for s in cuts), "count")
    m["cut.dofs"] = (_mean(s.extra["dofs"] for s in cuts), "count")

    time_per_iter("forms.context_s", "forms.context")
    time_per_iter("forms.local_context_s", "forms.local_context")
    count_per_iter("forms.local_context_fail",
                   sum(s.error for s in ix.named("forms.local_context")))

    time_per_iter("flow.assemble_s", "flow.assemble")
    count_per_iter("flow.assemble_calls", ix.count("flow.assemble"))
    m["flow.jac_nnz"] = (_mean(s.extra["nnz"] for s in ix.named("flow.assemble")
                               if s.extra), "count")
    time_per_iter("flow.local_assemble_s", "flow.local_assemble")
    count_per_iter("flow.local_assemble_calls", ix.count("flow.local_assemble"))
    time_per_iter("flow.time_matrix_s", "flow.time_matrix")

    time_per_iter("transport.indicator_s", "transport.indicator")
    time_per_iter("transport.species_s", "transport.species")
    time_per_iter("transport.local_species_s", "transport.local_species")

    m["solve.newton_self_s"] = (ix.self_time("solve.newton") / n_iter, "s")
    count_per_iter("solve.newton_iters", ix.extra_sum("solve.newton", "iters"))
    fallbacks = 0
    for s in ix.named("solve.steady"):
        newton = [c for c in ix.children.get(s.id, ()) if c.name == "solve.newton"]
        fallbacks += bool(newton) and newton[0].error
    count_per_iter("solve.fallbacks", fallbacks)
    time_per_iter("solve.lu_s", "solve.lu")
    count_per_iter("solve.lu_calls", ix.count("solve.lu"))
    m["solve.lu_fill"] = (_mean(s.extra["fill"] for s in ix.named("solve.lu")
                                if s.extra), "ratio")
    time_per_iter("solve.trisolve_s", "solve.trisolve")
    time_per_iter("solve.march_s", "solve.march")
    count_per_iter("solve.steps", ix.extra_sum("solve.march", "steps"))

    time_per_iter("criteria.eval_s", "criteria.eval")
    count_per_iter("criteria.calls", ix.count("criteria.eval"))

    totals = ix.named("sens.total")
    time_per_iter("sens.total_s", "sens.total")
    adjoint = sum(s.duration - sum(c.duration for c in ix.children.get(s.id, ())
                                   if c.name in (LOCAL_SCOPE, "design.jacobian"))
                  for s in totals)
    m["sens.adjoint_s"] = (adjoint / n_iter, "s")
    time_per_iter("sens.geometry_s", LOCAL_SCOPE)
    m["sens.geometry_self_s"] = (ix.self_time(LOCAL_SCOPE) / n_iter, "s")
    local_evals = ix.count("forms.local_context")
    count_per_iter("sens.local_evals", local_evals)
    cut_corners = 8 * ix.extra_sum(LOCAL_SCOPE, "cut")
    m["sens.local_evals_per_cut"] = (local_evals / cut_corners if cut_corners else 0.0,
                                     "ratio")
    count_per_iter("sens.flagged_nodes", sum(s.extra["flagged"] for s in totals
                                             if s.extra))

    m["gcmma.step_self_s"] = (ix.self_time("gcmma.step") / n_iter, "s")
    count_per_iter("gcmma.inner_evals", ix.count("gcmma.evaluate"))

    geometries = ix.named("pipeline.geometry")
    m["pipeline.forward_s"] = (sum(forward_durations(ix)) / n_iter, "s")
    count_per_iter("pipeline.forward_calls", len(geometries))
    m["pipeline.repeat_frac"] = (_mean(s.extra["repeat"] for s in geometries), "ratio")
    time_per_iter("driver.transfer_s", "driver.transfer")

    outputs = ("output.checkpoint", "output.history")
    m["output.write_s"] = (sum(ix.total(n) for n in outputs) / n_iter, "s")
    m["output.bytes"] = (sum(ix.extra_sum(n, "bytes") for n in outputs) / n_iter, "B")
    count_per_iter("trace.spans", len(ix.spans))
    return m
