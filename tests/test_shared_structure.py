"""A context that ForwardModel.geometry builds takes over the parts of the
last context's structure whose key bytes are equal: the sparsity with its
CSR layouts, the run plans of its tables and takes, and the ghost block.
Every assembly on such a context gives the bytes of a freshly built one,
whether it took over everything, some parts or nothing, and the model
keeps no context, factor or result of an earlier forward."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cutflow import flow as flow_mod
from cutflow import forms
from cutflow.cut import build_cut_model
from cutflow.forms import build_context

from fixtures_common import LiveFactors, bend_model
from test_kept_tables import KINDS, _assemblers, _bytes, model  # noqa: F401


def _tables(ctx):
    return (ctx.volume, ctx.surface, ctx.ghost, *ctx.conditions.values())


def _shares(ctx, last):
    """Per part that last made, whether ctx took it over."""
    return {"sparsity": ctx.sparsity is last.sparsity,
            "ghost": ctx.ghost.gvec is last.ghost.gvec,
            **{t.name + str(i): t.plan is u.__dict__["_memo"]["plan"]
               for i, (t, u) in enumerate(zip(_tables(ctx), _tables(last)))
               if "plan" in u.__dict__.get("_memo", {})}}


@pytest.mark.parametrize("batch", [None, 64], ids=["one-batch", "batches-of-64"])
def test_shared_structure_gives_a_fresh_contexts_bytes(model, batch, monkeypatch):
    # a sequence of level sets: the same one again, the same topology at
    # other values (the volume points move), a new topology, and back
    model, design = model
    if batch is not None:
        monkeypatch.setattr(flow_mod, "VOLUME_BATCH", batch)
    shift = 0.1 * float(np.max(design.upper))
    sequence = [(design.values, None), (design.values, True),
                (0.999 * design.values, True), (design.values + shift, False),
                (0.999 * design.values, False), (design.values, True)]
    last = None
    for values, shared in sequence:
        cm, ctx = model.geometry(replace(design, values=values))
        assemblers = _assemblers(model, ctx)
        fresh = _assemblers(model, build_context(cm, model.regions))
        for kind in KINDS:
            assert _bytes(assemblers[kind]()) == _bytes(fresh[kind]()), kind
        if shared is not None:
            assert set(_shares(ctx, last).values()) == {shared}
        last = ctx


def test_flipping_one_nodes_sign_shares_nothing(model):
    model, design = model
    cm, ctx = model.geometry(design)
    for kind in KINDS:
        _assemblers(model, ctx)[kind]()
    # the fluid node nearest the interface turns solid
    phi = cm.phi.copy()
    node = np.argmin(np.where(phi > 0, phi, np.inf))
    phi[node] = -phi[node]
    flipped = build_cut_model(model.mesh, phi)
    after = build_context(flipped, model.regions, ctx.structure)
    assert not any(_shares(after, ctx).values())
    fresh = _assemblers(model, build_context(flipped, model.regions))
    assemblers = _assemblers(model, after)
    for kind in KINDS:
        assert _bytes(assemblers[kind]()) == _bytes(fresh[kind]()), kind


def test_release_keeps_what_another_context_shares(model):
    model, design = model
    _, first = model.geometry(design)
    _assemblers(model, first)["flow"]()
    _, second = model.geometry(design)
    shares = _shares(second, first)
    assert shares["sparsity"] and shares["volume0"]
    plan = first.volume.plan
    first.release()
    assert second.volume.plan is plan
    assert second.sparsity.layouts and second.sparsity is first.sparsity
    # the released context plans again; the next one still takes the sparsity
    assert first.volume.plan is not plan
    _, third = model.geometry(design)
    assert third.sparsity is second.sparsity


def test_a_short_optimization_counts_fewer_sparsities_than_forwards(tmp_path,
                                                                    monkeypatch):
    from cutflow import pipeline
    from cutflow.config import parse_config
    from cutflow.driver import run_optimization
    from test_driver import OPT_CFG, _write
    calls = {"count": 0, "forward": 0}
    count, geometry = forms.Sparsity.count.__func__, pipeline.ForwardModel.geometry

    def counting(cls, *args):
        calls["count"] += 1
        return count(cls, *args)

    def forward(self, design):
        calls["forward"] += 1
        return geometry(self, design)

    monkeypatch.setattr(forms.Sparsity, "count", classmethod(counting))
    monkeypatch.setattr(pipeline.ForwardModel, "geometry", forward)
    run_optimization(parse_config(_write(tmp_path, OPT_CFG)), outdir=str(tmp_path / "o"))
    assert 0 < calls["count"] < calls["forward"]


def test_the_model_keeps_no_earlier_context_factor_or_result(monkeypatch):
    # forwards on a repeated and then a new topology: once the caller drops
    # the results, nothing of them but the structure stays with the model
    factors = LiveFactors(monkeypatch)
    model, _, design = bend_model()
    gone = []
    for values in (design.values, 0.999 * design.values, design.values + 0.003):
        result = model.solve_steady(replace(design, values=values))
        gone += [weakref.ref(result), weakref.ref(result.ctx), weakref.ref(result.cm),
                 weakref.ref(result.ctx.volume), weakref.ref(result.ctx.ghost)]
        result = None
        gc.collect()
        assert factors.live == 0
        assert all(ref() is None for ref in gone)
    assert factors.calls >= 6
    structure = model._structure
    assert structure.parts and not any(
        isinstance(v, (forms.IntegrationContext, forms.PointTable))
        for _, v in structure.parts.values())
