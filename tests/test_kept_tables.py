"""A point table builds its test table and run plan once, and a context its
state-free terms, so every later assembly on the context does only the
state-dependent arithmetic. Reusing them gives the bytes a fresh context
gives, whichever assembler built them, in one batch or many, and after the
context has released them."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutflow import flow as flow_mod
from cutflow import forms, solve
from cutflow.flow import assemble_flow, flow_indicator_jacobian, flow_time_matrix
from cutflow.forms import field_at
from cutflow.solve import bdf_slot, newton_solve
from cutflow.transport import (IndicatorParams, TransportParams, assemble_indicator,
                               assemble_species, species_flow_jacobian)

from fixtures_common import bend_model


@pytest.fixture(scope="module", params=["bend", "mixer"])
def model(request, tmp_path_factory):
    if request.param == "bend":
        model, _, design = bend_model()
        return model, design
    from cutflow.config import parse_config
    from cutflow.driver import build_model
    from test_fixtures import MIXER_CFG
    path = tmp_path_factory.mktemp("mixer") / "mix.cfg"
    path.write_text(MIXER_CFG)
    cfg = parse_config(str(path))
    model, _ = build_model(cfg)
    return model, cfg.initial_design(model.mesh)


def _assemblers(model, ctx):
    """Each assembler on ctx at fixed pseudo-random states."""
    n = ctx.n
    rng = np.random.default_rng(n)
    U, Uc, hist = (0.3 * rng.normal(size=3 * n) for _ in range(3))
    c = rng.normal(size=n)
    params = model.physics.flow
    psibar = np.linspace(0.0, 1.0, ctx.volume.nq)
    slot = bdf_slot(2, 0.1, [hist, hist])
    slot.t = 0.37  # time-dependent boundary data
    species = TransportParams(diffusivity=0.05, source=0.5)
    return {
        "flow": lambda: assemble_flow(ctx, params, U, coeff_state=Uc, slot=slot,
                                      psibar=psibar),
        "flow-steady": lambda: assemble_flow(ctx, params, U, coeff_state=Uc, psibar=psibar),
        "flow-residual": lambda: assemble_flow(ctx, params, U, coeff_state=Uc, slot=slot,
                                               psibar=psibar, want_matrix=False),
        "time": lambda: flow_time_matrix(ctx, params, U, slot),
        "flow-indicator": lambda: flow_indicator_jacobian(ctx, params, U, 0.99 + 0.001 * c,
                                                          IndicatorParams()),
        "indicator": lambda: assemble_indicator(ctx, IndicatorParams(), c),
        "indicator-residual": lambda: assemble_indicator(ctx, IndicatorParams(), c,
                                                         want_matrix=False),
        "species": lambda: assemble_species(ctx, species, c, U),
        "species-residual": lambda: assemble_species(ctx, species, c, U, want_matrix=False),
        "species-flow": lambda: species_flow_jacobian(ctx, species, c, U),
    }


def _bytes(out):
    parts = out if isinstance(out, tuple) else (out,)
    return [b for a in parts if a is not None
            for b in ((a.indptr, a.indices, a.data) if sp.issparse(a) else (a,))
            for b in (b.tobytes(),)]


KINDS = ["flow", "flow-steady", "flow-residual", "time", "flow-indicator", "indicator",
         "indicator-residual", "species", "species-residual", "species-flow"]


@pytest.mark.parametrize("batch", [None, 64], ids=["one-batch", "batches-of-64"])
@pytest.mark.parametrize("kind", KINDS)
def test_kept_tables_give_a_fresh_contexts_bytes(model, kind, batch, monkeypatch):
    model, design = model
    if batch is not None:
        monkeypatch.setattr(flow_mod, "VOLUME_BATCH", batch)
    fresh = _bytes(_assemblers(model, model.geometry(design)[1])[kind]())
    _, ctx = model.geometry(design)
    assemblers = _assemblers(model, ctx)
    first = _bytes(assemblers[kind]())
    for other in KINDS:  # every table and term built, by whichever assembler
        assemblers[other]()
    again = _bytes(assemblers[kind]())
    ctx.release()
    released = _bytes(assemblers[kind]())
    assert first == again == released == fresh
    if batch is not None and kind in ("flow", "time"):
        assert ctx.volume.nq > 2 * batch  # the volume goes in several batches


def test_a_second_assembly_builds_no_table(model, monkeypatch):
    # once a context has assembled, a second indicator and flow assembly
    # plans no runs and keeps every table and term it kept, the same objects
    model, design = model
    _, ctx = model.geometry(design)
    assemblers = _assemblers(model, ctx)
    owners = (ctx, ctx.volume, ctx.surface, ctx.ghost, *ctx.conditions.values())
    kinds = ("indicator", "flow", "flow-residual")
    for kind in kinds:
        assemblers[kind]()
    kept = [dict(t.__dict__.get("_memo", {})) for t in owners]
    assert "tests" in kept[1] and "plan" in kept[1]
    assert ("nitsche", model.physics.flow.mu) in kept[0]
    assert not (ctx.volume.tests.flags.writeable or kept[0]["projector"].flags.writeable)
    planned = []
    run_starts = forms._run_starts
    monkeypatch.setattr(forms, "_run_starts",
                        lambda run: planned.append(run) or run_starts(run))
    for kind in kinds:
        assemblers[kind]()
    assert not planned
    for before, t in zip(kept, owners):
        after = t.__dict__.get("_memo", {})
        assert after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
    ctx.release()
    assert all("_memo" not in t.__dict__ for t in owners)


@pytest.mark.parametrize("fields", [(), (1,), (3,)], ids=["one-field", "F=1", "F=3"])
def test_field_at_adds_each_points_products_as_a_per_basis_sum_does(fields):
    # the one-pass evaluation (test tables with the bases first, one sum
    # over them) gives each value the bytes of (B * u[dofs]).sum(1)
    rng = np.random.default_rng(len(fields) and fields[0])
    for _ in range(100):
        n, nq = rng.integers(1, 40), rng.integers(1, 60)
        u = rng.normal(size=fields + (n,)) * 10.0 ** rng.integers(-8, 8, size=fields + (n,))
        dofs = rng.integers(0, n, size=(nq, 4))
        bases = rng.normal(size=(3, nq, 4))
        tests = np.ascontiguousarray(bases.transpose(0, 2, 1))
        row = rng.normal(size=4)
        got = field_at(u, dofs, tests)
        got_row = field_at(u, dofs, row[None, :, None])
        for f in np.ndindex(fields):
            ue = u[f][dofs]
            for k in range(3):
                assert got[f + (k,)].tobytes() == (bases[k] * ue).sum(1).tobytes()
            assert got_row[f + (0,)].tobytes() == (row * ue).sum(1).tobytes()


def test_newton_takes_abs_of_each_jacobian_once(monkeypatch):
    # the rounding floor and the refinement on a kept factor read one |J|
    rng = np.random.default_rng(4)
    m = 30
    A = sp.random(m, m, density=0.2, random_state=4) + sp.identity(m) * 4.0
    b = rng.normal(size=m)

    def assemble(x):
        return A @ x + 0.2 * x**3 - b, sp.csr_matrix(A + sp.diags(0.6 * x**2))

    calls = []
    absolute = sp.csr_matrix.__abs__
    monkeypatch.setattr(sp.csr_matrix, "__abs__",
                        lambda self: calls.append(1) or absolute(self))
    refined = []
    refine = solve.refined_solve
    monkeypatch.setattr(solve, "refined_solve",
                        lambda *a, **k: refined.append(1) or refine(*a, **k))
    x, trace, _, _ = newton_solve(assemble, np.zeros(m), tol=1e-12)
    assert len(trace) > 2 and refined
    assert len(calls) == len(trace)
    np.testing.assert_allclose(A @ x + 0.2 * x**3, b, atol=1e-10)
