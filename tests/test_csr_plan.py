"""Jacobians through each context's cached CSR plan against scipy's
COO -> CSR of the same triplets (the same pattern, the same entries) and
against a plain unique over global keys (the same bytes)."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutflow import flow as flow_mod
from cutflow import forms
from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import build_cut_model
from cutflow.flow import (ALL_TERMS, GALERKIN, GHOST, NITSCHE, STABILIZATION,
                          FlowParams, assemble_flow, flow_indicator_jacobian,
                          flow_time_matrix)
from cutflow.forms import build_context
from cutflow.grid import build_mesh
from cutflow.solve import bdf_slot
from cutflow.transport import ALL_TERMS as SPECIES_TERMS
from cutflow.transport import (IndicatorParams, TransportParams, assemble_indicator,
                               assemble_species, species_flow_jacobian)

from fixtures_common import perturb


def _context(cut):
    """A 12x12 channel with species ports, around a solid disk when cut."""
    mesh = build_mesh(((0, 0), (1, 1)), (12, 12))
    xy = mesh.nodes
    phi = -np.ones(mesh.n_nodes)
    if cut:
        phi = perturb(0.2 - np.hypot(xy[:, 0] - 0.45, xy[:, 1] - 0.5), mesh.h)
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0.2, 0.8),
                       profile="parabola", amplitude=1.0, port=True,
                       species_value=1.0),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
        BoundaryRegion(name="lid", side="top", kind="symmetry"),
    ])
    ctx = build_context(build_cut_model(mesh, phi), regions)
    assert (ctx.ghost is not None) == cut
    assert (ctx.surface_part("interface").nq > 0) == cut
    return ctx


@pytest.fixture(scope="module", params=["cut", "uncut"])
def ctx(request):
    return _context(request.param == "cut")


def _triplets(blocks, n):
    """Global (rows, cols, vals) of Triplets blocks, in the order added."""
    out = []
    for dofs, vals, F, G in blocks:
        rows = np.concatenate([dofs + f * n for f in F], axis=1)
        cols = np.concatenate([dofs + g * n for g in G], axis=1)
        out.append((np.broadcast_to(rows[:, :, None], vals.shape).ravel(),
                    np.broadcast_to(cols[:, None, :], vals.shape).ravel(), vals.ravel()))
    return [np.concatenate(part) for part in zip(*out)]


def _reference(rows, cols, vals, shape):
    """(indptr, indices, data) of triplets by a unique over global keys,
    each entry summed in triplet order by bincount."""
    keys, inverse = np.unique(rows * shape[1] + cols, return_inverse=True)
    row, col = np.divmod(keys, shape[1])
    indptr = np.searchsorted(row, np.arange(shape[0] + 1))
    return indptr.astype(np.int32), col.astype(np.int32), np.bincount(inverse, vals)


@pytest.fixture
def built(monkeypatch):
    """(matrix, scipy's COO -> CSR of the same triplets, the reference's
    arrays) of every matrix."""
    seen = []
    matrix = forms.Triplets.matrix

    def recording(self, ctx, kind, shape):
        M = matrix(self, ctx, kind, shape)
        rows, cols, vals = _triplets(self.blocks, ctx.n)
        seen.append((M, sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr(),
                     _reference(rows, cols, vals, shape)))
        return M

    monkeypatch.setattr(forms.Triplets, "matrix", recording)
    return seen


def _states(ctx, blocks):
    rng = np.random.default_rng(ctx.n)
    return [0.3 * rng.normal(size=blocks * ctx.n) for _ in range(2)]


def _check(ctx, built, kind, assemble, states):
    """The first state's matrix builds the plan, the second's reuses it;
    both match scipy's conversion of their triplets, and the reference's
    arrays byte for byte."""
    ctx.csr_plans.pop(kind, None)
    assemble(states[0])
    plan = ctx.csr_plans[kind]
    assemble(states[1])
    assert ctx.csr_plans[kind] is plan
    assert len(built) == 2
    for M, C, ref in built:
        assert C.nnz > 0
        np.testing.assert_array_equal(M.indptr, C.indptr)
        np.testing.assert_array_equal(M.indices, C.indices)
        assert abs(M - C).max() <= 1e-14 * abs(C).max()
        assert [a.tobytes() for a in (M.indptr, M.indices, M.data)] == \
            [a.tobytes() for a in ref]


@pytest.mark.parametrize("terms", [ALL_TERMS, frozenset((GALERKIN, STABILIZATION)),
                                   frozenset((NITSCHE, GHOST))],
                         ids=["all", "volume", "nitsche-ghost"])
def test_flow_jacobian_plan(ctx, built, terms):
    params = FlowParams(rho=1.0, mu=0.1)
    psibar = np.linspace(0.0, 1.0, ctx.vol_w.shape[0])
    slot = bdf_slot(2, 0.1, [np.zeros(3 * ctx.n)] * 2)
    _check(ctx, built, ("flow", terms), lambda U: assemble_flow(
        ctx, params, U, coeff_state=U, slot=slot, psibar=psibar, terms=terms),
        _states(ctx, 3))


def test_species_jacobian_plan(ctx, built):
    params = TransportParams(diffusivity=0.05, source=0.5)
    U = _states(ctx, 3)[0]
    _check(ctx, built, ("species", SPECIES_TERMS),
           lambda c: assemble_species(ctx, params, c, U), _states(ctx, 1))


def test_species_flow_jacobian_plan(ctx, built):
    params = TransportParams(diffusivity=0.05)
    c = _states(ctx, 1)[0]
    _check(ctx, built, ("species_flow",),
           lambda U: species_flow_jacobian(ctx, params, c, U), _states(ctx, 3))


def test_indicator_jacobian_plan(ctx, built):
    _check(ctx, built, ("indicator",),
           lambda psi: assemble_indicator(ctx, IndicatorParams(), psi),
           _states(ctx, 1))


def test_time_matrix_plan(ctx, built):
    params = FlowParams(rho=1.0, mu=0.1)
    slot = bdf_slot(1, 0.1, [np.zeros(3 * ctx.n)])
    _check(ctx, built, ("time",), lambda U: flow_time_matrix(ctx, params, U, slot),
           _states(ctx, 3))


def test_flow_indicator_jacobian_plan(ctx, built):
    params = FlowParams(rho=1.0, mu=0.1)
    # psi near the projection threshold, so the tanh derivative is not zero
    psi = 0.99 + 0.001 * _states(ctx, 1)[0]
    _check(ctx, built, ("flow_indicator",), lambda U: flow_indicator_jacobian(
        ctx, params, U, psi, IndicatorParams()), _states(ctx, 3))


def test_batched_volume_jacobian_matches_one_batch(ctx, monkeypatch):
    # the Jacobian's volume points go in batches of VOLUME_BATCH; batches
    # that split pieces give the same matrix and a bitwise equal residual
    params = FlowParams(rho=1.0, mu=0.1)
    psibar = np.linspace(0.0, 1.0, ctx.vol_w.shape[0])
    U = _states(ctx, 3)[0]

    def assemble():
        return assemble_flow(ctx, params, U, coeff_state=U, psibar=psibar)

    R, J = assemble()
    monkeypatch.setattr(flow_mod, "VOLUME_BATCH", 7)
    R7, J7 = assemble()
    assert R7.tobytes() == R.tobytes()
    np.testing.assert_array_equal(J7.indices, J.indices)
    assert abs(J7 - J).max() <= 1e-14 * abs(J).max()


@pytest.fixture
def added(monkeypatch):
    """The scalar dofs of every batch of blocks the assemblers add to a
    Triplets."""
    seen = []
    add = forms.Triplets.add

    def recording(self, dofs, vals, rows, cols):
        seen.append(dofs)
        add(self, dofs, vals, rows, cols)

    monkeypatch.setattr(forms.Triplets, "add", recording)
    return seen


def _assemble(kind, ctx):
    params = FlowParams(rho=1.0, mu=0.1)
    U = _states(ctx, 3)[0]
    c = _states(ctx, 1)[0]
    psibar = np.linspace(0.0, 1.0, ctx.vol_w.shape[0])
    bdf2 = bdf_slot(2, 0.1, [np.zeros(3 * ctx.n)] * 2)
    species = TransportParams(diffusivity=0.05, source=0.5)
    return {
        "flow-steady": lambda: assemble_flow(ctx, params, U, coeff_state=U, psibar=psibar),
        "flow-bdf2": lambda: assemble_flow(ctx, params, U, coeff_state=U, slot=bdf2,
                                           psibar=psibar),
        "time": lambda: flow_time_matrix(ctx, params, U, bdf2),
        "flow-indicator": lambda: flow_indicator_jacobian(ctx, params, U, 0.99 + 0.001 * c,
                                                          IndicatorParams()),
        "species": lambda: assemble_species(ctx, species, c, U),
        "species-flow": lambda: species_flow_jacobian(ctx, species, c, U),
        "indicator": lambda: assemble_indicator(ctx, IndicatorParams(), c),
    }[kind]()


@pytest.mark.parametrize("kind", ["flow-steady", "flow-bdf2", "time", "flow-indicator",
                                  "species", "species-flow", "indicator"])
def test_blocks_come_summed_per_piece(ctx, added, kind):
    # the collector sums nothing itself: no two consecutive blocks of one add
    # have equal dofs
    _assemble(kind, ctx)
    assert added
    for dofs in added:
        assert dofs.shape[0] > 0
        assert not (dofs[1:] == dofs[:-1]).all(1).any()
