"""Jacobians and residuals on a context's one sparsity build.

Every matrix of every kind matches scipy's COO -> CSR of the same triplets
(the same pattern, the same entries), a plain unique over global keys and
the sort-based planner that built them before (the same bytes), on contexts
with cut and uncut elements, a sliver, a node at two enrichment levels and
a stack of re-cut elements. No sort runs during assembly once the context
exists. Every residual and criterion partial equals np.add.at of its terms
in order, byte for byte."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutflow import flow as flow_mod
from cutflow import forms
from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.criteria import CriterionSpec, evaluate_criterion
from cutflow.cut import CUT, FLUID, SLIVER_REL_AREA, build_cut_model
from cutflow.flow import (ALL_TERMS, GALERKIN, GHOST, NITSCHE, STABILIZATION,
                          FlowParams, assemble_flow, flow_indicator_jacobian,
                          flow_time_matrix)
from cutflow.forms import build_context, element_context
from cutflow.grid import build_mesh
from cutflow.solve import bdf_slot
from cutflow.transport import ALL_TERMS as SPECIES_TERMS
from cutflow.transport import (IndicatorParams, TransportParams, assemble_indicator,
                               assemble_species, species_flow_jacobian)

from csr_reference import sorted_reference, triplets, unique_reference
from fixtures_common import perturb

CONTEXTS = ["cut", "uncut", "sliver", "levels", "element"]
SORTS = ("sort", "argsort", "unique", "lexsort", "partition", "argpartition")


def _regions(mesh):
    return wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0.2, 0.8),
                       profile="parabola", amplitude=1.0, port=True,
                       species_value=1.0),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
        BoundaryRegion(name="lid", side="top", kind="symmetry"),
    ])


def _context(kind):
    """A 12x12 channel with species ports: around a solid disk ('cut'), empty
    ('uncut'), with a fluid puddle of four slivers inside the disk
    ('sliver'), with a thin solid wall along a node row ('levels'), or the
    disk's cut elements re-cut at perturbed corner values ('element')."""
    mesh = build_mesh(((0, 0), (1, 1)), (12, 12))
    xy, h = mesh.nodes, mesh.h
    disk = perturb(0.2 - np.hypot(xy[:, 0] - 0.45, xy[:, 1] - 0.5), h)
    phi = {"uncut": -np.ones(mesh.n_nodes), "cut": disk, "element": disk,
           "sliver": np.where(np.hypot(xy[:, 0] - 0.5, xy[:, 1] - 0.5) < 0.5 * h, -1e-7, disk),
           "levels": np.where(xy[:, 0] > 0.7, -1.0, perturb(0.3 * h - np.abs(xy[:, 1] - 0.5), h)),
           }[kind]
    cm = build_cut_model(mesh, phi)
    if kind == "element":
        elems = np.flatnonzero(cm.classification == CUT)
        wiggle = 1.0 + 0.01 * np.random.default_rng(5).random((elems.shape[0], 4))
        ctx, invalid = element_context(cm, elems, cm.phi[mesh.elements[elems]] * wiggle,
                                       _regions(mesh))
        assert not invalid.any() and ctx.owner is not None
        return ctx
    ctx = build_context(cm, _regions(mesh))
    assert (ctx.ghost.nq > 0) == (kind != "uncut")
    s = ctx.sparsity
    if kind == "sliver":
        # fluid pieces too small for quadrature keep their chords, whose
        # pairs are in no volume run
        sliver = (cm.piece_phase == FLUID) & (cm.piece_area < SLIVER_REL_AREA * h * h)
        assert sliver.sum() == 4
        assert not s.volume[s.runs["surface"].pairs].all()
    if kind == "levels":
        assert cm.dof_level.max() == 1
    return ctx


@pytest.fixture(scope="module", params=CONTEXTS)
def ctx(request):
    return _context(request.param)


class NoSort:
    """While entered, every numpy sort raises (patched by the no_sort
    fixture)."""

    def __init__(self):
        self.on = False

    def __enter__(self):
        self.on = True

    def __exit__(self, *exc):
        self.on = False


@pytest.fixture
def no_sort(monkeypatch):
    guard = NoSort()
    for name in SORTS:
        def guarded(*args, _sort=getattr(np, name), _name=name, **kwargs):
            assert not guard.on, f"np.{_name} ran during assembly"
            return _sort(*args, **kwargs)
        monkeypatch.setattr(np, name, guarded)
    return guard


@pytest.fixture
def built(monkeypatch, no_sort):
    """(matrix, scipy's COO -> CSR of the same triplets, the unique
    reference's arrays, the sorted planner's arrays) of every matrix."""
    seen = []
    matrix = forms.Triplets.matrix

    def recording(self, ctx, shape):
        M = matrix(self, ctx, shape)
        on, no_sort.on = no_sort.on, False
        rows, cols, vals = triplets(ctx, self.blocks)
        seen.append((M, sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr(),
                     unique_reference(rows, cols, vals, shape),
                     sorted_reference(ctx, self.blocks, shape)))
        no_sort.on = on
        return M

    monkeypatch.setattr(forms.Triplets, "matrix", recording)
    return seen


def _states(ctx, blocks):
    rng = np.random.default_rng(ctx.n)
    return [0.3 * rng.normal(size=blocks * ctx.n) for _ in range(2)]


def _check(ctx, built, no_sort, assemble, states):
    """Both states' matrices are assembled without a sort, the second on the
    layout the first derived; both match scipy's conversion of their
    triplets, and both references' arrays byte for byte."""
    with no_sort:
        assemble(states[0])
        layouts = len(ctx.sparsity.layouts)
        assemble(states[1])
    assert len(ctx.sparsity.layouts) == layouts
    assert len(built) == 2
    for M, C, unique, planned in built:
        assert C.nnz > 0
        np.testing.assert_array_equal(M.indptr, C.indptr)
        np.testing.assert_array_equal(M.indices, C.indices)
        assert abs(M - C).max() <= 1e-14 * abs(C).max()
        got = [a.tobytes() for a in (M.indptr, M.indices, M.data)]
        assert got == [a.tobytes() for a in unique]
        assert got == [a.tobytes() for a in planned]


@pytest.mark.parametrize("terms", [ALL_TERMS, frozenset((GALERKIN, STABILIZATION)),
                                   frozenset((NITSCHE, GHOST))],
                         ids=["all", "volume", "nitsche-ghost"])
def test_flow_jacobian_plan(ctx, built, no_sort, terms):
    params = FlowParams(rho=1.0, mu=0.1)
    psibar = np.linspace(0.0, 1.0, ctx.volume.nq)
    slot = bdf_slot(2, 0.1, [np.zeros(3 * ctx.n)] * 2)
    _check(ctx, built, no_sort, lambda U: assemble_flow(
        ctx, params, U, coeff_state=U, slot=slot, psibar=psibar, terms=terms),
        _states(ctx, 3))


def test_species_jacobian_plan(ctx, built, no_sort):
    params = TransportParams(diffusivity=0.05, source=0.5)
    U = _states(ctx, 3)[0]
    _check(ctx, built, no_sort, lambda c: assemble_species(ctx, params, c, U),
           _states(ctx, 1))


def test_species_flow_jacobian_plan(ctx, built, no_sort):
    params = TransportParams(diffusivity=0.05)
    c = _states(ctx, 1)[0]
    _check(ctx, built, no_sort, lambda U: species_flow_jacobian(ctx, params, c, U),
           _states(ctx, 3))


def test_indicator_jacobian_plan(ctx, built, no_sort):
    _check(ctx, built, no_sort,
           lambda psi: assemble_indicator(ctx, IndicatorParams(), psi), _states(ctx, 1))


def test_time_matrix_plan(ctx, built, no_sort):
    params = FlowParams(rho=1.0, mu=0.1)
    slot = bdf_slot(1, 0.1, [np.zeros(3 * ctx.n)])
    _check(ctx, built, no_sort, lambda U: flow_time_matrix(ctx, params, U, slot),
           _states(ctx, 3))


def test_flow_indicator_jacobian_plan(ctx, built, no_sort):
    params = FlowParams(rho=1.0, mu=0.1)
    # psi near the projection threshold, so the tanh derivative is not zero
    psi = 0.99 + 0.001 * _states(ctx, 1)[0]
    _check(ctx, built, no_sort, lambda U: flow_indicator_jacobian(
        ctx, params, U, psi, IndicatorParams()), _states(ctx, 3))


def test_batched_volume_jacobian_matches_one_batch(ctx, monkeypatch):
    # the Jacobian's volume points go in batches of VOLUME_BATCH; batches
    # that split pieces give the same matrix and a bitwise equal residual
    params = FlowParams(rho=1.0, mu=0.1)
    psibar = np.linspace(0.0, 1.0, ctx.volume.nq)
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
    """The (table, runs) of every batch of blocks the assemblers add to a
    Triplets."""
    seen = []
    add = forms.Triplets.add

    def recording(self, table, runs, vals, rows, cols, key):
        seen.append((table, runs))
        assert key == runs.tobytes()
        add(self, table, runs, vals, rows, cols, key)

    monkeypatch.setattr(forms.Triplets, "add", recording)
    return seen


def _assemblers(ctx):
    params = FlowParams(rho=1.0, mu=0.1)
    U = _states(ctx, 3)[0]
    c = _states(ctx, 1)[0]
    psibar = np.linspace(0.0, 1.0, ctx.volume.nq)
    bdf2 = bdf_slot(2, 0.1, [np.zeros(3 * ctx.n)] * 2)
    species = TransportParams(diffusivity=0.05, source=0.5)
    return {
        "flow-steady": lambda: assemble_flow(ctx, params, U, coeff_state=U, psibar=psibar),
        "flow-bdf2": lambda: assemble_flow(ctx, params, U, coeff_state=U, slot=bdf2,
                                           psibar=psibar),
        "flow-residual": lambda: assemble_flow(ctx, params, U, coeff_state=U, slot=bdf2,
                                               psibar=psibar, want_matrix=False),
        "time": lambda: flow_time_matrix(ctx, params, U, bdf2),
        "flow-indicator": lambda: flow_indicator_jacobian(ctx, params, U, 0.99 + 0.001 * c,
                                                          IndicatorParams()),
        "species": lambda: assemble_species(ctx, species, c, U),
        "species-residual": lambda: assemble_species(ctx, species, c, U, want_matrix=False),
        "species-flow": lambda: species_flow_jacobian(ctx, species, c, U),
        "indicator": lambda: assemble_indicator(ctx, IndicatorParams(), c),
        "indicator-residual": lambda: assemble_indicator(ctx, IndicatorParams(), c,
                                                         want_matrix=False),
    }


@pytest.mark.parametrize("kind", ["flow-steady", "flow-bdf2", "time", "flow-indicator",
                                  "species", "species-flow", "indicator"])
def test_blocks_come_summed_per_piece(ctx, added, kind):
    # the collector sums nothing itself: within one add every run has one
    # block, in run order
    _assemblers(ctx)[kind]()
    assert added
    for table, runs in added:
        assert runs.shape[0] > 0
        assert (np.diff(runs) > 0).all()


@pytest.fixture
def scattered(monkeypatch):
    """The size of every Scatter total, each checked against np.add.at of
    its terms in the order added, byte for byte."""
    seen = []
    total = forms.Scatter.total

    def checked(self):
        out = total(self)
        reference = np.zeros(self.size)
        for index, values in zip(self.index, self.values):
            np.add.at(reference, index, values)
        assert out.tobytes() == reference.tobytes()
        seen.append(out.shape[0])
        return out

    monkeypatch.setattr(forms.Scatter, "total", checked)
    return seen


@pytest.mark.parametrize("kind", ["flow-steady", "flow-bdf2", "flow-residual", "species",
                                  "species-residual", "indicator", "indicator-residual"])
def test_residual_is_add_at_of_its_terms(ctx, scattered, kind):
    R, _ = _assemblers(ctx)[kind]()
    assert scattered == [R.shape[0]]


def test_criterion_partials_are_add_at_of_their_terms(ctx, scattered):
    params = FlowParams(rho=1.0, mu=0.1)
    U, c = _states(ctx, 3)[0], _states(ctx, 1)[0]
    specs = [CriterionSpec(name=kind, kind=kind, surface="interface")
             for kind in ("drag", "mass_flow", "total_pressure")]
    specs.append(CriterionSpec(name="ks", kind="ks_target", surface="volume"))
    for spec in specs:
        out = evaluate_criterion(spec, ctx, params, flow_state=U, species_state=c,
                                 want_partials=True)
        assert (out.d_flow if out.d_species is None else out.d_species) is not None
    assert scattered == [3 * ctx.n] * 3 + [ctx.n]
