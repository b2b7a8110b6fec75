"""The flow Jacobian against its own residual, entry by entry, and a
residual that does not depend on whether the Jacobian is assembled."""

import numpy as np
import pytest

from cutflow import flow as flow_mod
from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import build_cut_model
from cutflow.flow import (ALL_TERMS, GALERKIN, GHOST, NITSCHE, PRESSURE_PENALTY,
                          STABILIZATION, STEADY, FlowParams, assemble_flow,
                          flow_indicator_jacobian, flow_time_matrix)
from cutflow.forms import build_context
from cutflow.grid import build_mesh
from cutflow.solve import TimeSlot, bdf_slot
from cutflow.transport import IndicatorParams, indicator_at_volume_points

from fixtures_common import assert_entrywise, bend_model, central_differences, perturb

VOLUME_TERMS = (GALERKIN, STABILIZATION, PRESSURE_PENALTY)


@pytest.fixture(scope="module")
def small_ctx():
    """A 3x3 mesh cut by a disk (full, 3- and 6-point pieces), with velocity,
    traction and symmetry sides (symmetry along both axes)."""
    mesh = build_mesh(((0, 0), (1, 1)), (3, 3))
    xy = mesh.nodes
    phi = perturb(0.3 - np.hypot(xy[:, 0] - 0.55, xy[:, 1] - 0.45), mesh.h)
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0.2, 0.8),
                       profile="parabola", amplitude=1.0),
        BoundaryRegion(name="outlet", side="right", kind="traction", span=(0.0, 0.5)),
        BoundaryRegion(name="side", side="right", kind="symmetry", span=(0.5, 1.0)),
        BoundaryRegion(name="lid", side="top", kind="symmetry"),
    ])
    ctx = build_context(build_cut_model(mesh, phi), regions)
    assert ctx.surface_part("interface").nq and ctx.ghost.nq
    new = np.ones(ctx.volume.nq, dtype=bool)
    new[1:] = (ctx.volume.dofs[1:] != ctx.volume.dofs[:-1]).any(1)
    sizes = set(np.diff(np.flatnonzero(np.append(new, True))).tolist())
    assert {3, 4, 6} <= sizes
    return ctx


def _slot(kind, n, rng):
    if kind == "steady":
        return STEADY
    return bdf_slot(2, 0.05, [rng.normal(scale=0.3, size=3 * n) for _ in range(2)])


def _check_central_differences(ctx, terms, with_psibar, slot_kind):
    """The dense central-difference matrix of the residual matches J entry by
    entry; the coefficient state is held fixed, so J is its exact derivative."""
    n = ctx.n
    rng = np.random.default_rng(7)
    params = FlowParams(rho=1.0, mu=0.1, k_pressure=2.0)
    U = rng.normal(scale=0.3, size=3 * n)
    Uc = rng.normal(scale=0.3, size=3 * n)
    psibar = rng.random(ctx.volume.nq) if with_psibar else None
    slot = _slot(slot_kind, n, rng)
    terms = frozenset(terms)

    def residual(x):
        return assemble_flow(ctx, params, x, coeff_state=Uc, slot=slot, psibar=psibar,
                             terms=terms, want_matrix=False)[0]

    _, J = assemble_flow(ctx, params, U, coeff_state=Uc, slot=slot, psibar=psibar,
                         terms=terms)
    fd = central_differences(residual, U)
    if terms == {PRESSURE_PENALTY} and psibar is None:
        assert not J.toarray().any() and not fd.any()
    else:
        assert_entrywise(J.toarray(), fd)


@pytest.mark.parametrize("slot_kind", ["steady", "bdf2"])
@pytest.mark.parametrize("with_psibar", [True, False], ids=["psibar", "no-psibar"])
@pytest.mark.parametrize("terms", [(t,) for t in VOLUME_TERMS] + [VOLUME_TERMS],
                         ids=list(VOLUME_TERMS) + ["volume"])
def test_volume_jacobian_matches_central_differences(small_ctx, terms, with_psibar,
                                                     slot_kind):
    _check_central_differences(small_ctx, terms, with_psibar, slot_kind)


@pytest.mark.parametrize("slot_kind", ["steady", "bdf2"])
@pytest.mark.parametrize("terms", [(NITSCHE,), (GHOST,), ALL_TERMS],
                         ids=["nitsche", "ghost", "all"])
def test_surface_jacobian_matches_central_differences(small_ctx, terms, slot_kind):
    # the penalty factors come from the fixed coefficient state, so these
    # terms too are differentiated exactly
    _check_central_differences(small_ctx, terms, True, slot_kind)


@pytest.mark.parametrize("slot_kind", ["steady", "bdf2"])
def test_time_matrix_is_the_history_derivative(small_ctx, slot_kind):
    # the residual is linear in du/dt = alpha u + hist, so the time matrix is
    # its exact derivative with respect to the slot's history vector
    ctx = small_ctx
    rng = np.random.default_rng(5)
    params = FlowParams(rho=1.3, mu=0.1)
    U = rng.normal(scale=0.3, size=3 * ctx.n)
    base = bdf_slot(2, 0.05, [rng.normal(scale=0.3, size=3 * ctx.n) for _ in range(2)])
    dt = None if slot_kind == "steady" else base.dt
    psibar = rng.random(ctx.volume.nq)

    def residual(hist):
        slot = TimeSlot(alpha=base.alpha, hist=hist, dt=dt)
        return assemble_flow(ctx, params, U, slot=slot, psibar=psibar,
                             want_matrix=False)[0]

    M = flow_time_matrix(ctx, params, U, TimeSlot(alpha=base.alpha, hist=base.hist, dt=dt))
    assert_entrywise(M.toarray(), central_differences(residual, base.hist))


def test_indicator_jacobian_is_the_psi_derivative(small_ctx):
    ctx = small_ctx
    rng = np.random.default_rng(3)
    params = FlowParams(rho=1.0, mu=0.1, k_pressure=2.0)
    ind = IndicatorParams(k_sharpness=20.0)
    U = rng.normal(scale=0.3, size=3 * ctx.n)
    psi = 0.99 + 0.03 * rng.normal(size=ctx.n)  # about the projection threshold

    def residual(x):
        psibar = indicator_at_volume_points(ctx, x, ind)
        return assemble_flow(ctx, params, U, psibar=psibar, terms={PRESSURE_PENALTY},
                             want_matrix=False)[0]

    K = flow_indicator_jacobian(ctx, params, U, psi, ind)
    assert_entrywise(K.toarray(), central_differences(residual, psi))


@pytest.fixture(scope="module")
def bend96_ctx():
    model, _, design = bend_model(divisions=(96, 96))
    _, ctx = model.geometry(design)
    assert ctx.volume.nq > 2 * flow_mod.VOLUME_BATCH
    return model.physics.flow, ctx


@pytest.mark.parametrize("slot_kind", ["steady", "bdf2"])
def test_residual_is_bitwise_independent_of_want_matrix(bend96_ctx, slot_kind):
    # Newton checks convergence on a residual alone and steps with the one
    # assembled beside J: both must be the same bytes, though the Jacobian
    # goes through the volume points in batches and the residual in one
    params, ctx = bend96_ctx
    rng = np.random.default_rng(11)
    U = rng.normal(scale=0.5, size=3 * ctx.n)
    psibar = rng.random(ctx.volume.nq)
    slot = _slot(slot_kind, ctx.n, rng)
    R, J = assemble_flow(ctx, params, U, coeff_state=U, slot=slot, psibar=psibar)
    R0, J0 = assemble_flow(ctx, params, U, coeff_state=U, slot=slot, psibar=psibar,
                           want_matrix=False)
    assert J is not None and J0 is None
    assert R.tobytes() == R0.tobytes()
