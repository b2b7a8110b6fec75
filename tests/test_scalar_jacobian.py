"""The species, species-flow and indicator Jacobians against their own
residuals, entry by entry."""

import numpy as np
import pytest

from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import build_cut_model
from cutflow.forms import build_context
from cutflow.grid import build_mesh
from cutflow.transport import (ALL_TERMS, GALERKIN, GHOST, NITSCHE, STABILIZATION,
                               IndicatorParams, TransportParams, assemble_indicator,
                               assemble_species, species_flow_jacobian)

from fixtures_common import assert_entrywise, central_differences, perturb


@pytest.fixture(scope="module")
def ctx():
    """A 3x3 mesh cut by a disk, with two indicator ports and species values
    on a vertical and a horizontal side."""
    mesh = build_mesh(((0, 0), (1, 1)), (3, 3))
    xy = mesh.nodes
    phi = perturb(0.3 - np.hypot(xy[:, 0] - 0.55, xy[:, 1] - 0.45), mesh.h)
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0.2, 0.8),
                       profile="parabola", amplitude=1.0, port=True,
                       species_value=1.0),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
        BoundaryRegion(name="lid", side="top", kind="symmetry", species_value=0.5),
    ])
    ctx = build_context(build_cut_model(mesh, phi), regions)
    assert ctx.surface_part("interface").nq and ctx.ghost.nq
    return ctx


def _states(ctx):
    rng = np.random.default_rng(13)
    return rng.normal(scale=0.3, size=ctx.n), rng.normal(scale=0.3, size=3 * ctx.n)


PARAMS = TransportParams(diffusivity=0.05, source=0.5)


@pytest.mark.parametrize("terms", [(t,) for t in (GALERKIN, STABILIZATION, NITSCHE, GHOST)]
                         + [ALL_TERMS], ids=["galerkin", "stabilization", "nitsche",
                                             "ghost", "all"])
def test_species_jacobian_matches_central_differences(ctx, terms):
    c, U = _states(ctx)
    terms = frozenset(terms)
    _, J = assemble_species(ctx, PARAMS, c, U, terms=terms)
    fd = central_differences(
        lambda x: assemble_species(ctx, PARAMS, x, U, terms=terms, want_matrix=False)[0], c)
    assert_entrywise(J.toarray(), fd)


def test_species_flow_jacobian_matches_central_differences(ctx):
    c, U = _states(ctx)
    K = species_flow_jacobian(ctx, PARAMS, c, U)
    fd = central_differences(
        lambda x: assemble_species(ctx, PARAMS, c, x, want_matrix=False)[0], U)
    assert not fd[:, 2 * ctx.n:].any()  # no pressure coupling
    assert_entrywise(K.toarray(), fd)


def test_indicator_jacobian_matches_central_differences(ctx):
    params = IndicatorParams(reaction=0.3)
    psi, _ = _states(ctx)
    _, J = assemble_indicator(ctx, params, psi)
    fd = central_differences(
        lambda x: assemble_indicator(ctx, params, x, want_matrix=False)[0], psi)
    assert_entrywise(J.toarray(), fd)
