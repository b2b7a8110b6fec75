"""Every context has its volume, surface and ghost tables, each possibly
empty, and every assembler runs on an empty one: an all-fluid channel has
no interface and no ghost facets, and a stacked re-cut context whose every
row is invalid has no volume."""

import numpy as np
import pytest

from cutflow import forms
from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import CUT, build_cut_model
from cutflow.flow import FlowParams, assemble_flow, flow_indicator_jacobian, flow_time_matrix
from cutflow.forms import build_context, element_context
from cutflow.grid import build_mesh
from cutflow.solve import bdf_slot
from cutflow.transport import (IndicatorParams, TransportParams, assemble_indicator,
                               assemble_species, species_flow_jacobian)

from fixtures_common import assert_entrywise, central_differences, perturb


def _regions(mesh):
    return wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0.0, 0.5),
                       profile="parabola", amplitude=1.0, port=True, species_value=1.0),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
    ])


def _context(kind):
    mesh = build_mesh(((0.0, 0.0), (1.0, 0.5)), (4, 2))
    if kind == "channel":
        return build_context(build_cut_model(mesh, -np.ones(mesh.n_nodes)), _regions(mesh))
    xy = mesh.nodes
    cm = build_cut_model(mesh, perturb(0.2 - np.hypot(xy[:, 0] - 0.5, xy[:, 1] - 0.25),
                                       mesh.h))
    elems = np.flatnonzero(cm.classification == CUT)
    # all corners on one side: no row keeps its cut pattern
    ctx, invalid = element_context(cm, elems, np.ones((elems.shape[0], 4)), _regions(mesh))
    assert elems.shape[0] and invalid.all()
    return ctx


@pytest.fixture(scope="module", params=["channel", "all-invalid"])
def ctx(request):
    ctx = _context(request.param)
    assert ctx.ghost.nq == 0
    assert isinstance(ctx.ghost, forms.GhostBlock)
    tables = [ctx.volume, ctx.surface, *ctx.conditions.values()]
    assert all(isinstance(t, forms.PointTable) for t in tables)
    if request.param == "channel":
        assert ctx.volume.nq and not ctx.surface_part("interface").nq
    else:
        assert ctx.n == 0 and ctx.volume.nq == 0 and ctx.surface.nq == 0
    return ctx


def _check(ctx, assemble, size):
    """The residual and Jacobian of assemble have their shapes, and on a
    context with dofs the Jacobian matches central differences."""
    x = np.random.default_rng(2).normal(scale=0.3, size=size)
    R, J = assemble(x)
    assert R.shape == (size,) and J.shape == (size, size)
    if size:
        assert_entrywise(J.toarray(), central_differences(lambda y: assemble(y)[0], x))


def test_flow_on_empty_tables(ctx):
    params = FlowParams(rho=1.0, mu=0.1)
    psibar = np.linspace(0.0, 1.0, ctx.volume.nq)
    slot = bdf_slot(2, 0.1, [np.zeros(3 * ctx.n)] * 2)
    _check(ctx, lambda U: assemble_flow(ctx, params, U, coeff_state=np.zeros(3 * ctx.n),
                                        slot=slot, psibar=psibar), 3 * ctx.n)
    U = np.ones(3 * ctx.n)
    assert flow_time_matrix(ctx, params, U, slot).shape == (3 * ctx.n, 3 * ctx.n)
    assert flow_indicator_jacobian(ctx, params, U, 0.99 * np.ones(ctx.n),
                                   IndicatorParams()).shape == (3 * ctx.n, ctx.n)


def test_species_on_empty_tables(ctx):
    params = TransportParams(diffusivity=0.05, source=0.5)
    U = np.random.default_rng(1).normal(size=3 * ctx.n)
    _check(ctx, lambda c: assemble_species(ctx, params, c, U), ctx.n)
    assert species_flow_jacobian(ctx, params, np.ones(ctx.n), U).shape == (ctx.n, 3 * ctx.n)


def test_indicator_on_empty_tables(ctx):
    _check(ctx, lambda psi: assemble_indicator(ctx, IndicatorParams(), psi), ctx.n)
