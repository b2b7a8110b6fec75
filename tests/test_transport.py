import math

import numpy as np
import pytest

from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import FLUID, build_cut_model
from cutflow.flow import FlowParams, assemble_flow
from cutflow.forms import build_context
from cutflow.grid import build_mesh
from cutflow.solve import SolveConfig, newton_solve, steady_solve
from cutflow.transport import (IndicatorParams, TransportParams, assemble_indicator,
                               assemble_species, indicator_at_volume_points,
                               project_indicator, solve_indicator, solve_species,
                               species_flow_jacobian)

from fixtures_common import channel_regions, linear_flow_state, perturb, scalar_dof_coords


def _channel(nx=12, ny=6, W=2.0, H=1.0, chat_left=1.0):
    mesh = build_mesh(((0, 0), (W, H)), (nx, ny))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0, H),
                       profile="parabola", amplitude=1.0, port=True,
                       species_value=chat_left),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
    ])
    ctx = build_context(cm, regions)
    return mesh, cm, ctx, regions


def test_constant_concentration_matching_data_gives_zero_residual():
    mesh, cm, ctx, _ = _channel(chat_left=0.8)
    n = ctx.n
    U = linear_flow_state(cm, (0.5, 0, 0), (0.1, 0, 0), (0, 0, 0))
    c = np.full(n, 0.8)
    params = TransportParams(diffusivity=0.05)
    R, _ = assemble_species(ctx, params, c, U, want_matrix=False)
    assert np.linalg.norm(R) < 1e-13


def test_linear_diffusion_profile_between_dirichlet_walls():
    # pure diffusion, c = x/W between two Nitsche Dirichlet walls: the linear
    # interpolant is the discrete solution
    W = 2.0
    mesh = build_mesh(((0, 0), (W, 1.0)), (10, 5))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = wall_regions(mesh, [
        BoundaryRegion(name="lo", side="left", kind="velocity", species_value=0.0),
        BoundaryRegion(name="hi", side="right", kind="velocity", species_value=1.0),
    ])
    ctx = build_context(cm, regions)
    n = ctx.n
    params = TransportParams(diffusivity=0.3)
    U = np.zeros(3 * n)

    def assemble(c):
        return assemble_species(ctx, params, c, U)

    c, _, _, _ = newton_solve(assemble, np.zeros(n), tol=1e-12)
    xy = scalar_dof_coords(cm)
    np.testing.assert_allclose(c, xy[:, 0] / W, atol=1e-10)


def test_species_ghost_zero_for_linear_field():
    mesh = build_mesh(((0, 0), (1, 1)), (8, 8))
    phi = perturb(0.2 - np.hypot(mesh.nodes[:, 0] - 0.5, mesh.nodes[:, 1] - 0.5),
                  mesh.h)
    cm = build_cut_model(mesh, phi)
    ctx = build_context(cm, ())
    xy = scalar_dof_coords(cm)
    c = 0.3 + 0.4 * xy[:, 0] - 0.9 * xy[:, 1]
    params = TransportParams(diffusivity=0.05)
    R, _ = assemble_species(ctx, params, c, np.zeros(3 * ctx.n),
                            terms=frozenset({"ghost"}), want_matrix=False)
    assert np.max(np.abs(R)) < 1e-13


def test_species_jacobian_and_flow_cross_jacobian_match_fd():
    mesh, cm, ctx, _ = _channel()
    n = ctx.n
    rng = np.random.default_rng(12)
    U = rng.normal(scale=0.3, size=3 * n)
    c = rng.normal(scale=0.5, size=n)
    params = TransportParams(diffusivity=0.07)
    R, J = assemble_species(ctx, params, c, U)
    C = species_flow_jacobian(ctx, params, c, U)
    eps = 1e-7
    for _ in range(5):
        dc = rng.normal(size=n)
        dc /= np.linalg.norm(dc)
        Rp, _ = assemble_species(ctx, params, c + eps * dc, U, want_matrix=False)
        Rm, _ = assemble_species(ctx, params, c - eps * dc, U, want_matrix=False)
        fd = (Rp - Rm) / (2 * eps)
        assert np.linalg.norm(fd - J @ dc) / np.linalg.norm(fd) < 1e-6
        dU = rng.normal(size=3 * n)
        dU /= np.linalg.norm(dU)
        Rp, _ = assemble_species(ctx, params, c, U + eps * dU, want_matrix=False)
        Rm, _ = assemble_species(ctx, params, c, U - eps * dU, want_matrix=False)
        fd = (Rp - Rm) / (2 * eps)
        assert np.linalg.norm(fd - C @ dU) / max(np.linalg.norm(fd), 1e-14) < 1e-6


def test_one_way_coupling_flow_independent_of_species():
    # block-triangular structure: the flow residual has no species argument,
    # and the species residual depends on the flow only through advection
    mesh, cm, ctx, _ = _channel()
    n = ctx.n
    rng = np.random.default_rng(1)
    U = rng.normal(size=3 * n)
    R1, _ = assemble_flow(ctx, FlowParams(rho=1, mu=0.1), U, coeff_state=U,
                          want_matrix=False)
    # changing c cannot change the flow residual: there is no code path; the
    # audit here checks the species cross-jacobian is the declared coupling
    C = species_flow_jacobian(ctx, TransportParams(diffusivity=0.1),
                              rng.normal(size=n), U)
    assert C.shape == (n, 3 * n)
    assert np.abs(C[:, 2 * n:]).max() == 0  # no pressure coupling


def test_species_maximum_principle_envelope():
    # boundary data in [0, 1], no source: solution within [-0.05, 1.05]
    # two inlets separated by a wall buffer keep the boundary data compatible
    mesh = build_mesh(((0, 0), (2, 1)), (20, 10))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = wall_regions(mesh, [
        BoundaryRegion(name="hot", side="left", kind="velocity", span=(0.6, 0.9),
                       profile="parabola", amplitude=1.0, port=True,
                       species_value=1.0),
        BoundaryRegion(name="cold", side="left", kind="velocity", span=(0.1, 0.4),
                       profile="parabola", amplitude=1.0, port=True,
                       species_value=0.0),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
    ])
    ctx = build_context(cm, regions)
    n = ctx.n
    fparams = FlowParams(rho=1.0, mu=0.5)
    make = lambda slot: (lambda x: assemble_flow(
        ctx, fparams, x, coeff_state=x, slot=slot))
    U, _, _, _ = steady_solve(make, np.zeros(3 * n), SolveConfig())
    tparams = TransportParams(diffusivity=0.02)
    c, _, _, _ = newton_solve(lambda c: assemble_species(ctx, tparams, c, U),
                        np.zeros(n))
    assert c.min() > -0.05
    assert c.max() < 1.05


# --- indicator ---------------------------------------------------------------

def test_projection_values():
    p = IndicatorParams()
    assert project_indicator(np.array([1.0]), p)[0] == pytest.approx(
        0.5 + 0.5 * math.tanh(10.0), abs=1e-15)
    assert project_indicator(np.array([0.0]), p)[0] == pytest.approx(0.0, abs=1e-12)
    assert project_indicator(np.array([0.99]), p)[0] == pytest.approx(0.5, abs=1e-15)


def test_isolated_puddle_relaxes_to_reference_exactly():
    # pure-Neumann fluid disk: psi = psi_ref is the exact discrete solution
    mesh = build_mesh(((0, 0), (1, 1)), (12, 12))
    phi = perturb(np.hypot(mesh.nodes[:, 0] - 0.5, mesh.nodes[:, 1] - 0.5) - 0.3,
                  mesh.h)
    cm = build_cut_model(mesh, phi)
    regions = wall_regions(mesh, [])  # no ports anywhere
    ctx = build_context(cm, regions)
    psi, _ = solve_indicator(ctx, IndicatorParams())
    np.testing.assert_allclose(psi, 1.0, atol=1e-10)


def test_connected_channel_stays_far_below_threshold():
    mesh = build_mesh(((0, 0), (2, 1)), (16, 8))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = channel_regions(mesh, 1.0)
    ctx = build_context(cm, regions)
    p = IndicatorParams()
    psi, _ = solve_indicator(ctx, p)
    assert np.max(np.abs(psi)) < 0.1 * p.k_threshold * p.psi_ref


def test_mixed_regions_classified_end_to_end():
    # one port-connected strip and one isolated disk
    mesh = build_mesh(((0, 0), (1, 1)), (20, 20))
    xy = mesh.nodes
    strip = np.maximum(0.55 - xy[:, 1], xy[:, 1] - 0.95)
    disk = np.hypot(xy[:, 0] - 0.3, xy[:, 1] - 0.25) - 0.12
    phi = perturb(np.minimum(strip, disk), mesh.h)
    cm = build_cut_model(mesh, phi)
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity",
                       span=(0.55, 0.95), profile="parabola", amplitude=1.0,
                       port=True),
        BoundaryRegion(name="outlet", side="right", kind="traction",
                       span=(0.55, 0.95), port=True),
    ])
    ctx = build_context(cm, regions)
    p = IndicatorParams()
    psi, _ = solve_indicator(ctx, p)
    psibar = indicator_at_volume_points(ctx, psi, p)
    # flood-fill oracle: reachable regions = those whose pieces cover a port
    reachable = set()
    for region in ctx.regions:
        if not region.port:
            continue
        blk = ctx.surface_part(region.name)
        for q in range(blk.nq):
            e = int(blk.elem[q])
            for row in np.flatnonzero(cm.piece_elem == e):
                if cm.piece_phase[row] == FLUID and np.array_equal(cm.piece_dofs[row],
                                                                   blk.dofs[q]):
                    reachable.add(int(cm.piece_region[row]))
    assert reachable == {1} or reachable == {0}
    for q in range(ctx.volume.nq):
        e = int(ctx.volume.elem[q])
        row = next(r for r in np.flatnonzero(cm.piece_elem == e)
                   if cm.piece_phase[r] == FLUID
                   and np.array_equal(cm.piece_dofs[r], ctx.volume.dofs[q]))
        if cm.piece_region[row] in reachable:
            assert psibar[q] <= 0.001
        else:
            assert psibar[q] >= 0.999


def test_indicator_linear_system_is_linear():
    mesh, cm, ctx, _ = _channel()
    p = IndicatorParams()
    n = ctx.n
    rng = np.random.default_rng(0)
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    R1, J = assemble_indicator(ctx, p, x1)
    R2, _ = assemble_indicator(ctx, p, x2, want_matrix=False)
    np.testing.assert_allclose(R1 - R2, J @ (x1 - x2), atol=1e-11)


# --- the species forward: one linear solve ------------------------------------

@pytest.fixture(scope="module")
def mixer(tmp_path_factory):
    from cutflow.config import parse_config
    from cutflow.driver import build_model
    from test_fixtures import MIXER_CFG
    path = tmp_path_factory.mktemp("mixer") / "mix.cfg"
    path.write_text(MIXER_CFG)
    cfg = parse_config(str(path))
    model, _ = build_model(cfg)
    return model, cfg.initial_design(model.mesh)


def test_species_forward_assembles_once_and_keeps_the_solves_factor(mixer, monkeypatch):
    # the species system is linear in c: a forward assembles it once, at
    # zero, with no converged check after the solve, and hands the adjoint
    # the factor of that solve
    import cutflow.transport as transport_mod
    model, design = mixer
    assemble, solve = transport_mod.assemble_species, transport_mod.solve_species
    calls, factors = [], []

    def counting(*args, **kwargs):
        calls.append(np.array(args[2]))
        return assemble(*args, **kwargs)

    def keeping(*args, **kwargs):
        c, lu = solve(*args, **kwargs)
        factors.append(lu)
        return c, lu

    monkeypatch.setattr(transport_mod, "assemble_species", counting)
    monkeypatch.setattr(transport_mod, "solve_species", keeping)
    result = model.solve_steady(design)
    assert len(calls) == 1 and not calls[0].any()
    assert len(factors) == 1 and result.species_factor is factors[0]


def test_species_solve_is_newtons_step_byte_for_byte(mixer):
    # one solve from zero is the step Newton takes on the same assemble,
    # and Newton stops after it
    model, design = mixer
    result = model.solve_steady(design)
    ctx, params, U = result.ctx, model.physics.transport, result.flow_state
    c, _ = solve_species(ctx, params, U)
    x, trace, _, _ = newton_solve(lambda c: assemble_species(ctx, params, c, U),
                                  np.zeros(ctx.n), tol=model.solve_config.newton_tol,
                                  max_iter=model.solve_config.max_newton)
    assert len(trace) == 2
    assert c.tobytes() == x.tobytes() == result.species_state.tobytes()
