import numpy as np
import pytest

from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import build_cut_model
from cutflow.flow import (ALL_TERMS, GALERKIN, GHOST, NEUMANN, NITSCHE,
                          PRESSURE_PENALTY, STABILIZATION, FlowParams,
                          assemble_flow)
from cutflow.forms import build_context, shape_q1
from cutflow.grid import build_mesh
from cutflow.solve import SolveConfig, TimeSlot, steady_solve

from fixtures_common import (channel_regions, circle_channel, linear_flow_state,
                             perturb, scalar_dof_coords)


def _channel_ctx(nx=8, ny=4, W=2.0, H=1.0):
    mesh = build_mesh(((0, 0), (W, H)), (nx, ny))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = channel_regions(mesh, H)
    return mesh, cm, build_context(cm, regions), regions


def _cut_ctx():
    mesh, cm, ctx, regions, params = circle_channel(0.05, mu=0.05)
    return mesh, cm, ctx, regions, params


# --- volumetric terms --------------------------------------------------------

def test_zero_state_zero_bc_residual():
    mesh, cm, ctx, _ = _channel_ctx()
    n = ctx.n
    # walls-only boundary: every region prescribes zero data except the inlet;
    # kill the inlet by using a zero amplitude
    regions = wall_regions(mesh, [])
    ctx0 = build_context(cm, regions)
    params = FlowParams(rho=1.0, mu=0.3)
    R, _ = assemble_flow(ctx0, params, np.zeros(3 * n),
                         coeff_state=np.zeros(3 * n), want_matrix=False)
    assert np.linalg.norm(R) < 1e-14


def test_uniform_velocity_galerkin_rows_zero():
    mesh, cm, ctx, _ = _channel_ctx()
    U = linear_flow_state(cm, (0.7, 0, 0), (0.0, 0, 0), (0.4, 0, 0))
    params = FlowParams(rho=1.0, mu=0.2)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({GALERKIN}), want_matrix=False)
    # constant u: convection and strain vanish; constant p integrates to zero
    # against interior gradients but not at boundaries -> momentum rows only
    n = ctx.n
    assert np.linalg.norm(R[2 * n:]) < 1e-13  # continuity rows exactly zero


def test_volume_galerkin_matches_independent_reintegration():
    mesh, cm, ctx, regions, params = _cut_ctx()
    n = ctx.n
    rng = np.random.default_rng(8)
    U = rng.normal(scale=0.4, size=3 * n)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({GALERKIN}), want_matrix=False)
    # independent per-point quadrature of the same weak form
    R2 = np.zeros(3 * n)
    rho, mu = params.rho, params.mu
    for q in range(ctx.volume.nq):
        N, gx, gy = ctx.volume.N[q], ctx.volume.gx[q], ctx.volume.gy[q]
        d = ctx.volume.dofs[q]
        w = ctx.volume.w[q]
        ux, uy, p = N @ U[d], N @ U[n + d], N @ U[2 * n + d]
        uxx, uxy = gx @ U[d], gy @ U[d]
        uyx, uyy = gx @ U[n + d], gy @ U[n + d]
        exy = 0.5 * (uxy + uyx)
        conv_x = ux * uxx + uy * uxy
        conv_y = ux * uyx + uy * uyy
        for a in range(4):
            R2[d[a]] += w * (N[a] * rho * conv_x
                             + 2 * mu * (uxx * gx[a] + exy * gy[a]) - p * gx[a])
            R2[n + d[a]] += w * (N[a] * rho * conv_y
                                 + 2 * mu * (exy * gx[a] + uyy * gy[a]) - p * gy[a])
            R2[2 * n + d[a]] += w * N[a] * (uxx + uyy)
    assert np.max(np.abs(R - R2)) < 1e-12


def test_supg_zero_for_rest_state_constant_pressure():
    mesh, cm, ctx, _ = _channel_ctx()
    U = linear_flow_state(cm, (0, 0, 0), (0, 0, 0), (5.0, 0, 0))
    params = FlowParams(rho=1.0, mu=0.1)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({STABILIZATION}), want_matrix=False)
    assert np.linalg.norm(R) < 1e-13


def test_supg_single_element_closed_form():
    # uniform u = (0.2, -0.1), p = 3x on one unit element, steady:
    # strong residual (3, 0); rows integrate tau * (u . grad N_a) * 3 etc.
    mesh = build_mesh(((0, 0), (1, 1)), (1, 1))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    ctx = build_context(cm, ())
    n = ctx.n
    U = linear_flow_state(cm, (0.2, 0, 0), (-0.1, 0, 0), (0.0, 3.0, 0.0))
    rho, mu = 1.0, 0.07
    params = FlowParams(rho=rho, mu=mu)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({STABILIZATION}), want_matrix=False)
    nu = mu / rho
    speed = np.hypot(0.2, -0.1)
    tau = 1.0 / np.sqrt((2 * speed) ** 2 + (4 * nu) ** 2)
    Gx = np.array([-0.5, 0.5, 0.5, -0.5])
    Gy = np.array([-0.5, -0.5, 0.5, 0.5])
    expect = np.zeros(3 * n)
    dofs = cm.piece_dofs[np.searchsorted(cm.piece_elem, 0)]
    expect[dofs] = 3 * tau * (0.2 * Gx - 0.1 * Gy)
    expect[2 * n + dofs] = 3 * tau / rho * Gx
    assert np.max(np.abs(R - expect)) < 1e-10


# --- Nitsche -----------------------------------------------------------------

def test_nitsche_penalty_vanishes_when_data_matched():
    # u equals the (linear) boundary data exactly: residual independent of alpha
    mesh, cm, ctx, _ = _channel_ctx()

    class Lin(BoundaryRegion):
        def velocity_at(self, x, t=0.0):
            x = np.atleast_2d(x)
            return np.column_stack([0.3 * x[:, 1], np.zeros(x.shape[0])])

    regions = [Lin(name=s, side=s, kind="velocity")
               for s in ("left", "right", "bottom", "top")]
    ctx2 = build_context(cm, regions)
    U = linear_flow_state(cm, (0.0, 0.0, 0.3), (0, 0, 0), (0, 0, 0))
    r_low, _ = assemble_flow(ctx2, FlowParams(rho=1, mu=0.2, alpha_nitsche=1.0),
                             U, coeff_state=U, terms=frozenset({NITSCHE}),
                             want_matrix=False)
    r_high, _ = assemble_flow(ctx2, FlowParams(rho=1, mu=0.2, alpha_nitsche=1e6),
                              U, coeff_state=U, terms=frozenset({NITSCHE}),
                              want_matrix=False)
    assert np.max(np.abs(r_low - r_high)) < 1e-9


def test_nitsche_zero_state_zero_data():
    mesh, cm, ctx, _ = _channel_ctx()
    regions = wall_regions(mesh, [])
    ctx0 = build_context(cm, regions)
    n = ctx.n
    R, _ = assemble_flow(ctx0, FlowParams(rho=1, mu=0.2), np.zeros(3 * n),
                         coeff_state=np.zeros(3 * n),
                         terms=frozenset({NITSCHE}), want_matrix=False)
    assert np.linalg.norm(R) < 1e-14


def test_nitsche_inlet_matches_independent_integration():
    mesh, cm, ctx, regions = _channel_ctx()
    n = ctx.n
    rng = np.random.default_rng(3)
    U = rng.normal(scale=0.3, size=3 * n)
    params = FlowParams(rho=1.0, mu=0.15, alpha_nitsche=37.0)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({NITSCHE}), want_matrix=False)

    # independent oracle: same 2-point rule (the quadrature is part of the
    # scheme; gamma's velocity dependence is not polynomial), separate code
    inlet = next(r for r in regions if r.name == "inlet")
    R2 = np.zeros(3 * n)
    gpts, gwts = np.polynomial.legendre.leggauss(2)
    h = mesh.h
    for idx in range(mesh.boundary_edges["left"].shape[0]):
        na, nb = mesh.boundary_edges["left"][idx]
        e = int(mesh.boundary_edge_elems["left"][idx])
        a, b = mesh.nodes[na], mesh.nodes[nb]
        dofs = cm.piece_dofs[np.searchsorted(cm.piece_elem, e)]
        for gp, gw in zip(gpts, gwts):
            x = a + (0.5 + 0.5 * gp) * (b - a)
            w = 0.5 * np.linalg.norm(b - a) * gw
            N, gx, gy = shape_q1(mesh, np.array([e]), x[None, :])
            N, gx, gy = N[0], gx[0], gy[0]
            nx, ny = -1.0, 0.0
            ux, uy, p = N @ U[dofs], N @ U[n + dofs], N @ U[2 * n + dofs]
            uxx, uxy = gx @ U[dofs], gy @ U[dofs]
            uyx, uyy = gx @ U[n + dofs], gy @ U[n + dofs]
            exy = 0.5 * (uxy + uyx)
            uhat = inlet.velocity_at(x[None, :])[0]
            dux, duy = ux - uhat[0], uy - uhat[1]
            uinf = max(abs(ux), abs(uy))
            gamma = params.alpha_nitsche * (params.mu / h + params.rho * uinf / 6)
            gnN = gx * nx + gy * ny
            ex_n = uxx * nx + exy * ny
            ey_n = exy * nx + uyy * ny
            gdu = gx * dux + gy * duy
            mu = params.mu
            for ai in range(4):
                R2[dofs[ai]] += w * (N[ai] * (p * nx - 2 * mu * ex_n)
                                     - mu * (gnN[ai] * dux + nx * gdu[ai])
                                     + gamma * N[ai] * dux)
                R2[n + dofs[ai]] += w * (N[ai] * (p * ny - 2 * mu * ey_n)
                                         - mu * (gnN[ai] * duy + ny * gdu[ai])
                                         + gamma * N[ai] * duy)
                R2[2 * n + dofs[ai]] += w * (-N[ai] * (nx * dux + ny * duy))

    # compare only the inlet rows: assemble with inlet-only regions
    ctx_in = build_context(cm, [inlet])
    R_in, _ = assemble_flow(ctx_in, params, U, coeff_state=U,
                            terms=frozenset({NITSCHE}), want_matrix=False)
    assert np.max(np.abs(R_in - R2)) < 1e-12


def test_nitsche_symmetry_matches_independent_integration():
    """Weak u.n = 0 with free tangential traction on a fitted symmetry lid
    over the middle of the top side. The lid's velocity data is not zero, to
    show that a symmetry region ignores it."""
    mesh = build_mesh(((0, 0), (2.0, 1.0)), (8, 4))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    lid = BoundaryRegion(name="lid", side="top", kind="symmetry", span=(0.5, 1.5),
                         velocity=(0.3, -0.2))
    ctx = build_context(cm, [lid])
    n = ctx.n
    U = np.random.default_rng(4).normal(scale=0.3, size=3 * n)
    params = FlowParams(rho=1.0, mu=0.15, alpha_nitsche=37.0)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({NITSCHE}), want_matrix=False)

    # independent oracle on the same 2-point rule:
    # N_a n_i (p - 2 mu n.eps.n) - 2 mu n_i (grad N_a . n)(u.n) + gamma N_a n_i (u.n)
    # on the velocity rows, -N_a (u.n) on the pressure rows
    R2 = np.zeros(3 * n)
    gpts, gwts = np.polynomial.legendre.leggauss(2)
    mu, nx, ny = params.mu, 0.0, 1.0
    for idx in range(mesh.boundary_edges["top"].shape[0]):
        na, nb = mesh.boundary_edges["top"][idx]
        a, b = mesh.nodes[na], mesh.nodes[nb]
        if not (0.5 - 1e-12 <= min(a[0], b[0]) and max(a[0], b[0]) <= 1.5 + 1e-12):
            continue
        e = int(mesh.boundary_edge_elems["top"][idx])
        dofs = cm.piece_dofs[np.searchsorted(cm.piece_elem, e)]
        for gp, gw in zip(gpts, gwts):
            x = a + (0.5 + 0.5 * gp) * (b - a)
            w = 0.5 * np.linalg.norm(b - a) * gw
            N, gx, gy = shape_q1(mesh, np.array([e]), x[None, :])
            N, gx, gy = N[0], gx[0], gy[0]
            ux, uy, p = N @ U[dofs], N @ U[n + dofs], N @ U[2 * n + dofs]
            uxx, uxy = gx @ U[dofs], gy @ U[dofs]
            uyx, uyy = gx @ U[n + dofs], gy @ U[n + dofs]
            nen = uxx * nx * nx + (uxy + uyx) * nx * ny + uyy * ny * ny
            un = ux * nx + uy * ny
            gamma = params.alpha_nitsche * (mu / mesh.h + params.rho * max(abs(ux), abs(uy)) / 6)
            gnN = gx * nx + gy * ny
            for ai in range(4):
                for f, ni in ((0, nx), (1, ny)):
                    R2[f * n + dofs[ai]] += w * (N[ai] * ni * (p - 2 * mu * nen)
                                                 - 2 * mu * ni * gnN[ai] * un
                                                 + gamma * N[ai] * ni * un)
                R2[2 * n + dofs[ai]] += w * (-N[ai] * un)

    assert np.abs(R2).max() > 0.1
    assert np.max(np.abs(R - R2)) < 1e-12


# --- Neumann -----------------------------------------------------------------

def test_neumann_zero_traction():
    mesh, cm, ctx, _ = _channel_ctx()
    n = ctx.n
    R, _ = assemble_flow(ctx, FlowParams(rho=1, mu=0.1), np.zeros(3 * n),
                         coeff_state=np.zeros(3 * n),
                         terms=frozenset({NEUMANN}), want_matrix=False)
    assert np.linalg.norm(R) < 1e-15


def test_neumann_constant_traction_loads():
    mesh = build_mesh(((0, 0), (1, 1)), (4, 4))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = wall_regions(mesh, [
        BoundaryRegion(name="pull", side="right", kind="traction",
                       traction=(2.5, -1.0)),
    ])
    ctx = build_context(cm, regions)
    n = ctx.n
    R, _ = assemble_flow(ctx, FlowParams(rho=1, mu=0.1), np.zeros(3 * n),
                         coeff_state=np.zeros(3 * n),
                         terms=frozenset({NEUMANN}), want_matrix=False)
    # consistent loads sum to the total traction force (residual carries -)
    assert -R[0:n].sum() == pytest.approx(2.5 * 1.0, abs=1e-13)
    assert -R[n:2 * n].sum() == pytest.approx(-1.0 * 1.0, abs=1e-13)


def test_neumann_linear_traction_exact_edge_integral():
    mesh = build_mesh(((0, 0), (1, 1)), (2, 2))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))

    class LinTraction(BoundaryRegion):
        def traction_at(self, x, t=0.0):
            x = np.atleast_2d(x)
            return np.column_stack([3.0 * x[:, 1], np.zeros(x.shape[0])])

    regions = wall_regions(mesh, [LinTraction(name="pull", side="right",
                                              kind="traction")])
    ctx = build_context(cm, regions)
    n = ctx.n
    R, _ = assemble_flow(ctx, FlowParams(rho=1, mu=0.1), np.zeros(3 * n),
                         coeff_state=np.zeros(3 * n),
                         terms=frozenset({NEUMANN}), want_matrix=False)
    # integral of t_x = 3y over the right edge: 3/2; exact for 2-pt Gauss
    assert -R[0:n].sum() == pytest.approx(1.5, abs=1e-13)
    # consistent nodal load at the top-right corner node: its basis on the
    # edge y in [1/2, 1] is 2y - 1, so int 3y (2y - 1) dy = 0.625
    corner = cm.dof_table()[mesh.elements[mesh.boundary_edge_elems["right"][1]][2], 0]
    assert -R[corner] == pytest.approx(0.625, abs=1e-12)


# --- pressure penalty ----------------------------------------------------------

def test_pressure_penalty_terms():
    mesh, cm, ctx, _ = _channel_ctx()
    n = ctx.n
    nq = ctx.volume.nq
    P = 2.0
    U = linear_flow_state(cm, (0, 0, 0), (0, 0, 0), (P, 0, 0))
    params = FlowParams(rho=1, mu=0.1, k_pressure=0.7)
    # psibar == 0 -> zero
    R0, _ = assemble_flow(ctx, params, U, coeff_state=U, psibar=np.zeros(nq),
                          terms=frozenset({PRESSURE_PENALTY}), want_matrix=False)
    assert np.linalg.norm(R0) < 1e-15
    # psibar == 1, constant p = P: continuity rows get k_p P int(N_a)
    R1, _ = assemble_flow(ctx, params, U, coeff_state=U, psibar=np.ones(nq),
                          terms=frozenset({PRESSURE_PENALTY}), want_matrix=False)
    assert R1[2 * n:].sum() == pytest.approx(0.7 * P * 2.0, abs=1e-12)  # area 2
    assert np.linalg.norm(R1[:2 * n]) == 0
    # k_p = 0 -> zero
    params0 = FlowParams(rho=1, mu=0.1, k_pressure=0.0)
    R2, _ = assemble_flow(ctx, params0, U, coeff_state=U, psibar=np.ones(nq),
                          terms=frozenset({PRESSURE_PENALTY}), want_matrix=False)
    assert np.linalg.norm(R2) < 1e-15


# --- ghost penalties -----------------------------------------------------------

def test_ghost_vanishes_on_global_linear_field():
    mesh, cm, ctx, regions, params = _cut_ctx()
    U = linear_flow_state(cm, (0.1, 0.3, -0.7), (0.0, -0.2, 0.5), (1.0, 0.9, 0.2))
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({GHOST}), want_matrix=False)
    assert np.max(np.abs(R)) < 1e-13


def test_ghost_zero_when_disabled():
    mesh, cm, ctx, regions, _ = _cut_ctx()
    params = FlowParams(rho=1, mu=0.05, alpha_gp_mu=0, alpha_gp_p=0, alpha_gp_u=0)
    rng = np.random.default_rng(0)
    U = rng.normal(size=3 * ctx.n)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({GHOST}), want_matrix=False)
    assert np.linalg.norm(R) == 0


def test_ghost_single_facet_hand_integral():
    # 2x1 strip, right element cut by a vertical interface: one ghost facet
    mesh = build_mesh(((0, 0), (2, 1)), (2, 1))
    phi = perturb(mesh.nodes[:, 0] - 1.6, mesh.h)
    cm = build_cut_model(mesh, phi)
    assert cm.pair_facet.shape[0] == 1
    ctx = build_context(cm, ())
    n = ctx.n
    rng = np.random.default_rng(1)
    U = rng.normal(size=3 * n)
    params = FlowParams(rho=1.2, mu=0.3, alpha_gp_mu=0.4, alpha_gp_p=0.02,
                        alpha_gp_u=0.25)
    R, _ = assemble_flow(ctx, params, U, coeff_state=U,
                         terms=frozenset({GHOST}), want_matrix=False)

    # independent integration of the jump terms on x = 1 with the scheme's
    # own 2-point rule (the frozen gammas are not polynomial in position)
    d1, d2 = cm.pair_dofs[0]
    e1, e2 = mesh.facet_elems[cm.pair_facet[0]]
    h = mesh.h
    R2 = np.zeros(3 * n)
    gpts, gwts = np.polynomial.legendre.leggauss(2)
    for t, wgt in zip(gpts, gwts):
        y = 0.5 + 0.5 * t
        w = 0.5 * wgt  # facet length 1
        x = np.array([[1.0, y]])
        N1, gx1, _ = shape_q1(mesh, np.array([e1]), x)
        N2, gx2, _ = shape_q1(mesh, np.array([e2]), x)
        g1, g2 = gx1[0], gx2[0]  # normal = +x
        uc = 0.5 * (N1[0] @ U[d1] + N2[0] @ U[d2]), \
            0.5 * (N1[0] @ U[n + d1] + N2[0] @ U[n + d2])
        un = uc[0]
        uinf = max(abs(uc[0]), abs(uc[1]))
        gv = params.alpha_gp_mu * params.mu * h \
            + params.alpha_gp_u * params.rho * abs(un) * h * h
        gpp = params.alpha_gp_p * h * h / (params.mu / h + params.rho * uinf / 6)
        for block, gamma in ((0, gv), (1, gv), (2, gpp)):
            jump = g1 @ U[block * n + d1] - g2 @ U[block * n + d2]
            for a in range(4):
                R2[block * n + d1[a]] += w * gamma * g1[a] * jump
                R2[block * n + d2[a]] -= w * gamma * g2[a] * jump
    assert np.max(np.abs(R - R2)) < 1e-12


# --- full assembly -------------------------------------------------------------

def test_jacobian_matches_fd_frozen_coefficients():
    mesh, cm, ctx, regions, params = _cut_ctx()
    n = ctx.n
    rng = np.random.default_rng(42)
    U = rng.normal(scale=0.3, size=3 * n)
    Uc = rng.normal(scale=0.3, size=3 * n)  # frozen
    slot = TimeSlot(alpha=1 / 0.05, hist=rng.normal(scale=0.1, size=3 * n),
                    dt=0.05)
    R, J = assemble_flow(ctx, params, U, coeff_state=Uc, slot=slot)
    eps = 1e-7
    for _ in range(10):
        d = rng.normal(size=3 * n)
        d /= np.linalg.norm(d)
        Rp, _ = assemble_flow(ctx, params, U + eps * d, coeff_state=Uc,
                              slot=slot, want_matrix=False)
        Rm, _ = assemble_flow(ctx, params, U - eps * d, coeff_state=Uc,
                              slot=slot, want_matrix=False)
        fd = (Rp - Rm) / (2 * eps)
        an = J @ d
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) < 1e-5


def test_mirror_symmetry_of_residual():
    # symmetric channel: mirroring the state mirrors the residual
    mesh, cm, ctx, regions = _channel_ctx(nx=6, ny=4, W=1.5, H=1.0)
    n = ctx.n
    xy = scalar_dof_coords(cm)
    H = 1.0
    # dof permutation: node (x, y) -> (x, H - y)
    index = {(round(x, 9), round(y, 9)): d for d, (x, y) in enumerate(xy)}
    perm = np.array([index[(round(x, 9), round(H - y, 9))] for x, y in xy])

    def mirror(U):
        out = np.empty_like(U)
        out[0:n] = U[perm]
        out[n:2 * n] = -U[n + perm]
        out[2 * n:] = U[2 * n + perm]
        return out

    rng = np.random.default_rng(9)
    U = rng.normal(scale=0.2, size=3 * n)
    params = FlowParams(rho=1.0, mu=0.2)
    R1, _ = assemble_flow(ctx, params, mirror(U), coeff_state=mirror(U),
                          want_matrix=False)
    R2, _ = assemble_flow(ctx, params, U, coeff_state=U, want_matrix=False)
    assert np.max(np.abs(R1 - mirror(R2))) < 1e-12


def test_wall_velocity_error_decreases_with_nitsche_penalty():
    # fitted channel: boundary velocity error decreases monotonically in alpha
    errs = []
    for alpha in (10.0, 100.0, 1000.0, 10000.0):
        mesh = build_mesh(((0, 0), (2, 1)), (16, 8))
        cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
        regions = channel_regions(mesh, 1.0)
        ctx = build_context(cm, regions)
        n = ctx.n
        params = FlowParams(rho=1.0, mu=0.1, alpha_nitsche=alpha)
        make = lambda slot: (lambda x: assemble_flow(
            ctx, params, x, coeff_state=x, slot=slot))
        U, _, _, _ = steady_solve(make, np.zeros(3 * n), SolveConfig())
        err = 0.0
        for region in ctx.regions:
            if region.kind != "velocity":
                continue
            blk = ctx.surface_part(region.name)
            uhat = region.velocity_at(blk.x)
            ux = (blk.N * U[blk.dofs]).sum(1)
            uy = (blk.N * U[n + blk.dofs]).sum(1)
            err += float((blk.w * ((ux - uhat[:, 0]) ** 2
                                   + (uy - uhat[:, 1]) ** 2)).sum())
        errs.append(np.sqrt(err))
    assert errs[0] > errs[1] > errs[2] > errs[3]
