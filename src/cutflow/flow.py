"""Residual and exact Jacobian of the incompressible Navier-Stokes system.

Dof layout for a context with n scalar dofs: [ux(0:n), uy(n:2n), p(2n:3n)],
equal-order bilinear interpolation for all three fields. Contributions:
volumetric Galerkin, SUPG/PSPG stabilization, Nitsche terms, Neumann
tractions, the indicator-gated average-pressure penalty, and the viscous /
pressure / convective ghost penalties on the facet set next to the
interface.

One Nitsche kernel imposes P (u - uhat) = 0 on the interface and on the
velocity and symmetry regions, with a projector P per point
(forms.projector): the identity, or n n^T on a symmetry region, which
prescribes u.n = 0 and leaves the tangential traction free (Freund and
Stenberg 1995). Its Jacobian reads the traction -p n + 2 mu eps(u) n as rows
over the corner state (traction_rows), which the drag criterion reads too.

Every volume and Nitsche Jacobian term pairs one of three test functions,
N_a, d_x N_a or d_y N_a, with a trial row: the SUPG test u.grad N_a and the
PSPG test grad N_a . S fold into the two gradient rows. So at a quadrature
point q the 12x12 block is T_q^T C_q, with T_q = [N; d_x N; d_y N] (3 x 4)
and C_q the trial rows (3 tests x 3 row blocks [ux, uy, p] x 12 trial
entries), and the block of a piece (or of a run of chords with equal dofs)
is sum_q w_q T_q^T C_q, which forms.piece_blocks sums for every assembler.
The ghost penalties go through forms.ghost_jumps, the species and indicator
ghost's kernel too. No per-point block is formed. Every term reads its
points from one of the context's point tables (a volume batch is a take of
the volume table, kept with it; a condition set one of the surface table),
its test rows NT, gxT, gyT from the table's test table and its per-run
sums from the table's plan, both built once per table, and every field
value at the points comes from the table (forms.field_at). The Nitsche
Jacobian's trial rows but the penalty's depend on the geometry and mu
alone, so a context keeps them, and each assembly adds gamma P N to a
copy.

The stabilization time scale tau is evaluated from the current state and
differentiated exactly. The velocity-dependent penalty factors (Nitsche
gamma, pressure and convective ghost gammas) are evaluated from a frozen
coefficient state and not differentiated; Newton updates the coefficient
state once per iteration, so the converged solution is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Scatter, Triplets, field_at, ghost_jumps, kept, prescribed, projector
from .solve import STEADY_SLOT

GALERKIN = "galerkin"
STABILIZATION = "stabilization"
NITSCHE = "nitsche"
NEUMANN = "neumann"
PRESSURE_PENALTY = "pressure_penalty"
GHOST = "ghost"
ALL_TERMS = frozenset(
    (GALERKIN, STABILIZATION, NITSCHE, NEUMANN, PRESSURE_PENALTY, GHOST)
)


@dataclass
class FlowParams:
    """Material and penalty constants for the flow system."""

    rho: float = 1.0
    mu: float = 1.0
    alpha_nitsche: float = 100.0
    alpha_gp_mu: float = 0.05
    alpha_gp_p: float = 0.005
    alpha_gp_u: float = 0.05
    k_pressure: float = 1.0
    # include the (2/dt)^2 term in tau; switching it off keeps the spatial
    # stabilization step-size independent (useful for temporal order studies
    # and for very small steps, where a dt-scaled tau starves the PSPG term)
    tau_time_term: bool = True

    def __post_init__(self):
        if not (self.rho > 0 and self.mu > 0):  # nan fails too
            raise ValueError("rho and mu must be positive")
        for a in (self.alpha_nitsche, self.alpha_gp_mu, self.alpha_gp_p, self.alpha_gp_u,
                  self.k_pressure):
            if not a >= 0:
                raise ValueError("penalty constants must be nonnegative")


STEADY = STEADY_SLOT
VOLUME_BATCH = 4096  # volume points per Jacobian batch (bounds its temporaries)
# adjoint-consistency sign of the Nitsche pressure term (skew-symmetric)
BETA_PRESSURE = -1.0


def block_dofs(dofs, n):
    """12-slot dof layout [ux, uy, p] for one quadrature batch (nq, 4)."""
    return np.concatenate([dofs, dofs + n, dofs + 2 * n], axis=1)


def _tau(params, slot, speed2, h):
    """Stabilization time scale and its derivative factor wrt velocity."""
    nu = params.mu / params.rho
    a = (4.0 * nu / (h * h)) ** 2
    if slot.dt is not None and params.tau_time_term:
        a = a + (2.0 / slot.dt) ** 2
    tau = 1.0 / np.sqrt(a + 4.0 * speed2 / (h * h))
    dtau_fac = -4.0 * tau**3 / (h * h)  # d(tau)/d(u_e) = dtau_fac * u_e
    return tau, dtau_fac


def assemble_flow(ctx, params, state, coeff_state=None, slot=STEADY,
                  psibar=None, terms=ALL_TERMS, want_matrix=True):
    """Assemble the flow residual (and Jacobian) on one integration context.

    state, coeff_state: vectors of length 3 * ctx.n. psibar: projected
    indicator at the volume quadrature points (None disables the pressure
    penalty). Returns (R, J) with J None when want_matrix is False.
    """
    n = ctx.n
    U = np.asarray(state, dtype=float)
    Uc = U if coeff_state is None else np.asarray(coeff_state, dtype=float)
    R = Scatter(3 * n)
    tri = Triplets() if want_matrix else None

    hist = slot.hist if slot.hist is not None else np.zeros(3 * n)

    if ctx.volume.nq:
        _volume_terms(ctx, params, U, hist, slot, psibar, terms, R, tri)

    blk = ctx.conditions["velocity"]
    if NITSCHE in terms and blk.nq:
        _nitsche_velocity(ctx, params, U, Uc, blk, prescribed(ctx, "velocity", slot.t),
                          projector(ctx), R, tri)

    blk = ctx.conditions["traction"]
    if NEUMANN in terms and blk.nq:
        that = prescribed(ctx, "traction", slot.t)
        r = np.zeros((blk.nq, 12))
        r[:, 0:4] = -blk.N * that[:, 0:1]
        r[:, 4:8] = -blk.N * that[:, 1:2]
        R.add(block_dofs(blk.dofs, n), r * blk.w[:, None])

    if GHOST in terms and ctx.ghost.nq:
        gamma_vel, gamma_p = _ghost_gammas(ctx, params, Uc)
        ghost_jumps(ctx, U, ((gamma_vel, (0, 1)), (gamma_p, (2,))), R, tri)

    J = tri.matrix(ctx, (3 * n, 3 * n)) if want_matrix else None
    return R.total(), J


def flow_fields(U, n, blk, k=3):
    """ux, uy and p at the points of a point table (3, k, nq): each field's
    values under the first k of N, d_x N, d_y N (its values and gradient)."""
    return blk.at(U.reshape(3, n), k)


def _volume_terms(ctx, params, U, hist, slot, psibar, terms, R, tri):
    """Volume terms, with the Jacobian in batches of VOLUME_BATCH points
    (its trial rows C and their per-piece gathers are the largest arrays of
    an assembly); the residual alone takes one batch."""
    vol = ctx.volume
    for pts, blk in vol.batches(vol.nq if tri is None else VOLUME_BATCH):
        _volume_batch(ctx, params, U, hist, slot,
                      None if psibar is None else psibar[pts], terms, R, tri, blk)


def _volume_batch(ctx, params, U, hist, slot, psibar, terms, R, tri, blk):
    """Volume residual and Jacobian of one batch of points, blk.

    Every Jacobian term pairs a test function N_a, d_x N_a or d_y N_a with a
    trial row (the SUPG test u.grad N_a and the PSPG test grad N_a . S fold
    into the gradient rows). So a point's 12x12 block is T_q^T C_q, with
    T_q = [N; d_x N; d_y N] (3 x 4) and C_q (3 tests, 3 row blocks
    [ux, uy, p], 12 trial entries), and a piece's block is one matmul over
    its points (forms.piece_blocks).
    """
    n = ctx.n
    rho, mu = params.rho, params.mu
    dofs, W = blk.dofs, blk.w
    # test rows with the points last, which the residual rows take too
    NT, gxT, gyT = blk.tests
    d2T = np.array([1.0, -1.0, 1.0, -1.0])[:, None] / (ctx.h * ctx.h)  # d2N/dxdy, one row
    nq = blk.nq
    want_j = tri is not None

    (ux, uxx, uxy), (uy, uyx, uyy), (p, px, py) = flow_fields(U, n, blk)
    hx, hy = blk.at(hist.reshape(3, n)[:2], 1)[:, 0]
    alpha = slot.alpha
    utx = alpha * ux + hx
    uty = alpha * uy + hy

    conv_x = ux * uxx + uy * uxy
    conv_y = ux * uyx + uy * uyy
    exy = 0.5 * (uxy + uyx)

    X, Y, P = slice(0, 4), slice(4, 8), slice(8, 12)
    r = np.zeros((12, nq))  # the residual rows [ux, uy, p] x 4 corners, points last
    if want_j:
        # trial rows: C[test, row block, trial entry]
        C = np.zeros((3, 3, 12, nq))
        aN = alpha * NT + ux * gxT + uy * gyT  # (alpha + u.grad) N_b
        dSx_dux = rho * (aN + uxx * NT)
        dSy_duy = rho * (aN + uyy * NT)

    if GALERKIN in terms:
        r[X] += NT * (rho * (utx + conv_x)) + 2 * mu * (uxx * gxT + exy * gyT) - p * gxT
        r[Y] += NT * (rho * (uty + conv_y)) + 2 * mu * (exy * gxT + uyy * gyT) - p * gyT
        r[P] += NT * (uxx + uyy)
        if want_j:
            C[0, 0, X] += dSx_dux
            C[0, 0, Y] += rho * uxy * NT
            C[0, 1, X] += rho * uyx * NT
            C[0, 1, Y] += dSy_duy
            C[1, 0, X] += 2 * mu * gxT
            C[2, 0, X] += mu * gyT
            C[2, 0, Y] += mu * gxT
            C[1, 1, X] += mu * gyT
            C[1, 1, Y] += mu * gxT
            C[2, 1, Y] += 2 * mu * gyT
            C[1, 0, P] -= NT
            C[2, 1, P] -= NT
            C[0, 2, X] += gxT
            C[0, 2, Y] += gyT

    if PRESSURE_PENALTY in terms and psibar is not None:
        kp = params.k_pressure
        r[P] += (kp * psibar * p) * NT
        if want_j:
            C[0, 2, P] += kp * psibar * NT

    if STABILIZATION in terms:
        d2x, d2y = field_at(U.reshape(3, n)[:2], dofs, d2T[None])[:, 0]  # d2(u)/dxdy
        tau, dtau_fac = _tau(params, slot, ux * ux + uy * uy, ctx.h)
        Sx = rho * (utx + conv_x) + px - mu * d2y
        Sy = rho * (uty + conv_y) + py - mu * d2x
        udotgN = ux * gxT + uy * gyT
        r[X] += tau * udotgN * Sx
        r[Y] += tau * udotgN * Sy
        r[P] += (tau / rho) * (gxT * Sx + gyT * Sy)
        if want_j:
            dSx_duy = rho * uxy * NT - mu * d2T
            dSy_dux = rho * uyx * NT - mu * d2T
            dtau_x = dtau_fac * ux * NT
            dtau_y = dtau_fac * uy * NT
            for b, S, dS_dux, dS_duy, gdir in ((0, Sx, dSx_dux, dSx_duy, gxT),
                                               (1, Sy, dSy_dux, dSy_duy, gyT)):
                # d(tau S)/du_b: the SUPG test u.grad N_a splits into ux, uy
                # times the gradient rows, and so does the PSPG test grad N_a . S
                Vx = S * dtau_x + tau * dS_dux
                Vy = S * dtau_y + tau * dS_duy
                tS = tau * S * NT  # d(u.grad N_a)/du_b times tau S
                C[1, b, X] += ux * Vx + tS
                C[2, b, X] += uy * Vx
                C[1, b, Y] += ux * Vy
                C[2, b, Y] += uy * Vy + tS
                C[1, b, P] += ux * tau * gdir
                C[2, b, P] += uy * tau * gdir
                C[1 + b, 2, X] += Vx / rho
                C[1 + b, 2, Y] += Vy / rho
            C[1, 2, P] += tau / rho * gxT
            C[2, 2, P] += tau / rho * gyT

    R.add(block_dofs(dofs, n), (r * W).T)
    if want_j:
        tri.add_pieces(blk, C)


def _nitsche_gamma(ctx, params, blk, Uc):
    """Frozen Nitsche velocity penalty at surface quadrature points."""
    ucx, ucy = blk.at(Uc.reshape(3, ctx.n)[:2], 1)[:, 0]
    uinf = np.maximum(np.abs(ucx), np.abs(ucy))
    return params.alpha_nitsche * (params.mu / ctx.h + params.rho * uinf / 6.0)


def traction_rows(mu, blk):
    """The traction -p n + 2 mu eps(u) n at the points of a surface block as
    rows over the corner state: (2, 12, nq), row j its component j and entry
    4 f + b its derivative by field f (ux, uy, p) at corner b. The traction
    is linear in the state, so the rows give its value too."""
    NT, gxT, gyT = blk.tests
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    gnT = nx * gxT + ny * gyT
    # 2 mu d(eps n)_x/dux_b = mu (grad N_b . n + nx d_x N_b), /duy_b = mu ny d_x N_b, ...
    return np.stack([np.concatenate([mu * (gnT + nx * gxT), mu * ny * gxT, -nx * NT]),
                     np.concatenate([mu * nx * gyT, mu * (gnT + ny * gyT), -ny * NT])])


def _nitsche_velocity(ctx, params, U, Uc, blk, uhat, P, R, tri):
    """Weak P (u - uhat) = 0 on the points of blk, P[i, j] (2, 2, nq) the
    per-point projector (forms.projector): consistency, viscous adjoint
    (beta_mu = +1), penalty and pressure adjoint (beta_p = -1) terms."""
    n = ctx.n
    mu = params.mu
    bp = BETA_PRESSURE
    N, gx, gy = blk.N, blk.gx, blk.gy
    nrm = blk.normal.T
    nx, ny = nrm
    dofs = blk.dofs

    (ux, uxx, uxy), (uy, uyx, uyy), (p, _, _) = flow_fields(U, n, blk)
    exy = 0.5 * (uxy + uyx)
    # P (-sigma n) and P (u - uhat)
    Ptn = (P * np.stack([p * nx - 2 * mu * (uxx * nx + exy * ny),
                         p * ny - 2 * mu * (exy * nx + uyy * ny)])).sum(1)
    Pdu = (P * (np.stack([ux, uy]) - uhat.T)).sum(1)
    gamma = _nitsche_gamma(ctx, params, blk, Uc)
    gnN = gx * nx[:, None] + gy * ny[:, None]
    gdotdu = gx * Pdu[0][:, None] + gy * Pdu[1][:, None]
    r = np.concatenate([N * Ptn[i][:, None]
                        - mu * (gnN * Pdu[i][:, None] + nrm[i][:, None] * gdotdu)
                        + gamma[:, None] * N * Pdu[i][:, None] for i in (0, 1)]
                       + [bp * N * (nrm * Pdu).sum(0)[:, None]], axis=1)
    R.add(block_dofs(dofs, n), r * blk.w[:, None])
    if tri is not None:
        C = kept(ctx, ("nitsche", mu), lambda: _nitsche_rows(mu, blk, P)).copy()
        # test N_a: the penalty gamma (P u)_i
        C[0, :2, :8] += ((gamma * P)[:, :, None] * blk.tests[0]).reshape(2, 8, -1)
        tri.add_pieces(blk, C)


def _nitsche_rows(mu, blk, P):
    """The Nitsche Jacobian's trial rows (3, 3, 12, nq) but the penalty's,
    which depend on the geometry and mu alone."""
    NT = blk.tests[0]
    nrm = blk.normal.T
    bp = BETA_PRESSURE
    C = np.zeros((3, 3, 12, blk.nq))
    # test N_a: consistency -(P sigma n)_i and, on the pressure rows, the
    # pressure adjoint bp n . P u
    C[0, :2] = -(P[:, :, None] * traction_rows(mu, blk)).sum(1)
    C[0, 2, :8] = ((bp * (nrm[:, None] * P).sum(0))[:, None] * NT).reshape(8, -1)
    # tests d_k N_a: the viscous adjoint -mu (grad N_a . n (P u)_i + n_i
    # grad N_a . P u), whose trial rows are -mu (n_k P_ij + n_i P_kj) N_b
    V = nrm[:, None, None] * P[None] + nrm[None, :, None] * P[:, None]
    C[1:, :2, :8] = ((-mu * V)[:, :, :, None] * NT).reshape(2, 2, 8, -1)
    return C


def _ghost_gammas(ctx, params, Uc):
    """The per-point ghost penalty factors (gamma_vel, gamma_p), frozen at
    the coefficient state."""
    g = ctx.ghost
    h = ctx.h
    # frozen convective / inf-norm velocities from the coefficient state,
    # the mean of both sides
    u = Uc.reshape(3, ctx.n)[:2]
    ucx, ucy = 0.5 * (field_at(u, g.dofs1, g.N1.T[None])
                      + field_at(u, g.dofs2, g.N2.T[None]))[:, 0]
    un = ucx * g.normal[:, 0] + ucy * g.normal[:, 1]
    uinf = np.maximum(np.abs(ucx), np.abs(ucy))

    gamma_vel = params.alpha_gp_mu * params.mu * h \
        + params.alpha_gp_u * params.rho * np.abs(un) * h * h
    gamma_p = params.alpha_gp_p * h * h / (params.mu / h + params.rho * uinf / 6.0)
    return gamma_vel, gamma_p


def flow_time_matrix(ctx, params, state, slot=STEADY):
    """d(residual)/d(du/dt slot): mass-like matrix including stabilization.

    Used by the transient adjoint for cross-step couplings; evaluated at the
    step's own state (tau and the test operator depend on it).
    """
    n = ctx.n
    rho = params.rho
    tri = Triplets()
    U = np.asarray(state, dtype=float)
    for _, blk in ctx.volume.batches(VOLUME_BATCH):
        NT = blk.tests[0]
        ux, uy = blk.at(U.reshape(3, n)[:2], 1)[:, 0]
        tau, _ = _tau(params, slot, ux * ux + uy * uy, ctx.h)
        # Galerkin rho N_a N_b and SUPG rho tau (u.grad N_a) N_b on the
        # velocity rows, PSPG tau grad N_a N_b on the pressure rows
        C = np.zeros((3, 3, 12, NT.shape[1]))
        for b in (0, 1):
            rows = slice(4 * b, 4 * b + 4)
            C[0, b, rows] = rho * NT
            C[1, b, rows] = rho * tau * ux * NT
            C[2, b, rows] = rho * tau * uy * NT
            C[1 + b, 2, rows] = tau * NT
        tri.add_pieces(blk, C)
    return tri.matrix(ctx, (3 * n, 3 * n))


def flow_indicator_jacobian(ctx, params, state, psi, indicator_params):
    """d(flow residual)/d(psi): the pressure penalty's indicator coupling,
    k p proj'(psi) N_a N_b on the pressure rows."""
    n = ctx.n
    tri = Triplets()
    vol = ctx.volume
    if vol.nq:
        psi_q = vol.at(np.asarray(psi, dtype=float), 1)[0]
        p = vol.at(np.asarray(state, dtype=float)[2 * n:3 * n], 1)[0]
        kw, kt, pinf = (indicator_params.k_sharpness, indicator_params.k_threshold,
                        indicator_params.psi_ref)
        th = np.tanh(kw * (psi_q - kt * pinf))
        dproj = 0.5 * kw * (1.0 - th * th)
        C = (params.k_pressure * p * dproj * vol.tests[0])[None, None]
        tri.add_pieces(vol, C, (2,), (0,))
    return tri.matrix(ctx, (3 * n, n))
