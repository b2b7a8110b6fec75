"""Residual and exact Jacobian of the incompressible Navier-Stokes system.

Dof layout for a context with n scalar dofs: [ux(0:n), uy(n:2n), p(2n:3n)],
equal-order bilinear interpolation for all three fields. Contributions:
volumetric Galerkin, SUPG/PSPG stabilization, Nitsche Dirichlet terms on
external boundaries and on the immersed interface, Neumann tractions, the
indicator-gated average-pressure penalty, and the viscous / pressure /
convective ghost penalties on the facet set next to the interface.

The stabilization time scale tau is evaluated from the current state and
differentiated exactly. The velocity-dependent penalty factors (Nitsche
gamma, pressure and convective ghost gammas) are evaluated from a frozen
coefficient state and not differentiated; Newton updates the coefficient
state once per iteration, so the converged solution is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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
        if self.rho <= 0 or self.mu <= 0:
            raise ValueError("rho and mu must be positive")
        for a in (self.alpha_nitsche, self.alpha_gp_mu, self.alpha_gp_p, self.alpha_gp_u):
            if a < 0:
                raise ValueError("penalty constants must be nonnegative")


STEADY = STEADY_SLOT
VOLUME_BATCH = 4096  # volume points per Jacobian batch (bounds its temporaries)
# adjoint-consistency sign of the Nitsche pressure term (skew-symmetric)
BETA_PRESSURE = -1.0


class _Triplets:
    """The Jacobian entries of one assembly pass, summed into CSR.

    add(rows, cols, vals) puts vals[k, i, j] at (rows[k, i], cols[k, j]);
    consecutive points with equal row and column dofs (the points of one
    piece, chord or facet) are summed into one block first. The first
    matrix of a kind on a context builds its CSR plan, each triplet's slot
    in a fixed indptr/indices, and caches it on the context; every later
    one is a single bincount into those slots.
    """

    def __init__(self):
        self.blocks = []

    def add(self, rows, cols, vals):
        new = np.ones(rows.shape[0], dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]).any(1) | (cols[1:] != cols[:-1]).any(1)
        if not new.all():
            starts = np.flatnonzero(new)
            rows, cols = rows[starts], cols[starts]
            vals = np.add.reduceat(vals, starts, axis=0)
        self.blocks.append((rows, cols, vals))

    def matrix(self, ctx, kind, shape):
        """The CSR matrix of the triplets; kind names the matrix (and its
        terms) among those assembled on ctx."""
        if not self.blocks:
            return sp.csr_matrix(shape)
        vals = np.concatenate([v.ravel() for _, _, v in self.blocks])
        plan = ctx.csr_plans.get(kind)
        if plan is None or plan[0].shape[0] != vals.shape[0]:
            plan = ctx.csr_plans[kind] = _csr_plan(self.blocks, shape)
        slot, indices, indptr = plan
        data = np.bincount(slot, vals, minlength=indices.shape[0])
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=shape)


def _csr_plan(blocks, shape):
    """(slot, indices, indptr): the CSR pattern of the blocks' triplets,
    with sorted column indices, and each triplet's position in it."""
    rows = np.concatenate([np.broadcast_to(r[:, :, None], v.shape).ravel()
                           for r, _, v in blocks]).astype(np.int64)
    cols = np.concatenate([np.broadcast_to(c[:, None, :], v.shape).ravel()
                           for _, c, v in blocks])
    keys, slot = np.unique(rows * shape[1] + cols, return_inverse=True)
    index = np.int32 if max(keys.shape[0], shape[1]) < 2**31 else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(keys // shape[1], minlength=shape[0]), out=indptr[1:])
    return slot, (keys % shape[1]).astype(index), indptr


def _block_dofs(dofs, n):
    """12-slot dof layout [ux, uy, p] for one quadrature batch (nq, 4)."""
    return np.concatenate([dofs, dofs + n, dofs + 2 * n], axis=1)


def _scatter_block(R, tri, dref, r_local, j_local, w):
    """Apply weights and scatter a local residual/Jacobian batch (j_local
    is weighted in place)."""
    np.add.at(R, dref, r_local * w[:, None])
    if tri is not None and j_local is not None:
        j_local *= w[:, None, None]
        tri.add(dref, dref, j_local)


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
    R = np.zeros(3 * n)
    tri = _Triplets() if want_matrix else None

    hist = slot.hist if slot.hist is not None else np.zeros(3 * n)

    if ctx.vol_w is not None and ctx.vol_w.shape[0]:
        _volume_terms(ctx, params, U, hist, slot, psibar, terms, R, tri)

    if NITSCHE in terms:
        blk = ctx.interface
        if blk is not None and blk.nq:
            uhat = np.zeros((blk.nq, 2))  # no-slip interface default
            _nitsche_velocity(ctx, params, U, Uc, blk, uhat, R, tri)
        for blk in ctx.boundary:
            if not blk.nq:
                continue
            region = blk.region
            if region.kind == "velocity":
                uhat = region.velocity_at(blk.x, slot.t)
                _nitsche_velocity(ctx, params, U, Uc, blk, uhat, R, tri)
            elif region.kind == "symmetry":
                _nitsche_symmetry(ctx, params, U, Uc, blk, R, tri)

    if NEUMANN in terms:
        for blk in ctx.boundary:
            if blk.nq and blk.region.kind == "traction":
                that = blk.region.traction_at(blk.x, slot.t)
                dref = _block_dofs(blk.dofs, n)
                r = np.zeros((blk.nq, 12))
                r[:, 0:4] = -blk.N * that[:, 0:1]
                r[:, 4:8] = -blk.N * that[:, 1:2]
                np.add.at(R, dref, r * blk.w[:, None])

    if GHOST in terms and ctx.ghost is not None and ctx.ghost.nq:
        _ghost_terms(ctx, params, U, Uc, R, tri)

    J = tri.matrix(ctx, ("flow", terms), (3 * n, 3 * n)) if want_matrix else None
    return R, J


def _outer(a, b):
    """Outer product of each row pair: (nq, m) and (nq, k) -> (nq, m, k)."""
    return a[:, :, None] * b[:, None, :]


def _flow_fields(U, n, dofs, N, gx, gy):
    """Element values (ux, uy, p) and, at the points, ux, uy, p and the
    velocity gradient (d_x ux, d_y ux, d_x uy, d_y uy)."""
    uxe = U[0:n][dofs]
    uye = U[n:2 * n][dofs]
    pe = U[2 * n:3 * n][dofs]
    return (uxe, uye, pe, (N * uxe).sum(1), (N * uye).sum(1), (N * pe).sum(1),
            (gx * uxe).sum(1), (gy * uxe).sum(1), (gx * uye).sum(1), (gy * uye).sum(1))


def _volume_terms(ctx, params, U, hist, slot, psibar, terms, R, tri):
    """Volume terms, with the Jacobian in batches of VOLUME_BATCH points
    (its per-point 12x12 blocks and their temporaries are the largest
    arrays of an assembly); the residual alone takes one batch."""
    nq = ctx.vol_w.shape[0]
    step = nq if tri is None else VOLUME_BATCH
    for start in range(0, nq, step):
        pts = slice(start, start + step)
        _volume_batch(ctx, params, U, hist, slot,
                      None if psibar is None else psibar[pts], terms, R, tri, pts)


def _volume_batch(ctx, params, U, hist, slot, psibar, terms, R, tri, pts):
    n = ctx.n
    rho, mu = params.rho, params.mu
    N, gx, gy, d2 = ctx.vol_N[pts], ctx.vol_gx[pts], ctx.vol_gy[pts], ctx.vol_d2[pts]
    dofs = ctx.vol_dofs[pts]
    W = ctx.vol_w[pts]
    nq = W.shape[0]
    want_j = tri is not None

    uxe, uye, pe, ux, uy, p, uxx, uxy, uyx, uyy = _flow_fields(U, n, dofs, N, gx, gy)
    px = (gx * pe).sum(1)
    py = (gy * pe).sum(1)
    d2x = (d2 * uxe).sum(1)  # d2(ux)/dxdy
    d2y = (d2 * uye).sum(1)

    hx = (N * hist[0:n][dofs]).sum(1)
    hy = (N * hist[n:2 * n][dofs]).sum(1)
    alpha = slot.alpha
    utx = alpha * ux + hx
    uty = alpha * uy + hy

    conv_x = ux * uxx + uy * uxy
    conv_y = ux * uyx + uy * uyy
    exy = 0.5 * (uxy + uyx)

    dref = _block_dofs(dofs, n)
    X, Y, P = slice(0, 4), slice(4, 8), slice(8, 12)
    r = np.zeros((nq, 12))
    J = np.zeros((nq, 12, 12)) if want_j else None
    udotgN = ux[:, None] * gx + uy[:, None] * gy

    if GALERKIN in terms:
        r[:, X] += N * (rho * (utx + conv_x))[:, None] \
            + 2 * mu * (uxx[:, None] * gx + exy[:, None] * gy) - p[:, None] * gx
        r[:, Y] += N * (rho * (uty + conv_y))[:, None] \
            + 2 * mu * (exy[:, None] * gx + uyy[:, None] * gy) - p[:, None] * gy
        r[:, P] += N * (uxx + uyy)[:, None]
        if want_j:
            NaNb = N[:, :, None] * N[:, None, :]
            J[:, X, X] += rho * N[:, :, None] * (
                alpha * N + udotgN + uxx[:, None] * N
            )[:, None, :] + 2 * mu * (
                gx[:, :, None] * gx[:, None, :] + 0.5 * gy[:, :, None] * gy[:, None, :]
            )
            J[:, X, Y] += rho * uxy[:, None, None] * NaNb \
                + mu * gy[:, :, None] * gx[:, None, :]
            J[:, X, P] += -gx[:, :, None] * N[:, None, :]
            J[:, Y, X] += rho * uyx[:, None, None] * NaNb \
                + mu * gx[:, :, None] * gy[:, None, :]
            J[:, Y, Y] += rho * N[:, :, None] * (
                alpha * N + udotgN + uyy[:, None] * N
            )[:, None, :] + 2 * mu * (
                gy[:, :, None] * gy[:, None, :] + 0.5 * gx[:, :, None] * gx[:, None, :]
            )
            J[:, Y, P] += -gy[:, :, None] * N[:, None, :]
            J[:, P, X] += N[:, :, None] * gx[:, None, :]
            J[:, P, Y] += N[:, :, None] * gy[:, None, :]

    if PRESSURE_PENALTY in terms and psibar is not None and params.k_pressure != 0.0:
        kp = params.k_pressure
        r[:, P] += (kp * psibar * p)[:, None] * N
        if want_j:
            J[:, P, P] += (kp * psibar)[:, None, None] * N[:, :, None] * N[:, None, :]

    if STABILIZATION in terms:
        tau, dtau_fac = _tau(params, slot, ux * ux + uy * uy, ctx.h)
        Sx = rho * (utx + conv_x) + px - mu * d2y
        Sy = rho * (uty + conv_y) + py - mu * d2x
        r[:, X] += tau[:, None] * udotgN * Sx[:, None]
        r[:, Y] += tau[:, None] * udotgN * Sy[:, None]
        r[:, P] += (tau / rho)[:, None] * (gx * Sx[:, None] + gy * Sy[:, None])
        if want_j:
            dSx_dux = rho * (alpha * N + udotgN + uxx[:, None] * N)
            dSx_duy = rho * uxy[:, None] * N - mu * d2
            dSy_dux = rho * uyx[:, None] * N - mu * d2
            dSy_duy = rho * (alpha * N + udotgN + uyy[:, None] * N)
            dtau_x = (dtau_fac * ux)[:, None] * N  # (nq, 4b)
            dtau_y = (dtau_fac * uy)[:, None] * N

            # velocity-test rows
            for rows, S, dS_dux, dS_duy, gdir in (
                (X, Sx, dSx_dux, dSx_duy, gx),
                (Y, Sy, dSy_dux, dSy_duy, gy),
            ):
                J[:, rows, X] += _outer(udotgN * S[:, None], dtau_x) \
                    + tau[:, None, None] * (
                        _outer(gx, N) * S[:, None, None] + _outer(udotgN, dS_dux))
                J[:, rows, Y] += _outer(udotgN * S[:, None], dtau_y) \
                    + tau[:, None, None] * (
                        _outer(gy, N) * S[:, None, None] + _outer(udotgN, dS_duy))
                J[:, rows, P] += tau[:, None, None] * _outer(udotgN, gdir)
            # pressure-test rows
            gS = gx * Sx[:, None] + gy * Sy[:, None]
            J[:, P, X] += _outer(gS, dtau_x) / rho + (tau / rho)[:, None, None] * (
                _outer(gx, dSx_dux) + _outer(gy, dSy_dux))
            J[:, P, Y] += _outer(gS, dtau_y) / rho + (tau / rho)[:, None, None] * (
                _outer(gx, dSx_duy) + _outer(gy, dSy_duy))
            J[:, P, P] += (tau / rho)[:, None, None] * (
                _outer(gx, gx) + _outer(gy, gy))

    _scatter_block(R, tri, dref, r, J, W)


def _nitsche_gamma(ctx, params, blk, Uc):
    """Frozen Nitsche velocity penalty at surface quadrature points."""
    n = ctx.n
    ucx = (blk.N * Uc[0:n][blk.dofs]).sum(1)
    ucy = (blk.N * Uc[n:2 * n][blk.dofs]).sum(1)
    uinf = np.maximum(np.abs(ucx), np.abs(ucy))
    return params.alpha_nitsche * (params.mu / ctx.h + params.rho * uinf / 6.0)


def _nitsche_velocity(ctx, params, U, Uc, blk, uhat, R, tri):
    n = ctx.n
    mu = params.mu
    bp = BETA_PRESSURE
    N, gx, gy = blk.N, blk.gx, blk.gy
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    dofs = blk.dofs
    nq = blk.nq
    want_j = tri is not None

    _, _, _, ux, uy, p, uxx, uxy, uyx, uyy = _flow_fields(U, n, dofs, N, gx, gy)
    exy = 0.5 * (uxy + uyx)
    dux = ux - uhat[:, 0]
    duy = uy - uhat[:, 1]
    gamma = _nitsche_gamma(ctx, params, blk, Uc)

    gnN = gx * nx[:, None] + gy * ny[:, None]
    edotn_x = uxx * nx + exy * ny
    edotn_y = exy * nx + uyy * ny
    gdotdu = gx * dux[:, None] + gy * duy[:, None]

    dref = _block_dofs(dofs, n)
    X, Y, P = slice(0, 4), slice(4, 8), slice(8, 12)
    r = np.zeros((nq, 12))
    # standard consistency + viscous adjoint (beta_mu = +1) + penalty
    r[:, X] += N * (p * nx - 2 * mu * edotn_x)[:, None] \
        - mu * (gnN * dux[:, None] + nx[:, None] * gdotdu) \
        + gamma[:, None] * N * dux[:, None]
    r[:, Y] += N * (p * ny - 2 * mu * edotn_y)[:, None] \
        - mu * (gnN * duy[:, None] + ny[:, None] * gdotdu) \
        + gamma[:, None] * N * duy[:, None]
    # pressure adjoint (beta_p = -1)
    r[:, P] += bp * N * (nx * dux + ny * duy)[:, None]

    J = None
    if want_j:
        J = np.zeros((nq, 12, 12))

        # d(eps n)_x/dux_b = 0.5(gnN_b + nx gx_b); /duy_b = 0.5 ny gx_b
        dex_dux = 0.5 * (gnN + nx[:, None] * gx)
        dex_duy = 0.5 * ny[:, None] * gx
        dey_dux = 0.5 * nx[:, None] * gy
        dey_duy = 0.5 * (gnN + ny[:, None] * gy)

        J[:, X, P] += _outer(N * nx[:, None], N)
        J[:, Y, P] += _outer(N * ny[:, None], N)
        J[:, X, X] += -2 * mu * _outer(N, dex_dux) \
            - mu * (_outer(gnN, N) + nx[:, None, None] * _outer(gx, N)) \
            + gamma[:, None, None] * _outer(N, N)
        J[:, X, Y] += -2 * mu * _outer(N, dex_duy) \
            - mu * nx[:, None, None] * _outer(gy, N)
        J[:, Y, X] += -2 * mu * _outer(N, dey_dux) \
            - mu * ny[:, None, None] * _outer(gx, N)
        J[:, Y, Y] += -2 * mu * _outer(N, dey_duy) \
            - mu * (_outer(gnN, N) + ny[:, None, None] * _outer(gy, N)) \
            + gamma[:, None, None] * _outer(N, N)
        J[:, P, X] += bp * _outer(N * nx[:, None], N)
        J[:, P, Y] += bp * _outer(N * ny[:, None], N)

    _scatter_block(R, tri, dref, r, J, blk.w)


def _nitsche_symmetry(ctx, params, U, Uc, blk, R, tri):
    """Weak u.n = 0 with free tangential traction."""
    n = ctx.n
    mu = params.mu
    bp = BETA_PRESSURE
    N, gx, gy = blk.N, blk.gx, blk.gy
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    dofs = blk.dofs
    nq = blk.nq
    want_j = tri is not None

    _, _, _, ux, uy, p, uxx, uxy, uyx, uyy = _flow_fields(U, n, dofs, N, gx, gy)
    exy = 0.5 * (uxy + uyx)
    un = ux * nx + uy * ny
    nen = uxx * nx * nx + 2 * exy * nx * ny + uyy * ny * ny
    gamma = _nitsche_gamma(ctx, params, blk, Uc)
    gnN = gx * nx[:, None] + gy * ny[:, None]

    dref = _block_dofs(dofs, n)
    X, Y, P = slice(0, 4), slice(4, 8), slice(8, 12)
    r = np.zeros((nq, 12))
    cons = p - 2 * mu * nen
    r[:, X] += N * (nx * cons)[:, None] - 2 * mu * nx[:, None] * gnN * un[:, None] \
        + gamma[:, None] * N * (nx * un)[:, None]
    r[:, Y] += N * (ny * cons)[:, None] - 2 * mu * ny[:, None] * gnN * un[:, None] \
        + gamma[:, None] * N * (ny * un)[:, None]
    r[:, P] += bp * N * un[:, None]

    J = None
    if want_j:
        J = np.zeros((nq, 12, 12))

        dnen_dux = (nx * nx)[:, None] * gx + (nx * ny)[:, None] * gy
        dnen_duy = (ny * ny)[:, None] * gy + (nx * ny)[:, None] * gx
        for rows, nd in ((X, nx), (Y, ny)):
            J[:, rows, P] += _outer(N * nd[:, None], N)
            J[:, rows, X] += -2 * mu * _outer(N * nd[:, None], dnen_dux) \
                - 2 * mu * _outer(nd[:, None] * gnN, N * nx[:, None]) \
                + gamma[:, None, None] * _outer(N * nd[:, None], N * nx[:, None])
            J[:, rows, Y] += -2 * mu * _outer(N * nd[:, None], dnen_duy) \
                - 2 * mu * _outer(nd[:, None] * gnN, N * ny[:, None]) \
                + gamma[:, None, None] * _outer(N * nd[:, None], N * ny[:, None])
        J[:, P, X] += bp * _outer(N, N * nx[:, None])
        J[:, P, Y] += bp * _outer(N, N * ny[:, None])

    _scatter_block(R, tri, dref, r, J, blk.w)


def _ghost_terms(ctx, params, U, Uc, R, tri):
    n = ctx.n
    g = ctx.ghost
    h = ctx.h
    want_j = tri is not None

    # frozen convective / inf-norm velocities from the coefficient state
    uc1x = (g.N1 * Uc[0:n][g.dofs1]).sum(1)
    uc1y = (g.N1 * Uc[n:2 * n][g.dofs1]).sum(1)
    uc2x = (g.N2 * Uc[0:n][g.dofs2]).sum(1)
    uc2y = (g.N2 * Uc[n:2 * n][g.dofs2]).sum(1)
    ucx = 0.5 * (uc1x + uc2x)
    ucy = 0.5 * (uc1y + uc2y)
    un = ucx * g.normal[:, 0] + ucy * g.normal[:, 1]
    uinf = np.maximum(np.abs(ucx), np.abs(ucy))

    gamma_vel = params.alpha_gp_mu * params.mu * h \
        + params.alpha_gp_u * params.rho * np.abs(un) * h * h
    gamma_p = params.alpha_gp_p * h * h / (params.mu / h + params.rho * uinf / 6.0)

    jump_ux = (g.gn1 * U[0:n][g.dofs1]).sum(1) \
        - (g.gn2 * U[0:n][g.dofs2]).sum(1)
    jump_uy = (g.gn1 * U[n:2 * n][g.dofs1]).sum(1) \
        - (g.gn2 * U[n:2 * n][g.dofs2]).sum(1)
    jump_p = (g.gn1 * U[2 * n:3 * n][g.dofs1]).sum(1) \
        - (g.gn2 * U[2 * n:3 * n][g.dofs2]).sum(1)

    gvec = np.concatenate([g.gn1, -g.gn2], axis=1)  # (nq, 8)
    dref8 = np.concatenate([g.dofs1, g.dofs2], axis=1)

    for offset, jump, gamma in (
        (0, jump_ux, gamma_vel),
        (n, jump_uy, gamma_vel),
        (2 * n, jump_p, gamma_p),
    ):
        r = gvec * (gamma * jump)[:, None] * g.w[:, None]
        np.add.at(R, dref8 + offset, r)
        if want_j:
            jmat = (gamma * g.w)[:, None, None] * gvec[:, :, None] * gvec[:, None, :]
            tri.add(dref8 + offset, dref8 + offset, jmat)


def flow_time_matrix(ctx, params, state, slot=STEADY):
    """d(residual)/d(du/dt slot): mass-like matrix including stabilization.

    Used by the transient adjoint for cross-step couplings; evaluated at the
    step's own state (tau and the test operator depend on it).
    """
    n = ctx.n
    rho = params.rho
    tri = _Triplets()
    if ctx.vol_w is not None and ctx.vol_w.shape[0]:
        U = np.asarray(state, dtype=float)
        N, gx, gy = ctx.vol_N, ctx.vol_gx, ctx.vol_gy
        dofs = ctx.vol_dofs
        W = ctx.vol_w
        uxe = U[0:n][dofs]
        uye = U[n:2 * n][dofs]
        ux = (N * uxe).sum(1)
        uy = (N * uye).sum(1)
        tau, _ = _tau(params, slot, ux * ux + uy * uy, ctx.h)
        udotgN = ux[:, None] * gx + uy[:, None] * gy
        nq = W.shape[0]
        J = np.zeros((nq, 12, 12))
        X, Y, P = slice(0, 4), slice(4, 8), slice(8, 12)

        galerkin = rho * _outer(N, N)
        supg = rho * tau[:, None, None] * _outer(udotgN, N)
        J[:, X, X] += galerkin + supg
        J[:, Y, Y] += galerkin + supg
        J[:, P, X] += tau[:, None, None] * _outer(gx, N)
        J[:, P, Y] += tau[:, None, None] * _outer(gy, N)
        dref = _block_dofs(dofs, n)
        tri.add(dref, dref, J * W[:, None, None])
    return tri.matrix(ctx, ("time",), (3 * n, 3 * n))


def flow_indicator_jacobian(ctx, params, state, psi, indicator_params):
    """d(flow residual)/d(psi): the pressure penalty's indicator coupling."""
    n = ctx.n
    tri = _Triplets()
    if ctx.vol_w is not None and ctx.vol_w.shape[0] and params.k_pressure != 0.0:
        U = np.asarray(state, dtype=float)
        psi_q = (ctx.vol_N * np.asarray(psi, dtype=float)[ctx.vol_dofs]).sum(1)
        pe = U[2 * n:3 * n][ctx.vol_dofs]
        p = (ctx.vol_N * pe).sum(1)
        kw, kt, pinf = (indicator_params.k_sharpness, indicator_params.k_threshold,
                        indicator_params.psi_ref)
        th = np.tanh(kw * (psi_q - kt * pinf))
        dproj = 0.5 * kw * (1.0 - th * th)
        vals = (params.k_pressure * p * dproj * ctx.vol_w)[:, None, None] \
            * ctx.vol_N[:, :, None] * ctx.vol_N[:, None, :]
        tri.add(ctx.vol_dofs + 2 * n, ctx.vol_dofs, vals)
    return tri.matrix(ctx, ("flow_indicator",), (3 * n, n))
