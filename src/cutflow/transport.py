"""Species advection-diffusion and the puddle-indicator diffusion problem.

Both fields live in the same enriched scalar space as each pressure /
velocity component. Species transport is one-way coupled to the flow
(velocity enters as data); the indicator field depends only on geometry:
a linear diffusion-reaction solve whose solution relaxes to psi_ref in
fluid regions with no path to a port and is pinned to zero at inlets and
outlets, then projected by a sharp tanh into a binary switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import _Triplets
from .solve import factorize, lu_solve

GALERKIN = "galerkin"
STABILIZATION = "stabilization"
NITSCHE = "nitsche"
NEUMANN = "neumann"
GHOST = "ghost"
ALL_TERMS = frozenset((GALERKIN, STABILIZATION, NITSCHE, NEUMANN, GHOST))


@dataclass
class TransportParams:
    diffusivity: float = 1.0
    alpha_nitsche: float = 1.0
    alpha_gp: float = 0.05
    source: float = 0.0  # volumetric species source

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise ValueError("diffusivity must be positive")


@dataclass
class IndicatorParams:
    reaction: float = 0.01  # relaxation rate toward psi_ref
    psi_ref: float = 1.0
    alpha_nitsche: float = 1.0
    alpha_gp: float = 0.05
    k_sharpness: float = 1000.0
    k_threshold: float = 0.99

    def __post_init__(self):
        if self.reaction <= 0 or self.k_sharpness <= 0:
            raise ValueError("reaction and sharpness must be positive")
        if not 0.0 < self.k_threshold < 1.0:
            raise ValueError("projection threshold factor must be in (0, 1)")


def _outer(a, b):
    """Outer product of each row pair: (nq, m) and (nq, k) -> (nq, m, k)."""
    return a[:, :, None] * b[:, None, :]


def _scatter_block(R, tri, dref, r_local, j_local, w):
    """Apply weights and scatter a local residual/Jacobian batch (j_local
    is weighted in place)."""
    np.add.at(R, dref, r_local * w[:, None])
    if tri is not None and j_local is not None:
        j_local *= w[:, None, None]
        tri.add(dref, dref, j_local)


def _tau_species(params, speed2, h):
    k = params.diffusivity
    a = (4.0 * k / (h * h)) ** 2
    tau = 1.0 / np.sqrt(a + 4.0 * speed2 / (h * h))
    dtau_fac = -4.0 * tau**3 / (h * h)
    return tau, dtau_fac


def assemble_species(ctx, params, state, flow_state, terms=ALL_TERMS,
                     want_matrix=True):
    """Residual (and Jacobian wrt c) of the steady species system.

    state: scalar dof vector c (ctx.n). flow_state: flow vector (3 ctx.n)
    providing the advection velocity.
    """
    n = ctx.n
    c = np.asarray(state, dtype=float)
    U = np.asarray(flow_state, dtype=float)
    k = params.diffusivity
    R = np.zeros(n)
    tri = _Triplets() if want_matrix else None

    if ctx.vol_w is not None and ctx.vol_w.shape[0]:
        N, gx, gy = ctx.vol_N, ctx.vol_gx, ctx.vol_gy
        dofs = ctx.vol_dofs
        W = ctx.vol_w
        nq = W.shape[0]
        ce = c[dofs]
        cx = (gx * ce).sum(1)
        cy = (gy * ce).sum(1)
        ux = (N * U[0:n][dofs]).sum(1)
        uy = (N * U[n:2 * n][dofs]).sum(1)
        adv = ux * cx + uy * cy
        udotgN = ux[:, None] * gx + uy[:, None] * gy

        r = np.zeros((nq, 4))
        J = np.zeros((nq, 4, 4)) if want_matrix else None
        if GALERKIN in terms:
            r += N * (adv - params.source)[:, None] \
                + k * (gx * cx[:, None] + gy * cy[:, None])
            if want_matrix:
                J += N[:, :, None] * udotgN[:, None, :] \
                    + k * (gx[:, :, None] * gx[:, None, :]
                           + gy[:, :, None] * gy[:, None, :])
        if STABILIZATION in terms:
            tau, _ = _tau_species(params, ux * ux + uy * uy, ctx.h)
            # strong diffusion term vanishes exactly for bilinear elements
            strong = adv - params.source
            r += tau[:, None] * udotgN * strong[:, None]
            if want_matrix:
                J += tau[:, None, None] * udotgN[:, :, None] * udotgN[:, None, :]
        _scatter_block(R, tri, dofs, r, J, W)

    if NITSCHE in terms:
        for blk in ctx.boundary:
            region = blk.region
            if not blk.nq or region.species_value is None:
                continue
            _scalar_nitsche(ctx, R, tri, blk, c, k, params.alpha_nitsche,
                            chat=region.species_value)

    if GHOST in terms and ctx.ghost is not None and ctx.ghost.nq:
        _scalar_ghost(ctx, R, tri, c, params.alpha_gp * ctx.h * k)

    J = tri.matrix(ctx, ("species", terms), (n, n)) if want_matrix else None
    return R, J


def _scalar_nitsche(ctx, R, tri, blk, c, k, alpha, chat):
    """Nitsche Dirichlet terms for a scalar diffusive field."""
    N, gx, gy = blk.N, blk.gx, blk.gy
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    ce = c[blk.dofs]
    cv = (N * ce).sum(1)
    cn = ((gx * ce).sum(1) * nx + (gy * ce).sum(1) * ny)  # grad c . n
    gnN = gx * nx[:, None] + gy * ny[:, None]
    dc = cv - chat
    pen = alpha / ctx.h
    r = -N * (k * cn)[:, None] + k * gnN * dc[:, None] + pen * N * dc[:, None]
    J = None
    if tri is not None:
        J = (-k * N[:, :, None] * gnN[:, None, :]
             + k * gnN[:, :, None] * N[:, None, :]
             + pen * N[:, :, None] * N[:, None, :])
    _scatter_block(R, tri, blk.dofs, r, J, blk.w)


def _scalar_ghost(ctx, R, tri, c, gamma_eff):
    """Facet jump penalty gamma_eff * [[grad w . n]] [[grad c . n]]."""
    g = ctx.ghost
    jump = (g.gn1 * c[g.dofs1]).sum(1) - (g.gn2 * c[g.dofs2]).sum(1)
    gvec = np.concatenate([g.gn1, -g.gn2], axis=1)
    dref = np.concatenate([g.dofs1, g.dofs2], axis=1)
    np.add.at(R, dref, gvec * (gamma_eff * jump * g.w)[:, None])
    if tri is not None:
        vals = (gamma_eff * g.w)[:, None, None] * gvec[:, :, None] * gvec[:, None, :]
        tri.add(dref, dref, vals)


def species_flow_jacobian(ctx, params, state, flow_state):
    """d(species residual)/d(flow state): advection and SUPG couplings."""
    n = ctx.n
    c = np.asarray(state, dtype=float)
    U = np.asarray(flow_state, dtype=float)
    tri = _Triplets()
    if ctx.vol_w is not None and ctx.vol_w.shape[0]:
        N, gx, gy = ctx.vol_N, ctx.vol_gx, ctx.vol_gy
        dofs = ctx.vol_dofs
        W = ctx.vol_w
        ce = c[dofs]
        cx = (gx * ce).sum(1)
        cy = (gy * ce).sum(1)
        ux = (N * U[0:n][dofs]).sum(1)
        uy = (N * U[n:2 * n][dofs]).sum(1)
        strong = ux * cx + uy * cy - params.source
        udotgN = ux[:, None] * gx + uy[:, None] * gy
        tau, dtau_fac = _tau_species(params, ux * ux + uy * uy, ctx.h)

        # galerkin advection + SUPG (test-op, tau, strong-residual chains)
        JX = _outer(N, N) * cx[:, None, None] \
            + _outer(udotgN * strong[:, None], N) * dtau_fac[:, None, None] * ux[:, None, None] \
            + tau[:, None, None] * (_outer(gx, N) * strong[:, None, None]
                                    + _outer(udotgN, N) * cx[:, None, None])
        JY = _outer(N, N) * cy[:, None, None] \
            + _outer(udotgN * strong[:, None], N) * dtau_fac[:, None, None] * uy[:, None, None] \
            + tau[:, None, None] * (_outer(gy, N) * strong[:, None, None]
                                    + _outer(udotgN, N) * cy[:, None, None])
        JX *= W[:, None, None]
        JY *= W[:, None, None]
        tri.add(dofs, dofs, JX)
        tri.add(dofs, dofs + n, JY)
    return tri.matrix(ctx, ("species_flow",), (n, 3 * n))


def assemble_indicator(ctx, params, state, want_matrix=True):
    """Residual/Jacobian of the linear indicator diffusion-reaction system.

    Unit diffusivity; reaction -h_psi (psi - psi_ref) relaxes isolated
    regions to psi_ref; Nitsche psi = 0 on port regions; own ghost penalty.
    """
    n = ctx.n
    psi = np.asarray(state, dtype=float)
    R = np.zeros(n)
    tri = _Triplets() if want_matrix else None
    if ctx.vol_w is not None and ctx.vol_w.shape[0]:
        N, gx, gy = ctx.vol_N, ctx.vol_gx, ctx.vol_gy
        dofs = ctx.vol_dofs
        W = ctx.vol_w
        pe = psi[dofs]
        pv = (N * pe).sum(1)
        px = (gx * pe).sum(1)
        py = (gy * pe).sum(1)
        r = gx * px[:, None] + gy * py[:, None] \
            - params.reaction * N * (pv - params.psi_ref)[:, None]
        J = None
        if want_matrix:
            J = (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
                 - params.reaction * N[:, :, None] * N[:, None, :])
        _scatter_block(R, tri, dofs, r, J, W)

    for blk in ctx.boundary:
        if blk.nq and getattr(blk.region, "port", False):
            _scalar_nitsche(ctx, R, tri, blk, psi, 1.0, params.alpha_nitsche, chat=0.0)

    if ctx.ghost is not None and ctx.ghost.nq:
        _scalar_ghost(ctx, R, tri, psi, params.alpha_gp * ctx.h)

    J = tri.matrix(ctx, ("indicator",), (n, n)) if want_matrix else None
    return R, J


def solve_indicator(ctx, params):
    """Single linear solve for the nodal indicator field.

    Returns (psi, lu), lu the factors of the system's matrix, which the
    adjoint reuses (the system is linear).
    """
    psi0 = np.zeros(ctx.n)
    R0, J = assemble_indicator(ctx, params, psi0, want_matrix=True)
    lu = factorize(J)
    return psi0 - lu_solve(lu, R0), lu


def project_indicator(psi_values, params):
    """Sharp tanh projection turning the indicator into a binary switch."""
    arg = params.k_sharpness * (np.asarray(psi_values, dtype=float)
                                - params.k_threshold * params.psi_ref)
    return 0.5 + 0.5 * np.tanh(arg)


def indicator_at_volume_points(ctx, psi, params):
    """Projected indicator evaluated at the context's volume points."""
    if ctx.vol_w is None or not ctx.vol_w.shape[0]:
        return np.zeros(0)
    psi_q = (ctx.vol_N * np.asarray(psi, dtype=float)[ctx.vol_dofs]).sum(1)
    return project_indicator(psi_q, params)
