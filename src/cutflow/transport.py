"""Species advection-diffusion and the puddle-indicator diffusion problem.

Both fields live in the same enriched scalar space as each pressure /
velocity component, and both systems are linear, so each is solved once:
assembled at zero, factored, one solve (`solve_species`,
`solve_indicator`), the factors kept for the adjoint. Species transport is
one-way coupled to the flow (velocity enters as data); the indicator field
depends only on geometry: a diffusion-reaction solve whose solution
relaxes to psi_ref in fluid regions with no path to a port and is pinned
to zero at inlets and outlets, then projected by a sharp tanh into a
binary switch.

The Jacobians are built as in the flow module: each term is a trial row C
that multiplies one of the tests N_a, d_x N_a, d_y N_a (the SUPG test
u.grad N_a folds into the gradient rows), summed per piece by
forms.piece_blocks; the ghost penalty is forms.ghost_jumps. The volume
terms read the context's volume table, the Nitsche terms a condition set
of its surface table, each with the test table and run plan the table
keeps (the indicator, which runs first on a context, builds the volume
table's, which the flow and species assemblies then reuse), and every
field value at the points (c, psi, the advecting velocity) comes from the
table (forms.field_at).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import Scatter, Triplets, ghost_jumps, prescribed
from .solve import factorize, lu_solve

GALERKIN = "galerkin"
STABILIZATION = "stabilization"
NITSCHE = "nitsche"
GHOST = "ghost"
ALL_TERMS = frozenset((GALERKIN, STABILIZATION, NITSCHE, GHOST))


@dataclass
class TransportParams:
    diffusivity: float = 1.0
    alpha_nitsche: float = 1.0
    alpha_gp: float = 0.05
    source: float = 0.0  # volumetric species source

    def __post_init__(self):
        if not self.diffusivity > 0:  # nan fails too
            raise ValueError("diffusivity must be positive")
        _check_penalties(self)


@dataclass
class IndicatorParams:
    reaction: float = 0.01  # relaxation rate toward psi_ref
    psi_ref: float = 1.0
    alpha_nitsche: float = 1.0
    alpha_gp: float = 0.05
    k_sharpness: float = 1000.0
    k_threshold: float = 0.99

    def __post_init__(self):
        if not (self.reaction > 0 and self.k_sharpness > 0):  # nan fails too
            raise ValueError("reaction and sharpness must be positive")
        if not 0.0 < self.k_threshold < 1.0:
            raise ValueError("projection threshold factor must be in (0, 1)")
        # the projection threshold k_threshold psi_ref must lie above the
        # zero that the ports pin
        if not self.psi_ref > 0:
            raise ValueError("psi_ref must be positive")
        _check_penalties(self)


def _check_penalties(params):
    if not (params.alpha_nitsche >= 0 and params.alpha_gp >= 0):  # nan fails too
        raise ValueError("penalty constants must be nonnegative")


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
    R = Scatter(n)
    tri = Triplets() if want_matrix else None

    vol = ctx.volume
    if vol.nq:
        # test rows with the points last, which the residual rows take too
        NT, gxT, gyT = vol.tests
        cx, cy = vol.at(c)[1:]
        ux, uy = vol.at(U.reshape(3, n)[:2], 1)[:, 0]
        adv = ux * cx + uy * cy
        uT = ux * gxT + uy * gyT  # u.grad N_b

        r = np.zeros_like(NT)
        if want_matrix:
            # trial rows of the tests N_a, d_x N_a, d_y N_a, the SUPG test
            # u.grad N_a folded into the gradient rows
            C = np.zeros((3, 1, 4, vol.nq))
        if GALERKIN in terms:
            r += NT * (adv - params.source) + k * (gxT * cx + gyT * cy)
            if want_matrix:
                C[0, 0] += uT
                C[1, 0] += k * gxT
                C[2, 0] += k * gyT
        if STABILIZATION in terms:
            tau, _ = _tau_species(params, ux * ux + uy * uy, ctx.h)
            # strong diffusion term vanishes exactly for bilinear elements
            strong = adv - params.source
            r += tau * uT * strong
            if want_matrix:
                C[1, 0] += tau * ux * uT
                C[2, 0] += tau * uy * uT
        R.add(vol.dofs, (r * vol.w).T)
        if want_matrix:
            tri.add_pieces(vol, C)

    blk = ctx.conditions["species"]
    if NITSCHE in terms and blk.nq:
        _scalar_nitsche(ctx, R, tri, blk, c, k, params.alpha_nitsche,
                        chat=prescribed(ctx, "species"))

    if GHOST in terms and ctx.ghost.nq:
        ghost_jumps(ctx, c, ((params.alpha_gp * ctx.h * k, (0,)),), R, tri)

    J = tri.matrix(ctx, (n, n)) if want_matrix else None
    return R.total(), J


def _scalar_nitsche(ctx, R, tri, blk, c, k, alpha, chat):
    """Nitsche Dirichlet terms for a scalar diffusive field, c = chat (a
    constant or one value per point) on the points of blk."""
    N, gx, gy = blk.N, blk.gx, blk.gy
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    cv, cx, cy = blk.at(c)
    cn = cx * nx + cy * ny  # grad c . n
    gnN = gx * nx[:, None] + gy * ny[:, None]
    dc = cv - chat
    pen = alpha / ctx.h
    r = -N * (k * cn)[:, None] + k * gnN * dc[:, None] + pen * N * dc[:, None]
    R.add(blk.dofs, r * blk.w[:, None])
    if tri is not None:
        # -k N_a grad N_b . n + k (grad N_a . n) N_b + pen N_a N_b
        NT, gxT, gyT = blk.tests
        C = np.stack([pen * NT - k * (nx * gxT + ny * gyT), k * nx * NT, k * ny * NT])
        tri.add_pieces(blk, C[:, None])


def species_flow_jacobian(ctx, params, state, flow_state):
    """d(species residual)/d(flow state): advection and SUPG couplings."""
    n = ctx.n
    c = np.asarray(state, dtype=float)
    U = np.asarray(flow_state, dtype=float)
    tri = Triplets()
    vol = ctx.volume
    if vol.nq:
        cx, cy = vol.at(c)[1:]
        ux, uy = vol.at(U.reshape(3, n)[:2], 1)[:, 0]
        strong = ux * cx + uy * cy - params.source
        tau, dtau_fac = _tau_species(params, ux * ux + uy * uy, ctx.h)

        # trial rows over [ux, uy] columns: galerkin advection N_a grad c on
        # the N row; the SUPG test u.grad N_a times the tau and strong-residual
        # chains, and its own derivative tau strong grad N_a, on the gradient rows
        NT = vol.tests[0]
        C = np.zeros((3, 1, 8, vol.nq))
        X, Y = slice(0, 4), slice(4, 8)
        Vx = strong * dtau_fac * ux + tau * cx
        Vy = strong * dtau_fac * uy + tau * cy
        C[0, 0, X] = cx * NT
        C[0, 0, Y] = cy * NT
        C[1, 0, X] = (ux * Vx + tau * strong) * NT
        C[2, 0, X] = uy * Vx * NT
        C[1, 0, Y] = ux * Vy * NT
        C[2, 0, Y] = (uy * Vy + tau * strong) * NT
        tri.add_pieces(vol, C, (0,), (0, 1))
    return tri.matrix(ctx, (n, 3 * n))


def assemble_indicator(ctx, params, state, want_matrix=True):
    """Residual/Jacobian of the linear indicator diffusion-reaction system.

    Unit diffusivity; reaction -h_psi (psi - psi_ref) relaxes isolated
    regions to psi_ref; Nitsche psi = 0 on port regions; own ghost penalty.
    """
    n = ctx.n
    psi = np.asarray(state, dtype=float)
    R = Scatter(n)
    tri = Triplets() if want_matrix else None
    vol = ctx.volume
    if vol.nq:
        NT, gxT, gyT = vol.tests
        pv, px, py = vol.at(psi)
        r = gxT * px + gyT * py - params.reaction * NT * (pv - params.psi_ref)
        R.add(vol.dofs, (r * vol.w).T)
        if want_matrix:
            C = np.stack([-params.reaction * NT, gxT, gyT])
            tri.add_pieces(vol, C[:, None])

    blk = ctx.conditions["port"]
    if blk.nq:
        _scalar_nitsche(ctx, R, tri, blk, psi, 1.0, params.alpha_nitsche, chat=0.0)

    if ctx.ghost.nq:
        ghost_jumps(ctx, psi, ((params.alpha_gp * ctx.h, (0,)),), R, tri)

    J = tri.matrix(ctx, (n, n)) if want_matrix else None
    return R.total(), J


def _linear_solve(assemble, n):
    """Solve the linear system whose residual and Jacobian at x are
    assemble(x): assembled once at zero, factored, x = 0 - J^-1 R(0).

    Returns (x, lu), lu the factors of J, which the adjoint reuses.
    """
    x0 = np.zeros(n)
    R0, J = assemble(x0)
    lu = factorize(J)
    return x0 - lu_solve(lu, R0), lu


def solve_indicator(ctx, params):
    """The nodal indicator field and its matrix's factors, (psi, lu)."""
    return _linear_solve(lambda psi: assemble_indicator(ctx, params, psi), ctx.n)


def solve_species(ctx, params, flow_state):
    """The species field advected by flow_state and its matrix's factors,
    (c, lu)."""
    return _linear_solve(
        lambda c: assemble_species(ctx, params, c, flow_state), ctx.n)


def project_indicator(psi_values, params):
    """Sharp tanh projection turning the indicator into a binary switch."""
    arg = params.k_sharpness * (np.asarray(psi_values, dtype=float)
                                - params.k_threshold * params.psi_ref)
    return 0.5 + 0.5 * np.tanh(arg)


def indicator_at_volume_points(ctx, psi, params):
    """Projected indicator evaluated at the context's volume points."""
    vol = ctx.volume
    return project_indicator(vol.at(np.asarray(psi, dtype=float), 1)[0], params)
