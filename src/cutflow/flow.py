"""Residual and exact Jacobian of the incompressible Navier-Stokes system.

Dof layout for a context with n scalar dofs: [ux(0:n), uy(n:2n), p(2n:3n)],
equal-order bilinear interpolation for all three fields. Contributions:
volumetric Galerkin, SUPG/PSPG stabilization, Nitsche Dirichlet terms on
external boundaries and on the immersed interface, Neumann tractions, the
indicator-gated average-pressure penalty, and the viscous / pressure /
convective ghost penalties on the facet set next to the interface.

Every volume and Nitsche Jacobian term pairs one of three test functions,
N_a, d_x N_a or d_y N_a, with a trial row: the SUPG test u.grad N_a and the PSPG test
grad N_a . S fold into the two gradient rows. So at a quadrature point q the
12x12 block is T_q^T C_q, with T_q = [N; d_x N; d_y N] (3 x 4) and C_q the
trial rows (3 tests x 3 row blocks [ux, uy, p] x 12 trial entries), and the
block of a piece (or of a run of chords with equal dofs) is
sum_q w_q T_q^T C_q: one small matmul over its points, batched over the
pieces with the same point count. No per-point 12x12 block is formed.

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
    ghost facet, or of one species piece or chord) are summed into one
    block first; the flow's volume and Nitsche blocks come summed already.
    The first matrix of a kind on a context builds its CSR plan, each
    triplet's slot in a fixed indptr/indices, and caches it on the context;
    every later one is a single bincount into those slots.
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
            plan = ctx.csr_plans[kind] = _csr_plan(self.blocks, shape, ctx.n)
        slot, indices, indptr = plan
        data = np.bincount(slot, vals, minlength=indices.shape[0])
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=shape)


def _fields(dofs, n):
    """(scalar dofs (k, p), fields) of dofs (k, f p) that are f chunks of the
    same scalar dofs, each chunk in one field (dof = field n + scalar dof);
    None for any other layout."""
    field = dofs[0] // n
    fields = field[np.flatnonzero(np.diff(field, prepend=-1))]
    p = dofs.shape[1] // fields.shape[0]
    scalar = dofs[:, :p] - fields[0] * n
    if not np.array_equal(dofs, np.tile(scalar, fields.shape[0]) + np.repeat(fields * n, p)):
        return None
    return scalar, fields


def _csr_plan(blocks, shape, n):
    """(slot, indices, indptr): the CSR pattern of the blocks' triplets,
    with sorted column indices, and each triplet's position in it.

    Every block of this module is chunks of the same scalar dofs, one field
    per chunk (_fields), so the plan is a unique over scalar dof pairs (a, b),
    a ninth of a flow matrix's triplets, each with the field pairs (f, g) it
    couples: all nine in a [ux, uy, p] block, like fields in a ghost block.
    A block of another layout makes the whole plan treat each side as one
    field.
    """
    blocks = [b for b in blocks if b[2].size]
    for n_r, n_c in ((n, n), shape):
        forms = [(_fields(r, n_r), _fields(c, n_c)) for r, c, _ in blocks]
        if shape[0] % n_r == shape[1] % n_c == 0 and None not in sum(forms, ()):
            break
    key = np.int32 if n_r * n_c < 2**31 else np.int64
    keys, pair = np.unique(np.concatenate([(a[:, :, None] * n_c + b[:, None, :]).ravel()
                                           for (a, _), (b, _) in forms]).astype(key),
                           return_inverse=True)
    cuts = np.cumsum([0] + [a.size * b.shape[1] for (a, _), (b, _) in forms])
    parts = [(pair[lo:hi], tuple((f, g) for f in F for g in G))
             for ((_, F), (_, G)), lo, hi in zip(forms, cuts, cuts[1:])]
    fp = sorted({fg for _, fgs in parts for fg in fgs})  # the field pairs, row-major
    col = {fg: j for j, fg in enumerate(fp)}
    present = np.zeros((len(fp), keys.shape[0]), dtype=bool)
    for fgs in {fgs for _, fgs in parts}:
        mark = np.zeros(keys.shape[0], dtype=bool)
        mark[np.concatenate([pr for pr, fgs2 in parts if fgs2 == fgs])] = True
        present[[col[fg] for fg in fgs]] |= mark

    # CSR row f n_r + a holds its pairs of field g = 0, 1, ... with b ascending
    a, b = np.divmod(keys, n_c)
    first = np.searchsorted(a, np.arange(n_r + 1))  # each scalar row's run of keys
    rank = np.zeros((len(fp), keys.shape[0] + 1), dtype=np.int64)
    np.cumsum(present, axis=1, out=rank[:, 1:])
    count = rank[:, first[1:]] - rank[:, first[:-1]]  # (field pairs, n_r)
    rowlen = np.zeros((shape[0] // n_r, n_r), dtype=np.int64)
    offset = np.empty_like(count)  # entries of the row's lower fields g
    for j, (f, _) in enumerate(fp):
        offset[j] = rowlen[f]
        rowlen[f] += count[j]
    index = np.int32 if max(shape[1], int(rowlen.sum())) < 2**31 else np.int64
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(rowlen.ravel(), out=indptr[1:])
    start = indptr[:-1].reshape(-1, n_r)[[f for f, _ in fp]] + offset - rank[:, first[:-1]]
    table = np.take(start, a, axis=1) + rank[:, :-1]  # (field pairs, pairs) -> slot
    indices = np.empty(int(indptr[-1]), dtype=index)
    indices[table[present]] = (b + n_c * np.array([g for _, g in fp])[:, None])[present]
    by_pair = table.T.copy()
    slot = []
    for (pr, fgs), ((rs, F), (cs, G)) in zip(parts, forms):
        s = np.take(by_pair, pr, axis=0)
        if list(fgs) != fp:
            s = s[:, [col[fg] for fg in fgs]]
        slot.append(s.reshape(-1, rs.shape[1], cs.shape[1], F.shape[0], G.shape[0])
                    .transpose(0, 3, 1, 4, 2).ravel())
    return np.concatenate(slot), indices, indptr


def _block_dofs(dofs, n):
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
    (its trial rows C and their per-piece gathers are the largest arrays of
    an assembly); the residual alone takes one batch."""
    nq = ctx.vol_w.shape[0]
    for pts in _batches(nq, nq if tri is None else VOLUME_BATCH):
        _volume_batch(ctx, params, U, hist, slot,
                      None if psibar is None else psibar[pts], terms, R, tri, pts)


def _batches(nq, step):
    return (slice(start, start + step) for start in range(0, nq, step))


def _piece_blocks(T, C, w, dofs):
    """Per-piece sums of w_q T_q^T C_q over a batch of quadrature points.

    T (k, 4, nq) holds k test functions of the four corner bases, C
    (k, m, c, nq) the trial row that each test multiplies in each of m row
    blocks, c trial entries long; C is weighted by w in place. A piece is a
    run of points with equal dofs (nq, 4): a volume piece, or chords. The pieces with L points are one
    batched (4 x kL) . (kL x mc) matmul. Returns the pieces' dofs
    (pieces, 4) and blocks (pieces, 4m, c), rows grouped by row block.
    """
    k, m, c, nq = C.shape
    C *= w
    new = np.ones(nq, dtype=bool)
    new[1:] = (dofs[1:] != dofs[:-1]).any(1)
    starts = np.flatnonzero(new)
    count = np.diff(starts, append=nq)
    # points-first views; the gathers below are the one transpose
    Cq, Tq = C.reshape(k * m * c, nq).T, T.transpose(2, 0, 1)
    out = np.empty((starts.shape[0], 4, m * c))
    for L in np.unique(count):
        sel = np.flatnonzero(count == L)
        pts = starts[sel, None] + np.arange(L)
        A = Tq[pts].reshape(-1, L * k, 4).transpose(0, 2, 1)
        out[sel] = A @ Cq[pts].reshape(-1, L * k, m * c)
    blocks = out.reshape(-1, 4, m, c).transpose(0, 2, 1, 3).reshape(-1, 4 * m, c)
    return dofs[starts], blocks


def _add_flow_blocks(tri, n, T, C, w, dofs):
    """Scatter the per-piece blocks of a (3, 3, 12, nq) trial table C."""
    dofs, blocks = _piece_blocks(T, C, w, dofs)
    dref = _block_dofs(dofs, n)
    tri.add(dref, dref, blocks)


def _tests(N, gx, gy):
    """Trial-side basis rows (4, nq) and the test table T = [N; gx; gy]."""
    NT, gxT, gyT = (np.ascontiguousarray(a.T) for a in (N, gx, gy))
    return NT, gxT, gyT, np.stack([NT, gxT, gyT])


def _volume_batch(ctx, params, U, hist, slot, psibar, terms, R, tri, pts):
    """Volume residual and Jacobian of one batch of points.

    Every Jacobian term pairs a test function N_a, d_x N_a or d_y N_a with a
    trial row (the SUPG test u.grad N_a and the PSPG test grad N_a . S fold
    into the gradient rows). So a point's 12x12 block is T_q^T C_q, with
    T_q = [N; d_x N; d_y N] (3 x 4) and C_q (3 tests, 3 row blocks
    [ux, uy, p], 12 trial entries), and a piece's block is one matmul over
    its points (_piece_blocks).
    """
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
    udotgN = ux[:, None] * gx + uy[:, None] * gy
    if want_j:
        # trial rows with the points last: C[test, row block, trial entry]
        NT, gxT, gyT, T = _tests(N, gx, gy)
        C = np.zeros((3, 3, 12, nq))
        aN = alpha * NT + ux * gxT + uy * gyT  # (alpha + u.grad) N_b
        dSx_dux = rho * (aN + uxx * NT)
        dSy_duy = rho * (aN + uyy * NT)

    if GALERKIN in terms:
        r[:, X] += N * (rho * (utx + conv_x))[:, None] \
            + 2 * mu * (uxx[:, None] * gx + exy[:, None] * gy) - p[:, None] * gx
        r[:, Y] += N * (rho * (uty + conv_y))[:, None] \
            + 2 * mu * (exy[:, None] * gx + uyy[:, None] * gy) - p[:, None] * gy
        r[:, P] += N * (uxx + uyy)[:, None]
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

    if PRESSURE_PENALTY in terms and psibar is not None and params.k_pressure != 0.0:
        kp = params.k_pressure
        r[:, P] += (kp * psibar * p)[:, None] * N
        if want_j:
            C[0, 2, P] += kp * psibar * NT

    if STABILIZATION in terms:
        tau, dtau_fac = _tau(params, slot, ux * ux + uy * uy, ctx.h)
        Sx = rho * (utx + conv_x) + px - mu * d2y
        Sy = rho * (uty + conv_y) + py - mu * d2x
        r[:, X] += tau[:, None] * udotgN * Sx[:, None]
        r[:, Y] += tau[:, None] * udotgN * Sy[:, None]
        r[:, P] += (tau / rho)[:, None] * (gx * Sx[:, None] + gy * Sy[:, None])
        if want_j:
            d2T = np.ascontiguousarray(d2.T)
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

    np.add.at(R, dref, r * W[:, None])
    if want_j:
        _add_flow_blocks(tri, n, T, C, W, dofs)


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

    np.add.at(R, dref, r * blk.w[:, None])
    if tri is not None:
        NT, gxT, gyT, T = _tests(N, gx, gy)
        C = np.zeros((3, 3, 12, nq))
        # -2 mu N_a d(eps n)/du_b: d(eps n)_x/dux_b = (gnN_b + nx gx_b) / 2,
        # /duy_b = ny gx_b / 2, and so on
        gnT = nx * gxT + ny * gyT
        C[0, 0, X] += gamma * NT - mu * (gnT + nx * gxT)
        C[0, 0, Y] -= mu * ny * gxT
        C[0, 1, X] -= mu * nx * gyT
        C[0, 1, Y] += gamma * NT - mu * (gnT + ny * gyT)
        C[0, 0, P] += nx * NT
        C[0, 1, P] += ny * NT
        C[0, 2, X] += bp * nx * NT
        C[0, 2, Y] += bp * ny * NT
        # the viscous adjoint -mu (gnN_a du_i + n_i grad N_a . du)
        C[1, 0, X] -= 2 * mu * nx * NT
        C[2, 0, X] -= mu * ny * NT
        C[2, 0, Y] -= mu * nx * NT
        C[1, 1, X] -= mu * ny * NT
        C[1, 1, Y] -= mu * nx * NT
        C[2, 1, Y] -= 2 * mu * ny * NT
        _add_flow_blocks(tri, n, T, C, blk.w, dofs)


def _nitsche_symmetry(ctx, params, U, Uc, blk, R, tri):
    """Weak u.n = 0 with free tangential traction."""
    n = ctx.n
    mu = params.mu
    bp = BETA_PRESSURE
    N, gx, gy = blk.N, blk.gx, blk.gy
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    dofs = blk.dofs
    nq = blk.nq

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

    np.add.at(R, dref, r * blk.w[:, None])
    if tri is not None:
        NT, gxT, gyT, T = _tests(N, gx, gy)
        C = np.zeros((3, 3, 12, nq))
        dnen = (nx * nx * gxT + nx * ny * gyT, ny * ny * gyT + nx * ny * gxT)
        for b, nd, rows_b in ((0, nx, X), (1, ny, Y)):
            C[0, b, P] += nd * NT
            for rows, nc, dnen_du in ((X, nx, dnen[0]), (Y, ny, dnen[1])):
                C[0, b, rows] += nd * (gamma * nc * NT - 2 * mu * dnen_du)
                C[1, b, rows] -= 2 * mu * nd * nx * nc * NT  # -2 mu n_b gnN_a u.n
                C[2, b, rows] -= 2 * mu * nd * ny * nc * NT
            C[0, 2, rows_b] += bp * nd * NT
        _add_flow_blocks(tri, n, T, C, blk.w, dofs)


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
    nq = 0 if ctx.vol_w is None else ctx.vol_w.shape[0]
    U = np.asarray(state, dtype=float)
    for pts in _batches(nq, VOLUME_BATCH):
        N, dofs = ctx.vol_N[pts], ctx.vol_dofs[pts]
        NT, _, _, T = _tests(N, ctx.vol_gx[pts], ctx.vol_gy[pts])
        ux = (N * U[0:n][dofs]).sum(1)
        uy = (N * U[n:2 * n][dofs]).sum(1)
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
        _add_flow_blocks(tri, n, T, C, ctx.vol_w[pts], dofs)
    return tri.matrix(ctx, ("time",), (3 * n, 3 * n))


def flow_indicator_jacobian(ctx, params, state, psi, indicator_params):
    """d(flow residual)/d(psi): the pressure penalty's indicator coupling,
    k p proj'(psi) N_a N_b on the pressure rows."""
    n = ctx.n
    tri = _Triplets()
    if ctx.vol_w is not None and ctx.vol_w.shape[0] and params.k_pressure != 0.0:
        U = np.asarray(state, dtype=float)
        N, dofs = ctx.vol_N, ctx.vol_dofs
        psi_q = (N * np.asarray(psi, dtype=float)[dofs]).sum(1)
        p = (N * U[2 * n:3 * n][dofs]).sum(1)
        kw, kt, pinf = (indicator_params.k_sharpness, indicator_params.k_threshold,
                        indicator_params.psi_ref)
        th = np.tanh(kw * (psi_q - kt * pinf))
        dproj = 0.5 * kw * (1.0 - th * th)
        NT = np.ascontiguousarray(N.T)
        C = (params.k_pressure * p * dproj * NT)[None, None]
        dofs, blocks = _piece_blocks(NT[None], C, ctx.vol_w, dofs)
        tri.add(dofs + 2 * n, dofs, blocks)
    return tri.matrix(ctx, ("flow_indicator",), (3 * n, n))
