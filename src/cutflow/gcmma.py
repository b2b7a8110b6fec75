"""Globally convergent method of moving asymptotes.

Outer iterations adapt the asymptotes from the two-iteration oscillation
history; each outer iteration builds conservative convex separable
rational approximations whose conservatism parameters grow in an inner
loop until the approximations bound the true functions at the trial
point, or by the largest bump (10x) when the trial's forward failed.
Subproblems are solved by a primal-dual interior point method on
the standard extended formulation (elastic variables y with linear
penalty weights, a single z variable).

The objective gradient is normalized by its infinity norm before the
approximation is built, so the iterate sequence is invariant under
positive scaling of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

ALBEFA = 0.1  # move-limit fraction of the distance to each asymptote
RAA_EPS = 1e-6  # floor of the initial conservatism parameters
SUBPROBLEM_NEWTON = 200  # Newton steps per barrier level of the subproblem
# rounding noise of a subproblem residual row, in units of its terms' size
ROUNDING = 4 * np.finfo(float).eps
# a barrier level discounts rounding noise once it exceeds this share of epsi
NOISE_SHARE = 0.01


@dataclass
class GcmmaConfig:
    move: float = 0.04  # relative step size
    asy_decrease: float = 0.5  # minimum asymptote adaptivity
    asy_init: float = 0.7  # initial asymptote adaptivity
    asy_increase: float = 1.43  # maximum adaptivity
    constraint_penalty: float = 100.0
    max_outer: int = 200
    max_inner: int = 15
    tol_objective: float = 1e-6  # relative objective change
    tol_feasibility: float = 1e-6

    def __post_init__(self):
        if not (0 < self.asy_decrease <= self.asy_init <= self.asy_increase):
            raise ValueError("asymptote adaptivities must satisfy min <= init <= max")
        if self.constraint_penalty <= 0 or self.move <= 0:
            raise ValueError("penalty and step size must be positive")
        if self.max_outer < 0 or self.max_inner < 0:
            raise ValueError("max_outer and max_inner must be nonnegative")


@dataclass
class GcmmaState:
    x: np.ndarray
    x_old1: np.ndarray = None
    x_old2: np.ndarray = None
    low: np.ndarray = None
    upp: np.ndarray = None
    iteration: int = 0

    def to_dict(self):
        return {
            "x": self.x.tolist(),
            "x_old1": None if self.x_old1 is None else self.x_old1.tolist(),
            "x_old2": None if self.x_old2 is None else self.x_old2.tolist(),
            "low": None if self.low is None else self.low.tolist(),
            "upp": None if self.upp is None else self.upp.tolist(),
            "iteration": self.iteration,
        }

    @classmethod
    def from_dict(cls, d):
        conv = lambda v: None if v is None else np.asarray(v, dtype=float)
        return cls(x=np.asarray(d["x"], dtype=float), x_old1=conv(d["x_old1"]),
                   x_old2=conv(d["x_old2"]), low=conv(d["low"]), upp=conv(d["upp"]),
                   iteration=int(d["iteration"]))


class GCMMA:
    """One optimizer instance bound to fixed box bounds."""

    def __init__(self, lower, upper, config: GcmmaConfig = None):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.config = config or GcmmaConfig()
        self.n = self.lower.shape[0]

    def init_state(self, x0):
        x = np.minimum(np.maximum(np.asarray(x0, dtype=float), self.lower), self.upper)
        return GcmmaState(x=x)

    # -- asymptotes -----------------------------------------------------------
    def _asymptotes(self, state):
        cfg = self.config
        span = self.upper - self.lower
        x = state.x
        if state.iteration < 2 or state.x_old2 is None:
            low = x - cfg.asy_init * span
            upp = x + cfg.asy_init * span
        else:
            osc = (x - state.x_old1) * (state.x_old1 - state.x_old2)
            factor = np.ones(self.n)
            factor[osc > 0] = cfg.asy_increase
            factor[osc < 0] = cfg.asy_decrease
            low = x - factor * (state.x_old1 - state.low)
            upp = x + factor * (state.upp - state.x_old1)
            low = np.clip(low, x - 10.0 * span, x - 0.01 * span)
            upp = np.clip(upp, x + 0.01 * span, x + 10.0 * span)
        return low, upp

    def _bounds(self, x, low, upp):
        cfg = self.config
        span = self.upper - self.lower
        alfa = np.maximum.reduce([
            self.lower, low + ALBEFA * (x - low), x - cfg.move * span
        ])
        beta = np.minimum.reduce([
            self.upper, upp - ALBEFA * (upp - x), x + cfg.move * span
        ])
        return alfa, beta

    # -- rational approximation ------------------------------------------------
    def _pq(self, x, low, upp, grads, rho):
        """p, q, r coefficients for each function (rows)."""
        span = np.maximum(self.upper - self.lower, 1e-12)
        ux = upp - x
        xl = x - low
        gp = np.maximum(grads, 0.0)
        gm = np.maximum(-grads, 0.0)
        p = (ux**2)[None, :] * (1.001 * gp + 0.001 * gm + rho[:, None] / span[None, :])
        q = (xl**2)[None, :] * (0.001 * gp + 1.001 * gm + rho[:, None] / span[None, :])
        return p, q

    @staticmethod
    def _approx(p, q, low, upp, r, y):
        return (p / (upp - y)[None, :] + q / (y - low)[None, :]).sum(axis=1) + r

    def step(self, state, f0, df0, fval, dfdx, evaluate=None):
        """One outer GCMMA iteration.

        f0, df0: objective value/gradient. fval, dfdx: constraint values
        (m,) and gradients (m, n). evaluate(x) -> (f0, fval) enables the
        inner conservatism loop; with evaluate=None a plain MMA step is
        taken. evaluate returns None when its forward at x failed: the trial
        is rejected and every rho grows by the largest bump, 10x. Returns
        (new state, diagnostics dict).
        """
        if np.any(~np.isfinite(df0)) or np.any(~np.isfinite(dfdx)):
            raise ValueError("non-finite gradients passed to the optimizer")
        cfg = self.config
        x = state.x
        m = fval.shape[0]
        low, upp = self._asymptotes(state)
        alfa, beta = self._bounds(x, low, upp)

        # scale-invariant objective handling
        scale = max(float(np.max(np.abs(df0))), 1e-12)
        f0s = f0 / scale
        df0s = df0 / scale

        grads = np.vstack([df0s[None, :], dfdx]) if m else df0s[None, :]
        span = np.maximum(self.upper - self.lower, 1e-12)
        rho = np.maximum(
            RAA_EPS, 0.1 * (np.abs(grads) * span[None, :]).sum(axis=1) / self.n
        )
        fvals_all = np.concatenate([[f0s], fval]) if m else np.array([f0s])

        diagnostics = {"inner_iterations": 0, "rho_increased": False,
                       "conservative": True, "subproblem_converged": True}
        x_new = None
        for inner in range(cfg.max_inner + 1):
            p, q = self._pq(x, low, upp, grads, rho)
            base = (p / (upp - x)[None, :] + q / (x - low)[None, :]).sum(axis=1)
            r = fvals_all - base
            x_new, lam, converged = _subsolve(
                m, self.n, low, upp, alfa, beta, p[0], q[0], p[1:], q[1:],
                -r[1:], cfg.constraint_penalty,
            )
            diagnostics["subproblem_converged"] &= converged
            if evaluate is None or inner == cfg.max_inner:
                if inner == cfg.max_inner:
                    diagnostics["conservative"] = False
                break
            values = evaluate(x_new)
            if values is None:  # the trial's forward failed: the largest bump
                rho = 10.0 * rho
                diagnostics["rho_increased"] = True
                diagnostics["inner_iterations"] = inner + 1
                continue
            f0_t, fval_t = values
            trial = np.concatenate([[f0_t / scale], fval_t]) if m else \
                np.array([f0_t / scale])
            approx = self._approx(p, q, low, upp, r, x_new)
            d_meas = (
                (upp - low) * (x_new - x) ** 2
                / np.maximum((upp - x_new) * (x_new - low) * span, 1e-300)
            ).sum()
            viol = trial - approx
            tol = 1e-9 * (1.0 + np.abs(trial))
            if np.all(viol <= tol):
                break
            bump = np.minimum(1.1 * (rho + viol / max(d_meas, 1e-300)), 10.0 * rho)
            rho = np.where(viol > tol, np.maximum(bump, rho), rho)
            diagnostics["rho_increased"] = True
            diagnostics["inner_iterations"] = inner + 1

        new = GcmmaState(
            x=x_new, x_old1=x.copy(),
            x_old2=None if state.x_old1 is None else state.x_old1.copy(),
            low=low, upp=upp, iteration=state.iteration + 1,
        )
        diagnostics["asymptote_low"] = low
        diagnostics["asymptote_upp"] = upp
        diagnostics["lambda"] = lam
        return new, diagnostics


def _subsolve(m, n, low, upp, alfa, beta, p0, q0, P, Q, b, penalty):
    """Primal-dual interior point solve of the MMA subproblem.

    minimize  sum(p0/(upp-x) + q0/(x-low)) + sum(c y + 0.5 y^2)
    s.t.      sum(P/(upp-x) + Q/(x-low)) - y - b <= 0, alfa <= x <= beta,
              y >= 0.
    Returns (x, lambda, converged). The barrier parameter tightens to 1e-10
    so the subproblem KKT conditions hold to < 1e-9; converged tells
    whether every barrier level met its residual target (max |residual|
    <= 0.9 epsi) within SUBPROBLEM_NEWTON steps.

    A strongly conservative approximation (large rho) has terms near 1e9 in
    the x rows, whose difference rounding leaves uncertain by about 1e-7.
    Where that noise, estimated as each level starts, exceeds NOISE_SHARE
    epsi, the x and lambda rows count only past their noise, in the target
    and in the line search's merit; counted in full, it makes every Newton
    step of the level stall in its line search.
    """
    if m == 0:
        # separable unconstrained case: stationary point per variable
        x = _stationary_point(low, upp, alfa, beta, p0, q0)
        return x, np.zeros(0), True

    c = np.full(m, penalty)
    een = np.ones(n)
    eem = np.ones(m)
    epsi = 1.0
    x = 0.5 * (alfa + beta)
    y = eem.copy()
    lam = eem.copy()
    xsi = np.maximum(een / (x - alfa), een)
    eta = np.maximum(een / (beta - x), een)
    mu = np.maximum(eem, 0.5 * c)
    s = eem.copy()

    def terms(x, lam):
        # the state-only terms at (x, lam), which the residuals, the rounding
        # noise and the next Newton step all read
        ux1 = upp - x
        xl1 = x - low
        ux2 = ux1**2
        xl2 = xl1**2
        plam = p0 + P.T @ lam
        qlam = q0 + Q.T @ lam
        gvec = P @ (1.0 / ux1) + Q @ (1.0 / xl1)
        return (ux1, xl1, ux2, xl2, x - alfa, beta - x, plam, qlam, gvec,
                plam / ux2 - qlam / xl2)

    def residuals(t, y, lam, xsi, eta, mu, s, epsi, noise):
        _, _, _, _, xa, bx, _, _, gvec, dpsidx = t
        rex = dpsidx - xsi + eta
        rey = c + y - mu - lam
        relam = gvec - y + s - b
        rexsi = xsi * xa - epsi
        reeta = eta * bx - epsi
        remu = mu * y - epsi
        res = lam * s - epsi
        flat = np.concatenate([rex, rey, relam, rexsi, reeta, remu, res])
        if noise is not None:
            # the x and lambda rows count only past their rounding noise
            flat[:noise.size] = np.maximum(np.abs(flat[:noise.size]) - noise, 0.0)
        return float(np.sqrt(flat @ flat)), float(np.max(np.abs(flat)))

    def rounding_noise(t, x, y, xsi, eta, s):
        # the rounding noise of the x and lambda rows: their terms' size,
        # plus what one ulp of x changes them by
        ux1, xl1, ux2, xl2, _, _, plam, qlam, gvec, _ = t
        pux = plam / ux2
        qxl = qlam / xl2
        ax = np.abs(x)
        return ROUNDING * np.concatenate([
            pux + qxl + xsi + eta + 2 * ax * (pux / ux1 + qxl / xl1), np.zeros(m),
            gvec + y + s + np.abs(b) + (P / ux2 + Q / xl2) @ ax])

    converged = True
    t = terms(x, lam)  # always the terms at the current (x, lam)
    while epsi > 1e-10:
        noise = rounding_noise(t, x, y, xsi, eta, s)
        if noise.max() <= NOISE_SHARE * epsi:
            noise = None  # negligible against this level's target
        residunorm, residumax = residuals(t, y, lam, xsi, eta, mu, s, epsi, noise)
        for _ in range(SUBPROBLEM_NEWTON):
            if residumax <= 0.9 * epsi:
                break
            ux1, xl1, ux2, xl2, xa, bx, plam, qlam, gvec, dpsidx = t
            ea = epsi / xa
            eb = epsi / bx
            GG = P / ux2[None, :] - Q / xl2[None, :]
            delx = dpsidx - ea + eb
            dely = c + y - lam - epsi / y
            dellam = gvec - y - b + epsi / lam
            diagx = 2 * (plam / (ux2 * ux1) + qlam / (xl2 * xl1)) + xsi / xa + eta / bx
            diagy = 1.0 + mu / y
            diaglamyi = s / lam + 1.0 / diagy

            # m is small: solve the lambda system densely
            blam = dellam + dely / diagy - GG @ (delx / diagx)
            Alam = np.diag(diaglamyi) + (GG / diagx[None, :]) @ GG.T
            try:
                dlam = np.linalg.solve(Alam, blam)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"subproblem Newton system singular: {exc}") from exc
            dx = -delx / diagx - (GG.T @ dlam) / diagx
            dy = -dely / diagy + dlam / diagy
            dxsi = -xsi + ea - (xsi * dx) / xa
            deta = -eta + eb + (eta * dx) / bx
            dmu = -mu + epsi / y - (mu * dy) / y
            ds = -s + epsi / lam - (s * dlam) / lam

            xx = np.concatenate([y, lam, xsi, eta, mu, s])
            dxx = np.concatenate([dy, dlam, dxsi, deta, dmu, ds])
            stepxx = np.max(-1.01 * dxx / xx)
            stepalfa = np.max(-1.01 * dx / xa)
            stepbeta = np.max(1.01 * dx / bx)
            steg = 1.0 / max(stepxx, stepalfa, stepbeta, 1.0)

            # the state arrays are rebound below, never written in place
            old = (x, y, lam, xsi, eta, mu, s)
            resinew = 2 * residunorm
            for _ in range(50):
                if resinew <= residunorm:
                    break
                x = old[0] + steg * dx
                y = old[1] + steg * dy
                lam = old[2] + steg * dlam
                xsi = old[3] + steg * dxsi
                eta = old[4] + steg * deta
                mu = old[5] + steg * dmu
                s = old[6] + steg * ds
                t = terms(x, lam)
                resinew, residumax = residuals(t, y, lam, xsi, eta, mu, s, epsi, noise)
                steg /= 2
            residunorm = resinew
        converged &= residumax <= 0.9 * epsi
        epsi *= 0.1
    return x, lam, converged


def _stationary_point(low, upp, alfa, beta, p0, q0):
    """Closed-form minimizer of the separable rational objective in a box."""
    # d/dy [p0/(u-y) + q0/(y-l)] = p0/(u-y)^2 - q0/(y-l)^2 = 0
    sp = np.sqrt(np.maximum(p0, 1e-300))
    sq = np.sqrt(np.maximum(q0, 1e-300))
    y = (sq * upp + sp * low) / (sp + sq)
    return np.minimum(np.maximum(y, alfa), beta)
