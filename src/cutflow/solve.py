"""Nonlinear, linear and temporal solution drivers.

Newton iterations with relative-residual control wrap a sparse direct
(LU) solve. Every matrix is factored through `factorize`: first without
pivoting, on a minimum-degree ordering of A + A^T (the flow, indicator and
species matrices have a nonzero diagonal and a nearly symmetric pattern),
and by SuperLU's COLAMD with partial pivoting when that factor meets a
zero pivot or fails its check solve. A solve on a kept factor goes through
`refined_solve`: iterative refinement on the factors of a nearby matrix,
down to the rounding level; a matrix is factored afresh only when a sweep
fails to halve the residual. `lu_solve` skips a right-hand-side column that
is all zero, such as the adjoint of a state-independent functional. Newton
gets the residual and the Jacobian of every iterate in one call, factors
its first Jacobian and refines every later step on the factor it holds,
and returns that factor with the Jacobian at its solution, both of which
the adjoint reuses.
Transient problems march with BDF2 after a single backward-Euler startup
step. The steady driver falls back to pseudo-transient continuation with a
growing step when a cold Newton start diverges; a pseudo step that diverges
or meets a singular Jacobian is retried with a smaller step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NonconvergenceError, SolverError

EPS = np.finfo(float).eps
PSEUDO_STEPS = 8  # pseudo-transient continuation steps before the final solve
PSEUDO_DT0 = 0.1  # the first pseudo-transient step
BACKWARD_ERROR_BOUND = 1e-10  # largest accepted check-solve error, pivot-free LU
lu_fallbacks = 0  # pivot-free factors rejected for COLAMD with pivoting


@dataclass
class TimeSlot:
    """Time-derivative bookkeeping for one nonlinear solve.

    du/dt is represented as alpha * u + hist with hist combining stored
    history levels; steady mode uses alpha = 0, hist = None, dt = None.
    t is the evaluation time for boundary data.
    """

    alpha: float = 0.0
    hist: np.ndarray = None
    dt: float = None
    t: float = 0.0


STEADY_SLOT = TimeSlot()


@dataclass
class SolveConfig:
    newton_tol: float = 1e-6
    max_newton: int = 30
    dt: float = None
    n_steps: int = 0
    scheme: str = "steady"  # 'steady' | 'bdf2'

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if self.scheme == "bdf2" and (self.dt is None or self.dt <= 0):
            raise ValueError("transient mode requires a positive dt")
        if self.scheme == "bdf2" and self.n_steps < 1:
            raise ValueError("transient mode requires n_steps >= 1")


def factorize(A):
    """SuperLU factors of the sparse (or dense) matrix A.

    The first try factors without pivoting (diagonal pivots only), in
    symmetric mode on a minimum-degree ordering of A + A^T. It is rejected
    when a diagonal pivot is zero (SuperLU raises, or leaves the diagonal)
    or when the check solve of A x = b, b a fixed pseudo-random vector, is
    not finite or has a componentwise backward error
    max |A x - b| / (|A||x| + |b|) above BACKWARD_ERROR_BOUND. Then the
    rejected factor is dropped, lu_fallbacks counts one, and A is factored
    by COLAMD with partial pivoting. Raises SolverError when A is singular.
    """
    global lu_fallbacks
    A = sp.csc_matrix(A)
    lu = _pivot_free_lu(A)
    if lu is not None:
        return lu
    lu_fallbacks += 1
    try:
        return spla.splu(A)
    except RuntimeError as exc:
        raise SolverError(f"sparse LU failed: {exc}") from exc


def _pivot_free_lu(A):
    """factorize's first try on the CSC matrix A; None when rejected."""
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None  # a zero diagonal pivot made SuperLU pivot off it
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        return None
    error = np.abs(A @ x - b) / (abs(A) @ np.abs(x) + np.abs(b))
    return lu if error.max() <= BACKWARD_ERROR_BOUND else None


def lu_solve(lu, b, trans="N"):
    """Solve A x = b (A^T x = b with trans='T') on A's factors lu; b is one
    column or a block of columns. A column of b that is all zero is not
    solved: its x is +0.0.

    Raises SolverError when x is not finite (a singular system).
    """
    b = np.asarray(b, dtype=float)
    B = b.reshape(b.shape[0], -1)
    live = B.any(axis=0)
    if live.all():
        x = lu.solve(b, trans=trans)
    else:
        x = np.zeros(b.shape)
        if live.any():
            x.reshape(B.shape)[:, live] = lu.solve(B[:, live], trans=trans)
    if not np.all(np.isfinite(x)):
        raise SolverError("sparse LU produced non-finite values (singular system)")
    return x


def linear_solve(A, b):
    """Solve A x = b by sparse LU; SolverError on singular systems."""
    return lu_solve(factorize(A), b)


def refined_solve(J, lu, b, trans="N", absJ=None):
    """Solve J x = b (J^T x = b with trans='T') by iterative refinement on
    lu, the factors of J or of a nearby matrix; b is one column or a block
    with one column per right-hand side. absJ is |J| when the caller holds
    it.

    A column is done when its residual reaches the rounding level
    eps * || |J| |x| ||. Returns None when a sweep fails to halve the
    residual of a column that is not done: the caller then factors J
    afresh.
    """
    absJ = abs(J) if absJ is None else absJ
    A, absA = (J.T, absJ.T) if trans == "T" else (J, absJ)
    b = np.asarray(b, dtype=float)
    B = b.reshape(b.shape[0], -1)
    x = lu_solve(lu, B, trans=trans)
    prev = np.full(x.shape[1], np.inf)
    while True:
        r = B - A @ x
        norm = np.linalg.norm(r, axis=0)
        todo = ~(norm <= EPS * np.linalg.norm(absA @ np.abs(x), axis=0))
        if not todo.any():
            return x.reshape(b.shape)
        if not np.all(norm[todo] <= 0.5 * prev[todo]):
            return None
        prev = norm
        x[:, todo] += lu_solve(lu, r[:, todo], trans=trans)


def newton_solve(assemble, x0, tol=1e-6, max_iter=30):
    """Newton iteration on assemble(x) -> (R, J), the residual and its
    Jacobian at x.

    Converges when ||R|| drops below tol * ||R0||, or below the rounding
    level eps * || |J| |x| || of the residual at x: no Newton step can take
    ||R|| further down than that, whatever tol asks for. The first step
    factors J; each later step solves by refined_solve on the factor it
    holds, so it is still an exact Newton step up to rounding, and factors
    afresh (the old factor freed first) only when that refinement stalls.
    Returns (x, trace, lu, J): trace holds the residual norms per
    iteration, lu the factor held at the end (None when x0 needed no
    step), J the Jacobian at x.
    """
    x = np.array(x0, dtype=float)
    trace = []
    r0 = None
    lu = None
    for _ in range(max_iter + 1):
        R, J = assemble(x)
        absJ = abs(J)  # the rounding floor's and the refinement's
        norm = float(np.linalg.norm(R))
        trace.append(norm)
        if r0 is None:
            r0 = norm
        if norm <= tol * r0 or norm <= EPS * np.linalg.norm(absJ @ np.abs(x)):
            return x, trace, lu, J
        if not np.isfinite(norm) or norm > 1e3 * max(r0, 1.0) + 1e12:
            raise NonconvergenceError("Newton diverged", trace=trace)
        d = None if lu is None else refined_solve(J, lu, R, absJ=absJ)
        absJ = None  # gone before the next assembly or factorization
        if d is None:
            lu = None  # the previous factors go before the next are made
            lu = factorize(J)
            d = lu_solve(lu, R)
        x -= d
    raise NonconvergenceError(
        f"Newton did not converge in {max_iter} iterations", trace=trace
    )


def bdf_slot(step, dt, states):
    """TimeSlot for the given step index (1-based) at t = step * dt; BE
    startup then BDF2."""
    t = step * dt
    if step == 1:
        return TimeSlot(alpha=1.0 / dt, hist=-states[0] / dt, dt=dt, t=t)
    return TimeSlot(
        alpha=1.5 / dt,
        hist=(-2.0 * states[-1] + 0.5 * states[-2]) / dt,
        dt=dt,
        t=t,
    )


def march(make_assemble, u0, config: SolveConfig):
    """Time marching; returns (state history, per-step Newton traces, lu, J).

    make_assemble(slot) must return an assemble(x) callable for that step's
    time slot, as newton_solve takes. History includes the initial
    condition; lu and J are the last step's newton_solve factor and
    Jacobian (each step's factor goes before the next step starts).
    """
    if config.dt is None or config.dt <= 0 or config.n_steps < 1:
        raise ValueError("march requires dt > 0 and n_steps >= 1")
    states = [np.array(u0, dtype=float)]
    traces = []
    for step in range(1, config.n_steps + 1):
        slot = bdf_slot(step, config.dt, states)
        lu = J = None  # the last step's go before this step makes its own
        try:
            u, trace, lu, J = newton_solve(
                make_assemble(slot), states[-1],
                tol=config.newton_tol, max_iter=config.max_newton,
            )
        except NonconvergenceError as exc:
            raise NonconvergenceError(
                f"time step {step} failed: {exc}", trace=exc.trace, step=step
            ) from exc
        except SolverError as exc:
            raise SolverError(f"time step {step} failed: {exc}", step=step) from exc
        states.append(u)
        traces.append(trace)
    return states, traces, lu, J


def steady_solve(make_assemble, warm, config: SolveConfig):
    """Steady solve with optional pseudo-transient continuation fallback.

    Returns (x, trace, lu, J) as newton_solve does; after a fallback,
    trace joins the pseudo steps' traces and lu and J come from the final
    steady Newton.
    """
    try:
        return newton_solve(
            make_assemble(STEADY_SLOT), warm,
            tol=config.newton_tol, max_iter=config.max_newton,
        )
    except (NonconvergenceError, SolverError):
        pass  # cold Newton diverged (possibly into a singular Jacobian)
    u = np.array(warm, dtype=float)
    dt = PSEUDO_DT0
    combined = []
    for _ in range(PSEUDO_STEPS):
        slot = TimeSlot(alpha=1.0 / dt, hist=-u / dt, dt=dt)
        try:
            u, trace = newton_solve(
                make_assemble(slot), u,
                tol=max(config.newton_tol, 1e-4), max_iter=config.max_newton,
            )[:2]
            combined.extend(trace)
        except (NonconvergenceError, SolverError):
            dt *= 0.25  # retreat and try a smaller pseudo step
            continue
        dt *= 2.0
    try:
        x, trace, lu, J = newton_solve(
            make_assemble(STEADY_SLOT), u,
            tol=config.newton_tol, max_iter=config.max_newton,
        )
        return x, combined + trace, lu, J
    except NonconvergenceError as exc:
        raise NonconvergenceError(
            "steady solve failed after pseudo-transient continuation",
            trace=combined + exc.trace,
        ) from exc
