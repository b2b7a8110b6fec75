"""Nonlinear, linear and temporal solution drivers.

Newton iterations with relative-residual control wrap a sparse direct
(LU) solve. Every matrix is factored through `factorize`: first without
pivoting, on a minimum-degree ordering of A + A^T (the flow, indicator and
species matrices have a nonzero diagonal and a nearly symmetric pattern),
and by SuperLU's COLAMD with partial pivoting when that factor meets a
zero pivot or fails its check solve. Newton assembles a Jacobian only on
the iterates it steps from (a converged check costs one residual), holds
one LU at a time and returns its last, which the adjoint reuses.
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
    pseudo_dt0: float = 0.1

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
    """Solve A x = b (A^T x = b with trans='T') on A's factors lu.

    Raises SolverError when x is not finite (a singular system).
    """
    x = lu.solve(np.asarray(b, dtype=float), trans=trans)
    if not np.all(np.isfinite(x)):
        raise SolverError("sparse LU produced non-finite values (singular system)")
    return x


def linear_solve(A, b):
    """Solve A x = b by sparse LU; SolverError on singular systems."""
    return lu_solve(factorize(A), b)


def newton_solve(assemble, x0, tol=1e-6, max_iter=30):
    """Newton iteration on assemble(x, want_matrix) -> (R, J or None).

    Converges when ||R|| drops below tol * ||R0||, or below the rounding
    level eps * || |J| |x| || of the residual at x: no Newton step can take
    ||R|| further down than that, whatever tol asks for. J is asked for
    only when the first test fails (the first iterate gets R and J in one
    call), so a converged check costs one residual. Each LU is freed
    before the next is made.
    Returns (x, trace, lu): trace holds the residual norms per iteration,
    lu the factors of the Jacobian of the last step taken (None when x0
    needed no step).
    """
    x = np.array(x0, dtype=float)
    trace = []
    r0 = None
    lu = None
    for _ in range(max_iter + 1):
        R, J = assemble(x, r0 is None)
        norm = float(np.linalg.norm(R))
        trace.append(norm)
        if r0 is None:
            r0 = norm
        if norm <= tol * r0:
            return x, trace, lu
        if J is None:
            J = assemble(x, True)[1]
        if norm <= EPS * np.linalg.norm(abs(J) @ np.abs(x)):
            return x, trace, lu
        if not np.isfinite(norm) or norm > 1e3 * max(r0, 1.0) + 1e12:
            raise NonconvergenceError("Newton diverged", trace=trace)
        lu = None  # the previous factors go before the next are made
        lu = factorize(J)
        x -= lu_solve(lu, R)
    raise NonconvergenceError(
        f"Newton did not converge in {max_iter} iterations", trace=trace
    )


def bdf_slot(step, dt, states, t=None):
    """TimeSlot for the given step index (1-based); BE startup then BDF2."""
    if t is None:
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
    """Time marching; returns (state history, per-step Newton traces, lu).

    make_assemble(slot) must return an assemble(x, want_matrix) callable
    for that step's time slot, as newton_solve takes. History includes the
    initial condition; lu is the last step's newton_solve factors (each
    step's go before the next step starts).
    """
    if config.dt is None or config.dt <= 0 or config.n_steps < 1:
        raise ValueError("march requires dt > 0 and n_steps >= 1")
    states = [np.array(u0, dtype=float)]
    traces = []
    for step in range(1, config.n_steps + 1):
        slot = bdf_slot(step, config.dt, states)
        lu = None
        try:
            u, trace, lu = newton_solve(
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
    return states, traces, lu


def steady_solve(make_assemble, warm, config: SolveConfig):
    """Steady solve with optional pseudo-transient continuation fallback.

    Returns (x, trace, lu) as newton_solve does; after a fallback, trace
    joins the pseudo steps' traces and lu comes from the final steady
    Newton.
    """
    try:
        return newton_solve(
            make_assemble(STEADY_SLOT), warm,
            tol=config.newton_tol, max_iter=config.max_newton,
        )
    except (NonconvergenceError, SolverError):
        pass  # cold Newton diverged (possibly into a singular Jacobian)
    u = np.array(warm, dtype=float)
    dt = config.pseudo_dt0
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
        x, trace, lu = newton_solve(
            make_assemble(STEADY_SLOT), u,
            tol=config.newton_tol, max_iter=config.max_newton,
        )
        return x, combined + trace, lu
    except NonconvergenceError as exc:
        raise NonconvergenceError(
            "steady solve failed after pseudo-transient continuation",
            trace=combined + exc.trace,
        ) from exc
