import math

import numpy as np
import pytest
import scipy.sparse as sp

from cutflow import solve
from cutflow.cut import build_cut_model
from cutflow.errors import NonconvergenceError, SolverError
from cutflow.flow import FlowParams, assemble_flow
from cutflow.forms import build_context
from cutflow.grid import build_mesh
from cutflow.sensitivities import total_design_gradient
from cutflow.solve import (SolveConfig, TimeSlot, factorize, linear_solve,
                           lu_solve, march, newton_solve, steady_solve)

from fixtures_common import LiveFactors, bend_model, channel_regions, circle_channel


# --- newton -------------------------------------------------------------------

def test_newton_linear_problem_one_iteration():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, -2.0])

    def assemble(x):
        return A @ x - b, A

    x, trace, _, _ = newton_solve(assemble, np.zeros(2))
    np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-12)
    assert len(trace) == 2  # initial residual + converged check


def test_newton_scalar_quadratic():
    # x^2 - 4 = 0 from x0 = 3: quadratic convergence to 2
    def assemble(x):
        return np.array([x[0] ** 2 - 4.0]), np.array([[2.0 * x[0]]])

    x, trace, _, _ = newton_solve(assemble, np.array([3.0]), tol=1e-14)
    assert abs(x[0] - 2.0) < 1e-12
    assert len(trace) <= 6  # ~5 iterations for 1e-12
    # strictly decreasing residuals after the first iterate
    assert all(trace[i + 1] < trace[i] for i in range(1, len(trace) - 1))


def test_newton_stops_at_the_residual_rounding_level():
    # c (x^3 + x) = b with c = 1e4: the residual of the best float x is
    # rounding noise of about 1e-11, far above a fixed 1e-14 floor, and a
    # start near the root makes tol * r0 ask for less than that noise
    c = 1.0e4
    b = c * np.array([math.pi, math.e, math.sqrt(2.0)])

    def assemble(x):
        return c * (x ** 3 + x) - b, np.diag(c * (3.0 * x ** 2 + 1.0))

    root, _, _, _ = newton_solve(assemble, np.ones(3), tol=1e-8)
    x, trace, _, _ = newton_solve(assemble, root + 1e-3, tol=1e-14)
    assert len(trace) <= 5
    R, J = assemble(x)
    assert trace[-1] <= np.finfo(float).eps * np.linalg.norm(np.abs(J) @ np.abs(x))
    np.testing.assert_allclose(x ** 3 + x, b / c, rtol=1e-14)


def _eager_newton(assemble, x0, tol):
    """Newton with a fresh LU solve at every step."""
    x = np.array(x0, dtype=float)
    trace = []
    r0 = None
    while True:
        R, J = assemble(x)
        norm = float(np.linalg.norm(R))
        trace.append(norm)
        if r0 is None:
            r0 = norm
        if norm <= tol * r0 or norm <= np.finfo(float).eps * np.linalg.norm(
                abs(J) @ np.abs(x)):
            return x, trace
        x -= linear_solve(sp.csc_matrix(J), R)


@pytest.mark.parametrize("tol", [1e-10, 1e-14], ids=["relative", "rounding-floor"])
def test_newton_assembles_each_iterate_once(tol):
    # the same cubic system as above; at 1e-14 the last check needs the
    # rounding floor, from the J assembled with the residual
    c = 1.0e4
    b = c * np.array([math.pi, math.e, math.sqrt(2.0)])
    calls = []

    def assemble(x):
        calls.append(x.tobytes())
        J = sp.diags(c * (3.0 * x ** 2 + 1.0)).tocsr()
        return c * (x ** 3 + x) - b, J

    x0 = np.ones(3)
    if tol == 1e-14:  # a start near the root, as in the test above
        x0 = newton_solve(assemble, x0, tol=1e-8)[0] + 1e-3
        calls.clear()
    x, trace, lu, J = newton_solve(assemble, x0, tol=tol)
    assert calls == list(dict.fromkeys(calls)) and len(calls) == len(trace) > 1
    assert calls[-1] == x.tobytes()
    assert (trace[-1] > tol * trace[0]) == (tol == 1e-14)
    # the returned Jacobian is J(x), byte for byte
    J_x = assemble(x)[1]
    for attr in ("data", "indices", "indptr"):
        assert getattr(J, attr).tobytes() == getattr(J_x, attr).tobytes()
    # steps on the kept factor are Newton steps up to rounding
    calls.clear()
    x_ref, trace_ref = _eager_newton(assemble, x0, tol)
    assert len(trace) == len(trace_ref)
    np.testing.assert_allclose(x, x_ref, rtol=4 * np.finfo(float).eps)
    assert lu is not None


def _near_pair(n=60, seed=0):
    """A sparse nonsymmetric J, and J0 within 5% of it entrywise."""
    rng = np.random.default_rng(seed)
    B = sp.random(n, n, density=0.1, random_state=seed, format="csr")
    J = (B + sp.diags(rng.uniform(2.0, 3.0, n))).tocsr()
    J0 = J.copy()
    J0.data *= 1.0 + 0.05 * rng.uniform(-1.0, 1.0, J0.nnz)
    return J, J0


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("cols", [None, 3], ids=["column", "block"])
def test_refined_solve_on_a_stale_factor_reaches_the_rounding_level(trans, cols):
    J, J0 = _near_pair()
    b = np.random.default_rng(1).standard_normal(
        (J.shape[0],) if cols is None else (J.shape[0], cols))
    x = solve.refined_solve(J, factorize(J0), b, trans=trans)
    assert x.shape == b.shape
    A = J.T if trans == "T" else J
    r = (b - A @ x).reshape(b.shape[0], -1)
    level = np.finfo(float).eps * np.linalg.norm(
        (abs(A) @ np.abs(x)).reshape(b.shape[0], -1), axis=0)
    assert np.all(np.linalg.norm(r, axis=0) <= level)
    # the stale factor's own solve is far from that
    x0 = lu_solve(factorize(J0), b, trans=trans)
    assert np.linalg.norm(b - A @ x0) > 1e6 * level.max()


class _CountingFactor:
    """Factors whose solve records the columns of each right-hand side."""

    def __init__(self, lu):
        self.lu, self.columns = lu, []

    def solve(self, b, trans="N"):
        self.columns.append(1 if b.ndim == 1 else b.shape[1])
        return self.lu.solve(b, trans=trans)


@pytest.mark.parametrize("trans", ["N", "T"])
def test_zero_columns_are_not_solved(trans):
    # a state-independent functional's adjoint column is exactly zero: the
    # factors never see it, it comes back +0.0, and the other columns are
    # those of a solve without it, byte for byte
    J, J0 = _near_pair()
    b = np.random.default_rng(2).standard_normal((J.shape[0], 3))
    b[:, 1] = 0.0
    lu = _CountingFactor(factorize(J0))
    x = solve.refined_solve(J, lu, b, trans=trans)
    assert lu.columns[0] == 2 and max(lu.columns) == 2
    assert x[:, 1].tobytes() == np.zeros(J.shape[0]).tobytes()
    alone = solve.refined_solve(J, factorize(J0), b[:, [0, 2]], trans=trans)
    assert x[:, [0, 2]].tobytes() == alone.tobytes()
    lu.columns.clear()
    assert lu_solve(lu, np.zeros(J.shape[0]), trans=trans).tobytes() == \
        np.zeros(J.shape[0]).tobytes()
    assert lu.columns == []


def test_newton_refactors_only_where_refinement_stalls(monkeypatch):
    # x^2 - 4 from 30: the first factor (J = 60) serves the steps while
    # the slope stays within a factor two of it, then refinement stalls
    # and Newton factors afresh, so fewer factors than steps
    live = LiveFactors(monkeypatch)
    stalls = []
    refined = solve.refined_solve

    def recording(*args, **kwargs):
        x = refined(*args, **kwargs)
        stalls.append(x is None)
        return x

    monkeypatch.setattr(solve, "refined_solve", recording)

    def assemble(x):
        return np.array([x[0] ** 2 - 4.0]), np.array([[2.0 * x[0]]])

    x, trace, lu, J = newton_solve(assemble, np.array([30.0]), tol=1e-14)
    steps = len(trace) - 1
    assert abs(x[0] - 2.0) < 1e-14 and steps == 8
    assert len(stalls) == steps - 1 and any(stalls) and not all(stalls)
    assert live.calls == 1 + sum(stalls) < steps


def test_newton_holds_one_factorization_at_a_time(monkeypatch):
    live = LiveFactors(monkeypatch)

    def assemble(x):
        return np.array([x[0] ** 2 - 4.0]), np.array([[2.0 * x[0]]])

    x, trace, lu, J = newton_solve(assemble, np.array([30.0]), tol=1e-14)
    assert live.calls >= 2  # the kept factor was replaced on the way
    assert live.peak == 1 and live.live == 1
    del lu
    assert live.live == 0


def test_newton_nonconvergence_carries_trace():
    def assemble(x):
        return np.array([1.0]), np.array([[1e-30]])

    with pytest.raises(NonconvergenceError) as exc:
        newton_solve(assemble, np.array([0.0]), max_iter=3)
    assert len(exc.value.trace) >= 1


# --- linear solvers -------------------------------------------------------------

def test_linear_identity_and_spd():
    b = np.array([3.0, -1.0, 2.5])
    np.testing.assert_allclose(linear_solve(sp.eye(3).tocsc(), b), b, atol=1e-15)
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    x = linear_solve(A, np.array([1.0, 2.0]))
    np.testing.assert_allclose(A @ x, [1.0, 2.0], atol=1e-14)


def test_linear_random_sparse_spd():
    rng = np.random.default_rng(0)
    n = 500
    B = sp.random(n, n, density=0.01, random_state=0, format="csr")
    A = (B @ B.T + sp.eye(n) * n * 0.05).tocsc()
    b = rng.normal(size=n)
    x = linear_solve(A, b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-10


def test_linear_singular_raises():
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    fallbacks = solve.lu_fallbacks
    with pytest.raises(SolverError):
        linear_solve(A, np.array([1.0, 0.0]))
    assert solve.lu_fallbacks == fallbacks + 1  # both factorizations tried


def _backward_error(A, x, b):
    """Componentwise backward error max |A x - b| / (|A||x| + |b|)."""
    A = np.asarray(A)
    return np.max(np.abs(A @ x - b) / (np.abs(A) @ np.abs(x) + np.abs(b)))


@pytest.mark.parametrize("A", [
    [[0.0, 2.0], [3.0, 0.0]],                       # permuted: zero diagonal
    [[4.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 0.0]],  # saddle block
    [[1e-300, 1e10], [1e10, 1.0]],                  # growth 1e310: backward error
    [[1.0, 1e10], [1e10, 1e-300]],                  # overflow: non-finite check solve
], ids=["permuted", "saddle", "growth", "overflow"])
def test_pivot_free_lu_falls_back_to_pivoting(A):
    A = np.array(A)
    b = np.arange(1.0, len(A) + 1.0)
    fallbacks = solve.lu_fallbacks
    lu = factorize(A)
    assert solve.lu_fallbacks == fallbacks + 1
    assert _backward_error(A, lu_solve(lu, b), b) <= 1e-14
    assert _backward_error(A.T, lu_solve(lu, b, trans="T"), b) <= 1e-14


def test_newton_fallback_holds_one_factorization_at_a_time(monkeypatch):
    # every Jacobian has a zero diagonal, so each factorization is a
    # rejected pivot-free factor and a COLAMD one: the first goes before
    # the second is made
    live = LiveFactors(monkeypatch)

    def assemble(x):
        R = np.array([x[1] ** 3 + x[1] - 2.0, x[0] ** 3 + x[0] - 2.0])
        return R, np.array([[0.0, 3.0 * x[1] ** 2 + 1.0],
                            [3.0 * x[0] ** 2 + 1.0, 0.0]])

    fallbacks = solve.lu_fallbacks
    x, trace, lu, J = newton_solve(assemble, np.array([3.0, -2.0]), tol=1e-14)
    np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)
    factors = solve.lu_fallbacks - fallbacks
    assert len(trace) - 1 >= 4 and factors >= 2
    assert live.calls == 2 * factors
    assert live.peak == 1 and live.live == 1


def test_bend_fixture_factors_without_fallback(monkeypatch):
    # a cold solve of a design and its gradient factor twice, the indicator
    # and the first Newton Jacobian, and both keep the pivot-free LU: the
    # later Newton steps and the flow adjoint refine on the flow factor
    live = LiveFactors(monkeypatch)
    model, problem, design = bend_model(divisions=(16, 16))
    fallbacks = solve.lu_fallbacks
    result = model.solve_steady(design)
    problem.capture_normalization(result.crit_values)
    total_design_gradient(model, result, problem, design, 1.0)
    assert len(result.newton_trace) >= 3
    assert live.calls == 2 and solve.lu_fallbacks == fallbacks


def test_re200_circle_jacobian_solves_accurately_or_falls_back():
    # the circle channel at Re 200, the paper's upper bound (mu a tenth of
    # the Re-20 default), reached by continuation in Re from the Re-20 flow
    mesh, cm, ctx, regions, params = circle_channel(0.04)
    U = np.zeros(3 * ctx.n)
    for re in (20.0, 50.0, 100.0, 200.0):
        params.mu = 1.6e-3 * 20.0 / re
        make = lambda slot: (lambda x: assemble_flow(
            ctx, params, x, coeff_state=x, slot=slot))
        U = steady_solve(make, U, SolveConfig(newton_tol=1e-10, max_newton=40))[0]
    J = assemble_flow(ctx, params, U, coeff_state=U)[1]
    fallbacks = solve.lu_fallbacks
    lu = factorize(J)
    b = np.random.default_rng(1).standard_normal(J.shape[0])
    errors = [_backward_error(M.toarray(), lu_solve(lu, b, trans), b)
              for M, trans in ((J, "N"), (J.T, "T"))]
    assert solve.lu_fallbacks == fallbacks + 1 or max(errors) <= 1e-12


# --- time marching ---------------------------------------------------------------

def _ode_make(slot):
    # du/dt = -u as a residual: alpha u + hist + u = 0
    def assemble(x):
        return slot.alpha * x + slot.hist + x, np.array([[slot.alpha + 1.0]])
    return assemble


def test_march_matches_exponential_second_order():
    errs = []
    for dt in (0.1, 0.05, 0.025):
        cfg = SolveConfig(dt=dt, n_steps=round(1.0 / dt), scheme="bdf2")
        states, traces, _, _ = march(_ode_make, np.array([1.0]), cfg)
        errs.append(abs(states[-1][0] - math.exp(-1.0)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2


def test_march_constant_solution_exact():
    # du/dt = 0: residual alpha u + hist
    def make(slot):
        return lambda x: (slot.alpha * x + slot.hist,
                                            np.array([[slot.alpha]]))

    cfg = SolveConfig(dt=0.2, n_steps=7, scheme="bdf2")
    states, _, _, _ = march(make, np.array([0.73]), cfg)
    for s in states:
        assert s[0] == pytest.approx(0.73, abs=1e-14)


def test_march_abort_reports_step():
    calls = {"n": 0}

    def make(slot):
        def assemble(x):
            calls["n"] += 1
            if slot.t > 0.25:  # third step fails
                return np.array([1.0]), np.array([[1e-30]])
            return slot.alpha * x + slot.hist + x, np.array([[slot.alpha + 1.0]])
        return assemble

    cfg = SolveConfig(dt=0.1, n_steps=10, scheme="bdf2", max_newton=3)
    with pytest.raises(NonconvergenceError) as exc:
        march(make, np.array([1.0]), cfg)
    assert exc.value.step == 3


def test_march_singular_step_reports_step():
    # the third step's Jacobian is exactly singular: the SolverError names
    # the step, as a nonconverged step does
    def make(slot):
        def assemble(x):
            if slot.t > 0.25:
                return np.array([1.0]), np.array([[0.0]])
            return slot.alpha * x + slot.hist + x, np.array([[slot.alpha + 1.0]])
        return assemble

    cfg = SolveConfig(dt=0.1, n_steps=10, scheme="bdf2")
    with pytest.raises(SolverError) as exc:
        march(make, np.array([1.0]), cfg)
    assert exc.value.step == 3
    assert str(exc.value).startswith("time step 3 failed: ")


def test_steady_solve_pseudo_transient_fallback(monkeypatch):
    # arctan(x) = 0 from x0 = 2: plain Newton diverges, continuation converges
    def make(slot):
        def assemble(x):
            with np.errstate(over="ignore"):  # divergent iterates overflow x^2
                r = np.array([math.atan(x[0])])
                j = np.array([[1.0 / (1.0 + x[0] ** 2)]])
            if slot.alpha:
                r = r + slot.alpha * x + slot.hist
                j = j + np.array([[slot.alpha]])
            return r, j
        return assemble

    with pytest.raises((NonconvergenceError, SolverError)):
        newton_solve(make(TimeSlot()), np.array([2.0]), max_iter=20)
    monkeypatch.setattr(solve, "PSEUDO_DT0", 0.5)
    x, trace, _, _ = steady_solve(make, np.array([2.0]), SolveConfig())
    assert abs(x[0]) < 1e-10


def test_steady_solve_retreats_from_singular_pseudo_step():
    # x^3 = 8 from x0 = 0: the steady Jacobian 3 x^2 is singular at the
    # start, and the pseudo-time term (alpha - 1/dt0)(x - u) vanishes at the
    # first pseudo step, so that step is singular too; a smaller step works
    dt0 = solve.PSEUDO_DT0
    steps = []

    def make(slot):
        def assemble(x):
            r = np.array([x[0] ** 3 - 8.0])
            j = np.array([[3.0 * x[0] ** 2]])
            if slot.alpha:
                steps.append(slot.dt)
                u = -slot.hist * slot.dt  # the previous pseudo state
                r = r + (slot.alpha - 1.0 / dt0) * (x - u)
                j = j + np.array([[slot.alpha - 1.0 / dt0]])
            return r, j
        return assemble

    r, j = make(TimeSlot(alpha=1.0 / dt0, hist=np.zeros(1), dt=dt0))(np.zeros(1))
    with pytest.raises(SolverError):
        linear_solve(j, r)
    steps.clear()
    x, trace, _, _ = steady_solve(make, np.zeros(1), SolveConfig())
    assert abs(x[0] - 2.0) < 1e-10
    assert steps[0] == dt0 and dt0 * 0.25 in steps


def test_stokes_cavity_converges_in_a_couple_iterations():
    # creeping lid-driven cavity: convection negligible, frozen penalties
    # keep Newton essentially linear
    from cutflow.conditions import BoundaryRegion, wall_regions
    mesh = build_mesh(((0, 0), (1, 1)), (8, 8))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = wall_regions(mesh, [
        BoundaryRegion(name="lid", side="top", kind="velocity",
                       velocity=(1e-3, 0.0)),
        BoundaryRegion(name="vent", side="bottom", kind="traction",
                       span=(0.375, 0.625)),
    ])
    ctx = build_context(cm, regions)
    n = ctx.n
    params = FlowParams(rho=1.0, mu=10.0)
    make = lambda slot: (lambda x: assemble_flow(
        ctx, params, x, coeff_state=x, slot=slot))
    U, trace, _, _ = steady_solve(make, np.zeros(3 * n), SolveConfig())
    assert len(trace) <= 4  # residual evals: initial + <= 2 corrections + final


def test_warm_start_at_solution_converges_immediately():
    mesh = build_mesh(((0, 0), (2, 1)), (8, 4))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    ctx = build_context(cm, channel_regions(mesh, 1.0))
    n = ctx.n
    params = FlowParams(rho=1.0, mu=0.5)
    make = lambda slot: (lambda x: assemble_flow(
        ctx, params, x, coeff_state=x, slot=slot))
    U, t1, _, _ = steady_solve(make, np.zeros(3 * n), SolveConfig())
    U2, t2, _, _ = steady_solve(make, U, SolveConfig())
    # warm start at the solution: at most a couple of corrections (the
    # convergence test is relative to the warm residual, so it polishes)
    assert len(t2) <= 3
    assert np.abs(U2 - U).max() < 1e-3 * np.abs(U).max()
