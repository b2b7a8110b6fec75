import numpy as np
import pytest

from cutflow.gcmma import GCMMA, GcmmaConfig, GcmmaState, _stationary_point, _subsolve


def _drive(opt, state, fgrad, n_iter, evaluate=None):
    for _ in range(n_iter):
        f0, df0, g, dg = fgrad(state.x)
        state, diag = opt.step(state, f0, df0, g, dg, evaluate=evaluate)
    return state, diag


def test_quadratic_bowl_converges():
    n = 6
    target = np.array([0.3, -0.2, 0.7, 0.0, -0.5, 0.45])
    opt = GCMMA(-np.ones(n), np.ones(n), GcmmaConfig())
    state = opt.init_state(np.zeros(n))

    def fgrad(x):
        return float(((x - target) ** 2).sum()), 2 * (x - target), \
            np.zeros(0), np.zeros((0, n))

    state, _ = _drive(opt, state, fgrad, 50,
                      evaluate=lambda x: (float(((x - target) ** 2).sum()),
                                          np.zeros(0)))
    assert np.abs(state.x - target).max() < 1e-4


def test_optimum_outside_bounds_clamps():
    target = np.array([2.0, -3.0])
    opt = GCMMA(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), GcmmaConfig())
    state = opt.init_state(np.zeros(2))

    def fgrad(x):
        return float(((x - target) ** 2).sum()), 2 * (x - target), \
            np.zeros(0), np.zeros((0, 2))

    state, _ = _drive(opt, state, fgrad, 60)
    np.testing.assert_allclose(state.x, [1.0, -1.0], atol=1e-6)


def test_constrained_circle_symmetric_kkt_point():
    # min s1 + s2 s.t. s1^2 + s2^2 >= 1 on [0, 2]^2 from a symmetric start:
    # converges to the symmetric KKT point (sqrt(2)/2, sqrt(2)/2)
    opt = GCMMA(np.zeros(2), np.full(2, 2.0), GcmmaConfig())
    state = opt.init_state(np.array([1.5, 1.5]))

    def fgrad(x):
        return float(x.sum()), np.ones(2), np.array([1.0 - x @ x]), (-2 * x)[None, :]

    state, _ = _drive(opt, state, fgrad, 100,
                      evaluate=lambda x: (float(x.sum()), np.array([1.0 - x @ x])))
    np.testing.assert_allclose(state.x, np.sqrt(2) / 2, atol=1e-3)


def test_iterates_always_inside_box():
    rng = np.random.default_rng(0)
    lo, up = np.array([-0.5, 0.1, -2.0]), np.array([0.5, 1.4, -0.2])
    opt = GCMMA(lo, up, GcmmaConfig())
    state = opt.init_state(np.array([0.0, 0.7, -1.0]))
    for k in range(30):
        df0 = rng.normal(size=3)
        state, _ = opt.step(state, rng.normal(), df0, np.zeros(0),
                            np.zeros((0, 3)))
        assert np.all(state.x >= lo - 1e-12)
        assert np.all(state.x <= up + 1e-12)


def test_objective_scaling_invariance():
    # scaling the objective by a positive constant leaves iterates unchanged;
    # power-of-two scales are exact in floating point (bitwise identical),
    # other scales agree to rounding accumulation
    def run(scale):
        opt = GCMMA(-np.ones(3), np.ones(3), GcmmaConfig())
        state = opt.init_state(np.array([0.5, -0.5, 0.1]))
        tgt = np.array([0.2, 0.3, -0.4])
        xs = []
        for _ in range(12):
            f0 = scale * float(((state.x - tgt) ** 2).sum())
            df0 = scale * 2 * (state.x - tgt)
            state, _ = opt.step(
                state, f0, df0, np.zeros(0), np.zeros((0, 3)),
                evaluate=lambda x: (scale * float(((x - tgt) ** 2).sum()),
                                    np.zeros(0)))
            xs.append(state.x.copy())
        return np.array(xs)

    assert np.abs(run(1.0) - run(1024.0)).max() == 0.0
    assert np.abs(run(1.0) - run(1000.0)).max() < 1e-8


def test_descent_on_accepted_feasible_steps():
    # strictly convex unconstrained problem: accepted steps never increase f
    opt = GCMMA(-np.ones(2), np.ones(2), GcmmaConfig())
    state = opt.init_state(np.array([0.9, -0.8]))
    tgt = np.array([-0.3, 0.4])
    prev = None
    for _ in range(25):
        f0 = float(((state.x - tgt) ** 2).sum())
        if prev is not None:
            assert f0 <= prev + 1e-12
        prev = f0
        df0 = 2 * (state.x - tgt)
        state, _ = opt.step(state, f0, df0, np.zeros(0), np.zeros((0, 2)),
                            evaluate=lambda x: (float(((x - tgt) ** 2).sum()),
                                                np.zeros(0)))


def test_inner_loop_behavior():
    # convex quadratic with the iterate far from its minimum: the rational
    # approximation already dominates it inside the move limits, so the
    # first trial is accepted without any conservatism increase
    opt = GCMMA(-np.ones(1), np.ones(1), GcmmaConfig())
    state = opt.init_state(np.array([0.9]))
    f = lambda x: (float((x[0] + 0.1) ** 2), np.array([2 * (x[0] + 0.1)]))
    f0, df0 = f(state.x)
    state, diag = opt.step(state, f0, df0, np.zeros(0), np.zeros((0, 1)),
                           evaluate=lambda x: (f(x)[0], np.zeros(0)))
    assert diag["inner_iterations"] == 0
    assert diag["conservative"]

    # oscillatory target: at least one conservatism increase somewhere
    opt2 = GCMMA(np.array([-2.0]), np.array([2.0]), GcmmaConfig(move=0.5))
    state2 = opt2.init_state(np.array([0.4]))
    bumpy = lambda x: (float(np.sin(8 * x[0]) + 0.05 * x[0] ** 2),
                       np.array([8 * np.cos(8 * x[0]) + 0.1 * x[0]]))
    seen_increase = False
    for _ in range(12):
        f0, df0 = bumpy(state2.x)
        state2, diag = opt2.step(state2, f0, df0, np.zeros(0), np.zeros((0, 1)),
                                 evaluate=lambda x: (bumpy(x)[0], np.zeros(0)))
        seen_increase = seen_increase or diag["rho_increased"]
    assert seen_increase

    # linear target: exact approximation accepted immediately
    opt3 = GCMMA(np.array([-1.0]), np.array([1.0]), GcmmaConfig())
    state3 = opt3.init_state(np.array([0.2]))
    f0, df0 = 3.0 * state3.x[0], np.array([3.0])
    state3, diag = opt3.step(state3, f0, df0, np.zeros(0), np.zeros((0, 1)),
                             evaluate=lambda x: (3.0 * x[0], np.zeros(0)))
    assert diag["inner_iterations"] == 0


def test_failed_trial_is_rejected_with_the_largest_bump(monkeypatch):
    # evaluate returns None for the first trial: every rho grows 10x and the
    # subproblem is solved again, closer to x; the second trial is accepted
    import cutflow.gcmma as gcmma
    subsolve, coeffs = gcmma._subsolve, []

    def recording(*args):
        coeffs.append(args[6])  # p0 = (upp - x)^2 (1.001 g+ + 0.001 g- + rho/span)
        return subsolve(*args)

    monkeypatch.setattr(gcmma, "_subsolve", recording)
    n = 3
    tgt = np.array([0.2, -0.1, 0.05])
    opt = GCMMA(-np.ones(n), np.ones(n), GcmmaConfig(move=0.5))
    state = opt.init_state(np.array([0.6, -0.5, 0.4]))
    f = lambda x: float(((x - tgt) ** 2).sum())
    df0 = 2 * (state.x - tgt)
    trials = []

    def evaluate(x):
        trials.append(x.copy())
        return None if len(trials) == 1 else (f(x), np.zeros(0))

    new, diag = opt.step(state, f(state.x), df0, np.zeros(0), np.zeros((0, n)),
                         evaluate=evaluate)
    assert diag["inner_iterations"] == 1 and diag["rho_increased"]
    assert diag["conservative"]
    assert len(trials) == 2
    np.testing.assert_array_equal(new.x, trials[1])
    assert np.all(np.abs(trials[1] - state.x) < np.abs(trials[0] - state.x))
    g = df0 / np.abs(df0).max()
    ux2 = (diag["asymptote_upp"] - state.x) ** 2
    rho = [2.0 * (p0 / ux2 - 1.001 * np.maximum(g, 0) - 0.001 * np.maximum(-g, 0))
           for p0 in coeffs]  # rho per call, span = 2
    np.testing.assert_allclose(rho[1], 10.0 * rho[0], rtol=1e-9)

    # every trial fails: max_inner rounds, then the last subproblem's point,
    # unevaluated, as before
    trials.clear()
    opt = GCMMA(-np.ones(n), np.ones(n), GcmmaConfig(move=0.5, max_inner=3))
    new, diag = opt.step(state, f(state.x), df0, np.zeros(0), np.zeros((0, n)),
                         evaluate=lambda x: trials.append(x.copy()))
    assert diag["inner_iterations"] == 3 and not diag["conservative"]
    assert len(trials) == 3
    assert np.all(np.abs(new.x - state.x) < np.abs(trials[-1] - state.x))


def test_subproblem_stationary_point_hand_algebra():
    # single variable, no constraints: minimizer of p/(u-y) + q/(y-l)
    low, upp = np.array([-1.0]), np.array([1.0])
    p0, q0 = np.array([2.0]), np.array([0.5])
    y = _stationary_point(low, upp, np.array([-0.9]), np.array([0.9]), p0, q0)
    # dpsi/dy = p/(u-y)^2 - q/(y-l)^2 = 0 -> (u-y)/(y-l) = sqrt(p/q)
    expect = (np.sqrt(q0) * upp + np.sqrt(p0) * low) / (np.sqrt(p0) + np.sqrt(q0))
    np.testing.assert_allclose(y, expect, atol=1e-14)


def test_subproblem_kkt_and_complementary_slackness():
    # two constraints, one clearly inactive: its multiplier ~ 0
    n, m = 3, 2
    low = np.full(n, -2.0)
    upp = np.full(n, 2.0)
    alfa = np.full(n, -1.0)
    beta = np.full(n, 1.0)
    rng = np.random.default_rng(1)
    p0 = np.abs(rng.normal(size=n)) + 0.1
    q0 = np.abs(rng.normal(size=n)) + 0.1
    P = np.abs(rng.normal(size=(m, n))) * 0.1
    Q = np.abs(rng.normal(size=(m, n))) * 0.1
    b = np.array([1e3, 0.4])  # first constraint hugely slack
    x, lam, _ = _subsolve(m, n, low, upp, alfa, beta, p0, q0, P, Q, b, 100.0)
    assert np.all(x >= alfa - 1e-12) and np.all(x <= beta + 1e-12)
    assert lam[0] < 1e-9  # complementary slackness on the inactive constraint


def test_subproblem_reports_convergence(monkeypatch):
    # a constrained step reports whether its subproblem reached every barrier
    # level's target; with one Newton step per level it cannot
    import cutflow.gcmma as gcmma_mod
    opt = GCMMA(np.full(2, -1.0), np.full(2, 1.0))
    state = opt.init_state(np.array([0.5, -0.2]))
    x = state.x
    args = (float(x @ x), 2 * x, np.array([x.sum() - 0.1]), np.ones((1, 2)))
    _, diag = opt.step(state, *args)
    assert diag["subproblem_converged"] is True
    monkeypatch.setattr(gcmma_mod, "SUBPROBLEM_NEWTON", 1)
    _, diag = opt.step(state, *args)
    assert diag["subproblem_converged"] is False


def test_binding_move_limit():
    # steep gradient pushes straight into the move limit
    cfg = GcmmaConfig(move=0.04)
    opt = GCMMA(np.zeros(1), np.ones(1), cfg)
    state = opt.init_state(np.array([0.5]))
    state, _ = opt.step(state, 10.0, np.array([1000.0]), np.zeros(0),
                        np.zeros((0, 1)))
    assert state.x[0] == pytest.approx(0.5 - 0.04, abs=1e-6)


def test_config_table_defaults():
    cfg = GcmmaConfig()
    assert cfg.move == 0.04
    assert cfg.asy_decrease == 0.5
    assert cfg.asy_init == 0.7
    assert cfg.asy_increase == 1.43
    assert cfg.constraint_penalty == 100.0
    with pytest.raises(ValueError):
        GcmmaConfig(asy_decrease=0.9, asy_init=0.7)


def test_state_checkpoint_roundtrip():
    opt = GCMMA(-np.ones(2), np.ones(2), GcmmaConfig())
    state = opt.init_state(np.array([0.1, -0.4]))
    state, _ = opt.step(state, 1.0, np.array([0.5, -0.2]), np.zeros(0),
                        np.zeros((0, 2)))
    state, _ = opt.step(state, 0.8, np.array([0.4, -0.1]), np.zeros(0),
                        np.zeros((0, 2)))
    d = state.to_dict()
    back = GcmmaState.from_dict(d)
    np.testing.assert_array_equal(back.x, state.x)
    np.testing.assert_array_equal(back.low, state.low)
    assert back.iteration == state.iteration
    # restart continues identically
    s1, _ = opt.step(state, 0.7, np.array([0.3, -0.05]), np.zeros(0),
                     np.zeros((0, 2)))
    s2, _ = opt.step(back, 0.7, np.array([0.3, -0.05]), np.zeros(0),
                     np.zeros((0, 2)))
    np.testing.assert_array_equal(s1.x, s2.x)


def test_nan_gradient_rejected():
    opt = GCMMA(-np.ones(2), np.ones(2), GcmmaConfig())
    state = opt.init_state(np.zeros(2))
    with pytest.raises(ValueError):
        opt.step(state, 1.0, np.array([np.nan, 0.0]), np.zeros(0),
                 np.zeros((0, 2)))


def test_subproblem_discounts_rounding_noise(monkeypatch):
    # a strongly conservative approximation, as after the inner loop has
    # grown rho: terms near 1e9 leave rounding noise near 1e-7 in the x
    # rows, above the targets of the last barrier levels. Counted in full,
    # that noise stalls each of those levels through all SUBPROBLEM_NEWTON
    # steps without converging
    n = 40
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-0.04, 0.04, n)
    p0 = 8e8 + rng.uniform(0.0, 1.0, n)
    q0 = 8e8 + rng.uniform(0.0, 1.0, n)
    P = np.full((1, n), 0.1)
    steps = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, r: steps.append(1) or solve(A, r))
    x, lam, converged = _subsolve(1, n, x0 - 1.0, x0 + 1.0, x0 - 0.004, x0 + 0.004,
                                  p0, q0, P, P.copy(), np.array([10.0]), 100.0)
    assert converged
    assert len(steps) < 50  # ten barrier levels
    assert np.all(x >= x0 - 0.004) and np.all(x <= x0 + 0.004)
    assert 0.0 < lam[0] < 1e-9  # the constraint is slack
