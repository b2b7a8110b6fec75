from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutflow.criteria import CriterionSpec, ObjectiveTerm, ProblemSpec
from cutflow.cut import CUT, FLUID
from cutflow.design import DesignVector
from cutflow.errors import SolverError
from cutflow import flow as flow_mod
from cutflow import forms
from cutflow import transport as transport_mod
from cutflow.forms import element_context
from cutflow.sensitivities import (_recut_partials, adjoint_transient,
                                   geometry_gradient, solve_adjoints,
                                   total_design_gradient)
from cutflow.solve import bdf_slot

from fixtures_common import bend_model


def _restrict(vec, ids, blocks, n):
    """Restrict a block vector (blocks * n) to local scalar ids."""
    return np.concatenate([vec[b * n + ids] for b in range(blocks)])


def residual_phi_matrix(model, result, block="flow"):
    """Materialized sparse d(residual)/d(nodal phi), by the re-cut engine."""
    cm = result.cm
    n = result.ctx.n
    blocks = {"flow": 3, "species": 1, "indicator": 1}[block]
    width = 8  # scalar dofs of one element: at most two fluid pieces of four

    def payload(elems, phi4s):
        ctx, invalid = element_context(cm, elems, phi4s, regions=model.regions)
        ids = ctx.scalar_ids
        U_loc = _restrict(result.flow_state, ids, 3, n)
        if block == "flow":
            psi = None if result.psi is None else result.psi[ids]
            r, _ = flow_mod.assemble_flow(
                ctx, model.physics.flow, U_loc, coeff_state=U_loc,
                psibar=model.penalty_weights(ctx, psi), want_matrix=False)
        elif block == "species":
            r, _ = transport_mod.assemble_species(
                ctx, model.physics.transport, result.species_state[ids],
                U_loc, want_matrix=False)
        else:
            r, _ = transport_mod.assemble_indicator(
                ctx, model.physics.indicator, result.psi[ids],
                want_matrix=False)
        # each row's residual, field by field, in its own dof order
        local = np.arange(ctx.n) - np.searchsorted(ctx.owner, ctx.owner)
        out = np.zeros((len(elems), blocks, width))
        for b in range(blocks):
            out[ctx.owner, b, local] = r[b * ctx.n:(b + 1) * ctx.n]
        return out.reshape(len(elems), -1), invalid

    rows, cols, vals = [], [], []
    elems, nodes, partials, _ = _recut_partials(model, result, payload)
    for e, node, partial in zip(elems.tolist(), nodes.tolist(), partials):
        ids = np.unique(cm.piece_dofs[(cm.piece_elem == e) & (cm.piece_phase == FLUID)])
        partial = partial.reshape(blocks, width)[:, :ids.shape[0]]
        rows.append((np.arange(blocks)[:, None] * n + ids).ravel())
        cols.append(np.full(partial.size, node, dtype=np.int64))
        vals.append(partial.ravel())
    if not rows:
        return sp.csr_matrix((blocks * n, model.mesh.n_nodes))
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(blocks * n, model.mesh.n_nodes),
    )


@pytest.fixture(scope="module")
def bend():
    model, problem, design = bend_model(divisions=(20, 20))
    result = model.solve_steady(design)
    problem.capture_normalization(result.crit_values)
    return model, problem, design, result


def test_state_independent_functional_has_zero_adjoints(bend):
    model, problem, design, result = bend
    lams, _, lam_psi = solve_adjoints(model, result, [{"Vf": 1.0}])
    assert np.linalg.norm(lams[-1][:, 0]) < 1e-12
    if lam_psi is not None:
        assert np.linalg.norm(lam_psi[:, 0]) < 1e-12


def test_total_gradient_matches_global_fd(bend):
    model, problem, design, result = bend
    Z, g, dZ, dg, rep = total_design_gradient(model, result, problem, design, 1.0)
    assert not rep.flagged_nodes
    rng = np.random.default_rng(3)
    mag = np.abs(dZ)
    pick = rng.choice(np.nonzero(mag > 0.05 * mag.max())[0], size=5, replace=False)
    step = 1e-5
    for idx in pick:
        dv = DesignVector(values=design.values.copy(), lower=design.lower,
                          upper=design.upper, n_nodal=design.n_nodal)
        dv.values[idx] += step
        Zp = problem.objective_value(model.solve_steady(dv).crit_values)
        dv.values[idx] -= 2 * step
        Zm = problem.objective_value(model.solve_steady(dv).crit_values)
        fd = (Zp - Zm) / (2 * step)
        assert abs(fd - dZ[idx]) / max(abs(fd), abs(dZ[idx])) < 1e-3


def test_stacked_contexts_count_no_sparsity(bend, monkeypatch):
    # the geometric partials assemble residuals alone on their stacked
    # re-cut contexts, so none of them counts a sparsity (the forward's
    # matrices counted the global context's)
    import cutflow.sensitivities as sens
    model, problem, design, result = bend
    stacked, counted = [], []
    build, count = sens.element_context, forms.Sparsity.count.__func__

    def recording(*args, **kwargs):
        out = build(*args, **kwargs)
        stacked.append(out[0])
        return out

    monkeypatch.setattr(sens, "element_context", recording)
    monkeypatch.setattr(forms.Sparsity, "count", classmethod(
        lambda cls, *args: counted.append(args[0].shape[0]) or count(cls, *args)))
    total_design_gradient(model, result, problem, design, 1.0)
    assert stacked and counted == []


def test_constraint_gradient_matches_global_fd(bend):
    # the volume constraint gradient goes through geometry only
    model, problem, design, result = bend
    Z, g, dZ, dg, _ = total_design_gradient(model, result, problem, design, 1.0)
    con = problem.constraints[0]
    rng = np.random.default_rng(4)
    mag = np.abs(dg[0])
    pick = rng.choice(np.nonzero(mag > 0.05 * mag.max())[0], size=4, replace=False)
    step = 1e-5
    for idx in pick:
        dv = DesignVector(values=design.values.copy(), lower=design.lower,
                          upper=design.upper, n_nodal=design.n_nodal)
        dv.values[idx] += step
        gp = con.evaluate(model.solve_steady(dv).crit_values, 1.0)[0]
        dv.values[idx] -= 2 * step
        gm = con.evaluate(model.solve_steady(dv).crit_values, 1.0)[0]
        fd = (gp - gm) / (2 * step)
        assert abs(fd - dg[0][idx]) / max(abs(fd), abs(dg[0][idx])) < 1e-4


def test_surface_area_gradient_geometric_only(bend):
    # geometry-only criterion: dS/ds matches global FD at rel 1e-4
    model, problem, design, result = bend
    prob_s = ProblemSpec(criteria=model.criteria,
                         objective=[ObjectiveTerm(1.0, [(1.0, "S")])],
                         constraints=[])
    prob_s.capture_normalization(result.crit_values)
    Z, g, dZ, dg, _ = total_design_gradient(model, result, prob_s, design, 1.0)
    rng = np.random.default_rng(5)
    mag = np.abs(dZ)
    pick = rng.choice(np.nonzero(mag > 0.1 * mag.max())[0], size=4, replace=False)
    step = 1e-5
    for idx in pick:
        dv = DesignVector(values=design.values.copy(), lower=design.lower,
                          upper=design.upper, n_nodal=design.n_nodal)
        dv.values[idx] += step
        Sp = model.solve_steady(dv).crit_values["S"]
        dv.values[idx] -= 2 * step
        Sm = model.solve_steady(dv).crit_values["S"]
        fd = (Sp - Sm) / (2 * step) / abs(result.crit_values["S"])
        assert abs(fd - dZ[idx]) / max(abs(fd), abs(dZ[idx]), 1e-12) < 1e-4


def test_residual_phi_sparsity_audit(bend):
    # each column (perturbed node) touches only dofs of elements containing it
    model, problem, design, result = bend
    A = residual_phi_matrix(model, result, block="flow").tocsc()
    mesh = model.mesh
    cm = result.cm
    n = result.ctx.n
    cut_nodes = set()
    for e in np.nonzero(cm.classification == CUT)[0]:
        cut_nodes.update(mesh.elements[int(e)].tolist())
    for node in range(mesh.n_nodes):
        col = A[:, node]
        if node not in cut_nodes:
            assert col.nnz == 0
            continue
        if col.nnz == 0:
            continue
        allowed = set()
        for e in np.flatnonzero((mesh.elements == node).any(1)):
            fluid = (cm.piece_elem == e) & (cm.piece_phase == FLUID)
            allowed.update(cm.piece_dofs[fluid].ravel().tolist())
        for row in col.nonzero()[0]:
            assert (row % n) in allowed


def test_adjoint_is_exact_transpose_of_forward_linearization(bend):
    # the adjoint solve uses J^T of the same frozen-coefficient Jacobian
    from cutflow.flow import assemble_flow
    model, problem, design, result = bend
    ctx = result.ctx
    _, J = assemble_flow(ctx, model.physics.flow, result.flow_state,
                         coeff_state=result.flow_state, psibar=result.psibar_qp)
    lam_flow = solve_adjoints(model, result, [{"ti": 1.0}])[0][-1][:, 0]
    dflow = result.crit_partials["ti"].d_flow
    resid = J.T @ lam_flow + dflow
    assert np.linalg.norm(resid) / np.linalg.norm(dflow) < 1e-9


@pytest.mark.parametrize("case", ["singular-flow", "singular-indicator", "nan-flow"])
def test_failed_adjoint_solve_raises_solver_error(bend, monkeypatch, case):
    # a singular or non-finite adjoint is a SolverError (exit 3), not a
    # bare RuntimeError or a gradient of NaNs
    model, problem, design, result = bend
    if case == "singular-indicator":
        # the indicator adjoint solves on the forward's own factors, so the
        # case needs a result of its own: a non-finite indicator there makes
        # the reused solve non-finite
        result = model.solve_steady(design)
        assert result.indicator_factor is not None
        result.psi = np.full_like(result.psi, np.nan)
    else:
        assemble = flow_mod.assemble_flow
        bad = 0.0 if case == "singular-flow" else np.nan

        def broken(*args, **kwargs):
            R, J = assemble(*args, **kwargs)
            return R, J * bad

        monkeypatch.setattr(flow_mod, "assemble_flow", broken)
        # without the Jacobian Newton handed over, the adjoint assembles one
        result = replace(result, flow_jacobian=None)
    with pytest.raises(SolverError):
        solve_adjoints(model, result, [{"ti": 1.0}])


# --- adjoints on the forward's factors -------------------------------------------

def _without_factors(result):
    return replace(result, flow_factor=None, indicator_factor=None,
                   species_factor=None)


def _assert_close(a, b, rtol=1e-10):
    assert np.linalg.norm(a - b) <= rtol * np.linalg.norm(b)


def _check_reuse_matches_fresh(model, problem, design, result):
    """Adjoints and design gradients on the forward's factors against the
    same on fresh factorizations (a copy of result without factors)."""
    fresh = _without_factors(result)
    chains = [problem.objective_dcrit(result.crit_values), {"Vf": 1.0, "ti": 0.5}]
    reused = solve_adjoints(model, replace(result), chains)
    again = solve_adjoints(model, fresh, chains)
    for k in range(len(chains)):
        # the last-step flow, the indicator and the species columns
        for a, b in zip((reused[0][-1], reused[2], reused[1]),
                        (again[0][-1], again[2], again[1])):
            if b is not None:
                _assert_close(a[:, k], b[:, k])
    reuse = total_design_gradient(model, result, problem, design, 1.0)
    fresh = total_design_gradient(model, fresh, problem, design, 1.0)
    _assert_close(reuse[2], fresh[2])
    _assert_close(reuse[3], fresh[3])
    return reused


@pytest.mark.parametrize("scope", ["indicator", "whole"])
def test_adjoints_on_forward_factors_match_fresh_ones(scope):
    from cutflow.transport import IndicatorParams
    model, problem, design = bend_model(divisions=(20, 20), pressure_scope=scope)
    # a soft projection, so that the indicator adjoint is not zero
    model.physics.indicator = IndicatorParams(k_sharpness=5.0)
    result = model.solve_steady(design)
    problem.capture_normalization(result.crit_values)
    assert result.flow_factor is not None
    assert (result.indicator_factor is not None) == (scope == "indicator")
    _, _, lam_psi = _check_reuse_matches_fresh(model, problem, design, result)
    if scope == "indicator":
        assert all(np.linalg.norm(lam_psi[:, k]) > 0 for k in range(lam_psi.shape[1]))


def test_species_adjoint_on_forward_factors_matches_fresh_one(tmp_path):
    from cutflow.config import parse_config
    from cutflow.driver import build_model
    from test_fixtures import MIXER_CFG
    path = tmp_path / "mix.cfg"
    path.write_text(MIXER_CFG)
    cfg = parse_config(str(path))
    model, problem = build_model(cfg)
    design = cfg.initial_design(model.mesh)
    result = model.solve_steady(design)
    problem.capture_normalization(result.crit_values)
    assert result.species_factor is not None and result.flow_factor is not None
    fresh = _without_factors(result)
    chains = [problem.objective_dcrit(result.crit_values)]
    reused_flow, reused_c, _ = solve_adjoints(model, replace(result), chains)
    again_flow, again_c, _ = solve_adjoints(model, fresh, chains)
    _assert_close(reused_c[:, 0], again_c[:, 0])
    _assert_close(reused_flow[-1][:, 0], again_flow[-1][:, 0])
    area = cfg.domain_area()
    reuse = total_design_gradient(model, result, problem, design, area)
    fresh = total_design_gradient(model, fresh, problem, design, area)
    _assert_close(reuse[2], fresh[2])
    _assert_close(reuse[3], fresh[3])


def test_bdf2_adjoint_on_last_step_factors_matches_fresh_one():
    from cutflow.solve import SolveConfig
    model, problem, design = bend_model(divisions=(12, 12))
    model.solve_config = SolveConfig(scheme="bdf2", dt=0.05, n_steps=4,
                                     newton_tol=1e-12)
    result = model.solve_transient(design)
    problem.capture_normalization(result.crit_values)
    assert result.flow_factor is not None
    _check_reuse_matches_fresh(model, problem, design, result)


def test_adjoint_factors_afresh_when_newton_took_no_step(bend):
    from cutflow.solve import SolveConfig
    model, problem, design, result = bend
    # a warm start at the solution with tol 1 converges before any step
    model.solve_config = SolveConfig(newton_tol=1.0)
    try:
        warm = model.solve_steady(design, warm=result.flow_state)
    finally:
        model.solve_config = SolveConfig()
    assert warm.flow_factor is None and len(warm.newton_trace) == 1
    assert warm.indicator_factor is not None
    _check_reuse_matches_fresh(model, problem, design, warm)


def test_steady_gradient_factors_nothing_and_keeps_no_factor(monkeypatch):
    # a steady indicator-scope gradient whose Newton stepped solves every
    # adjoint on the forward's factors, and lets them all go
    from fixtures_common import LiveFactors
    model, problem, design = bend_model(divisions=(20, 20))
    live = LiveFactors(monkeypatch)
    result = model.solve_steady(design)
    problem.capture_normalization(result.crit_values)
    assert len(result.newton_trace) > 1
    assert live.live == 2  # the flow and indicator factors
    calls = live.calls
    total_design_gradient(model, result, problem, design, 1.0)
    assert live.calls == calls
    assert live.live == 0
    assert (result.flow_factor, result.indicator_factor, result.species_factor) == \
        (None, None, None)


def test_gradient_on_the_kept_jacobian_matches_an_assembled_one(monkeypatch):
    # the Jacobian Newton hands over is J(x*) byte for byte, so the gradient
    # on it equals the gradient that assembles J(x*) again, bit for bit,
    # on the same kept factor; only the latter assembles a flow Jacobian
    model, problem, design = bend_model(divisions=(20, 20))
    result = model.solve_steady(design)
    problem.capture_normalization(result.crit_values)
    assert result.flow_jacobian is not None and result.flow_factor is not None
    U = result.flow_state
    _, J = flow_mod.assemble_flow(result.ctx, model.physics.flow, U, coeff_state=U,
                                  psibar=result.psibar_qp)
    for attr in ("data", "indices", "indptr"):
        assert (getattr(result.flow_jacobian, attr).tobytes()
                == getattr(J, attr).tobytes())
    assembled = []
    assemble = flow_mod.assemble_flow

    def counting(*args, **kwargs):
        R, J = assemble(*args, **kwargs)
        assembled.append(J is not None)
        return R, J

    monkeypatch.setattr(flow_mod, "assemble_flow", counting)
    kept = replace(result)
    dropped = replace(result, flow_jacobian=None)
    dZ = total_design_gradient(model, kept, problem, design, 1.0)[2]
    assert sum(assembled) == 0 and kept.flow_jacobian is None
    dZ_assembled = total_design_gradient(model, dropped, problem, design, 1.0)[2]
    assert sum(assembled) == 1
    assert dZ.tobytes() == dZ_assembled.tobytes()


def test_species_only_criterion_drives_flow_adjoint_through_cross_term():
    # reverse block order: for a criterion on c alone, the flow adjoint RHS
    # is exactly the species cross-coupling applied to the species adjoint
    import scipy.sparse.linalg as spla
    from cutflow.flow import FlowParams, assemble_flow
    from cutflow.transport import TransportParams, species_flow_jacobian
    from cutflow.conditions import BoundaryRegion, wall_regions
    from cutflow.criteria import CriterionSpec
    from cutflow.grid import build_mesh
    from cutflow.cut import build_cut_model
    from cutflow.forms import build_context
    from cutflow.pipeline import ForwardModel, PhysicsConfig
    from cutflow.design import DesignVector, LevelSetMap, build_filter
    from cutflow.solve import SolveConfig
    from cutflow.transport import IndicatorParams

    mesh = build_mesh(((0, 0), (2, 1)), (16, 8))
    lsmap = LevelSetMap(mesh=mesh, filt=build_filter(mesh, 2.4 * mesh.h),
                        ports=[])
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0, 1),
                       profile="parabola", amplitude=1.0, port=True,
                       species_value=1.0),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
    ])
    physics = PhysicsConfig(flow=FlowParams(rho=1.0, mu=0.5),
                            transport=TransportParams(diffusivity=0.05),
                            indicator=IndicatorParams())
    criteria = [CriterionSpec(name="K", kind="ks_target", surface="outlet",
                              beta_ks=50.0, c_ref=0.5)]
    model = ForwardModel(mesh, lsmap, regions, physics, criteria, SolveConfig())
    design = DesignVector(values=np.full(mesh.n_nodes, -0.02),
                          lower=np.full(mesh.n_nodes, -0.02),
                          upper=np.full(mesh.n_nodes, 0.02),
                          n_nodal=mesh.n_nodes)
    result = model.solve_steady(design)
    lams, lam_c, _ = solve_adjoints(model, result, [{"K": 1.0}])
    assert np.linalg.norm(lam_c[:, 0]) > 0
    # dF/du is identically zero for a species criterion: the flow adjoint
    # solves J_f^T lam_f = -C_cu^T lam_c exactly
    _, J_f = assemble_flow(result.ctx, physics.flow, result.flow_state,
                           coeff_state=result.flow_state,
                           psibar=result.psibar_qp)
    C = species_flow_jacobian(result.ctx, physics.transport,
                              result.species_state, result.flow_state)
    expect = spla.splu(J_f.T.tocsc()).solve(-(C.T @ lam_c[:, 0]))
    np.testing.assert_allclose(lams[-1][:, 0], expect, atol=1e-12)


# --- transient adjoint (generic single-block sweep) ---------------------------

def test_transient_adjoint_heat_toy_matches_bruteforce():
    # 1D heat equation, BDF2 march, terminal quadratic cost; the adjoint
    # parameter gradient must match finite differences of the marched cost
    rng = np.random.default_rng(0)
    n = 12
    main = 2.0 * np.ones(n)
    K = sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1]).tocsc() * 9.0
    target = rng.normal(size=n)
    u0 = rng.normal(size=n)
    dt = 0.05
    n_steps = 8
    theta = 0.7  # source amplitude parameter
    source = rng.normal(size=n)

    def march(theta_val):
        states = [u0.copy()]
        for step in range(1, n_steps + 1):
            slot = bdf_slot(step, dt, states)
            A = slot.alpha * sp.eye(n) + K
            b = -(slot.hist) + theta_val * source
            states.append(np.asarray(spla.spsolve(A.tocsc(), b)))
        return states

    states = march(theta)
    cost = 0.5 * np.linalg.norm(states[-1] - target) ** 2
    slots = [bdf_slot(step, dt, states[:step]) for step in range(1, n_steps + 1)]

    def solve_at(k, b):
        A = (slots[k].alpha * sp.eye(n) + K).tocsc()
        lu = spla.splu(A.T.tocsc())
        return lu.solve(b)

    def time_matrix_at(k):
        return sp.eye(n).tocsc()

    def rhs_at(k):
        if k == n_steps - 1:
            return -(states[-1] - target)
        return np.zeros(n)

    lams = adjoint_transient(slots, solve_at, time_matrix_at, rhs_at)
    # R^step = alpha u + hist + K u - theta * source: dR/dtheta = -source
    grad = sum(lams[k] @ (-source) for k in range(n_steps))
    eps = 1e-6
    cp = 0.5 * np.linalg.norm(march(theta + eps)[-1] - target) ** 2
    cm_ = 0.5 * np.linalg.norm(march(theta - eps)[-1] - target) ** 2
    fd = (cp - cm_) / (2 * eps)
    assert abs(grad - fd) < 1e-9 * max(1.0, abs(fd))


def test_transient_adjoint_terminal_only_source():
    # with a terminal-only cost the final-step adjoint is the only nonzero
    # one when there is no cross-step coupling (single BE step history)
    n = 4
    K = sp.eye(n).tocsc()
    states = [np.zeros(n), np.ones(n)]
    dt = 1.0

    slots = [bdf_slot(1, dt, states[:1])]

    def solve_at(k, b):
        A = (slots[k].alpha * sp.eye(n) + K).tocsc()
        lu = spla.splu(A.T.tocsc())
        return lu.solve(b)

    lams = adjoint_transient(slots, solve_at, lambda k: sp.eye(n).tocsc(),
                             lambda k: -np.ones(n))
    assert np.linalg.norm(lams[0]) > 0


def test_transient_gradient_reduces_to_steady_for_huge_dt():
    from cutflow.solve import SolveConfig
    model, problem, design = bend_model(divisions=(12, 12))
    model.solve_config = SolveConfig(newton_tol=1e-12)
    res_s = model.solve_steady(design)
    problem.capture_normalization(res_s.crit_values)
    Zs, gs, dZs, dgs, _ = total_design_gradient(model, res_s, problem, design, 1.0)
    # transient run with an enormous step reaches the steady state immediately
    model.solve_config = SolveConfig(scheme="bdf2", dt=1e9, n_steps=3,
                                     newton_tol=1e-12)
    res_t = model.solve_transient(design)
    Zt, gt, dZt, dgt, _ = total_design_gradient(model, res_t, problem, design, 1.0)
    assert abs(Zt - Zs) / abs(Zs) < 1e-8
    denom = np.linalg.norm(dZs)
    assert np.linalg.norm(dZt - dZs) / denom < 1e-6


def test_transient_gradient_matches_global_fd():
    # the BDF2 re-cut payload against central differences of the march: an
    # outlet total pressure averaged over the steps, an inlet one at the end
    from dataclasses import replace
    from cutflow.solve import SolveConfig
    model, problem, design = bend_model(divisions=(12, 12))
    sampling = {"to": "average", "ti": "final"}
    model.criteria = [replace(c, time_sampling=sampling.get(c.name, c.time_sampling))
                      for c in model.criteria]
    problem.criteria = model.criteria
    model.solve_config = SolveConfig(scheme="bdf2", dt=0.05, n_steps=4,
                                     newton_tol=1e-12)
    result = model.solve_transient(design)
    problem.capture_normalization(result.crit_values)
    Z, g, dZ, dg, rep = total_design_gradient(model, result, problem, design, 1.0)
    assert not rep.flagged_nodes
    rng = np.random.default_rng(3)
    mag = np.abs(dZ)
    pick = rng.choice(np.nonzero(mag > 0.05 * mag.max())[0], size=5, replace=False)
    step = 1e-5
    for idx in pick:
        dv = DesignVector(values=design.values.copy(), lower=design.lower,
                          upper=design.upper, n_nodal=design.n_nodal)
        dv.values[idx] += step
        Zp = problem.objective_value(model.solve_transient(dv).crit_values)
        dv.values[idx] -= 2 * step
        Zm = problem.objective_value(model.solve_transient(dv).crit_values)
        fd = (Zp - Zm) / (2 * step)
        assert abs(fd - dZ[idx]) / max(abs(fd), abs(dZ[idx])) < 1e-3


# --- fallback of the re-cut finite differences ---------------------------------

def _volume_gradient_at(model, design, node, value):
    """Vf geometry gradient with the nodal level set at `node` set to value.

    Returns (gradient row, flagged nodes, Vf(phi) callable over nodal phi).
    The flow state is zero: a geometry-only functional needs no solve.
    """
    from cutflow.cut import build_cut_model
    from cutflow.forms import build_context
    from cutflow.pipeline import ForwardResult
    phi = model.lsmap.build(design)
    phi[node] = value
    cm = build_cut_model(model.mesh, phi)
    ctx = build_context(cm, model.regions)
    result = ForwardResult(cm=cm, ctx=ctx, flow_state=np.zeros(3 * ctx.n),
                           crit_partials={})
    grad, flagged = geometry_gradient(model, result, [{"Vf": 1.0}],
                                      [np.zeros((3 * ctx.n, 1))], None, None)
    return grad[0], flagged, phi


def _near_interface_node(model, design):
    """An interior node whose mesh edge to a neighbour crosses the interface.

    Returns the node and the sign of its level set value.
    """
    mesh = model.mesh
    phi = model.lsmap.build(design)
    mx, my = mesh.divisions
    nx = mx + 1
    for j in range(1, my):
        for i in range(1, mx):
            node = j * nx + i
            nbrs = (node - 1, node + 1, node - nx, node + nx)
            if any(phi[k] * phi[node] < 0 for k in nbrs):
                return node, (1.0 if phi[node] > 0 else -1.0)
    raise AssertionError("no interior node next to the interface")


def _fluid_volume(mesh, phi):
    from cutflow.cut import build_cut_model
    return build_cut_model(mesh, phi).fluid_volume()


def test_recut_step_halving_matches_global_fd():
    # |phi| below the first central step: the re-cut flips the corner's sign
    # until the step is halved twice; the node is not flagged
    from cutflow.sensitivities import FD_STEP_FRACTION
    model, _, design = bend_model(divisions=(20, 20))
    node, sgn = _near_interface_node(model, design)
    value = sgn * 0.3 * FD_STEP_FRACTION * model.mesh.h
    grad, flagged, phi = _volume_gradient_at(model, design, node, value)
    assert node not in flagged
    step = 0.1 * abs(value)
    pp, pm = phi.copy(), phi.copy()
    pp[node] += step
    pm[node] -= step
    fd = (_fluid_volume(model.mesh, pp) - _fluid_volume(model.mesh, pm)) / (2 * step)
    assert fd != 0.0
    assert abs(grad[node] - fd) / abs(fd) < 1e-4


def test_recut_one_sided_fallback_is_flagged():
    # |phi| ~ 1e-12 h: every halved central step flips the sign, so the
    # corner takes a one-sided step away from the interface and is flagged
    from cutflow.sensitivities import FD_STEP_FRACTION
    model, _, design = bend_model(divisions=(20, 20))
    node, sgn = _near_interface_node(model, design)
    grad, flagged, phi = _volume_gradient_at(model, design, node,
                                             sgn * 1e-12 * model.mesh.h)
    assert node in flagged
    assert flagged.count(node) == 1  # once, however many cut elements share it
    step = FD_STEP_FRACTION * model.mesh.h
    pp = phi.copy()
    pp[node] += sgn * step
    fd = sgn * (_fluid_volume(model.mesh, pp) - _fluid_volume(model.mesh, phi)) / step
    assert fd != 0.0
    assert abs(grad[node] - fd) / abs(fd) < 1e-3


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _inclusion_bend():
    # inclusions on the left and bottom walls give some cut elements
    # boundary blocks
    model, _, design = bend_model(
        divisions=(20, 20),
        inclusions=((0.0, 0.5, 0.15), (0.5, 0.0, 0.15), (0.6, 0.6, 0.1)))
    cm, ctx = model.geometry(design)
    return model, cm, ctx


# the per-point arrays of a point table, where it has them
_POINT_ARRAYS = ("x", "w", "N", "gx", "gy", "normal")


def _assert_same_points(a, ids_a, b, ids_b):
    """Tables a and b hold bitwise the same points, with the same global
    dofs (ids_a, ids_b map each one's dofs to global ones)."""
    assert a.name == b.name
    for k in _POINT_ARRAYS:
        assert (getattr(a, k) is None) == (getattr(b, k) is None)
        if getattr(a, k) is not None:
            assert _bitwise(getattr(a, k), getattr(b, k)), k
    assert _bitwise(ids_a[a.dofs], ids_b[b.dofs])


def _tables(ctx):
    """(name, table) of the volume table and of each slice of the surface
    table."""
    yield "volume", ctx.volume
    for name in ["interface"] + [r.name for r in ctx.regions]:
        yield name, ctx.surface_part(name)


def test_element_context_matches_global_rows():
    # at the stored level set, each cut element's re-cut context carries
    # bitwise the global context's rows of that element
    model, cm, ctx = _inclusion_bend()
    with_boundary = 0
    for e in np.nonzero(cm.classification == CUT)[0]:
        loc, invalid = element_context(cm, [e], cm.phi[model.mesh.elements[e]],
                                       model.regions)
        assert not invalid.any()
        local = dict(_tables(loc))
        for name, table in _tables(ctx):
            rows = table.elem == e
            if name in local:
                _assert_same_points(local[name], loc.scalar_ids, table.take(rows),
                                    ctx.scalar_ids)
            else:
                assert not rows.any()
        with_boundary += sum(1 for name, t in local.items()
                             if name not in ("volume", "interface") and t.nq)
    assert with_boundary >= 1


def test_stacked_context_rows_match_one_row_calls():
    # one batch of every cut element at the stored level set and at +-delta
    # on each corner: each row owns its dofs and carries bitwise the rows
    # of a one-row call
    from cutflow.sensitivities import FD_STEP_FRACTION
    model, cm, _ = _inclusion_bend()
    delta = FD_STEP_FRACTION * model.mesh.h
    cut = np.nonzero(cm.classification == CUT)[0]
    elems = np.repeat(cut, 9)
    phi4s = cm.phi[model.mesh.elements[elems]]
    for k in range(8):  # rows 9 i keep the stored values
        phi4s[k + 1::9, k // 2] += delta if k % 2 == 0 else -delta
    ctx, invalid = element_context(cm, elems, phi4s, model.regions)
    assert not invalid.any()
    assert np.all(np.diff(ctx.owner) >= 0)
    with_boundary = 0
    for i in range(elems.shape[0]):
        one, bad = element_context(cm, elems[i:i + 1], phi4s[i], model.regions)
        assert not bad.any()
        assert _bitwise(ctx.scalar_ids[ctx.owner == i], one.scalar_ids)
        for (name, table), (name1, table1) in zip(_tables(ctx), _tables(one)):
            assert name == name1
            assert (one.owner[table1.dofs[:, 0]] == 0).all()
            # gx and gy pin each volume point's place in its element
            rows = ctx.owner[table.dofs[:, 0]] == i
            _assert_same_points(table.take(rows), ctx.scalar_ids, table1, one.scalar_ids)
            with_boundary += name not in ("volume", "interface") and rows.any()
    assert with_boundary >= 1


def _capture_payload(monkeypatch, model, result, chains, *adjoints):
    """The batched payload that geometry_gradient hands to _recut_partials."""
    import cutflow.sensitivities as sens
    original, seen = sens._recut_partials, []

    def spy(*args, **kwargs):
        seen.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(sens, "_recut_partials", spy)
    geometry_gradient(model, result, chains, *adjoints)
    return seen[0]


def test_batched_payload_rows_do_not_leak(bend, monkeypatch):
    # a mixed batch (stored values, +-delta, a sign flip) gives each valid
    # row bitwise the values of a one-row call
    from cutflow.sensitivities import FD_STEP_FRACTION
    model, problem, design, result = bend
    chains = [problem.objective_dcrit(result.crit_values), {"Vf": 1.0, "S": 0.5}]
    payload = _capture_payload(monkeypatch, model, result, chains,
                               *solve_adjoints(model, result, chains))
    cm = result.cm
    cut = np.nonzero(cm.classification == CUT)[0][:12]
    elems = np.repeat(cut, 3)
    phi4s = cm.phi[model.mesh.elements[elems]]
    delta = FD_STEP_FRACTION * model.mesh.h
    phi4s[1::3, 0] += delta
    phi4s[2::3, 2] -= delta
    phi4s[4, 1] = -2 * phi4s[4, 1]  # flips a sign: invalid
    values, invalid = payload(elems, phi4s)
    assert invalid.tolist() == [i == 4 for i in range(elems.shape[0])]
    assert np.all(values[4] == 0.0)
    assert np.any(values != 0.0)
    for i in np.nonzero(~invalid)[0]:
        one, bad = payload(elems[i:i + 1], phi4s[i:i + 1])
        assert not bad.any()
        assert _bitwise(values[i], one[0])


def test_recut_retries_only_failed_rows_and_flags_in_order():
    # two nodes within a rounding error of the interface: only their
    # corners' pairs are rerun with halved steps, and the one-sided
    # fallback flags them in (element, corner) order, once each
    from cutflow.cut import build_cut_model, cell_patterns
    from cutflow.pipeline import ForwardResult
    model, _, design = bend_model(divisions=(20, 20))
    mesh = model.mesh
    phi = model.lsmap.build(design)
    cm0 = build_cut_model(mesh, phi)
    cut = np.nonzero(cm0.classification == CUT)[0]
    # two interior nodes of cut elements, picked from the last element back
    # so that the flagging order is not the picking order
    picks = []
    for e in cut[::-1]:
        for node in mesh.elements[e]:
            i, j = node % (mesh.divisions[0] + 1), node // (mesh.divisions[0] + 1)
            if 0 < i < mesh.divisions[0] and 0 < j < mesh.divisions[1] \
                    and node not in picks and len(picks) < 2:
                picks.append(int(node))
    for node in picks:
        phi[node] = np.sign(phi[node]) * 1e-12 * mesh.h
    cm = build_cut_model(mesh, phi)
    result = ForwardResult(cm=cm, ctx=None, crit_partials={})
    batches = []

    def payload(elems, phi4s):
        batches.append(np.array(elems))
        return phi4s.sum(axis=1, keepdims=True), (
            cell_patterns(phi4s) != cell_patterns(cm.phi[mesh.elements[elems]]))

    elems, nodes, partials, flagged = _recut_partials(model, result, payload)
    n_cut = np.count_nonzero(cm.classification == CUT)
    assert batches[0].shape[0] == 8 * n_cut
    touching = [e for e in np.nonzero(cm.classification == CUT)[0]
                if set(mesh.elements[e]) & set(picks)]
    corners = sum(len(set(mesh.elements[e]) & set(picks)) for e in touching)
    for retry in batches[1:]:
        assert retry.shape[0] == 2 * corners
        assert set(retry.tolist()) == set(touching)
    order = [int(node) for e in np.nonzero(cm.classification == CUT)[0]
             for node in mesh.elements[e] if node in picks]
    assert flagged == list(dict.fromkeys(order))
    # the payload is linear in phi4s: every partial is one
    np.testing.assert_allclose(partials, 1.0, rtol=1e-6)
    assert nodes.shape[0] == 4 * n_cut
