import numpy as np
import pytest

from cutflow.criteria import (ConstraintSpec, CriterionSpec, ObjectiveTerm,
                              ProblemSpec, evaluate_criterion)
from cutflow.cut import build_cut_model
from cutflow.errors import ConfigurationError
from cutflow.flow import FlowParams, assemble_flow
from cutflow.forms import build_context
from cutflow.grid import build_mesh
from cutflow.solve import SolveConfig, steady_solve

from fixtures_common import (channel_regions, circle_channel, linear_flow_state,
                             perturb, scalar_dof_coords)


def _params():
    return FlowParams(rho=1.0, mu=0.1)


def _solid_volume(cm):
    """Background domain area minus the cut model's fluid volume."""
    (x0, y0), (x1, y1) = cm.mesh.extent
    return abs((x1 - x0) * (y1 - y0)) - cm.fluid_volume()


def _channel(nx=16, ny=8, W=2.0, H=1.0):
    mesh = build_mesh(((0, 0), (W, H)), (nx, ny))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = channel_regions(mesh, H)
    return mesh, cm, build_context(cm, regions)


# --- individual criteria -------------------------------------------------------

def test_drag_zero_state():
    mesh, cm, ctx, regions, params = circle_channel(0.05)
    spec = CriterionSpec(name="cd", kind="drag", u_char=0.2, l_char=0.16)
    v = evaluate_criterion(spec, ctx, params, flow_state=np.zeros(3 * ctx.n))
    assert v.value == 0.0


def test_drag_uniform_pressure_closed_surface():
    # u = 0, p = P on a closed immersed circle: net pressure force vanishes
    mesh, cm, ctx, regions, params = circle_channel(0.05)
    P = 4.2
    U = linear_flow_state(cm, (0, 0, 0), (0, 0, 0), (P, 0, 0))
    spec = CriterionSpec(name="cd", kind="drag", u_char=0.2, l_char=0.16)
    v = evaluate_criterion(spec, ctx, params, flow_state=U)
    # closed chord polygon: sum of n * length is exactly zero
    assert abs(v.value) < 1e-10


def test_mass_flow_uniform_velocity():
    mesh, cm, ctx = _channel()
    U = linear_flow_state(cm, (0.8, 0, 0), (0, 0, 0), (0, 0, 0))
    params = _params()
    mi = evaluate_criterion(CriterionSpec(name="m", kind="mass_flow",
                                          surface="inlet"), ctx, params,
                            flow_state=U)
    mo = evaluate_criterion(CriterionSpec(name="m", kind="mass_flow",
                                          surface="outlet"), ctx, params,
                            flow_state=U)
    assert mi.value == pytest.approx(-0.8, abs=1e-13)  # outward normal -x
    assert mo.value == pytest.approx(0.8, abs=1e-13)


def test_total_pressure_constant_fields():
    mesh, cm, ctx = _channel()
    P = 2.5
    U = linear_flow_state(cm, (0, 0, 0), (0, 0, 0), (P, 0, 0))
    params = _params()
    t = evaluate_criterion(CriterionSpec(name="t", kind="total_pressure",
                                         surface="inlet"), ctx, params,
                           flow_state=U)
    assert t.value == pytest.approx(P * 1.0, abs=1e-13)  # face length 1
    z = evaluate_criterion(CriterionSpec(name="t", kind="total_pressure",
                                         surface="inlet"), ctx, params,
                           flow_state=np.zeros(3 * ctx.n))
    assert z.value == 0.0


def test_volumes_and_surface():
    # all fluid
    mesh = build_mesh(((0, 0), (1, 1)), (6, 6))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    ctx = build_context(cm, ())
    params = _params()
    vf = evaluate_criterion(CriterionSpec(name="v", kind="volume_fluid"),
                            ctx, params)
    assert vf.value == pytest.approx(1.0, abs=1e-12)
    assert _solid_volume(cm) == pytest.approx(0.0, abs=1e-12)
    s = evaluate_criterion(CriterionSpec(name="s", kind="surface_area"),
                           ctx, params)
    assert s.value == 0.0
    # half-plane cut through element midlines: volumes exactly (1/2, 1/2)
    mesh5 = build_mesh(((0, 0), (1, 1)), (5, 5))
    phi = perturb(mesh5.nodes[:, 1] - 0.5, mesh5.h)
    cm2 = build_cut_model(mesh5, phi)
    ctx2 = build_context(cm2, ())
    vf2 = evaluate_criterion(CriterionSpec(name="v", kind="volume_fluid"),
                             ctx2, params)
    assert vf2.value == pytest.approx(0.5, abs=1e-13)
    s2 = evaluate_criterion(CriterionSpec(name="s", kind="surface_area"),
                            ctx2, params)
    assert s2.value == pytest.approx(1.0, abs=1e-13)


def test_immersed_disk_area_and_perimeter_convergence():
    # solid disk r: V_s -> pi r^2 and S -> 2 pi r at O(h^2)
    r = 0.22
    errs_v, errs_s = [], []
    for n in (16, 32, 64):
        mesh = build_mesh(((0, 0), (1, 1)), (n, n))
        phi = perturb(r - np.hypot(mesh.nodes[:, 0] - 0.5,
                                   mesh.nodes[:, 1] - 0.5), mesh.h)
        cm = build_cut_model(mesh, phi)
        errs_v.append(abs(_solid_volume(cm) - np.pi * r * r))
        errs_s.append(abs(cm.surface_length() - 2 * np.pi * r))
    # roughly second order for area, at least first order for perimeter
    assert errs_v[0] / errs_v[2] > 8
    assert errs_s[0] / errs_s[2] > 3.5


def test_volume_partition_invariant():
    mesh = build_mesh(((0, 0), (1, 1)), (10, 10))
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = rng.uniform(0.3, 0.7, size=2)
        r = rng.uniform(0.1, 0.3)
        phi = perturb(r - np.hypot(mesh.nodes[:, 0] - c[0],
                                   mesh.nodes[:, 1] - c[1]), mesh.h)
        cm = build_cut_model(mesh, phi)
        assert cm.fluid_volume() + _solid_volume(cm) == pytest.approx(1.0,
                                                                      abs=1e-12)


def test_ks_target_constant_field():
    # c == c_ref on a face of measure |G|: K = log(|G|) / beta
    mesh, cm, ctx = _channel()
    n = ctx.n
    c = np.full(n, 0.5)
    spec = CriterionSpec(name="k", kind="ks_target", surface="outlet",
                         beta_ks=400.0, c_ref=0.5)
    v = evaluate_criterion(spec, ctx, _params(), species_state=c)
    assert v.value == pytest.approx(np.log(1.0) / 400.0, abs=1e-12)


def test_ks_target_hot_spot_laplace_limit():
    # single dominating deviation d: K -> d^2 + log|G|/beta as beta grows
    mesh, cm, ctx = _channel()
    n = ctx.n
    xy = scalar_dof_coords(cm)
    d = 0.3
    c = np.where(np.abs(xy[:, 1] - 0.5) < 0.2, 0.5 + d, 0.5)
    spec4 = CriterionSpec(name="k", kind="ks_target", surface="outlet",
                          beta_ks=400.0, c_ref=0.5)
    spec40 = CriterionSpec(name="k", kind="ks_target", surface="outlet",
                           beta_ks=4000.0, c_ref=0.5)
    v4 = evaluate_criterion(spec4, ctx, _params(), species_state=c)
    v40 = evaluate_criterion(spec40, ctx, _params(), species_state=c)
    assert abs(v40.value - d * d) < abs(v4.value - d * d)
    assert v40.value == pytest.approx(d * d, abs=2e-3)


def test_ks_sandwich_bounds():
    mesh, cm, ctx = _channel()
    n = ctx.n
    rng = np.random.default_rng(2)
    c = 0.5 + 0.3 * rng.normal(size=n)
    spec = CriterionSpec(name="k", kind="ks_target", surface="outlet",
                         beta_ks=400.0, c_ref=0.5)
    v = evaluate_criterion(spec, ctx, _params(), species_state=c)
    blk = ctx.surface_part("outlet")
    cq = (blk.N * c[blk.dofs]).sum(1)
    dev2 = (cq - 0.5) ** 2
    m = dev2.max()
    assert v.value <= m + np.log(blk.w.sum()) / 400.0 + 1e-12
    assert v.value >= m + np.log(blk.w.min()) / 400.0 - 1e-12


def test_empty_surface_errors():
    mesh, cm, ctx = _channel()
    with pytest.raises((ConfigurationError, KeyError)):
        evaluate_criterion(CriterionSpec(name="m", kind="mass_flow",
                                         surface="nonexistent"), ctx, _params(),
                           flow_state=np.zeros(3 * ctx.n))


def test_criterion_state_partials_match_fd():
    mesh, cm, ctx, regions, params = circle_channel(0.05)
    n = ctx.n
    rng = np.random.default_rng(7)
    U = rng.normal(scale=0.3, size=3 * n)
    c = rng.normal(scale=0.3, size=n)
    specs = [
        CriterionSpec(name="cd", kind="drag", u_char=0.2, l_char=0.16),
        CriterionSpec(name="mi", kind="mass_flow", surface="inlet"),
        CriterionSpec(name="ti", kind="total_pressure", surface="inlet"),
        CriterionSpec(name="k", kind="ks_target", surface="outlet",
                      beta_ks=50.0, c_ref=0.5),
    ]
    eps = 1e-7
    for spec in specs:
        v = evaluate_criterion(spec, ctx, params, flow_state=U, species_state=c,
                               want_partials=True)
        if v.d_flow is not None:
            dU = rng.normal(size=3 * n)
            dU /= np.linalg.norm(dU)
            vp = evaluate_criterion(spec, ctx, params, flow_state=U + eps * dU,
                                    species_state=c).value
            vm = evaluate_criterion(spec, ctx, params, flow_state=U - eps * dU,
                                    species_state=c).value
            fd = (vp - vm) / (2 * eps)
            assert abs(fd - v.d_flow @ dU) < 1e-6 * max(1.0, abs(fd))
        if v.d_species is not None:
            dc = rng.normal(size=n)
            dc /= np.linalg.norm(dc)
            vp = evaluate_criterion(spec, ctx, params, flow_state=U,
                                    species_state=c + eps * dc).value
            vm = evaluate_criterion(spec, ctx, params, flow_state=U,
                                    species_state=c - eps * dc).value
            fd = (vp - vm) / (2 * eps)
            assert abs(fd - v.d_species @ dc) < 1e-6 * max(1.0, abs(fd))


def test_poiseuille_total_pressure_drop_analytic():
    # long fitted channel: Delta T matches 8 mu u_max L / H^2 within 2 percent
    # (the weak inlet/outlet corner layers contribute a fixed localized error,
    # so a long channel isolates the analytic drop)
    L = 8.0
    mesh = build_mesh(((0, 0), (L, 1)), (256, 32))
    cm = build_cut_model(mesh, -np.ones(mesh.n_nodes))
    regions = channel_regions(mesh, 1.0)
    ctx = build_context(cm, regions)
    n = ctx.n
    params = FlowParams(rho=1.0, mu=1.0, alpha_nitsche=1000.0)
    make = lambda slot: (lambda x: assemble_flow(
        ctx, params, x, coeff_state=x, slot=slot))
    U, _, _, _ = steady_solve(make, np.zeros(3 * n), SolveConfig())
    ti = evaluate_criterion(CriterionSpec(name="t", kind="total_pressure",
                                          surface="inlet"), ctx, params,
                            flow_state=U).value
    to = evaluate_criterion(CriterionSpec(name="t", kind="total_pressure",
                                          surface="outlet"), ctx, params,
                            flow_state=U).value
    exact = 8 * params.mu * 1.0 * L  # times face length 1
    assert abs((ti - to) - exact) / exact < 0.02
    # mass conservation budget
    mi = evaluate_criterion(CriterionSpec(name="m", kind="mass_flow",
                                          surface="inlet"), ctx, params,
                            flow_state=U).value
    mo = evaluate_criterion(CriterionSpec(name="m", kind="mass_flow",
                                          surface="outlet"), ctx, params,
                            flow_state=U).value
    assert abs(mi + mo) / abs(mi) < 1e-3


# --- objective / constraint composition -----------------------------------------

def test_problem_normalization_and_objective():
    criteria = [CriterionSpec(name="a", kind="volume_fluid"),
                CriterionSpec(name="b", kind="surface_area")]
    prob = ProblemSpec(
        criteria=criteria,
        objective=[ObjectiveTerm(weight=1.0, parts=[(1.0, "a"), (-1.0, "b")]),
                   ObjectiveTerm(weight=0.5, parts=[(1.0, "b")])],
        constraints=[],
    )
    vals = {"a": 3.0, "b": 1.0}
    prob.capture_normalization(vals)
    # first term normalized to sign(+1), second to 0.5 * 1
    assert prob.objective_value(vals) == pytest.approx(1.0 + 0.5)
    vals2 = {"a": 4.0, "b": 1.0}
    assert prob.objective_value(vals2) == pytest.approx(3.0 / 2.0 + 0.5)
    d = prob.objective_dcrit(vals2)
    assert d["a"] == pytest.approx(0.5)
    assert d["b"] == pytest.approx(-0.5 + 0.5)


def test_volume_constraint_forms():
    con = ConstraintSpec(name="v", kind="volume_frac", criterion="Vf", frac=0.25)
    g, d = con.evaluate({"Vf": 0.25 * 4.0}, domain_area=4.0)
    assert g == pytest.approx(0.0, abs=1e-14)  # exactly at the bound
    g2, _ = con.evaluate({"Vf": 0.2 * 4.0}, domain_area=4.0)
    assert g2 < 0


def test_mass_window_constraints():
    # outlet at exactly 25 percent of inflow with a 1.25 percent window:
    # both window constraints strictly negative
    lo = ConstraintSpec(name="lo", kind="mass_window_low", criterion="mo",
                        inlets=("mi",), frac=0.25, tol=0.0125)
    hi = ConstraintSpec(name="hi", kind="mass_window_high", criterion="mo",
                        inlets=("mi",), frac=0.25, tol=0.0125)
    vals = {"mo": 0.25 * 4.0, "mi": -4.0}  # inflow negative outward
    g_lo, _ = lo.evaluate(vals, domain_area=1.0)
    g_hi, _ = hi.evaluate(vals, domain_area=1.0)
    assert g_lo < 0 and g_hi < 0
    # at the lower edge of the window the low constraint is active
    vals_edge = {"mo": (0.25 - 0.0125) * 4.0, "mi": -4.0}
    g_edge, _ = lo.evaluate(vals_edge, domain_area=1.0)
    assert g_edge == pytest.approx(0.0, abs=1e-13)


def test_constraint_continuation_contracts():
    con = ConstraintSpec(name="lo", kind="mass_window_low", criterion="mo",
                         inlets=("mi",), frac=0.25, tol=0.0125,
                         tol_initial=0.05, continuation_steps=10)
    assert con.current_tol(0) == pytest.approx(0.05)
    assert con.current_tol(5) == pytest.approx(0.5 * (0.05 + 0.0125))
    assert con.current_tol(10) == pytest.approx(0.0125)
    assert con.current_tol(50) == pytest.approx(0.0125)


def test_pressure_cap_constraint():
    con = ConstraintSpec(name="dp", kind="pressure_cap",
                         parts=[(1.0, "ti"), (-1.0, "to")], reference=30.0)
    g, d = con.evaluate({"ti": 45.0, "to": 15.0}, domain_area=1.0)
    assert g == pytest.approx(0.0, abs=1e-14)
    assert d["ti"] == pytest.approx(1 / 30.0)


def test_zero_normalization_rejected():
    prob = ProblemSpec(criteria=[], objective=[ObjectiveTerm(1.0, [(1.0, "a")])],
                       constraints=[])
    with pytest.raises(ConfigurationError):
        prob.capture_normalization({"a": 0.0})
