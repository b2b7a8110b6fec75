"""Shared fixture builders for the test suite."""

import weakref

import numpy as np
import scipy.sparse.linalg as spla

from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.criteria import ConstraintSpec, CriterionSpec, ObjectiveTerm, ProblemSpec
from cutflow.cut import build_cut_model
from cutflow.design import DesignVector, LevelSetMap, build_filter
from cutflow.flow import FlowParams
from cutflow.forms import build_context
from cutflow.grid import build_mesh
from cutflow.pipeline import ForwardModel, PhysicsConfig
from cutflow.solve import SolveConfig
from cutflow.transport import IndicatorParams, TransportParams


def central_differences(f, x, step=1e-6):
    """Dense central-difference matrix of f at x, column by column."""
    cols = []
    for j in range(x.shape[0]):
        e = np.zeros(x.shape[0])
        e[j] = step
        cols.append((f(x + e) - f(x - e)) / (2 * step))
    return np.stack(cols, axis=1)


def assert_entrywise(J, fd):
    """J matches fd entry by entry to 1e-7 of max |J|."""
    scale = np.abs(J).max()
    assert scale > 0
    np.testing.assert_array_less(np.abs(J - fd), 1e-7 * scale)


def perturb(phi, h):
    s = 1e-6 * h
    return np.where(np.abs(phi) < s, np.where(phi >= 0, s, -s), phi)


def channel_regions(mesh, height, inlet_amp=1.0, frequency=0.0):
    return wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity",
                       span=(0.0, height), profile="parabola",
                       amplitude=inlet_amp, frequency=frequency, port=True),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
    ])


def circle_channel(h, alpha_nitsche=100.0, radius=0.08, mu=1.6e-3,
                   gp=(0.05, 0.005, 0.05)):
    """Immersed circle in a channel at Re = 20 (u_c = 0.2, L_c = 2 r)."""
    W, H = 1.6, 0.4
    mesh = build_mesh(((0, 0), (W, H)), (round(W / h), round(H / h)))
    xy = mesh.nodes
    phi = perturb(radius - np.hypot(xy[:, 0] - 0.3, xy[:, 1] - 0.2), mesh.h)
    cm = build_cut_model(mesh, phi)
    regions = channel_regions(mesh, H, inlet_amp=0.3)
    ctx = build_context(cm, regions)
    params = FlowParams(rho=1.0, mu=mu, alpha_nitsche=alpha_nitsche,
                        alpha_gp_mu=gp[0], alpha_gp_p=gp[1], alpha_gp_u=gp[2])
    return mesh, cm, ctx, regions, params


def bend_model(divisions=(24, 24), mu=1.0, k_pressure=1.0,
               pressure_scope="indicator", with_puddle=False,
               inclusions=((0.35, 0.45, 0.12), (0.75, 0.35, 0.10), (0.4, 0.8, 0.09)),
               bounds=0.03, filter_h=2.4):
    """Pipe-bend style fixture: inlet left-top, outlet bottom-right."""
    L = 1.0
    mesh = build_mesh(((0, 0), (L, L)), divisions)
    filt = build_filter(mesh, filter_h * mesh.h)
    lsmap = LevelSetMap(mesh=mesh, filt=filt, ports=[])
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", span=(0.7, 0.9),
                       profile="parabola", amplitude=1.0, port=True),
        BoundaryRegion(name="outlet", side="bottom", kind="traction",
                       span=(0.7, 0.9), port=True),
    ])
    physics = PhysicsConfig(
        flow=FlowParams(rho=1.0, mu=mu, alpha_nitsche=100.0, k_pressure=k_pressure),
        indicator=IndicatorParams(), pressure_penalty_scope=pressure_scope,
    )
    criteria = [
        CriterionSpec(name="ti", kind="total_pressure", surface="inlet"),
        CriterionSpec(name="to", kind="total_pressure", surface="outlet"),
        CriterionSpec(name="Vf", kind="volume_fluid"),
        CriterionSpec(name="S", kind="surface_area"),
    ]
    model = ForwardModel(mesh, lsmap, regions, physics, criteria, SolveConfig())
    problem = ProblemSpec(
        criteria=criteria,
        objective=[ObjectiveTerm(weight=1.0, parts=[(1.0, "ti"), (-1.0, "to")]),
                   ObjectiveTerm(weight=0.01, parts=[(1.0, "S")])],
        constraints=[ConstraintSpec(name="vol", kind="volume_frac",
                                    criterion="Vf", frac=0.4)],
    )
    xy = mesh.nodes
    s = np.full(mesh.n_nodes, -bounds)
    for cx, cy, r in inclusions:
        d = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy) - r
        s = np.maximum(s, np.clip(-d, -bounds, bounds))
    design = DesignVector(values=s, lower=np.full(mesh.n_nodes, -bounds),
                          upper=np.full(mesh.n_nodes, bounds),
                          n_nodal=mesh.n_nodes)
    return model, problem, design


def scalar_dof_coords(cm):
    """Coordinates of every scalar dof's node (for building analytic states)."""
    return cm.mesh.nodes[cm.dof_node]


def linear_flow_state(cm, coeffs_ux, coeffs_uy, coeffs_p):
    """Flow vector interpolating affine fields a + b x + c y per component."""
    xy = scalar_dof_coords(cm)
    n = cm.n_dofs
    U = np.zeros(3 * n)
    for block, (a, b, c) in enumerate((coeffs_ux, coeffs_uy, coeffs_p)):
        U[block * n:(block + 1) * n] = a + b * xy[:, 0] + c * xy[:, 1]
    return U


class _Factor:
    """A SuperLU stand-in that, unlike SuperLU, takes weak references."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class LiveFactors:
    """Patches scipy's splu to count factorizations: made (calls), alive
    now (live, through weakref.finalize) and alive at most at once (peak)."""

    def __init__(self, monkeypatch):
        self.calls = self.live = self.peak = 0
        splu = spla.splu

        def counting(A, *args, **kwargs):
            lu = _Factor(splu(A, *args, **kwargs))
            self.calls += 1
            self.live += 1
            self.peak = max(self.peak, self.live)
            weakref.finalize(lu, self._freed)
            return lu

        monkeypatch.setattr(spla, "splu", counting)

    def _freed(self):
        self.live -= 1
