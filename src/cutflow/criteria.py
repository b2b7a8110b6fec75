"""Design criteria and their composition into objectives and constraints.

Every criterion is an integral over the fluid volume or over one slice
of the context's surface table (the interface or a boundary region). One
integrand, `criterion_terms`, gives its per-point terms: the global
evaluation sums them, and the geometric sensitivities sum them per
re-cut element of a stacked context. State partials are exact.

Criteria kinds: drag coefficient, mass flow rate, total pressure, fluid
volume, interface surface area, and a smooth-maximum (KS) measure of the
squared deviation of the species concentration from a target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .flow import block_dofs, flow_fields, traction_rows
from .forms import Scatter

# criteria that depend on the geometry alone, never on a flow or species state
GEOMETRIC_KINDS = ("volume_fluid", "surface_area")


@dataclass
class CriterionSpec:
    name: str
    kind: str  # drag | mass_flow | total_pressure | volume_fluid | surface_area | ks_target
    surface: str = "interface"  # 'interface', 'volume', or a boundary region name
    direction: tuple = (1.0, 0.0)  # drag direction e
    u_char: float = 1.0
    l_char: float = 1.0
    beta_ks: float = 400.0
    c_ref: float = 0.5
    time_sampling: str = "final"  # transient runs: 'final' | 'average'

    def __post_init__(self):
        kinds = ("drag", "mass_flow", "total_pressure", "volume_fluid",
                 "surface_area", "ks_target")
        if self.kind not in kinds:
            raise ConfigurationError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "drag" and (self.u_char <= 0 or self.l_char <= 0):
            raise ConfigurationError("drag normalization requires u_char, l_char > 0")
        if self.kind == "drag" and not (len(self.direction) == 2
                                        and np.hypot(*self.direction) > 0):
            raise ConfigurationError("drag direction must be two numbers, not both zero")
        if self.kind == "ks_target" and self.beta_ks <= 0:
            raise ConfigurationError("ks_target requires beta_ks > 0")


@dataclass
class CriterionValue:
    value: float
    d_flow: np.ndarray = None  # length 3 * ctx.n, or None when identically zero
    d_species: np.ndarray = None  # length ctx.n
    aux: tuple = None  # ks_target: (max shift m, shifted integral T)


def _ks_points(ctx, spec):
    """The point table a ks_target criterion integrates over."""
    return ctx.volume if spec.surface == "volume" else ctx.surface_part(spec.surface)


def _ks_deviation(spec, blk, species_state):
    """Concentration and its squared deviation from c_ref at each point."""
    cq = blk.at(np.asarray(species_state, dtype=float), 1)[0]
    return cq, (cq - spec.c_ref) ** 2


def criterion_scale(spec, params):
    """Factor between a criterion's value and the sum of its terms."""
    if spec.kind != "drag":
        return 1.0
    # the drag direction need not be a unit vector (CriterionSpec rejects zero)
    unit = 1.0 / float(np.hypot(*spec.direction))
    return -2.0 * unit / (params.rho * spec.u_char**2 * spec.l_char)


def criterion_terms(spec, ctx, params, flow_state=None, species_state=None,
                    shift=None):
    """Per-quadrature-point terms of a criterion and the dof rows they sit on.

    Returns (q, dofs). Every kind but ks_target has the value
    criterion_scale * sum(q), so a context that stacks several elements
    gives each element's part as a sum over its own points. ks_target is
    not element-separable: its terms are w exp(beta (dev^2 - shift)) at a
    given shift, and the criterion is shift + log(sum q) / beta with shift
    the largest dev^2 of the global block.
    """
    n = ctx.n
    if spec.kind == "volume_fluid":
        return ctx.volume.w, ctx.volume.dofs
    if spec.kind == "surface_area":
        blk = ctx.surface_part("interface")
        return blk.w, blk.dofs
    if spec.kind == "ks_target":
        blk = _ks_points(ctx, spec)
        _, dev2 = _ks_deviation(spec, blk, species_state)
        return blk.w * np.exp(spec.beta_ks * (dev2 - shift)), blk.dofs

    blk = ctx.surface_part(spec.surface)
    U = np.asarray(flow_state, dtype=float)
    if spec.kind == "drag":
        rows = _drag_rows(spec, params, blk)
        return blk.w * (rows * U[block_dofs(blk.dofs, n)].T).sum(0), blk.dofs
    w, nx, ny = blk.w, blk.normal[:, 0], blk.normal[:, 1]
    (ux,), (uy,), (p,) = flow_fields(U, n, blk, 1)
    if spec.kind == "mass_flow":
        return w * params.rho * (ux * nx + uy * ny), blk.dofs
    return w * (p + 0.5 * params.rho * (ux * ux + uy * uy)), blk.dofs  # total_pressure


def _drag_rows(spec, params, blk):
    """The traction along the drag direction as rows over the corner state
    (12, nq) (flow.traction_rows)."""
    rows = traction_rows(params.mu, blk)
    return spec.direction[0] * rows[0] + spec.direction[1] * rows[1]


def evaluate_criterion(spec, ctx, params, flow_state=None, species_state=None,
                       want_partials=False):
    """Evaluate one criterion on an integration context.

    Raises ConfigurationError when a state-dependent criterion's boundary
    region (or ks_target's surface or volume) holds no quadrature points.
    On an empty interface (a design without an inclusion) a criterion is
    the empty integral: 0.0, with zero partials.
    """
    n = ctx.n
    if spec.kind in GEOMETRIC_KINDS:
        q, _ = criterion_terms(spec, ctx, params)
        return CriterionValue(value=float(q.sum()))

    if spec.kind == "ks_target":
        blk = _ks_points(ctx, spec)
        if not blk.nq:
            raise ConfigurationError(f"ks_target over an empty {spec.surface!r}")
        cq, dev2 = _ks_deviation(spec, blk, species_state)
        m = dev2.max()
        q, _ = criterion_terms(spec, ctx, params, species_state=species_state, shift=m)
        total = float(q.sum())
        value = m + np.log(total) / spec.beta_ks
        out = CriterionValue(value=float(value), aux=(float(m), total))
        if want_partials:
            coef = q * 2.0 * (cq - spec.c_ref) / total
            ds = Scatter(n)
            ds.add(blk.dofs, blk.N * coef[:, None])
            out.d_species = ds.total()
        return out

    blk = ctx.surface_part(spec.surface)
    if not blk.nq and spec.surface != "interface":
        raise ConfigurationError(f"criterion surface {spec.surface!r} is empty")
    q, _ = criterion_terms(spec, ctx, params, flow_state=flow_state)
    scale = criterion_scale(spec, params)
    out = CriterionValue(value=scale * float(q.sum()) + 0.0)  # an empty sum is 0.0, not -0.0
    if not want_partials:
        return out
    rho = params.rho
    N, w = blk.N, blk.w
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    dofs = blk.dofs
    d = Scatter(3 * n)
    if spec.kind == "mass_flow":
        d.add(dofs, N * (w * rho * nx)[:, None])
        d.add(dofs + n, N * (w * rho * ny)[:, None])
    elif spec.kind == "total_pressure":
        (ux,), (uy,), _ = flow_fields(np.asarray(flow_state, dtype=float), n, blk, 1)
        d.add(dofs, N * (w * rho * ux)[:, None])
        d.add(dofs + n, N * (w * rho * uy)[:, None])
        d.add(dofs + 2 * n, N * w[:, None])
    else:  # drag
        d.add(block_dofs(dofs, n), (scale * w * _drag_rows(spec, params, blk)).T)
    out.d_flow = d.total()
    return out


# ---------------------------------------------------------------------------
# objective / constraint composition
# ---------------------------------------------------------------------------

@dataclass
class ObjectiveTerm:
    """weight * (sum of coef * criterion) / |initial value of the sum|."""

    weight: float
    parts: list  # list of (coef, criterion name)


@dataclass
class ConstraintSpec:
    """One inequality constraint reduced to g <= 0 form.

    kinds:
      volume_frac:   g = Vf / (frac * domain_area) - 1
      mass_window_low:  g = 1 - m_out / ((frac - tol) * m_in)
      mass_window_high: g = m_out / ((frac + tol) * m_in) - 1
      pressure_cap:  g = (sum coef*T_i) / dp_ref - 1
      upper_bound:   g = (sum coef*crit_i) / ref - 1
    m_in is the inflow magnitude -(sum of mass_flow criteria named in inlets).
    Continuation: tol contracts linearly from tol_initial to tol over
    continuation_steps optimizer iterations.
    """

    name: str
    kind: str
    criterion: str = ""  # main criterion (Vf, m_out, ...)
    inlets: tuple = ()
    frac: float = 0.0
    tol: float = 0.0
    tol_initial: float = None
    continuation_steps: int = 0
    reference: float = 1.0
    parts: list = field(default_factory=list)  # pressure_cap / upper_bound

    def __post_init__(self):
        kinds = ("volume_frac", "mass_window_low", "mass_window_high", "pressure_cap",
                 "upper_bound")
        if self.kind not in kinds:
            raise ConfigurationError(f"unknown constraint kind {self.kind!r}")

    def current_tol(self, iteration):
        if self.tol_initial is None or self.continuation_steps <= 0:
            return self.tol
        frac = min(1.0, iteration / self.continuation_steps)
        return self.tol_initial + (self.tol - self.tol_initial) * frac

    def evaluate(self, values, domain_area, iteration=0):
        """Value and d(g)/d(criterion) dict from criterion values."""
        if self.kind == "volume_frac":
            denom = self.frac * domain_area
            g = values[self.criterion] / denom - 1.0
            return g, {self.criterion: 1.0 / denom}
        if self.kind in ("mass_window_low", "mass_window_high"):
            m_out = values[self.criterion]
            m_in = -sum(values[k] for k in self.inlets)
            tol = self.current_tol(iteration)
            frac = self.frac - tol if self.kind == "mass_window_low" else self.frac + tol
            denom = frac * m_in
            if self.kind == "mass_window_low":
                g = 1.0 - m_out / denom
                d = {self.criterion: -1.0 / denom}
                for k in self.inlets:
                    # d(m_in)/d(values[k]) = -1
                    d[k] = d.get(k, 0.0) + (-m_out / (frac * m_in * m_in))
                return g, d
            g = m_out / denom - 1.0
            d = {self.criterion: 1.0 / denom}
            for k in self.inlets:
                d[k] = d.get(k, 0.0) + (m_out / (frac * m_in * m_in))
            return g, d
        # pressure_cap, upper_bound
        total = sum(coef * values[name] for coef, name in self.parts)
        g = total / self.reference - 1.0
        return g, {name: coef / self.reference for coef, name in self.parts}


@dataclass
class ProblemSpec:
    """Objective terms plus constraints, with frozen initial normalization."""

    criteria: list  # list[CriterionSpec]
    objective: list  # list[ObjectiveTerm]
    constraints: list  # list[ConstraintSpec]
    normalization: dict = None  # term index -> |initial term value|

    def term_raw(self, term, values):
        return sum(coef * values[name] for coef, name in term.parts)

    def capture_normalization(self, values):
        self.normalization = {}
        for i, term in enumerate(self.objective):
            raw = self.term_raw(term, values)
            if raw == 0.0:
                raise ConfigurationError(
                    f"objective term {i} is zero at the initial design; "
                    "cannot normalize"
                )
            self.normalization[i] = abs(raw)

    def objective_value(self, values):
        if self.normalization is None:
            raise RuntimeError("normalization not captured")
        return sum(
            term.weight * self.term_raw(term, values) / self.normalization[i]
            for i, term in enumerate(self.objective)
        )

    def objective_dcrit(self, values):
        d = {}
        for i, term in enumerate(self.objective):
            for coef, name in term.parts:
                d[name] = d.get(name, 0.0) + term.weight * coef / self.normalization[i]
        return d
