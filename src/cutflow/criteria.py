"""Design criteria and their composition into objectives and constraints.

Every criterion is an integral over one of the context's quadrature
blocks (interface, a tagged boundary region, or the fluid volume), so the
same evaluation code serves the global problem and the per-element
contexts used by the geometric sensitivities. State partials are exact.

Criteria kinds: drag coefficient, mass flow rate, total pressure, fluid
volume, interface surface area, and a smooth-maximum (KS) measure of the
squared deviation of the species concentration from a target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .flow import _gather

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
        if self.kind == "ks_target" and self.beta_ks <= 0:
            raise ConfigurationError("ks_target requires beta_ks > 0")


@dataclass
class CriterionValue:
    value: float
    d_flow: np.ndarray = None  # length 3 * ctx.n, or None when identically zero
    d_species: np.ndarray = None  # length ctx.n
    aux: tuple = None  # ks_target: (max shift m, shifted integral T)


class _EmptyBlock:
    nq = 0


def _surface_block(ctx, spec, allow_empty=False):
    if spec.surface == "interface":
        return ctx.interface if ctx.interface is not None else _EmptyBlock()
    try:
        return ctx.boundary_block(spec.surface)
    except KeyError:
        if allow_empty:
            return _EmptyBlock()
        raise


def evaluate_criterion(spec, ctx, params, flow_state=None, species_state=None,
                       want_partials=False, allow_empty=False):
    """Evaluate one criterion on an integration context.

    allow_empty=True returns 0 for empty surfaces (used by the per-element
    local contributions of the geometric sensitivities). Note the KS
    criterion is not element-separable; its local contribution is the
    shifted sum handled by the caller.
    """
    n = ctx.n
    if spec.kind == "volume_fluid":
        w = ctx.vol_w if ctx.vol_w is not None else np.zeros(0)
        return CriterionValue(value=float(w.sum()))
    if spec.kind == "surface_area":
        blk = ctx.interface
        return CriterionValue(value=float(blk.w.sum()) if blk is not None else 0.0)

    if spec.kind == "ks_target":
        if spec.surface == "volume":
            if ctx.vol_w is None or not ctx.vol_w.shape[0]:
                if allow_empty:
                    return CriterionValue(value=0.0)
                raise ConfigurationError("ks_target over an empty fluid volume")
            N, dofs, w = ctx.vol_N, ctx.vol_dofs, ctx.vol_w
        else:
            blk = _surface_block(ctx, spec, allow_empty)
            if not blk.nq:
                if allow_empty:
                    return CriterionValue(value=0.0)
                raise ConfigurationError(f"criterion surface {spec.surface!r} is empty")
            N, dofs, w = blk.N, blk.dofs, blk.w
        c = np.asarray(species_state, dtype=float)
        cq = (N * _gather(c, dofs)).sum(1)
        beta = spec.beta_ks
        dev2 = (cq - spec.c_ref) ** 2
        m = dev2.max()
        expo = np.exp(beta * (dev2 - m))
        total = float((w * expo).sum())
        value = m + np.log(total) / beta
        out = CriterionValue(value=float(value), aux=(float(m), total))
        if want_partials:
            ds = np.zeros(n)
            coef = w * expo * 2.0 * (cq - spec.c_ref) / total
            np.add.at(ds, dofs, N * coef[:, None])
            out.d_species = ds
        return out

    blk = _surface_block(ctx, spec, allow_empty)
    if not blk.nq:
        if allow_empty:
            return CriterionValue(value=0.0)
        raise ConfigurationError(f"criterion surface {spec.surface!r} is empty")
    U = np.asarray(flow_state, dtype=float)
    N, gx, gy, w = blk.N, blk.gx, blk.gy, blk.w
    nx, ny = blk.normal[:, 0], blk.normal[:, 1]
    dofs = blk.dofs
    ux = (N * _gather(U[0:n], dofs)).sum(1)
    uy = (N * _gather(U[n:2 * n], dofs)).sum(1)
    p = (N * _gather(U[2 * n:3 * n], dofs)).sum(1)

    if spec.kind == "mass_flow":
        rho = params.rho
        value = float((w * rho * (ux * nx + uy * ny)).sum())
        out = CriterionValue(value=value)
        if want_partials:
            d = np.zeros(3 * n)
            np.add.at(d, dofs, N * (w * rho * nx)[:, None])
            np.add.at(d, dofs + n, N * (w * rho * ny)[:, None])
            out.d_flow = d
        return out

    if spec.kind == "total_pressure":
        rho = params.rho
        value = float((w * (p + 0.5 * rho * (ux * ux + uy * uy))).sum())
        out = CriterionValue(value=value)
        if want_partials:
            d = np.zeros(3 * n)
            np.add.at(d, dofs, N * (w * rho * ux)[:, None])
            np.add.at(d, dofs + n, N * (w * rho * uy)[:, None])
            np.add.at(d, dofs + 2 * n, N * w[:, None])
            out.d_flow = d
        return out

    if spec.kind == "drag":
        rho, mu = params.rho, params.mu
        ex, ey = spec.direction
        scale = -2.0 * ex_ey_norm(ex, ey) / (rho * spec.u_char**2 * spec.l_char)
        uxe = _gather(U[0:n], dofs)
        uye = _gather(U[n:2 * n], dofs)
        uxx = (gx * uxe).sum(1)
        uxy = (gy * uxe).sum(1)
        uyx = (gx * uye).sum(1)
        uyy = (gy * uye).sum(1)
        exy = 0.5 * (uxy + uyx)
        tx = -p * nx + 2 * mu * (uxx * nx + exy * ny)
        ty = -p * ny + 2 * mu * (exy * nx + uyy * ny)
        value = scale * float((w * (ex * tx + ey * ty)).sum())
        out = CriterionValue(value=value)
        if want_partials:
            gnN = gx * nx[:, None] + gy * ny[:, None]
            # d(eps n)_x / dux_b etc., as in the Nitsche kernel
            dex_dux = 0.5 * (gnN + nx[:, None] * gx)
            dex_duy = 0.5 * ny[:, None] * gx
            dey_dux = 0.5 * nx[:, None] * gy
            dey_duy = 0.5 * (gnN + ny[:, None] * gy)
            d = np.zeros(3 * n)
            np.add.at(d, dofs, 2 * mu * scale
                      * (ex * dex_dux + ey * dey_dux) * w[:, None])
            np.add.at(d, dofs + n, 2 * mu * scale
                      * (ex * dex_duy + ey * dey_duy) * w[:, None])
            np.add.at(d, dofs + 2 * n, -scale * N * (w * (ex * nx + ey * ny))[:, None])
            out.d_flow = d
        return out

    raise AssertionError(spec.kind)


def ex_ey_norm(ex, ey):
    # the drag direction is a unit vector; tolerate unnormalized input
    nrm = float(np.hypot(ex, ey))
    return 1.0 / nrm if nrm > 0 else 1.0


def ks_local_sum(spec, ctx, params, species_state, shift):
    """Element-separable part of ks_target: sum w exp(beta (dev^2 - shift)).

    The full criterion is shift + log(total)/beta over the global block;
    per-element geometric sensitivities chain through 1/(beta * total).
    """
    if spec.surface == "volume":
        if ctx.vol_w is None or not ctx.vol_w.shape[0]:
            return 0.0
        N, dofs, w = ctx.vol_N, ctx.vol_dofs, ctx.vol_w
    else:
        blk = _surface_block(ctx, spec, allow_empty=True)
        if not blk.nq:
            return 0.0
        N, dofs, w = blk.N, blk.dofs, blk.w
    c = np.asarray(species_state, dtype=float)
    cq = (N * _gather(c, dofs)).sum(1)
    dev2 = (cq - spec.c_ref) ** 2
    return float((w * np.exp(spec.beta_ks * (dev2 - shift))).sum())


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
        if self.kind in ("pressure_cap", "upper_bound"):
            total = sum(coef * values[name] for coef, name in self.parts)
            g = total / self.reference - 1.0
            return g, {name: coef / self.reference for coef, name in self.parts}
        raise ConfigurationError(f"unknown constraint kind {self.kind!r}")


@dataclass
class ProblemSpec:
    """Objective terms plus constraints, with frozen initial normalization."""

    criteria: list  # list[CriterionSpec]
    objective: list  # list[ObjectiveTerm]
    constraints: list  # list[ConstraintSpec]
    normalization: dict = None  # term index -> |initial term value|

    def criterion(self, name):
        for c in self.criteria:
            if c.name == name:
                return c
        raise KeyError(name)

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
