"""Run configuration: flat sectioned key-value files.

INI-style sections mirror the run blocks: [mesh], [flow], [transport],
[indicator], [boundary.<tag>], [design], [port.<tag>], [criterion.<tag>],
[objective], [constraint.<tag>], [gcmma], [solve], [output]. All physical
values are in self-consistent units. parse -> dump -> parse round-trips
exactly (floats are written with repr).
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field

import numpy as np

from .conditions import BoundaryRegion, validate_regions, wall_regions
from .criteria import ConstraintSpec, CriterionSpec, ObjectiveTerm, ProblemSpec
from .design import DesignVector, LevelSetMap, PortPrimitive, build_filter
from .errors import ConfigurationError
from .flow import FlowParams
from .gcmma import GcmmaConfig
from .grid import build_mesh
from .pipeline import PhysicsConfig
from .solve import SolveConfig
from .transport import IndicatorParams, TransportParams

_FACE_ROTATION = {
    # in-plane port coordinate runs along the face; axis along the normal
    "left": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "right": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "bottom": np.eye(2),
    "top": np.eye(2),
}
# design-vector parameter index of the movable in-face center coordinate
_FACE_CENTER_PARAM = {"left": 1, "right": 1, "bottom": 0, "top": 0}


@dataclass
class PortConfig:
    name: str
    face: str
    center: tuple
    radius: float
    slab_elements: int = 2
    optimize_center: bool = False
    optimize_radius: bool = False
    center_bounds: tuple = None
    radius_bounds: tuple = None


@dataclass
class DesignConfig:
    lower: float
    upper: float
    filter_radius_h: float = 2.4
    initial: str = "constant"  # constant | inclusions | shapes
    initial_value: float = None
    inclusions: tuple = (0, 0)  # grid counts
    inclusions_radius: float = 0.0
    inclusions_margin: float = 0.0
    shapes: list = field(default_factory=list)  # [(op, params...)]


@dataclass
class OutputConfig:
    directory: str = "out"
    field_every: int = 10
    checkpoint_every: int = 10


@dataclass
class RunConfig:
    extent: tuple
    divisions: tuple
    flow: FlowParams
    indicator: IndicatorParams
    transport: TransportParams = None
    pressure_penalty_scope: str = "indicator"
    regions: list = field(default_factory=list)
    design: DesignConfig = None
    ports: list = field(default_factory=list)
    criteria: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    gcmma: GcmmaConfig = None
    solve: SolveConfig = None
    output: OutputConfig = None

    # -- builders -----------------------------------------------------------
    def build_mesh(self):
        return build_mesh(self.extent, self.divisions)

    def build_regions(self, mesh):
        regions = wall_regions(mesh, self.regions)
        validate_regions(mesh, regions)
        return regions

    def build_physics(self):
        return PhysicsConfig(
            flow=self.flow, transport=self.transport, indicator=self.indicator,
            pressure_penalty_scope=self.pressure_penalty_scope,
        )

    def build_problem(self):
        return ProblemSpec(criteria=list(self.criteria),
                           objective=list(self.objective),
                           constraints=list(self.constraints))

    def domain_area(self):
        (x0, y0), (x1, y1) = self.extent
        return (x1 - x0) * (y1 - y0)

    def build_ports(self):
        ports = []
        for pc in self.ports:
            ports.append(PortPrimitive(
                center=np.asarray(pc.center, dtype=float), radius=pc.radius,
                rotation=_FACE_ROTATION[pc.face], face=pc.face,
                slab_elements=pc.slab_elements,
            ))
        return ports

    def build_level_set_map(self, mesh):
        filt = build_filter(mesh, self.design.filter_radius_h * mesh.h)
        return LevelSetMap(mesh=mesh, filt=filt, ports=self.build_ports())

    def initial_design(self, mesh):
        dc = self.design
        n = mesh.n_nodes
        xy = mesh.nodes
        if dc.initial == "constant":
            val = dc.initial_value if dc.initial_value is not None else dc.upper
            s = np.full(n, float(val))
        elif dc.initial == "inclusions":
            (x0, y0), (x1, y1) = self.extent
            mx, my = dc.inclusions
            margin = dc.inclusions_margin
            cx = np.linspace(x0 + margin, x1 - margin, mx) if mx > 1 else [0.5 * (x0 + x1)]
            cy = np.linspace(y0 + margin, y1 - margin, my) if my > 1 else [0.5 * (y0 + y1)]
            d = np.full(n, np.inf)
            for ccx in cx:
                for ccy in cy:
                    d = np.minimum(d, np.hypot(xy[:, 0] - ccx, xy[:, 1] - ccy)
                                   - dc.inclusions_radius)
            s = np.clip(-d, dc.lower, dc.upper)
        elif dc.initial == "shapes":
            s = np.full(n, dc.upper)  # all solid base
            for op in dc.shapes:
                kind = op[0]
                if kind.endswith("_box"):
                    bx0, by0, bx1, by1 = op[1:]
                    v = np.maximum.reduce([bx0 - xy[:, 0], xy[:, 0] - bx1,
                                           by0 - xy[:, 1], xy[:, 1] - by1])
                elif kind.endswith("_disk"):
                    ccx, ccy, r = op[1:]
                    v = np.hypot(xy[:, 0] - ccx, xy[:, 1] - ccy) - r
                else:
                    raise ConfigurationError(f"unknown shape op {kind!r}")
                if kind.startswith("fluid"):
                    s = np.minimum(s, v)
                elif kind.startswith("solid"):
                    s = np.maximum(s, -v)
                else:
                    raise ConfigurationError(f"unknown shape op {kind!r}")
            s = np.clip(s, dc.lower, dc.upper)
        else:
            raise ConfigurationError(f"unknown initial design kind {dc.initial!r}")

        lower = np.full(n, dc.lower)
        upper = np.full(n, dc.upper)
        values = [s]
        lo_extra, up_extra, layout = [], [], []
        for pi, pc in enumerate(self.ports):
            if pc.optimize_center:
                param = _FACE_CENTER_PARAM[pc.face]
                layout.append((pi, param))
                values.append([pc.center[param]])
                lo_extra.append(pc.center_bounds[0])
                up_extra.append(pc.center_bounds[1])
            if pc.optimize_radius:
                layout.append((pi, 2))
                values.append([pc.radius])
                lo_extra.append(pc.radius_bounds[0])
                up_extra.append(pc.radius_bounds[1])
        vals = np.concatenate([np.asarray(v, dtype=float) for v in values])
        lo = np.concatenate([lower, np.asarray(lo_extra, dtype=float)])
        up = np.concatenate([upper, np.asarray(up_extra, dtype=float)])
        return DesignVector(values=vals, lower=lo, upper=up, n_nodal=n,
                            port_layout=layout)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _floats(s):
    return tuple(float(v) for v in s.split())


def _get(sec, key, conv, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigurationError(f"missing key {key!r} in [{sec.name}]")
        return default
    try:
        return conv(sec[key])
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r} in [{sec.name}]: {exc}") from exc


def _bool(s):
    s = s.strip().lower()
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cp.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    try:
        return _parse(cp)
    except (KeyError, configparser.Error) as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc


def _parse(cp) -> RunConfig:
    mesh = cp["mesh"]
    extent = ((_get(mesh, "x0", float, required=True), _get(mesh, "y0", float, required=True)),
              (_get(mesh, "x1", float, required=True), _get(mesh, "y1", float, required=True)))
    divisions = (_get(mesh, "nx", int, required=True), _get(mesh, "ny", int, required=True))

    fl = cp["flow"]
    flow = FlowParams(
        rho=_get(fl, "rho", float, 1.0), mu=_get(fl, "mu", float, 1.0),
        alpha_nitsche=_get(fl, "alpha_nitsche", float, 100.0),
        alpha_gp_mu=_get(fl, "alpha_gp_mu", float, 0.05),
        alpha_gp_p=_get(fl, "alpha_gp_p", float, 0.005),
        alpha_gp_u=_get(fl, "alpha_gp_u", float, 0.05),
        k_pressure=_get(fl, "k_pressure", float, 1.0),
        tau_time_term=_get(fl, "tau_time_term", _bool, True),
    )
    scope = _get(fl, "pressure_penalty_scope", str, "indicator")

    transport = None
    if cp.has_section("transport"):
        tr = cp["transport"]
        transport = TransportParams(
            diffusivity=_get(tr, "diffusivity", float, 1.0),
            alpha_nitsche=_get(tr, "alpha_nitsche", float, 1.0),
            alpha_gp=_get(tr, "alpha_gp", float, 0.05),
            source=_get(tr, "source", float, 0.0),
        )

    ind = cp["indicator"] if cp.has_section("indicator") else {}
    indicator = IndicatorParams(
        reaction=float(ind.get("reaction", 0.01)),
        psi_ref=float(ind.get("psi_ref", 1.0)),
        alpha_nitsche=float(ind.get("alpha_nitsche", 1.0)),
        alpha_gp=float(ind.get("alpha_gp", 0.05)),
        k_sharpness=float(ind.get("k_sharpness", 1000.0)),
        k_threshold=float(ind.get("k_threshold", 0.99)),
    )

    regions = []
    for name in cp.sections():
        if not name.startswith("boundary."):
            continue
        sec = cp[name]
        regions.append(BoundaryRegion(
            name=name.split(".", 1)[1],
            side=_get(sec, "side", str, required=True),
            kind=_get(sec, "kind", str, required=True),
            span=_get(sec, "span", _floats),
            profile=_get(sec, "profile", str, "uniform"),
            velocity=_get(sec, "velocity", _floats, (0.0, 0.0)),
            amplitude=_get(sec, "amplitude", float, 0.0),
            traction=_get(sec, "traction", _floats, (0.0, 0.0)),
            frequency=_get(sec, "frequency", float, 0.0),
            port=_get(sec, "port", _bool, False),
            species_value=_get(sec, "species_value", float),
        ))

    de = cp["design"]
    shapes = []
    if "shapes" in de:
        for part in de["shapes"].split("|"):
            toks = part.split()
            if not toks:
                continue
            shapes.append((toks[0], *(float(v) for v in toks[1:])))
    design = DesignConfig(
        lower=_get(de, "lower", float, required=True),
        upper=_get(de, "upper", float, required=True),
        filter_radius_h=_get(de, "filter_radius_h", float, 2.4),
        initial=_get(de, "initial", str, "constant"),
        initial_value=_get(de, "initial_value", float),
        inclusions=(int(de.get("inclusions_nx", 0)), int(de.get("inclusions_ny", 0))),
        inclusions_radius=float(de.get("inclusions_radius", 0.0)),
        inclusions_margin=float(de.get("inclusions_margin", 0.0)),
        shapes=shapes,
    )

    ports = []
    for name in cp.sections():
        if not name.startswith("port."):
            continue
        sec = cp[name]
        ports.append(PortConfig(
            name=name.split(".", 1)[1],
            face=_get(sec, "face", str, required=True),
            center=_get(sec, "center", _floats, required=True),
            radius=_get(sec, "radius", float, required=True),
            slab_elements=_get(sec, "slab_elements", int, 2),
            optimize_center=_get(sec, "optimize_center", _bool, False),
            optimize_radius=_get(sec, "optimize_radius", _bool, False),
            center_bounds=_get(sec, "center_bounds", _floats),
            radius_bounds=_get(sec, "radius_bounds", _floats),
        ))

    criteria = []
    for name in cp.sections():
        if not name.startswith("criterion."):
            continue
        sec = cp[name]
        criteria.append(CriterionSpec(
            name=name.split(".", 1)[1],
            kind=_get(sec, "kind", str, required=True),
            surface=_get(sec, "surface", str, "interface"),
            direction=_get(sec, "direction", _floats, (1.0, 0.0)),
            u_char=_get(sec, "u_char", float, 1.0),
            l_char=_get(sec, "l_char", float, 1.0),
            beta_ks=_get(sec, "beta_ks", float, 400.0),
            c_ref=_get(sec, "c_ref", float, 0.5),
            time_sampling=_get(sec, "time_sampling", str, "final"),
        ))

    objective = []
    if cp.has_section("objective"):
        terms = cp["objective"].get("terms", "")
        for part in terms.split("|"):
            part = part.strip()
            if not part:
                continue
            weight_s, expr = part.split(":", 1)
            parts = []
            for tok in re.findall(r"[+-]?[^+-]+", expr.replace(" ", "")):
                coef = 1.0
                if tok.startswith("-"):
                    coef, tok = -1.0, tok[1:]
                elif tok.startswith("+"):
                    tok = tok[1:]
                if not tok:
                    raise ConfigurationError(f"bad objective term {part!r}")
                parts.append((coef, tok))
            objective.append(ObjectiveTerm(weight=float(weight_s), parts=parts))

    constraints = []
    for name in cp.sections():
        if not name.startswith("constraint."):
            continue
        sec = cp[name]
        kind = _get(sec, "kind", str, required=True)
        parts = []
        if "parts" in sec:
            for tok in sec["parts"].split("|"):
                coef_s, crit = tok.split(":")
                parts.append((float(coef_s), crit.strip()))
        constraints.append(ConstraintSpec(
            name=name.split(".", 1)[1], kind=kind,
            criterion=_get(sec, "criterion", str, ""),
            inlets=tuple(sec.get("inlets", "").split()),
            frac=_get(sec, "frac", float, 0.0),
            tol=_get(sec, "tol", float, 0.0),
            tol_initial=_get(sec, "tol_initial", float),
            continuation_steps=_get(sec, "continuation_steps", int, 0),
            reference=_get(sec, "reference", float, 1.0),
            parts=parts,
        ))

    gc = cp["gcmma"] if cp.has_section("gcmma") else {}
    gcmma = GcmmaConfig(
        move=float(gc.get("move", 0.04)),
        asy_decrease=float(gc.get("asy_decrease", 0.5)),
        asy_init=float(gc.get("asy_init", 0.7)),
        asy_increase=float(gc.get("asy_increase", 1.43)),
        constraint_penalty=float(gc.get("constraint_penalty", 100.0)),
        max_outer=int(gc.get("max_outer", 200)),
        max_inner=int(gc.get("max_inner", 15)),
        tol_objective=float(gc.get("tol_objective", 1e-6)),
        tol_feasibility=float(gc.get("tol_feasibility", 1e-6)),
    )

    so = cp["solve"] if cp.has_section("solve") else {}
    if so.get("linear_method", "direct") != "direct":
        raise ConfigurationError(
            f"linear_method = {so['linear_method']}: only the sparse direct "
            "solver exists")
    solve = SolveConfig(
        newton_tol=float(so.get("newton_tol", 1e-6)),
        max_newton=int(so.get("max_newton", 30)),
        dt=(float(so["dt"]) if "dt" in so else None),
        n_steps=int(so.get("n_steps", 0)),
        scheme=str(so.get("scheme", "steady")),
    )

    ou = cp["output"] if cp.has_section("output") else {}
    output = OutputConfig(
        directory=str(ou.get("directory", "out")),
        field_every=int(ou.get("field_every", 10)),
        checkpoint_every=int(ou.get("checkpoint_every", 10)),
    )

    return RunConfig(
        extent=extent, divisions=divisions, flow=flow, indicator=indicator,
        transport=transport, pressure_penalty_scope=scope, regions=regions,
        design=design, ports=ports, criteria=criteria, objective=objective,
        constraints=constraints, gcmma=gcmma, solve=solve, output=output,
    )


def dump_config(cfg: RunConfig) -> str:
    """Serialize back to the sectioned text form (round-trips exactly)."""
    out = []

    def sec(name, pairs):
        out.append(f"[{name}]")
        for k, v in pairs:
            if v is None:
                continue
            if isinstance(v, float):
                v = repr(v)
            elif isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, (tuple, list)) and v and isinstance(v[0], (int, float)):
                v = " ".join(repr(float(x)) for x in v)
            out.append(f"{k} = {v}")
        out.append("")

    (x0, y0), (x1, y1) = cfg.extent
    sec("mesh", [("x0", x0), ("y0", y0), ("x1", x1), ("y1", y1),
                 ("nx", cfg.divisions[0]), ("ny", cfg.divisions[1])])
    f = cfg.flow
    sec("flow", [("rho", f.rho), ("mu", f.mu), ("alpha_nitsche", f.alpha_nitsche),
                 ("alpha_gp_mu", f.alpha_gp_mu), ("alpha_gp_p", f.alpha_gp_p),
                 ("alpha_gp_u", f.alpha_gp_u), ("k_pressure", f.k_pressure),
                 ("tau_time_term", f.tau_time_term),
                 ("pressure_penalty_scope", cfg.pressure_penalty_scope)])
    if cfg.transport is not None:
        t = cfg.transport
        sec("transport", [("diffusivity", t.diffusivity),
                          ("alpha_nitsche", t.alpha_nitsche),
                          ("alpha_gp", t.alpha_gp), ("source", t.source)])
    i = cfg.indicator
    sec("indicator", [("reaction", i.reaction), ("psi_ref", i.psi_ref),
                      ("alpha_nitsche", i.alpha_nitsche), ("alpha_gp", i.alpha_gp),
                      ("k_sharpness", i.k_sharpness), ("k_threshold", i.k_threshold)])
    for r in cfg.regions:
        sec(f"boundary.{r.name}", [
            ("side", r.side), ("kind", r.kind), ("span", r.span),
            ("profile", r.profile), ("velocity", r.velocity),
            ("amplitude", r.amplitude), ("traction", r.traction),
            ("frequency", r.frequency), ("port", r.port),
            ("species_value", r.species_value),
        ])
    d = cfg.design
    shapes = " | ".join(
        " ".join([op[0]] + [repr(float(v)) for v in op[1:]]) for op in d.shapes
    )
    sec("design", [("lower", d.lower), ("upper", d.upper),
                   ("filter_radius_h", d.filter_radius_h), ("initial", d.initial),
                   ("initial_value", d.initial_value),
                   ("inclusions_nx", d.inclusions[0]), ("inclusions_ny", d.inclusions[1]),
                   ("inclusions_radius", d.inclusions_radius),
                   ("inclusions_margin", d.inclusions_margin),
                   ("shapes", shapes if shapes else None)])
    for p in cfg.ports:
        sec(f"port.{p.name}", [
            ("face", p.face), ("center", p.center), ("radius", p.radius),
            ("slab_elements", p.slab_elements),
            ("optimize_center", p.optimize_center),
            ("optimize_radius", p.optimize_radius),
            ("center_bounds", p.center_bounds), ("radius_bounds", p.radius_bounds),
        ])
    for c in cfg.criteria:
        sec(f"criterion.{c.name}", [
            ("kind", c.kind), ("surface", c.surface), ("direction", c.direction),
            ("u_char", c.u_char), ("l_char", c.l_char),
            ("beta_ks", c.beta_ks), ("c_ref", c.c_ref),
            ("time_sampling", c.time_sampling),
        ])
    if cfg.objective:
        terms = " | ".join(
            repr(t.weight) + ": " + " ".join(
                ("-" if coef < 0 else ("+" if j else "")) + name
                for j, (coef, name) in enumerate(t.parts)
            )
            for t in cfg.objective
        )
        sec("objective", [("terms", terms)])
    for c in cfg.constraints:
        parts = " | ".join(f"{repr(float(coef))}: {name}" for coef, name in c.parts)
        sec(f"constraint.{c.name}", [
            ("kind", c.kind), ("criterion", c.criterion or None),
            ("inlets", " ".join(c.inlets) if c.inlets else None),
            ("frac", c.frac), ("tol", c.tol), ("tol_initial", c.tol_initial),
            ("continuation_steps", c.continuation_steps),
            ("reference", c.reference), ("parts", parts if parts else None),
        ])
    g = cfg.gcmma
    sec("gcmma", [("move", g.move), ("asy_decrease", g.asy_decrease),
                  ("asy_init", g.asy_init), ("asy_increase", g.asy_increase),
                  ("constraint_penalty", g.constraint_penalty),
                  ("max_outer", g.max_outer), ("max_inner", g.max_inner),
                  ("tol_objective", g.tol_objective),
                  ("tol_feasibility", g.tol_feasibility)])
    s = cfg.solve
    sec("solve", [("newton_tol", s.newton_tol), ("max_newton", s.max_newton),
                  ("dt", s.dt), ("n_steps", s.n_steps), ("scheme", s.scheme)])
    o = cfg.output
    sec("output", [("directory", o.directory), ("field_every", o.field_every),
                   ("checkpoint_every", o.checkpoint_every)])
    return "\n".join(out)
