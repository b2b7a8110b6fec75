"""Run configuration: flat sectioned key-value files.

INI-style sections mirror the run blocks: [mesh], [flow], [transport],
[indicator], [boundary.<tag>], [design], [port.<tag>], [criterion.<tag>],
[objective], [constraint.<tag>], [gcmma], [solve], [output]. All physical
values are in self-consistent units. One key table (_SECTIONS) maps each
section to the dataclass it builds; the keys, their types and defaults are
that dataclass's fields. Unknown sections and keys are errors. parse ->
dump -> parse round-trips exactly (floats are written with repr).
"""

from __future__ import annotations

import configparser
import math
import re
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .conditions import BoundaryRegion, validate_regions, wall_regions
from .criteria import (GEOMETRIC_KINDS, ConstraintSpec, CriterionSpec, ObjectiveTerm,
                       ProblemSpec)
from .design import DesignVector, LevelSetMap, Port, build_filter, port_columns
from .errors import ConfigurationError
from .flow import FlowParams
from .gcmma import GcmmaConfig
from .grid import build_mesh
from .pipeline import PhysicsConfig
from .solve import SolveConfig
from .transport import IndicatorParams, TransportParams

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


# shape op -> its numbers: a box's corners x0 y0 x1 y1, a disk's centre and radius
_SHAPE_ARITY = {"fluid_box": 4, "solid_box": 4, "fluid_disk": 3, "solid_disk": 3}


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
    indicator: IndicatorParams = field(default_factory=IndicatorParams)
    transport: TransportParams = None
    pressure_penalty_scope: str = "indicator"
    regions: list = field(default_factory=list)
    design: DesignConfig = None
    ports: list = field(default_factory=list)
    criteria: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    gcmma: GcmmaConfig = field(default_factory=GcmmaConfig)
    solve: SolveConfig = field(default_factory=SolveConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

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

    def check_names(self, regions):
        """Every name the criteria, objective and constraints refer to
        exists: a criterion surface is the interface or a region (walls
        included), or for ks_target the volume; a criterion reference names
        a criterion."""
        surfaces = {"interface"} | {r.name for r in regions}
        for c in self.criteria:
            if c.kind not in GEOMETRIC_KINDS and c.surface not in (
                    surfaces | {"volume"} if c.kind == "ks_target" else surfaces):
                raise ConfigurationError(f"[criterion.{c.name}]: no surface {c.surface!r}")
        refs = [("[objective]", name) for term in self.objective for _, name in term.parts]
        for con in self.constraints:
            used = [con.criterion] if con.kind in ("volume_frac", "mass_window_low",
                                                   "mass_window_high") else []
            refs += [(f"[constraint.{con.name}]", name)
                     for name in used + list(con.inlets) + [name for _, name in con.parts]]
        names = {c.name for c in self.criteria}
        for where, name in refs:
            if name not in names:
                raise ConfigurationError(f"{where}: no criterion named {name!r}")

    def build_problem(self):
        return ProblemSpec(criteria=list(self.criteria),
                           objective=list(self.objective),
                           constraints=list(self.constraints))

    def domain_area(self):
        (x0, y0), (x1, y1) = self.extent
        return (x1 - x0) * (y1 - y0)

    def build_level_set_map(self, mesh):
        filt = build_filter(mesh, self.design.filter_radius_h * mesh.h)
        return LevelSetMap(mesh=mesh, filt=filt, ports=list(self.ports))

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
                if _SHAPE_ARITY.get(kind) != len(op) - 1:
                    raise ConfigurationError(f"shape op {kind!r} with {len(op) - 1} numbers "
                                             f"(the ops and their counts: {_SHAPE_ARITY})")
                if kind.endswith("_box"):
                    bx0, by0, bx1, by1 = op[1:]
                    v = np.maximum.reduce([bx0 - xy[:, 0], xy[:, 0] - bx1,
                                           by0 - xy[:, 1], xy[:, 1] - by1])
                else:
                    ccx, ccy, r = op[1:]
                    v = np.hypot(xy[:, 0] - ccx, xy[:, 1] - ccy) - r
                if kind.startswith("fluid"):
                    s = np.minimum(s, v)
                else:
                    s = np.maximum(s, -v)
            s = np.clip(s, dc.lower, dc.upper)
        else:
            raise ConfigurationError(f"unknown initial design kind {dc.initial!r}")

        columns = [(self.ports[i], param) for i, param in port_columns(self.ports)]
        extra = [port.center[port.axis] if param == "center" else port.radius
                 for port, param in columns]
        bounds = [getattr(port, f"{param}_bounds") for port, param in columns]
        lo = np.array([b[0] for b in bounds], dtype=float)
        up = np.array([b[1] for b in bounds], dtype=float)
        return DesignVector(values=np.concatenate([s, np.array(extra, dtype=float)]),
                            lower=np.concatenate([np.full(n, dc.lower), lo]),
                            upper=np.concatenate([np.full(n, dc.upper), up]),
                            n_nodal=n)


# ---------------------------------------------------------------------------
# the key table: parse_config, dump_config and the key checks all read it
# ---------------------------------------------------------------------------

def _finite(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s.strip()!r}")
    return v


def _floats(s):
    return tuple(_finite(v) for v in s.split())


def _bool(s):
    s = s.strip().lower()
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# text -> value by the annotated field type; a tuple is whitespace-separated floats
_READ = {"float": _finite, "int": int, "bool": _bool, "str": str, "tuple": _floats}


@dataclass(frozen=True)
class _Codec:
    """A field stored under keys of its own or in a text form of its own."""

    keys: tuple
    read: Callable  # {key: text} of the keys present -> field value
    write: Callable  # field value -> one value per key


@dataclass(frozen=True)
class _Section:
    """One [name] section, or the [name.<tag>] family when tagged.

    Its keys are the fields of `cls` (built into RunConfig.<attr>; a tagged
    family gives a list, with the tag as the `name` field), then the
    RunConfig fields in `run_fields`. Each field is one key named after it
    unless `codecs` names its codec.
    """

    name: str
    cls: type = None
    attr: str = None
    tagged: bool = False
    required: bool = False
    run_fields: tuple = ()
    codecs: dict = field(default_factory=dict)


def _read_terms(raw):
    objective = []
    for part in raw["terms"].split("|"):
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
        objective.append(ObjectiveTerm(weight=_finite(weight_s), parts=parts))
    return objective


def _write_terms(objective):
    return (" | ".join(
        repr(t.weight) + ": " + " ".join(
            ("-" if coef < 0 else ("+" if j else "")) + name
            for j, (coef, name) in enumerate(t.parts))
        for t in objective),)


def _read_inclusions(raw):
    nx, ny = DesignConfig.inclusions
    return (int(raw.get("inclusions_nx", nx)), int(raw.get("inclusions_ny", ny)))


_SECTIONS = (
    _Section("mesh", required=True, run_fields=("extent", "divisions"), codecs={
        "extent": _Codec(
            ("x0", "y0", "x1", "y1"),
            lambda raw: ((_finite(raw["x0"]), _finite(raw["y0"])),
                         (_finite(raw["x1"]), _finite(raw["y1"]))),
            lambda extent: (*extent[0], *extent[1])),
        "divisions": _Codec(("nx", "ny"),
                            lambda raw: (int(raw["nx"]), int(raw["ny"])), tuple),
    }),
    _Section("flow", FlowParams, "flow", required=True,
             run_fields=("pressure_penalty_scope",)),
    _Section("transport", TransportParams, "transport"),
    _Section("indicator", IndicatorParams, "indicator"),
    _Section("boundary", BoundaryRegion, "regions", tagged=True),
    _Section("design", DesignConfig, "design", required=True, codecs={
        "inclusions": _Codec(("inclusions_nx", "inclusions_ny"), _read_inclusions,
                             tuple),
        "shapes": _Codec(
            ("shapes",),
            lambda raw: [(toks[0], *(_finite(v) for v in toks[1:]))
                         for toks in (p.split() for p in raw["shapes"].split("|"))
                         if toks],
            lambda shapes: (" | ".join(
                " ".join([op[0]] + [repr(float(v)) for v in op[1:]])
                for op in shapes),)),
    }),
    _Section("port", Port, "ports", tagged=True),
    _Section("criterion", CriterionSpec, "criteria", tagged=True),
    _Section("objective", run_fields=("objective",), codecs={
        "objective": _Codec(("terms",), _read_terms, _write_terms),
    }),
    _Section("constraint", ConstraintSpec, "constraints", tagged=True, codecs={
        "inlets": _Codec(("inlets",), lambda raw: tuple(raw["inlets"].split()),
                         lambda inlets: (" ".join(inlets),)),
        "parts": _Codec(
            ("parts",),
            lambda raw: [(_finite(coef), crit.strip()) for coef, crit in
                         (tok.split(":") for tok in raw["parts"].split("|"))],
            lambda parts: (" | ".join(f"{float(coef)!r}: {name}"
                                      for coef, name in parts),)),
    }),
    _Section("gcmma", GcmmaConfig, "gcmma"),
    _Section("solve", SolveConfig, "solve"),
    _Section("output", OutputConfig, "output"),
)


def _keys(spec):
    """(field, belongs to spec.cls, codec) for each field a section stores."""
    run = {f.name: f for f in fields(RunConfig)}
    own = [] if spec.cls is None else [
        (f, True) for f in fields(spec.cls)
        if not (spec.tagged and f.name == "name")]
    return [(f, is_own, spec.codecs.get(f.name) or _plain(f))
            for f, is_own in own + [(run[n], False) for n in spec.run_fields]]


def _plain(f):
    """The codec of a field stored as one key named after it."""
    conv = _READ[f.type]
    return _Codec((f.name,), lambda raw: conv(raw[f.name]), lambda value: (value,))


_KEYS = {spec.name: _keys(spec) for spec in _SECTIONS}


def _section_of(title):
    for spec in _SECTIONS:
        if (title.startswith(spec.name + ".") if spec.tagged else title == spec.name):
            return spec
    raise ConfigurationError(f"unknown section [{title}]")


def _read_section(spec, sec, run):
    """The spec.cls instance read from one section (None without a class).

    Values of RunConfig fields go into `run`.
    """
    own, known, text = {}, set(), dict(sec)
    for f, is_own, codec in _KEYS[spec.name]:
        known.update(codec.keys)
        raw = {k: text[k] for k in codec.keys if k in text}
        if not raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigurationError(
                    f"missing key {codec.keys[0]!r} in [{sec.name}]")
            continue
        try:
            value = codec.read(raw)
        except KeyError as exc:
            raise ConfigurationError(
                f"missing key {exc.args[0]!r} in [{sec.name}]") from exc
        except ValueError as exc:
            raise ConfigurationError(
                f"bad value for {', '.join(map(repr, raw))} in [{sec.name}]: {exc}"
            ) from exc
        (own if is_own else run)[f.name] = value
    unknown = [k for k in text if k not in known]
    if unknown:
        raise ConfigurationError(f"unknown key {unknown[0]!r} in [{sec.name}]")
    if spec.cls is None:
        return None
    if spec.tagged:
        own["name"] = sec.name.split(".", 1)[1]
    try:
        return spec.cls(**own)
    except ValueError as exc:
        raise ConfigurationError(f"[{sec.name}]: {exc}") from exc


def parse_config(path) -> RunConfig:
    """Read a run configuration; any unknown section or key, missing
    required key or bad value raises ConfigurationError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cp.read(path):
            raise ConfigurationError(f"cannot read config file {path}")
        titles = {spec.name: [] for spec in _SECTIONS}
        for title in cp.sections():
            titles[_section_of(title).name].append(title)
        run = {}
        for spec in _SECTIONS:
            found = titles[spec.name]
            if spec.required and not found:
                raise ConfigurationError(f"missing section [{spec.name}]")
            built = [_read_section(spec, cp[t], run) for t in found]
            if spec.cls is not None and found:
                run[spec.attr] = built if spec.tagged else built[0]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"invalid configuration: {exc}") from exc
    return RunConfig(**run)


def _text(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)) and v and isinstance(v[0], (int, float)):
        return " ".join(repr(float(x)) for x in v)
    return str(v)


def dump_config(cfg: RunConfig) -> str:
    """Serialize back to the sectioned text form (round-trips exactly).

    A None or empty-text value is not written; reading it back gives the
    field default. A section with nothing to write is left out.
    """
    out = []
    for spec in _SECTIONS:
        if spec.cls is None:
            items = [(spec.name, cfg)]
        elif spec.tagged:
            items = [(f"{spec.name}.{obj.name}", obj) for obj in getattr(cfg, spec.attr)]
        else:
            items = [(spec.name, getattr(cfg, spec.attr))]
        for title, obj in items:
            if obj is None:
                continue
            lines = []
            for f, is_own, codec in _KEYS[spec.name]:
                values = codec.write(getattr(obj if is_own else cfg, f.name))
                lines += [f"{k} = {_text(v)}" for k, v in zip(codec.keys, values)
                          if v is not None and v != ""]
            if lines:
                out += [f"[{title}]", *lines, ""]
    return "\n".join(out)
