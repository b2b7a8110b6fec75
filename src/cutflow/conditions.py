"""Tagged boundary regions and their prescribed data.

Each external boundary face of the fluid domain carries exactly one
condition: a velocity Dirichlet region (walls, inflow profiles), a
traction region (outlets; traction-free by default), or a symmetry
region (zero normal velocity, free tangential traction). A symmetry region
is the velocity condition projected on its normal, so its velocity data is
not read (forms.prescribed, forms.projector). Regions marked as ports
additionally pin the connectivity-indicator field to zero and may
prescribe a species concentration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grid import EDGE_NORMALS, SIDE_EDGE


@dataclass
class BoundaryRegion:
    """One tagged span of a mesh side with its boundary condition."""

    name: str
    side: str
    kind: str  # 'velocity' | 'traction' | 'symmetry'
    span: tuple = None  # physical interval along the face axis; None = whole side
    profile: str = "uniform"  # velocity regions: 'uniform' | 'parabola'
    velocity: tuple = (0.0, 0.0)  # uniform velocity data
    amplitude: float = 0.0  # parabola peak speed, directed along the inward normal
    traction: tuple = (0.0, 0.0)
    frequency: float = 0.0  # >0: multiply velocity data by sin(frequency * t)
    port: bool = False  # indicator Dirichlet (psi = 0) on this region
    species_value: float = None  # species Dirichlet c-hat, if any

    def __post_init__(self):
        if self.side not in SIDE_EDGE:
            raise ConfigurationError(f"unknown side {self.side!r} in region {self.name!r}")
        if self.kind not in ("velocity", "traction", "symmetry"):
            raise ConfigurationError(f"unknown condition kind {self.kind!r}")
        if self.profile not in ("uniform", "parabola"):
            raise ConfigurationError(f"unknown profile {self.profile!r}")
        for key in ("span", "velocity", "traction"):
            value = getattr(self, key)
            if value is not None and len(value) != 2:
                raise ConfigurationError(f"{key} of region {self.name!r} needs 2 numbers, "
                                         f"got {value!r}")
        if self.kind == "velocity" and self.profile == "parabola" and self.span is None:
            raise ConfigurationError(
                f"parabola profile in region {self.name!r} requires an explicit span"
            )

    def _modulation(self, t):
        return np.sin(self.frequency * t) if self.frequency > 0.0 else 1.0

    def velocity_at(self, x, t=0.0):
        """Prescribed velocity of a velocity region at points x (nq, 2) and
        time t."""
        x = np.atleast_2d(x)
        nq = x.shape[0]
        mod = self._modulation(t)
        if self.profile == "uniform":
            return np.tile(np.asarray(self.velocity, dtype=float) * mod, (nq, 1))
        edge = SIDE_EDGE[self.side]
        lo, hi = self.span
        center = 0.5 * (lo + hi)
        width = hi - lo
        s = x[:, edge % 2]
        shape = 1.0 - (2.0 * (s - center) / width) ** 2
        shape = np.maximum(shape, 0.0)
        n_in = 0.0 - EDGE_NORMALS[edge]  # not -normal, which has signed zeros
        return (self.amplitude * mod) * shape[:, None] * n_in[None, :]

    def traction_at(self, x, t=0.0):
        x = np.atleast_2d(x)
        return np.tile(np.asarray(self.traction, dtype=float) * self._modulation(t),
                       (x.shape[0], 1))


def _side_spans(mesh, regions, side):
    """(start, end) of a side along its axis and the sorted spans of its regions."""
    axis = SIDE_EDGE[side] % 2
    (x0, y0), (x1, y1) = mesh.extent
    lo_all, hi_all = (x0, y0)[axis], (x1, y1)[axis]
    return lo_all, hi_all, sorted(r.span if r.span is not None else (lo_all, hi_all)
                                  for r in regions if r.side == side)


def validate_regions(mesh, regions):
    """Region names are unique, and every point of every side falls in
    exactly one region."""
    seen = set()
    for r in regions:
        if r.name in seen:
            raise ConfigurationError(f"two boundary regions are named {r.name!r} "
                                     "(generated walls are named wall_<side>_<count>)")
        seen.add(r.name)
    for side in SIDE_EDGE:
        cursor, hi_all, spans = _side_spans(mesh, regions, side)
        for (lo, hi) in spans:
            if lo < cursor - 1e-12:
                raise ConfigurationError(f"overlapping boundary regions on side {side}")
            if lo > cursor + 1e-12:
                raise ConfigurationError(f"uncovered boundary on side {side} near {cursor}")
            cursor = hi
        if cursor < hi_all - 1e-12:
            raise ConfigurationError(f"uncovered boundary on side {side} near {cursor}")
        if cursor > hi_all + 1e-12:
            raise ConfigurationError(f"boundary region past the end of side {side} "
                                     f"at {hi_all}")


def wall_regions(mesh, tagged):
    """Fill every untagged stretch of the boundary with no-slip walls, named
    wall_<side>_<count>."""
    out = list(tagged)
    count = 0
    for side in SIDE_EDGE:
        cursor, hi_all, spans = _side_spans(mesh, tagged, side)
        for (lo, hi) in spans + [(hi_all, hi_all)]:
            if lo > cursor + 1e-12:
                out.append(BoundaryRegion(
                    name=f"wall_{side}_{count}", side=side,
                    kind="velocity", span=(cursor, lo),
                ))
                count += 1
            cursor = max(cursor, hi)
    return out
