"""Design map: optimization variables to nodal level set values.

The nodal block of the design vector is smoothed by a linear filter W.
Movable ports override the filtered field in a thin slab next to their
boundary face, combined through a row-wise Kreisselmeier-Steinhauser
minimum so port parameters stay differentiable. Sign convention: phi > 0
solid, phi < 0 fluid. Nodal values inside (-phi_s, +phi_s), phi_s a
fixed fraction of h, are shifted away from zero so the interface never
sits exactly on a node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .grid import EDGE_NORMALS, SIDE_EDGE, BackgroundMesh

# Shift applied to near-zero nodal values, as a fraction of h.
PERTURBATION_FRACTION = 1e-6
# KS sharpness of the port override, times h.
KS_SHARPNESS = 100.0


@dataclass
class Port:
    """Movable fluid port, built from a [port.<tag>] section.

    Its level set is |x[a] - center[a]| - radius along the face's in-face
    axis a, negative (fluid) inside the port; it overrides the filtered
    field in a slab slab_elements >= 1 element layers deep from the face. The
    optimize_* flags make the in-face centre coordinate and the radius
    design variables, within their bounds.
    """

    name: str
    face: str
    center: tuple
    radius: float
    slab_elements: int = 2
    optimize_center: bool = False
    optimize_radius: bool = False
    center_bounds: tuple = None
    radius_bounds: tuple = None

    def __post_init__(self):
        if self.face not in SIDE_EDGE:
            raise ConfigurationError(
                f"port face {self.face!r} unknown (one of {', '.join(SIDE_EDGE)})")
        if len(self.center) != 2:
            raise ConfigurationError(
                f"port center needs 2 coordinates, got {self.center!r}")
        if self.radius <= 0:
            raise ConfigurationError(f"port radius must be positive, got {self.radius}")
        if self.slab_elements < 1:
            raise ConfigurationError(
                f"port slab_elements must be at least 1, got {self.slab_elements}")
        for param in ("center", "radius"):
            bounds = getattr(self, f"{param}_bounds")
            if getattr(self, f"optimize_{param}") and (
                    bounds is None or len(bounds) != 2 or bounds[0] > bounds[1]):
                raise ConfigurationError(
                    f"optimize_{param} requires {param}_bounds = lo hi "
                    f"with lo <= hi, got {bounds!r}")

    @property
    def axis(self):
        """The in-face axis: the coordinate the port centre moves along."""
        return SIDE_EDGE[self.face] % 2


def port_columns(ports):
    """(port index, 'center' or 'radius') of each design entry past the
    nodal block, in order: each port's optimized centre, then radius."""
    return [(i, param) for i, port in enumerate(ports)
            for param in ("center", "radius") if getattr(port, f"optimize_{param}")]


def port_distances(ports, params, x):
    """(d, v) of each port at the points x, shaped (points, ports).

    The port centres and radii take the design's trailing entries params
    (in port_columns order). d is x[a] - center[a] along the port's
    in-face axis a, and v = |d| - radius the port's level set.
    """
    centers = np.array([port.center for port in ports], dtype=float)
    radii = np.array([port.radius for port in ports], dtype=float)
    for value, (i, param) in zip(params, port_columns(ports)):
        if param == "center":
            centers[i, ports[i].axis] = value
        else:
            radii[i] = max(value, 1e-12)
    axes = [port.axis for port in ports]
    d = x[:, axes] - centers[np.arange(len(ports)), axes]
    return d, np.abs(d) - radii


def ks_min(values, beta):
    """Row-wise smooth minimum of a 2D array and its softmin weights.

    Returns (ks, weights): ks[i] = -(1/beta) ln sum_j exp(-beta v_ij), and
    weights[i, j] = d(ks[i])/d(v_ij), nonnegative and summing to one per row.
    """
    m = values.min(axis=1, keepdims=True)
    e = np.exp(-beta * (values - m))
    total = e.sum(axis=1, keepdims=True)
    return (m - np.log(total) / beta).ravel(), e / total


@dataclass
class DesignVector:
    """Optimization variables: a nodal block, then the port parameters."""

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_nodal: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if np.any(self.lower > self.upper):
            raise ConfigurationError("design bounds crossed (lower > upper)")

    @property
    def n(self):
        return self.values.shape[0]

    def nodal(self):
        return self.values[: self.n_nodal]

    def clipped(self, values):
        return np.minimum(np.maximum(values, self.lower), self.upper)


def build_filter(mesh: BackgroundMesh, radius) -> sp.csr_matrix:
    """Truncated-cone linear filter W, w_ij = max(0, r - |x_i - x_j|),
    row-normalized. Its index order is the level set's summation order."""
    if radius <= 0:
        raise ConfigurationError(f"filter radius must be positive, got {radius}")
    nodes = mesh.nodes
    n = nodes.shape[0]
    mx, my = mesh.divisions
    nx = mx + 1
    h = mesh.h
    reach = int(np.floor(radius / h - 1e-12))  # neighbors within the cone

    rows, cols, vals = [], [], []
    offs = [
        (di, dj)
        for dj in range(-reach, reach + 1)
        for di in range(-reach, reach + 1)
        if di * di + dj * dj < (radius / h) ** 2
    ]
    node_i = np.arange(n) % nx
    node_j = np.arange(n) // nx
    for di, dj in offs:
        oi = node_i + di
        oj = node_j + dj
        ok = (oi >= 0) & (oi < nx) & (oj >= 0) & (oj < my + 1)
        src = np.nonzero(ok)[0]
        dst = oj[ok] * nx + oi[ok]
        w = radius - h * np.hypot(di, dj)
        rows.append(src)
        cols.append(dst)
        vals.append(np.full(src.shape[0], w))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    rowsum = np.asarray(W.sum(axis=1)).ravel()
    W = sp.diags(1.0 / rowsum) @ W
    return W.tocsr()


@dataclass
class LevelSetMap:
    """Design vector -> nodal level set: W s, the port override, the zero shift."""

    mesh: BackgroundMesh
    filt: sp.csr_matrix
    ports: list

    def __post_init__(self):
        self._slab = self._slab_nodes()

    def _slab_nodes(self):
        """Node ids inside any port's override slab, ascending."""
        low, high = self.mesh.extent
        h = self.mesh.h
        nodes = self.mesh.nodes
        mask = np.zeros(nodes.shape[0], dtype=bool)
        for port in self.ports:
            depth = port.slab_elements * h + 1e-12 * h
            a = 1 - port.axis  # the face normal's axis
            if EDGE_NORMALS[SIDE_EDGE[port.face], a] < 0:
                mask |= nodes[:, a] <= low[a] + depth
            else:
                mask |= nodes[:, a] >= high[a] - depth
        return np.nonzero(mask)[0]

    def _port_distances(self, design):
        return port_distances(self.ports, design.values[design.n_nodal:],
                              self.mesh.nodes[self._slab])

    def build(self, design: DesignVector) -> np.ndarray:
        """Nodal phi: filter, port override, zero-value perturbation."""
        phi = self.filt @ design.nodal()
        if self.ports:
            phi[self._slab] = ks_min(self._port_distances(design)[1],
                                     KS_SHARPNESS / self.mesh.h)[0]
        band = PERTURBATION_FRACTION * self.mesh.h
        small = np.abs(phi) < band
        # exact zeros resolve to the solid side
        phi[small] = np.where(phi[small] >= 0.0, band, -band)
        return phi

    def jacobian(self, design: DesignVector) -> sp.csr_matrix:
        """Exact d(phi)/d(s) as CSR, the perturbation treated as identity.

        Rows off the port slab are W's rows, in W's index order; slab rows
        hold only the KS partials with respect to the port parameters (the
        override discards the filtered value there).
        """
        W = self.filt
        on_slab = np.zeros(W.shape[0], dtype=bool)
        on_slab[self._slab] = True
        cols = port_columns(self.ports)
        part = np.zeros((self._slab.shape[0], len(cols)))
        if cols:
            d, v = self._port_distances(design)
            wts = ks_min(v, KS_SHARPNESS / self.mesh.h)[1]
            for k, (i, param) in enumerate(cols):
                part[:, k] = (-np.sign(d[:, i]) if param == "center" else -1.0) * wts[:, i]
        # a zero partial (an underflowed softmin weight, a node on the centre
        # line) leaves no entry
        nz = part != 0.0
        # each row takes all its entries from one source: W off the slab,
        # the port block on it
        counts = np.diff(W.indptr)
        keep = np.repeat(~on_slab, counts)
        counts[self._slab] = nz.sum(axis=1)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        from_slab = np.repeat(on_slab, counts)
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=W.indices.dtype)
        data[~from_slab], indices[~from_slab] = W.data[keep], W.indices[keep]
        data[from_slab], indices[from_slab] = part[nz], design.n_nodal + np.nonzero(nz)[1]
        return sp.csr_matrix((data, indices, indptr), shape=(W.shape[0], design.n))
