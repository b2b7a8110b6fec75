"""Design parametrization of the level set field.

Optimization variables map to nodal level set values through a linear
smoothing filter; movable port primitives override the filtered field in
a thin slab next to their boundary face, combined through a smooth
Kreisselmeier-Steinhauser minimum so port parameters stay differentiable.
Sign convention: phi > 0 solid, phi < 0 fluid. Nodal values inside
(-phi_s, +phi_s) are shifted away from zero so the interface never sits
exactly on a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigurationError
from .grid import BackgroundMesh

# Shift applied to near-zero nodal values, as a fraction of h.
PERTURBATION_FRACTION = 1e-6


@dataclass(frozen=True)
class FilterOperator:
    """Row-normalized truncated-cone smoothing weights."""

    weights: sp.csr_matrix
    radius: float


@dataclass
class PortPrimitive:
    """Movable fluid port: a slab |local_x1| <= radius next to a boundary face.

    The local frame is x_local = rotation @ (x - center); the first d-1
    local coordinates are "in-plane", the last points along the port axis
    (the face normal) and is ignored by the signed distance. 'face' names
    the mesh side the port opens on; the override slab extends
    slab_elements element layers inward from that side.
    """

    center: np.ndarray
    radius: float
    rotation: np.ndarray = None
    face: str = ""
    slab_elements: int = 2

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        d = self.center.shape[0]
        if self.rotation is None:
            self.rotation = np.eye(d)
        self.rotation = np.asarray(self.rotation, dtype=float)
        if self.radius <= 0:
            raise ConfigurationError(f"port radius must be positive, got {self.radius}")
        if not np.allclose(self.rotation @ self.rotation.T, np.eye(d), atol=1e-12):
            raise ConfigurationError("port rotation must be orthonormal")


@dataclass
class DesignVector:
    """Optimization variables: a nodal block plus port parameter blocks."""

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_nodal: int
    # list of (port_index, param_index) for each entry past the nodal block,
    # param_index 0/1 = center coords, 2 = radius
    port_layout: list = field(default_factory=list)

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


@dataclass(frozen=True)
class LevelSetField:
    """Nodal level set values with the perturbation constants used."""

    phi: np.ndarray
    phi_c: float
    phi_s: float


def build_filter(mesh: BackgroundMesh, radius) -> FilterOperator:
    """Truncated-cone linear filter w_ij = max(0, r - |x_i - x_j|), row-normalized."""
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
    return FilterOperator(weights=W.tocsr(), radius=float(radius))


def apply_filter(filt: FilterOperator, s_nodal) -> np.ndarray:
    """Filtered nodal values, phi_i = sum_j w_ij s_j."""
    s_nodal = np.asarray(s_nodal, dtype=float)
    if s_nodal.shape[0] != filt.weights.shape[1]:
        raise ValueError(
            f"nodal design length {s_nodal.shape[0]} != node count {filt.weights.shape[1]}"
        )
    return filt.weights @ s_nodal


def port_signed_distance(port: PortPrimitive, x) -> np.ndarray:
    """Signed distance-like port value: negative (fluid) inside the port slab.

    Computes ||in-plane local coords|| - radius; the axial local coordinate
    is ignored.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    local = (x - port.center) @ port.rotation.T
    inplane = local[:, :-1] if local.shape[1] > 1 else local
    r = np.linalg.norm(inplane, axis=1)
    out = r - port.radius
    return out if out.shape[0] > 1 else out[0]


def ks_min(values, beta) -> float:
    """Smooth minimum -(1/beta) ln sum exp(-beta v_j), exact for one value."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("ks_min of an empty sequence")
    if beta <= 0:
        raise ValueError(f"ks_min sharpness must be positive, got {beta}")
    return float(_ks_min_rows(values[None, :], beta)[0][0])


def _ks_min_rows(values, beta):
    """Row-wise smooth minimum of a 2D array and its softmin weights.

    Returns (ks, weights): ks[i] = -(1/beta) ln sum_j exp(-beta v_ij), and
    weights[i, j] = d(ks[i])/d(v_ij), nonnegative and summing to one per row.
    """
    m = values.min(axis=1, keepdims=True)
    e = np.exp(-beta * (values - m))
    total = e.sum(axis=1, keepdims=True)
    return (m - np.log(total) / beta).ravel(), e / total


@dataclass
class LevelSetMap:
    """Composed map from the design vector to nodal level set values."""

    mesh: BackgroundMesh
    filt: FilterOperator
    ports: list
    ks_beta: float = None  # default 100/h, set in __post_init__

    def __post_init__(self):
        if self.ks_beta is None:
            self.ks_beta = 100.0 / self.mesh.h
        self._port_nodes = self._collect_port_nodes()

    def _collect_port_nodes(self):
        """Node ids inside any port's override slab."""
        if not self.ports:
            return np.zeros(0, dtype=np.int64)
        (x0, y0), (x1, y1) = self.mesh.extent
        h = self.mesh.h
        nodes = self.mesh.nodes
        mask = np.zeros(nodes.shape[0], dtype=bool)
        for port in self.ports:
            depth = port.slab_elements * h + 1e-12 * h
            if port.face == "left":
                mask |= nodes[:, 0] <= x0 + depth
            elif port.face == "right":
                mask |= nodes[:, 0] >= x1 - depth
            elif port.face == "bottom":
                mask |= nodes[:, 1] <= y0 + depth
            elif port.face == "top":
                mask |= nodes[:, 1] >= y1 - depth
            else:
                raise ConfigurationError(f"port face {port.face!r} unknown")
        return np.nonzero(mask)[0].astype(np.int64)

    def build(self, design: DesignVector) -> LevelSetField:
        """Assemble nodal phi: filter, port override, zero-value perturbation."""
        phi = apply_filter(self.filt, design.nodal())
        self._apply_port_values(design, phi)
        h = self.mesh.h
        phi_c = phi_s = PERTURBATION_FRACTION * h
        small = np.abs(phi) < phi_c
        # exact zeros resolve to the solid side
        phi[small] = np.where(phi[small] >= 0.0, phi_s, -phi_s)
        return LevelSetField(phi=phi, phi_c=phi_c, phi_s=phi_s)

    def _apply_port_values(self, design, phi):
        if not self.ports:
            return
        ports = self._ports_with_params(design)
        xs = self.mesh.nodes[self._port_nodes]
        vals = np.column_stack([port_signed_distance(p, xs) for p in ports])
        phi[self._port_nodes] = _ks_min_rows(vals, self.ks_beta)[0]

    def _ports_with_params(self, design):
        """Ports with optimization-variable parameters substituted in."""
        ports = []
        updated = {}
        for k, (pi, param) in enumerate(design.port_layout):
            updated.setdefault(pi, {})[param] = design.values[design.n_nodal + k]
        for pi, port in enumerate(self.ports):
            if pi not in updated:
                ports.append(port)
                continue
            center = port.center.copy()
            radius = port.radius
            for param, val in updated[pi].items():
                if param == 2:
                    radius = max(val, 1e-12)
                else:
                    center[param] = val
            ports.append(
                PortPrimitive(
                    center=center,
                    radius=radius,
                    rotation=port.rotation,
                    face=port.face,
                    slab_elements=port.slab_elements,
                )
            )
        return ports

    def jacobian(self, design: DesignVector) -> sp.csr_matrix:
        """Exact d(phi)/d(s), perturbation treated as identity.

        Nodal block rows are filter rows; port-slab rows carry KS softmin
        partials w.r.t. the flagged port parameters and zero nodal
        sensitivity (the override discards the filtered value there).
        """
        n_nodes = self.mesh.n_nodes
        # tolil sorts the indices of the matrix it converts in place; a copy
        # keeps the filter's summation order, so a design's level set is the
        # same before and after a Jacobian (a restart depends on it)
        J = self.filt.weights.copy().tolil()
        if self.ports:
            J[self._port_nodes, :] = 0.0
        J = sp.hstack(
            [J.tocsr(), sp.csr_matrix((n_nodes, design.n - design.n_nodal))]
        ).tolil()
        if self.ports:
            ports = self._ports_with_params(design)
            xs = self.mesh.nodes[self._port_nodes]
            vals = np.column_stack([port_signed_distance(p, xs) for p in ports])
            wts = _ks_min_rows(vals, self.ks_beta)[1]  # (n_slab_nodes, n_ports)
            for k, (pi, param) in enumerate(design.port_layout):
                port = ports[pi]
                col = design.n_nodal + k
                local = (xs - port.center) @ port.rotation.T
                inplane = local[:, :-1]
                r = np.linalg.norm(inplane, axis=1)
                r = np.maximum(r, 1e-300)
                if param == 2:
                    dv = -np.ones_like(r)
                else:
                    # d||inplane||/d(center_param): chain through local coords
                    dv = -(inplane / r[:, None]) @ port.rotation[:-1, param]
                J[self._port_nodes, col] = wts[:, pi] * dv
        return J.tocsr()
