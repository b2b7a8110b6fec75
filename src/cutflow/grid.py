"""Fixed structured background mesh of bilinear quadrilaterals.

The mesh never changes during an optimization run; geometry is immersed
into it through the level set. Nodes and elements are numbered row-major
(x fastest). Element connectivity is counterclockwise starting at the
lower-left corner. Interior facets store their two adjacent elements in
increasing id order together with the shared edge's node pair; the facet
normal points from the lower- to the higher-indexed element, which on
this grid is always +x or +y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class BackgroundMesh:
    """Immutable structured grid of axis-aligned rectangles.

    Attributes:
      extent: ((x0, y0), (x1, y1)) physical bounding box.
      divisions: (mx, my) element counts per axis.
      h: element edge length (isotropic; anisotropic divisions are rejected).
      nodes: (n_nodes, 2) coordinates.
      elements: (n_elems, 4) node ids, counterclockwise.
      facet_elems: (n_facets, 2) adjacent element ids, lower first.
      facet_nodes: (n_facets, 2) node pair of the shared edge.
      facet_normals: (n_facets, 2) unit normal, lower to higher element.
      facet_axis: (n_facets,) 0 for facets normal to x, 1 for normal to y.
      boundary_edges: dict side -> (n_edges, 2) node pairs on that side,
        with the owning element id in boundary_edge_elems. Sides are
        'left', 'right', 'bottom', 'top'.
    """

    extent: tuple
    divisions: tuple
    h: float
    nodes: np.ndarray
    elements: np.ndarray
    facet_elems: np.ndarray
    facet_nodes: np.ndarray
    facet_normals: np.ndarray
    facet_axis: np.ndarray
    boundary_edges: dict = field(repr=False)
    boundary_edge_elems: dict = field(repr=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elems(self):
        return self.elements.shape[0]

    @property
    def n_facets(self):
        return self.facet_elems.shape[0]


def build_mesh(extent, divisions) -> BackgroundMesh:
    """Build the background mesh for a rectangular box.

    extent: ((x0, y0), (x1, y1)); divisions: (mx, my) with mx, my >= 1.
    Raises ConfigurationError for degenerate boxes, nonpositive divisions,
    or anisotropic element sizes (penalty scalings assume one h).
    """
    (x0, y0), (x1, y1) = extent
    mx, my = int(divisions[0]), int(divisions[1])
    if mx < 1 or my < 1:
        raise ConfigurationError(f"divisions must be >= 1 per axis, got {divisions}")
    if not (x1 > x0 and y1 > y0):
        raise ConfigurationError(f"degenerate extent {extent}")
    hx = (x1 - x0) / mx
    hy = (y1 - y0) / my
    if abs(hx - hy) > 1e-9 * max(hx, hy):
        raise ConfigurationError(
            f"anisotropic element size hx={hx:g}, hy={hy:g}; "
            "choose divisions so elements are square"
        )
    h = hx

    nx, ny = mx + 1, my + 1
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * nx + i

    ii, jj = np.meshgrid(np.arange(mx), np.arange(my), indexing="xy")
    ii = ii.ravel()
    jj = jj.ravel()
    elements = np.column_stack(
        [nid(ii, jj), nid(ii + 1, jj), nid(ii + 1, jj + 1), nid(ii, jj + 1)]
    ).astype(np.int64)

    def eid(i, j):
        return j * mx + i

    fe, fn, fnorm, fax = [], [], [], []
    # vertical facets (normal +x): between (i, j) and (i+1, j)
    for j in range(my):
        for i in range(mx - 1):
            fe.append((eid(i, j), eid(i + 1, j)))
            fn.append((nid(i + 1, j), nid(i + 1, j + 1)))
            fnorm.append((1.0, 0.0))
            fax.append(0)
    # horizontal facets (normal +y): between (i, j) and (i, j+1)
    for j in range(my - 1):
        for i in range(mx):
            fe.append((eid(i, j), eid(i, j + 1)))
            fn.append((nid(i, j + 1), nid(i + 1, j + 1)))
            fnorm.append((0.0, 1.0))
            fax.append(1)

    def _edges(side):
        if side == "left":
            return [(nid(0, j), nid(0, j + 1)) for j in range(my)], [eid(0, j) for j in range(my)]
        if side == "right":
            return [(nid(mx, j), nid(mx, j + 1)) for j in range(my)], [
                eid(mx - 1, j) for j in range(my)
            ]
        if side == "bottom":
            return [(nid(i, 0), nid(i + 1, 0)) for i in range(mx)], [eid(i, 0) for i in range(mx)]
        return [(nid(i, my), nid(i + 1, my)) for i in range(mx)], [
            eid(i, my - 1) for i in range(mx)
        ]

    boundary_edges, boundary_edge_elems = {}, {}
    for side in ("left", "right", "bottom", "top"):
        edges, owners = _edges(side)
        boundary_edges[side] = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        boundary_edge_elems[side] = np.asarray(owners, dtype=np.int64)

    mesh = BackgroundMesh(
        extent=((float(x0), float(y0)), (float(x1), float(y1))),
        divisions=(mx, my),
        h=float(h),
        nodes=nodes,
        elements=elements,
        facet_elems=np.asarray(fe, dtype=np.int64).reshape(-1, 2),
        facet_nodes=np.asarray(fn, dtype=np.int64).reshape(-1, 2),
        facet_normals=np.asarray(fnorm, dtype=np.float64).reshape(-1, 2),
        facet_axis=np.asarray(fax, dtype=np.int64),
        boundary_edges=boundary_edges,
        boundary_edge_elems=boundary_edge_elems,
    )
    for arr in (mesh.nodes, mesh.elements, mesh.facet_elems, mesh.facet_nodes,
                mesh.facet_normals, mesh.facet_axis):
        arr.setflags(write=False)
    return mesh

