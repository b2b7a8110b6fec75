"""Fixed structured background mesh of bilinear quadrilaterals.

The mesh never changes during an optimization run; geometry is immersed
into it through the level set. Nodes and elements are numbered row-major
(x fastest). Interior facets store their two adjacent elements in
increasing id order together with the shared edge's node pair; the facet
normal points from the lower- to the higher-indexed element, which on
this grid is always +x or +y.

This module owns the local convention that cut, forms, conditions and
design read. Element corners run counterclockwise from the lower left
(CORNERS); edge e runs from corner e to corner e + 1 and lies along axis
e % 2. EDGE_CORNERS lists an edge's corners in order along its axis (so
edges 2 and 3 run against the corner order) and EDGE_NORMALS holds its
outward normal. A facet normal to axis a is edge FACET_EDGES[a] of its
(lower, upper) element. Each box side is one element edge (SIDE_EDGE),
in the order left, right, bottom, top; a side's axis, the one its
coordinate runs along, is its edge % 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# (x, y) of each element corner on the unit square, counterclockwise
CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
# the corners of each element edge, in order along the edge's axis
EDGE_CORNERS = np.array([[0, 1], [1, 2], [3, 2], [0, 3]])
# the outward unit normal of each element edge
EDGE_NORMALS = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
# the edges of a facet normal to axis a on its (lower, upper) element
FACET_EDGES = np.array([[1, 3], [2, 0]])
# the element edge that lies on each box side, in side order
SIDE_EDGE = {"left": 3, "right": 1, "bottom": 0, "top": 2}
for _table in (CORNERS, EDGE_CORNERS, EDGE_NORMALS, FACET_EDGES):
    _table.setflags(write=False)


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

    # each element is its lower-left node plus the corner offsets
    lower_left = (np.arange(my)[:, None] * nx + np.arange(mx)).ravel()
    elements = lower_left[:, None] + CORNERS @ np.array([1, nx])
    # element ids as a (row, column) grid; facets normal to x, then to y,
    # each pairing an element with its neighbour one step along the axis
    ids = np.arange(mx * my).reshape(my, mx)
    lower = np.concatenate([ids[:, :-1].ravel(), ids[:-1].ravel()])
    facet_axis = np.repeat([0, 1], [my * (mx - 1), (my - 1) * mx])
    facet_elems = np.column_stack([lower, lower + np.array([1, mx])[facet_axis]])
    lower_edge = FACET_EDGES[facet_axis, 0]
    # a side's owners are the first (lower side) or last (upper side) row or
    # column of elements across it
    boundary_edge_elems = {
        side: np.take(ids, -1 if EDGE_NORMALS[e].sum() > 0 else 0, axis=e % 2)
        for side, e in SIDE_EDGE.items()}
    boundary_edges = {side: elements[boundary_edge_elems[side]][:, EDGE_CORNERS[e]]
                      for side, e in SIDE_EDGE.items()}

    mesh = BackgroundMesh(
        extent=((float(x0), float(y0)), (float(x1), float(y1))),
        divisions=(mx, my),
        h=float(h),
        nodes=nodes,
        elements=elements,
        facet_elems=facet_elems,
        facet_nodes=elements[lower[:, None], EDGE_CORNERS[lower_edge]],
        facet_normals=EDGE_NORMALS[lower_edge],
        facet_axis=facet_axis,
        boundary_edges=boundary_edges,
        boundary_edge_elems=boundary_edge_elems,
    )
    for arr in (mesh.nodes, mesh.elements, mesh.facet_elems, mesh.facet_nodes,
                mesh.facet_normals, mesh.facet_axis):
        arr.setflags(write=False)
    return mesh

