"""Intersection of the level set with the background mesh.

Cut elements are split into single-phase triangle subcells with straight
interface chords (edge crossings from the linear trace of the bilinear
level set along each edge, so an edge is crossed at most once). The 16
cut patterns are fixed, so, as in marching squares, their layouts are a
table built at import; one routine, `decompose_cells`, splits any batch of
cells at once by gathering from it, and the cut model and the
sensitivities' local re-cuts both use it. Fluid regions that are
disconnected inside a node's support get separate enrichment levels so
their interpolations never couple; regions and levels are connected
components of the fluid pieces' facet contacts. Ghost facets are the
interior facets next to the interface used by the face-oriented penalty
terms.

`CutModel` holds all of this as flat arrays: one piece table for cut and
uncut elements alike (an uncut fluid element is one full piece), the cut
pieces' triangles, covers and chords as `decompose_cells` returns them,
the ghost pairs, and the (node, level) of every scalar dof. This module
holds classification, decomposition, enrichment and ghost pairs only;
quadrature lives in `forms`.

Conventions: phase -1 is fluid, +1 is solid; interface normals point
toward the solid (phi increasing); element corners and edges follow the
table in `grid`; a boundary cover's parameters run along its edge's axis
(x or y), so on edges 2 and 3 they are 1 - t of the crossing parameter t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import CapacityError
from .grid import CORNERS, EDGE_CORNERS, FACET_EDGES, BackgroundMesh

FLUID, SOLID, CUT = -1, 1, 0

MAX_ENRICHMENT_LEVELS = 8  # audited 2D bound; overflow raises CapacityError
SLIVER_REL_AREA = 1e-12  # subcells below this x h^2 carry no quadrature


def classify_elements(mesh: BackgroundMesh, phi) -> np.ndarray:
    """Per-element FLUID / SOLID / CUT from corner level set signs."""
    phi = np.asarray(phi, dtype=float)
    corner_phi = phi[mesh.elements]  # (n_elems, 4)
    if np.any(corner_phi == 0.0):
        raise RuntimeError("zero nodal level set value: perturbation contract violated")
    neg = corner_phi < 0.0
    out = np.full(mesh.n_elems, CUT, dtype=np.int64)
    out[np.all(neg, axis=1)] = FLUID
    out[np.all(~neg, axis=1)] = SOLID
    return out


def cell_patterns(phi4s):
    """Cut pattern of each cell from its corner values (m, 4).

    The pattern is the corner sign code (bit k set when corner k is
    solid), plus 16 for a saddle whose bilinear centre value is positive.
    It fixes the pieces, their phases and the chords of the cell.
    """
    phi4s = np.asarray(phi4s, dtype=float).reshape(-1, 4)
    code = (phi4s > 0.0) @ np.array([1, 2, 4, 8])
    saddle = (code == 5) | (code == 10)
    return code + 16 * (saddle & (phi4s.mean(axis=1) > 0.0))


def _corner_coords(origins, h):
    """(m, 4, 2) corners of the cells with lower-left corners origins (m, 2)."""
    return origins[:, None] + CORNERS * h


def _layout_table():
    """Layouts of the cut patterns (see cell_patterns) as arrays indexed by
    pattern, built once at import.

    The walk visits the corners counterclockwise from the lower left and
    inserts the crossing of every edge whose ends differ in sign: walk
    vertex k is corner k and 4 + k the crossing on edge k. Rows are padded
    with vertex 8, the point 0, and covers with the parameter 0, so padded
    triangles, covers and chords have zero size. A saddle keeps the centre's phase in one piece and cuts
    the other two corners off as triangles; an uncut pattern is one whole
    piece. Returns, per pattern:
      phase (32, 3): each local piece's phase, 0 where there is none;
      refs, succ (32, 3, 6): its polygon in walk order, and each vertex's
        successor around it;
      tris (32, 3, 4, 3): its fan triangles, from its first crossing;
      covers (32, 3, 4, 3): its (edge, a, b) boundary spans, a and b
        indexing the edge parameters [0, 1, t_4 .. t_7] (corner c sits at
        0 on edge c and at 1 on edge c - 1);
      chords (32, 2, 3): (ref, ref, local index of the fluid piece).
    """
    phase = np.zeros((32, 3), dtype=np.int64)
    refs, succ = np.full((2, 32, 3, 6), 8)
    tris, covers = np.full((32, 3, 4, 3), 8), np.zeros((32, 3, 4, 3), dtype=np.int64)
    chords = np.full((32, 2, 3), 8)
    on = [{0, 3}, {0, 1}, {1, 2}, {2, 3}, {0}, {1}, {2}, {3}]  # edges of each vertex
    for pattern in [*range(16), 21, 26]:
        code = pattern % 16
        signs = [1 if code >> k & 1 else -1 for k in range(4)]
        walk = []
        for k in range(4):
            walk.append(k)
            if signs[k] != signs[(k + 1) % 4]:
                walk.append(4 + k)
        polys, segs = [(signs[0], walk)], []
        if code in (5, 10):
            center = 1 if pattern >= 16 else -1
            polys = [(center, [ref for ref in walk if ref >= 4 or signs[ref] == center])]
            for c in range(4):
                if signs[c] != center:
                    i = walk.index(c)
                    tri = [walk[i - 1], c, walk[(i + 1) % len(walk)]]
                    segs.append((tri[0], tri[2], len(polys) if signs[c] < 0 else 0))
                    polys.append((signs[c], tri))
        elif code not in (0, 15):
            p1, p2 = [i for i, ref in enumerate(walk) if ref >= 4]
            polys = [(next(signs[ref] for ref in poly if ref < 4), poly)
                     for poly in (walk[p1:p2 + 1], walk[p2:] + walk[:p1 + 1])]
            segs.append((walk[p1], walk[p2], 0 if polys[0][0] < 0 else 1))
        chords[pattern, :len(segs)] = np.reshape(segs, (-1, 3))
        for j, (sign, poly) in enumerate(polys):
            k, nxt = len(poly), poly[1:] + poly[:1]
            lead = next((i for i, ref in enumerate(poly) if ref >= 4), 0)
            fan = poly[lead:] + poly[:lead]
            spans = [((on[a] & on[b]).pop(), a, b) for a, b in zip(poly, nxt) if on[a] & on[b]]
            phase[pattern, j] = FLUID if sign < 0 else SOLID
            refs[pattern, j, :k], succ[pattern, j, :k] = poly, nxt
            tris[pattern, j, :k - 2] = [(fan[0], fan[i], fan[i + 1]) for i in range(1, k - 1)]
            covers[pattern, j, :len(spans)] = [
                (e, *(ref - 2 if ref >= 4 else int(e != ref) for ref in (a, b)))
                for e, a, b in spans]
    return phase, refs, succ, tris, covers, chords


_PHASE, _REFS, _SUCC, _TRIS, _COVERS, _CHORDS = _layout_table()


@dataclass
class CellCuts:
    """Pieces, interface chords and edge covers of a batch of cut cells.

    Piece rows are ordered by cell, then by their local index within the
    cell; triangles and cover intervals point at piece rows and chords at
    cells, each in the same per-cell order.
    """

    cell: np.ndarray  # (P,) batch row of each piece
    local: np.ndarray  # (P,) index of the piece within its cell
    phase: np.ndarray  # (P,) FLUID / SOLID
    area: np.ndarray  # (P,)
    polygon: np.ndarray  # (P, 6, 2) CCW vertices, padded after n_vert
    n_vert: np.ndarray  # (P,)
    tri_piece: np.ndarray  # (T,) piece row of each fan triangle; slivers have none
    triangles: np.ndarray  # (T, 3, 2)
    cover_piece: np.ndarray  # (C,) piece row of each boundary interval
    cover_edge: np.ndarray  # (C,) local edge id
    cover_t: np.ndarray  # (C, 2) t0 < t1 along the edge's axis (x on edges 0, 2; y on 1, 3)
    seg_cell: np.ndarray  # (S,) batch row of each interface chord
    seg_piece: np.ndarray  # (S,) local index of the chord's fluid piece
    seg_a: np.ndarray  # (S, 2)
    seg_b: np.ndarray  # (S, 2)
    seg_normal: np.ndarray  # (S, 2) unit, toward solid
    seg_length: np.ndarray  # (S,)

    @property
    def seg_row(self):
        """(S,) piece row of each chord's fluid piece."""
        return np.searchsorted(self.cell, self.seg_cell) + self.seg_piece


def concat_ranges(start, count):
    """Concatenated aranges start[i] .. start[i] + count[i] - 1."""
    offset = np.repeat(np.cumsum(count) - count, count)
    return np.repeat(start, count) + np.arange(offset.shape[0]) - offset


def decompose_cells(phi4s, origins, h):
    """Split cut cells into single-phase pieces and interface chords at once.

    phi4s (m, 4) are corner values with mixed signs and origins (m, 2) the
    cells' lower-left corners. Every cell reads its pieces, triangles,
    covers and chords from its pattern's row of the layout table in one
    gather; edge k is crossed at t = phi_k / (phi_k - phi_k+1). Pieces below
    SLIVER_REL_AREA * h^2 get no triangles, covers shorter than 1e-14 and
    chords shorter than 1e-14 h are dropped. Returns a CellCuts.
    """
    phi4s = np.asarray(phi4s, dtype=float).reshape(-1, 4)
    origins = np.asarray(origins, dtype=float).reshape(-1, 2)
    patterns = cell_patterns(phi4s)
    if np.any((patterns == 0) | (patterns == 15)):
        raise ValueError("decompose_cells called on an uncut cell")
    m = phi4s.shape[0]
    corners = _corner_coords(origins, h)
    nxt = np.roll(phi4s, -1, axis=1)
    cross = (phi4s > 0.0) != (nxt > 0.0)
    tk = np.minimum(np.maximum(np.divide(phi4s, phi4s - nxt, out=np.zeros_like(phi4s),
                                         where=cross), 0.0), 1.0)
    t = np.concatenate([np.zeros((m, 1)), np.ones((m, 1)), tk], axis=1)  # cover params
    # walk vertices; those of uncrossed edges are never referenced
    verts = np.concatenate([corners, np.zeros((m, 5, 2))], axis=1)
    verts[:, 4:8] = corners + tk[:, :, None] * (np.roll(corners, -1, axis=1) - corners)
    cell = np.arange(m)[:, None, None]

    # gather each cell's row of the table; np.nonzero over a (cell, local,
    # slot) grid gives (cell, local) order, and padded covers and chords
    # have zero length, so the length tests drop them
    x, y = verts[..., 0], verts[..., 1]
    refs, succ = _REFS[patterns], _SUCC[patterns]
    area = 0.5 * np.sum(x[cell, refs] * y[cell, succ] - x[cell, succ] * y[cell, refs], axis=-1)
    present = _PHASE[patterns] != 0
    piece = np.cumsum(present).reshape(m, 3) - 1  # piece row of each (cell, local)
    c, j = np.nonzero(present)
    tris = _TRIS[patterns]
    ct, jt, it = np.nonzero((tris[..., 0] < 8) & ~(area < SLIVER_REL_AREA * h * h)[..., None])
    cov = _COVERS[patterns]
    ta, tb = t[cell, cov[..., 1]], t[cell, cov[..., 2]]
    lo, hi = np.minimum(ta, tb), np.maximum(ta, tb)
    cc, jc, ic = np.nonzero(hi - lo > 1e-14)
    lo, hi, edge = lo[cc, jc, ic], hi[cc, jc, ic], cov[cc, jc, ic, 0]
    flip = edge >= 2  # edges 2 and 3 run against their axis
    lo, hi = np.where(flip, 1 - hi, lo), np.where(flip, 1 - lo, hi)
    chords = _CHORDS[patterns]
    a, b = verts[cell[..., 0], chords[..., 0]], verts[cell[..., 0], chords[..., 1]]
    d = b - a
    length = np.hypot(d[..., 0], d[..., 1])
    cs, i = np.nonzero(~(length < 1e-14 * h))
    a, b, d, length = a[cs, i], b[cs, i], d[cs, i], length[cs, i]
    normal = np.stack([d[:, 1], -d[:, 0]], axis=1) / length[:, None]
    # orient toward the solid: along the bilinear gradient at the midpoint
    mid = 0.5 * (a + b)
    xi = (mid[:, 0] - origins[cs, 0]) / h
    eta = (mid[:, 1] - origins[cs, 1]) / h
    p = phi4s[cs]
    gx = ((1 - eta) * (p[:, 1] - p[:, 0]) + eta * (p[:, 2] - p[:, 3])) / h
    gy = ((1 - xi) * (p[:, 3] - p[:, 0]) + xi * (p[:, 2] - p[:, 1])) / h
    flip = normal[:, 0] * gx + normal[:, 1] * gy < 0.0
    normal[flip] = -normal[flip]
    return CellCuts(
        cell=c, local=j, phase=_PHASE[patterns[c], j], area=area[c, j],
        polygon=verts[c[:, None], refs[c, j]], n_vert=np.count_nonzero(refs[c, j] < 8, axis=1),
        tri_piece=piece[ct, jt], triangles=verts[ct[:, None], tris[ct, jt, it]],
        cover_piece=piece[cc, jc], cover_edge=edge, cover_t=np.stack([lo, hi], axis=1),
        seg_cell=cs, seg_piece=chords[cs, i, 2], seg_a=a, seg_b=b, seg_normal=normal,
        seg_length=length)


def fluid_covers(cuts, piece_full):
    """Boundary intervals (table row, local edge, edge parameters t (k, 2)) of
    the fluid cut pieces, then the four whole edges of every full piece."""
    full = np.flatnonzero(piece_full)
    cov = np.flatnonzero(cuts.phase[cuts.cover_piece] == FLUID)
    return (np.concatenate([np.flatnonzero(~piece_full)[cuts.cover_piece[cov]],
                            np.repeat(full, 4)]),
            np.concatenate([cuts.cover_edge[cov], np.tile(np.arange(4), full.shape[0])]),
            np.concatenate([cuts.cover_t[cov], np.tile([0.0, 1.0], (4 * full.shape[0], 1))]))


@dataclass
class CutModel:
    """Classification, pieces, enrichment and ghost pairs for one geometry.

    The piece table has a row per single-phase piece in (element, local
    piece) order: one full piece per uncut fluid element, the fluid and solid
    pieces of a cut element's pattern. The cut rows are the rows of `cuts`,
    in order, which holds their triangles, edge covers and chords. Scalar
    dofs are numbered by node, then enrichment level.
    """

    mesh: BackgroundMesh
    phi: np.ndarray
    classification: np.ndarray  # (n_elems,) FLUID / SOLID / CUT
    piece_elem: np.ndarray  # (P,) element of each piece
    piece_phase: np.ndarray  # (P,) FLUID / SOLID
    piece_full: np.ndarray  # (P,) covers its whole (uncut) element
    piece_area: np.ndarray  # (P,)
    piece_dofs: np.ndarray  # (P, 4) scalar dof per corner, -1 on solid pieces
    piece_region: np.ndarray  # (P,) fluid region, -1 on solid pieces
    cuts: CellCuts  # cell c is the c-th cut element
    ghost_facets: np.ndarray  # facet ids in Xi
    pair_facet: np.ndarray  # (G,) ghost pairs, by facet, then region
    pair_dofs: np.ndarray  # (G, 2, 4) corner dofs on the lower, upper element
    n_dofs: int
    dof_node: np.ndarray  # (n_dofs,) node of each scalar dof
    dof_level: np.ndarray  # (n_dofs,) enrichment level of each scalar dof
    n_regions: int

    @property
    def cut_rows(self):
        """Table row of each piece row of cuts."""
        return np.flatnonzero(~self.piece_full)

    def dof_table(self):
        """(n_nodes, MAX_ENRICHMENT_LEVELS) dof of each (node, level), -1 if none."""
        table = np.full((self.mesh.n_nodes, MAX_ENRICHMENT_LEVELS), -1, dtype=np.int64)
        table[self.dof_node, self.dof_level] = np.arange(self.n_dofs)
        return table

    def triangles(self):
        """Every piece's triangles as (row, (T, 3, 2)) in table order; a full
        piece is its square split along the diagonal from corner 0."""
        full = np.flatnonzero(self.piece_full)
        corners = self.mesh.nodes[self.mesh.elements[self.piece_elem[full], 0]]
        squares = _corner_coords(corners, self.mesh.h)[:, _TRIS[0, 0, :2]]
        row = np.concatenate([np.repeat(full, 2), self.cut_rows[self.cuts.tri_piece]])
        order = np.argsort(row, kind="stable")
        return row[order], np.concatenate([squares.reshape(-1, 3, 2),
                                           self.cuts.triangles])[order]

    def fluid_volume(self):
        return float(self.piece_area[self.piece_phase == FLUID].sum())

    def surface_length(self):
        return float(self.cuts.seg_length.sum())


def build_cut_model(mesh: BackgroundMesh, phi) -> CutModel:
    """Classify, decompose and enrich for a level set field."""
    phi = np.asarray(phi, dtype=float)
    classification = classify_elements(mesh, phi)
    h = mesh.h

    cut_elems = np.nonzero(classification == CUT)[0]
    cuts = decompose_cells(phi[mesh.elements[cut_elems]],
                           mesh.nodes[mesh.elements[cut_elems, 0]], h)
    fluid_elems = np.nonzero(classification == FLUID)[0]
    n_full = fluid_elems.shape[0]
    # the piece table: the cut pieces, merged by element with one full piece
    # per uncut fluid element
    order = np.argsort(np.concatenate([cut_elems[cuts.cell], fluid_elems]), kind="stable")

    def table(cut_column, full_column):
        return np.concatenate([cut_column, full_column])[order]

    piece_elem = table(cut_elems[cuts.cell], fluid_elems)
    piece_phase = table(cuts.phase, np.full(n_full, FLUID))
    piece_full = table(np.zeros(cuts.phase.shape[0], dtype=bool), np.ones(n_full, dtype=bool))
    piece_area = table(cuts.area, np.full(n_full, h * h))

    # ---- fluid regions and enrichment levels ----------------------------------
    # fluid pieces touch across a facet when their boundary intervals on it
    # overlap; regions are the connected pieces, and a node gets one
    # enrichment level per connected set of the pieces in its support
    fluid = np.flatnonzero(piece_phase == FLUID)
    row, edge, t = fluid_covers(cuts, piece_full)
    lid = (np.cumsum(piece_phase == FLUID) - 1)[row]  # rank among the fluid pieces
    start = mesh.nodes[mesh.elements[piece_elem[row], 0], edge % 2]
    lo, hi = start + t[:, 0] * h, start + t[:, 1] * h
    # pair the intervals on each facet's edges on its lower and upper element
    key = 4 * piece_elem[row] + edge
    order = np.argsort(key, kind="stable")
    facet_edges = FACET_EDGES[mesh.facet_axis]
    sides = list((4 * mesh.facet_elems + facet_edges).T)
    first = [np.searchsorted(key[order], s) for s in sides]
    count = [np.searchsorted(key[order], s, side="right") - f for s, f in zip(sides, first)]
    pairs = count[0] * count[1]
    facet = np.repeat(np.arange(mesh.n_facets), pairs)
    q = np.arange(facet.shape[0]) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    i = order[first[0][facet] + q // count[1][facet]]
    j = order[first[1][facet] + q % count[1][facet]]
    touch = np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j]) > 1e-12 * h
    a, b, facet = lid[i][touch], lid[j][touch], facet[touch]

    def components(n, u, v):
        graph = sp.coo_matrix((np.ones(u.shape[0]), (u, v)), shape=(n, n))
        return connected_components(graph, directed=False)

    n_regions, region = components(fluid.shape[0], a, b)
    # support graph: vertex 4 lid + c is piece lid seen from its corner c;
    # a facet's two nodes are the corners of its lower and of its upper
    # element's edge, in the same order
    shared = EDGE_CORNERS[facet_edges[facet]]  # (facet, lower / upper, node)
    n_dofs, comp = components(4 * fluid.shape[0],
                              (4 * a[:, None] + shared[:, 0]).ravel(),
                              (4 * b[:, None] + shared[:, 1]).ravel())
    comp_node = np.zeros(n_dofs, dtype=np.int64)
    comp_node[comp] = mesh.elements[piece_elem[fluid]].ravel()
    # dofs by node, then level: the levels of a node follow its smallest piece
    by_node = np.argsort(comp_node, kind="stable")
    dof = np.argsort(by_node)  # the inverse permutation
    levels_at = np.bincount(comp_node, minlength=mesh.n_nodes)
    over = np.nonzero(levels_at > MAX_ENRICHMENT_LEVELS)[0]
    if over.size:
        raise CapacityError(f"node {over[0]} needs {levels_at[over[0]]} enrichment "
                            f"levels (cap {MAX_ENRICHMENT_LEVELS})", node=int(over[0]))
    dof_node = comp_node[by_node]
    dof_level = np.arange(n_dofs) - (np.cumsum(levels_at) - levels_at)[dof_node]
    piece_dofs = np.full((piece_elem.shape[0], 4), -1, dtype=np.int64)
    piece_dofs[fluid] = dof[comp].reshape(-1, 4)
    piece_region = np.full(piece_elem.shape[0], -1, dtype=np.int64)
    piece_region[fluid] = region

    # ---- ghost facets and pairs ----------------------------------------------
    # interior facets next to a cut element with fluid on both sides; per
    # region with fluid on both sides of a facet, a pair takes on each side
    # the piece of that region whose vertex mean is nearest the facet
    # midpoint (ties: the lower local index)
    cls = classification[mesh.facet_elems]
    ghost_facets = np.nonzero(np.any(cls == CUT, axis=1) & np.all(cls != SOLID, axis=1))[0]
    side_elem = mesh.facet_elems[ghost_facets].ravel()  # slot 2 k + side
    first = np.searchsorted(piece_elem, side_elem)
    count = np.searchsorted(piece_elem, side_elem, side="right") - first
    slot = np.repeat(np.arange(side_elem.shape[0]), count)
    row = concat_ranges(first, count)
    keep = piece_phase[row] == FLUID
    slot, row = slot[keep], row[keep]
    pair = slot // 2 * n_regions + piece_region[row]  # (facet, region)
    # an uncut element has one piece, so only cut pieces need a distance
    dist = np.zeros(row.shape[0])
    cut = np.flatnonzero(~piece_full[row])
    p = (np.cumsum(~piece_full) - 1)[row[cut]]
    ends = mesh.facet_nodes[ghost_facets[slot[cut] // 2]]
    d = (cuts.polygon[p].sum(axis=1) / cuts.n_vert[p, None]
         - 0.5 * (mesh.nodes[ends[:, 0]] + mesh.nodes[ends[:, 1]]))
    dist[cut] = np.sqrt((d[:, None] @ d[:, :, None]).ravel())  # as np.linalg.norm
    best = np.lexsort((row, dist, slot % 2, pair))
    win = best[np.unique((2 * pair + slot % 2)[best], return_index=True)[1]]
    both = np.flatnonzero(pair[win[1:]] == pair[win[:-1]])  # sides 0 and 1
    lower, upper = win[both], win[both + 1]
    return CutModel(
        mesh=mesh, phi=phi, classification=classification, piece_elem=piece_elem,
        piece_phase=piece_phase, piece_full=piece_full, piece_area=piece_area,
        piece_dofs=piece_dofs, piece_region=piece_region, cuts=cuts,
        ghost_facets=ghost_facets, pair_facet=ghost_facets[slot[lower] // 2],
        pair_dofs=np.stack([piece_dofs[row[lower]], piece_dofs[row[upper]]], axis=1),
        n_dofs=n_dofs, dof_node=dof_node, dof_level=dof_level, n_regions=n_regions)
