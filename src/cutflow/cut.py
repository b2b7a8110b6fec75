"""Intersection of the level set with the background mesh.

Cut elements are split into single-phase triangle subcells with straight
interface chords (edge crossings from the linear trace of the bilinear
level set along each edge, so an edge is crossed at most once). Fluid
regions that are disconnected inside a node's support get separate
enrichment levels so their interpolations never couple. Ghost facets are
the interior facets next to the interface used by the face-oriented
penalty terms. This module holds classification, decomposition,
enrichment and ghost pairs only; quadrature lives in `forms`.

Conventions: phase -1 is fluid, +1 is solid; interface normals point
toward the solid (phi increasing); element corners are counterclockwise
from the lower-left, edge k runs from corner k to corner k+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .grid import BackgroundMesh

FLUID, SOLID, CUT = -1, 1, 0

MAX_ENRICHMENT_LEVELS = 8  # audited 2D bound; overflow raises CapacityError
SLIVER_REL_AREA = 1e-12  # subcells below this x h^2 carry no quadrature


@dataclass
class Piece:
    """Single-phase polygon inside one element."""

    phase: int
    polygon: np.ndarray  # (k, 2) physical vertices, CCW
    triangles: np.ndarray  # (m, 3, 2); empty for dropped slivers
    edge_cover: list  # list of (edge_id, t0, t1) boundary intervals
    area: float
    full: bool = False  # covers the whole (uncut) element
    levels: np.ndarray = None  # (4,) enrichment level per corner node
    region: int = -1  # global fluid component id
    dofs: np.ndarray = None  # (4,) scalar-space dof per corner


@dataclass
class Segment:
    """Straight interface chord inside one element."""

    element: int
    a: np.ndarray
    b: np.ndarray
    normal: np.ndarray  # unit, toward solid
    piece: int  # local index of adjacent fluid piece
    length: float


@dataclass
class GhostPair:
    """One facet-region pairing for the ghost penalties."""

    facet: int
    elems: tuple  # (e1, e2), lower id first
    dofs1: np.ndarray  # (4,) scalar dofs on side 1
    dofs2: np.ndarray
    region: int


@dataclass
class CutModel:
    """Classification, subcells, enrichment and ghost pairs for one geometry."""

    mesh: BackgroundMesh
    phi: np.ndarray
    classification: np.ndarray  # (n_elems,) FLUID / SOLID / CUT
    pieces: dict  # element -> list[Piece] (fluid and solid pieces)
    segments: list  # list[Segment]
    ghost_facets: np.ndarray  # facet ids in Xi
    ghost_pairs: list  # list[GhostPair]
    n_dofs: int
    node_levels: dict  # node -> number of enrichment levels
    dof_of: dict  # (node, level) -> scalar dof id
    n_regions: int

    def fluid_volume(self):
        return sum(
            p.area for plist in self.pieces.values() for p in plist if p.phase == FLUID
        )

    def surface_length(self):
        return sum(s.length for s in self.segments)


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


def _corner_coords(origin, h):
    x0, y0 = origin
    return np.array(
        [[x0, y0], [x0 + h, y0], [x0 + h, y0 + h], [x0, y0 + h]], dtype=float
    )


def _polygon_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _fan_triangulate(poly_pts, first_cross_idx):
    """Fan triangulation, rotated so a crossing vertex (if any) leads."""
    pts = np.asarray(poly_pts, dtype=float)
    if first_cross_idx is not None and first_cross_idx != 0:
        pts = np.roll(pts, -first_cross_idx, axis=0)
    tris = np.stack(
        [np.stack([pts[0], pts[i], pts[i + 1]]) for i in range(1, len(pts) - 1)]
    )
    return pts, tris


def _grad_bilinear(phi4, origin, h, x):
    """Gradient of the bilinear interpolant at physical point x."""
    xi = (x[0] - origin[0]) / h
    eta = (x[1] - origin[1]) / h
    dxi = np.array([-(1 - eta), (1 - eta), eta, -eta])
    deta = np.array([-(1 - xi), -xi, xi, (1 - xi)])
    return np.array([dxi @ phi4 / h, deta @ phi4 / h])


def _build_piece(vert_pts, vert_edges, vert_kinds, phase, h):
    """Assemble a Piece from walk vertices with edge metadata."""
    pts = np.asarray(vert_pts, dtype=float)
    area = _polygon_area(pts)
    cover = []
    nvert = len(pts)
    for i in range(nvert):
        j = (i + 1) % nvert
        shared = vert_edges[i] & vert_edges[j]
        if shared:
            k = shared.pop()
            t_i = vert_edges_param(vert_kinds[i], vert_edges[i], k)
            t_j = vert_edges_param(vert_kinds[j], vert_edges[j], k)
            lo, hi = min(t_i, t_j), max(t_i, t_j)
            if hi - lo > 1e-14:
                cover.append((k, lo, hi))
    first_cross = None
    for i, kind in enumerate(vert_kinds):
        if kind[0] == "cross":
            first_cross = i
            break
    _, tris = _fan_triangulate(pts, first_cross)
    if area < SLIVER_REL_AREA * h * h:
        tris = np.zeros((0, 3, 2))
    return Piece(
        phase=phase,
        polygon=pts,
        triangles=tris,
        edge_cover=cover,
        area=float(area),
    )


def vert_edges_param(kind, edges, edge_id):
    """Edge parameter t for a walk vertex on the given edge."""
    tag, val = kind
    if tag == "cross":
        return val
    # corner c lies at t=0 on edge c and t=1 on edge (c-1) mod 4
    corner = val
    return 0.0 if edge_id == corner else 1.0


def decompose_cell(phi4, origin, h, element=-1):
    """Split one cut element into single-phase pieces plus interface chords.

    Returns (pieces, segments). Requires mixed corner signs. The saddle
    case (alternating signs) is resolved by the bilinear value at the
    element center: the crossings are paired so the center keeps its phase.
    """
    phi4 = np.asarray(phi4, dtype=float)
    P = _corner_coords(origin, h)
    sign = np.where(phi4 > 0.0, 1, -1)
    if np.all(sign < 0) or np.all(sign > 0):
        raise ValueError("decompose_cell called on an uncut element")

    saddle = sign[0] == sign[2] and sign[1] == sign[3] and sign[0] != sign[1]

    # boundary walk with crossings inserted
    verts, edges_of, kinds = [], [], []
    cross_pos = []
    for k in range(4):
        verts.append(P[k])
        edges_of.append({k, (k - 1) % 4})
        kinds.append(("corner", k))
        k2 = (k + 1) % 4
        if sign[k] != sign[k2]:
            t = phi4[k] / (phi4[k] - phi4[k2])
            t = min(max(t, 0.0), 1.0)
            verts.append(P[k] + t * (P[k2] - P[k]))
            edges_of.append({k})
            kinds.append(("cross", t))
            cross_pos.append(len(verts) - 1)

    pieces, segments = [], []

    def add_segment(a, b, fluid_piece_idx):
        d = b - a
        length = float(np.hypot(d[0], d[1]))
        if length < 1e-14 * h:
            return
        n = np.array([d[1], -d[0]]) / length
        mid = 0.5 * (a + b)
        if n @ _grad_bilinear(phi4, origin, h, mid) < 0.0:
            n = -n
        segments.append(
            Segment(element=element, a=a.copy(), b=b.copy(), normal=n,
                    piece=fluid_piece_idx, length=length)
        )

    if not saddle:
        p1, p2 = cross_pos
        nv = len(verts)
        idx_a = list(range(p1, p2 + 1))
        idx_b = list(range(p2, nv)) + list(range(0, p1 + 1))
        for idx in (idx_a, idx_b):
            corner_sign = next(sign[kinds[i][1]] for i in idx if kinds[i][0] == "corner")
            pieces.append(
                _build_piece(
                    [verts[i] for i in idx],
                    [set(edges_of[i]) for i in idx],
                    [kinds[i] for i in idx],
                    FLUID if corner_sign < 0 else SOLID,
                    h,
                )
            )
        fluid_idx = 0 if pieces[0].phase == FLUID else 1
        add_segment(verts[p1], verts[p2], fluid_idx)
    else:
        center_sign = 1 if phi4.mean() > 0.0 else -1
        # corners sharing the center's sign stay in the big piece
        keep = [c for c in range(4) if sign[c] == center_sign]
        cut_off = [c for c in range(4) if sign[c] != center_sign]
        nv = len(verts)  # 8: corner, cross alternating

        def walk_index(kind, val):
            for i, (tag, v) in enumerate(kinds):
                if tag == kind and (tag == "corner" and v == val):
                    return i
            raise AssertionError

        big_idx = []
        for i in range(nv):
            tag, v = kinds[i]
            if tag == "cross" or v in keep:
                big_idx.append(i)
        pieces.append(
            _build_piece(
                [verts[i] for i in big_idx],
                [set(edges_of[i]) for i in big_idx],
                [kinds[i] for i in big_idx],
                FLUID if center_sign < 0 else SOLID,
                h,
            )
        )
        tri_first = len(pieces)
        for c in cut_off:
            ci = walk_index("corner", c)
            prev_i = (ci - 1) % nv
            next_i = (ci + 1) % nv
            idx = [prev_i, ci, next_i]
            pieces.append(
                _build_piece(
                    [verts[i] for i in idx],
                    [set(edges_of[i]) for i in idx],
                    [kinds[i] for i in idx],
                    FLUID if sign[c] < 0 else SOLID,
                    h,
                )
            )
        # chords cut off the minority corners; adjacent fluid side depends on phase
        for j, c in enumerate(cut_off):
            ci = walk_index("corner", c)
            a, b = verts[(ci - 1) % nv], verts[(ci + 1) % nv]
            fluid_idx = (tri_first + j) if sign[c] < 0 else 0
            add_segment(np.asarray(a), np.asarray(b), fluid_idx)

    return pieces, segments


def _full_piece(origin, h):
    pts = _corner_coords(origin, h)
    tris = np.stack([np.stack([pts[0], pts[1], pts[2]]), np.stack([pts[0], pts[2], pts[3]])])
    return Piece(
        phase=FLUID,
        polygon=pts,
        triangles=tris,
        edge_cover=[(0, 0.0, 1.0), (1, 0.0, 1.0), (2, 0.0, 1.0), (3, 0.0, 1.0)],
        area=h * h,
        full=True,
    )


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


# local edge seen from each side of a facet: (axis, lower side edge, upper side edge)
_FACET_EDGES = {0: (1, 3), 1: (2, 0)}  # axis 0: right/left, axis 1: top/bottom


def _edge_interval_physical(mesh, e, local_edge, t0, t1):
    """Physical coordinate range along the facet axis for an edge interval."""
    origin = mesh.element_origin(e)
    h = mesh.h
    # edge 0: bottom, +x; edge 1: right, +y; edge 2: top, -x; edge 3: left, -y
    if local_edge == 0:
        lo, hi = origin[0] + t0 * h, origin[0] + t1 * h
    elif local_edge == 1:
        lo, hi = origin[1] + t0 * h, origin[1] + t1 * h
    elif local_edge == 2:
        lo, hi = origin[0] + (1 - t1) * h, origin[0] + (1 - t0) * h
    else:
        lo, hi = origin[1] + (1 - t1) * h, origin[1] + (1 - t0) * h
    return lo, hi


def _piece_facet_intervals(mesh, e, piece, local_edge):
    out = []
    for (k, t0, t1) in piece.edge_cover:
        if k == local_edge:
            out.append(_edge_interval_physical(mesh, e, k, t0, t1))
    return out


def build_cut_model(mesh: BackgroundMesh, phi) -> CutModel:
    """Classify, decompose and enrich for a level set field."""
    phi = np.asarray(phi, dtype=float)
    classification = classify_elements(mesh, phi)
    h = mesh.h

    pieces = {}
    segments = []
    for e in range(mesh.n_elems):
        if classification[e] == SOLID:
            continue
        origin = mesh.element_origin(e)
        if classification[e] == FLUID:
            pieces[e] = [_full_piece(origin, h)]
        else:
            phi4 = phi[mesh.elements[e]]
            plist, segs = decompose_cell(phi4, origin, h, element=e)
            pieces[e] = plist
            segments.extend(segs)

    # ---- fluid piece adjacency across facets ---------------------------------
    piece_ids = {}  # (element, piece_idx) -> linear id
    for e, plist in pieces.items():
        for pi, p in enumerate(plist):
            if p.phase == FLUID:
                piece_ids[(e, pi)] = len(piece_ids)
    uf_global = _UnionFind(len(piece_ids))
    adjacency = [[] for _ in range(len(piece_ids))]  # linear id -> neighbor ids

    tol = 1e-12 * h
    for f in range(mesh.n_facets):
        e1, e2 = mesh.facet_elems[f]
        if e1 not in pieces or e2 not in pieces:
            continue
        axis = mesh.facet_axis[f]
        edge1, edge2 = _FACET_EDGES[int(axis)]
        for pi1, p1 in enumerate(pieces[e1]):
            if p1.phase != FLUID:
                continue
            iv1 = _piece_facet_intervals(mesh, e1, p1, edge1)
            if not iv1:
                continue
            for pi2, p2 in enumerate(pieces[e2]):
                if p2.phase != FLUID:
                    continue
                iv2 = _piece_facet_intervals(mesh, e2, p2, edge2)
                overlap = 0.0
                for (a0, a1) in iv1:
                    for (b0, b1) in iv2:
                        overlap = max(overlap, min(a1, b1) - max(a0, b0))
                if overlap > tol:
                    ia = piece_ids[(e1, pi1)]
                    ib = piece_ids[(e2, pi2)]
                    uf_global.union(ia, ib)
                    adjacency[ia].append(ib)
                    adjacency[ib].append(ia)

    # global fluid regions
    roots = {}
    for key, lid in piece_ids.items():
        r = uf_global.find(lid)
        roots.setdefault(r, len(roots))
    for (e, pi), lid in piece_ids.items():
        pieces[e][pi].region = roots[uf_global.find(lid)]
    n_regions = len(roots)

    # ---- per-node support components -> enrichment levels --------------------
    id_list = list(piece_ids.keys())
    node_levels = {}
    dof_of = {}
    mx, my = mesh.divisions
    nx = mx + 1

    # collect fluid pieces per node support
    support_pieces = {}  # node -> list of linear piece ids
    for (e, pi), lid in piece_ids.items():
        for node in mesh.elements[e]:
            support_pieces.setdefault(int(node), []).append(lid)

    level_of = {}  # (node, linear piece id) -> level
    for node, plids in sorted(support_pieces.items()):
        plset = set(plids)
        uf = _UnionFind(len(plids))
        index = {lid: i for i, lid in enumerate(plids)}
        for lid in plids:
            for nb in adjacency[lid]:
                if nb in plset:
                    uf.union(index[lid], index[nb])
        comp_key = {}
        for lid in plids:
            root = uf.find(index[lid])
            comp_key.setdefault(root, min(
                id_list[l] for l in plids if uf.find(index[l]) == root
            ))
        ordered = sorted(set(comp_key.values()))
        comp_level = {key: lvl for lvl, key in enumerate(ordered)}
        if len(ordered) > MAX_ENRICHMENT_LEVELS:
            raise CapacityError(
                f"node {node} needs {len(ordered)} enrichment levels "
                f"(cap {MAX_ENRICHMENT_LEVELS})",
                node=node,
            )
        node_levels[node] = len(ordered)
        for lid in plids:
            level_of[(node, lid)] = comp_level[comp_key[uf.find(index[lid])]]

    n_dofs = 0
    for node in sorted(node_levels):
        for lvl in range(node_levels[node]):
            dof_of[(node, lvl)] = n_dofs
            n_dofs += 1

    for (e, pi), lid in piece_ids.items():
        p = pieces[e][pi]
        levels = np.zeros(4, dtype=np.int64)
        dofs = np.zeros(4, dtype=np.int64)
        for c, node in enumerate(mesh.elements[e]):
            lvl = level_of[(int(node), lid)]
            levels[c] = lvl
            dofs[c] = dof_of[(int(node), lvl)]
        p.levels = levels
        p.dofs = dofs

    # ---- ghost facets and pairs ----------------------------------------------
    ghost_facets = []
    ghost_pairs = []
    is_cut = classification == CUT
    for f in range(mesh.n_facets):
        e1, e2 = (int(v) for v in mesh.facet_elems[f])
        if not (is_cut[e1] or is_cut[e2]):
            continue
        if e1 not in pieces or e2 not in pieces:
            continue
        fl1 = [(pi, p) for pi, p in enumerate(pieces[e1]) if p.phase == FLUID]
        fl2 = [(pi, p) for pi, p in enumerate(pieces[e2]) if p.phase == FLUID]
        if not fl1 or not fl2:
            continue
        ghost_facets.append(f)
        n1, n2 = mesh.facet_nodes[f]
        fmid = 0.5 * (mesh.nodes[n1] + mesh.nodes[n2])
        regions = sorted({p.region for _, p in fl1} & {p.region for _, p in fl2})
        for g in regions:
            def closest(flist):
                cands = [(np.linalg.norm(p.polygon.mean(axis=0) - fmid), pi, p)
                         for pi, p in flist if p.region == g]
                cands.sort(key=lambda t: (t[0], t[1]))
                return cands[0][2]
            p1 = closest(fl1)
            p2 = closest(fl2)
            ghost_pairs.append(
                GhostPair(facet=f, elems=(e1, e2), dofs1=p1.dofs, dofs2=p2.dofs, region=g)
            )

    return CutModel(
        mesh=mesh,
        phi=phi,
        classification=classification,
        pieces=pieces,
        segments=segments,
        ghost_facets=np.asarray(ghost_facets, dtype=np.int64),
        ghost_pairs=ghost_pairs,
        n_dofs=n_dofs,
        node_levels=node_levels,
        dof_of=dof_of,
        n_regions=n_regions,
    )
