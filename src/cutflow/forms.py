"""Shape functions, quadrature rules and batched integration contexts.

Everything is bilinear Q1 on axis-aligned squares, so basis values at
arbitrary physical points reduce to closed forms; the same expressions
extend an element's polynomial beyond its own square, which is what the
ghost-penalty jumps integrate. An IntegrationContext packages quadrature
points, basis tables and scalar-space dof maps for one geometry so the
flow/species/indicator assemblers stay data-driven.

This is the only module that knows a quadrature rule: uncut fluid
elements take the tensor 2x2 Gauss rule, subcell triangles the 3-point
edge-midpoint rule, and interface chords, boundary edge covers and ghost
facets the 2-point Gauss rule. One routine, `_assemble_context`, turns
quadrature rows, chords and ghost pairs into a context. `build_context`
feeds it the whole cut model; `element_context` feeds it a batch of
elements re-cut at perturbed corner values by one `decompose_cells` call,
with the enrichment frozen: one stacked context in which each re-cut owns
a disjoint block of dofs, which backs the semi-analytic geometric
sensitivities. At the stored level set an element's rows are bitwise the
global context's rows of that element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cut import FLUID, CutModel, cell_patterns, decompose_cells

# Gauss points on [0,1]
_G2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
# tensor 2x2 Gauss points on the unit square, x fastest
_G2X2 = np.array([[gx, gy] for gy in _G2 for gx in _G2])

_EDGE_OF_SIDE = {"bottom": 0, "right": 1, "top": 2, "left": 3}
_SIDE_NORMAL = {
    "left": np.array([-1.0, 0.0]),
    "right": np.array([1.0, 0.0]),
    "bottom": np.array([0.0, -1.0]),
    "top": np.array([0.0, 1.0]),
}
_SIDE_AXIS = {"left": 1, "right": 1, "bottom": 0, "top": 0}


def shape_q1(mesh, elems, x):
    """N, dN/dx, dN/dy, d2N/dxdy of the 4 corner bases at physical points.

    Valid also outside the element (polynomial extension).
    """
    x = np.atleast_2d(x)
    origin = mesh.nodes[mesh.elements[elems, 0]]
    h = mesh.h
    xi = (x[:, 0] - origin[:, 0]) / h
    eta = (x[:, 1] - origin[:, 1]) / h
    one = np.ones_like(xi)
    N = np.stack([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta], axis=1)
    gx = np.stack([-(1 - eta), (1 - eta), eta, -eta], axis=1) / h
    gy = np.stack([-(1 - xi), -xi, xi, (1 - xi)], axis=1) / h
    d2 = np.stack([one, -one, one, -one], axis=1) / (h * h)
    return N, gx, gy, d2


def triangle_rule(tris):
    """Edge-midpoint rule (degree 2) on a batch of triangles.

    tris is (m, 3, 2); returns (3m, 2) points and (3m,) weights, three
    per triangle in order.
    """
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    area = 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
        - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )
    mids = np.stack([(a + b) / 2, (b + c) / 2, (c + a) / 2], axis=1)  # (m,3,2)
    return mids.reshape(-1, 2), np.repeat(area / 3.0, 3)


def segment_rule(a, b):
    """2-point Gauss rule on a batch of straight segments a[i]-b[i].

    a and b are (k, 2); returns (2k, 2) points and (2k,) weights (physical
    measure), two per segment in order.
    """
    d = b - a
    length = np.hypot(d[:, 0], d[:, 1])
    t = np.array(_G2)
    pts = a[:, None, :] + t[None, :, None] * d[:, None, :]
    return pts.reshape(-1, 2), np.repeat(length / 2, 2)


@dataclass
class SurfaceBlock:
    """Batched surface quadrature with basis tables (boundary or interface)."""

    x: np.ndarray
    w: np.ndarray
    elem: np.ndarray
    dofs: np.ndarray
    normal: np.ndarray
    N: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    region: object = None  # BoundaryRegion for external blocks

    @property
    def nq(self):
        return self.w.shape[0]


@dataclass
class GhostBlock:
    """Full-facet jump quadrature for the face-oriented penalties."""

    w: np.ndarray  # (nq,)
    x: np.ndarray
    normal: np.ndarray  # (nq, 2)
    dofs1: np.ndarray  # (nq, 4)
    dofs2: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    gn1: np.ndarray  # (nq, 4) normal gradient of side-1 bases
    gn2: np.ndarray

    @property
    def nq(self):
        return self.w.shape[0]


@dataclass
class IntegrationContext:
    """All quadrature/basis data one geometry needs for assembly."""

    mesh: object
    n: int  # scalar dofs in this context's numbering
    scalar_ids: np.ndarray  # local -> global scalar dof (identity for global ctx)
    h: float
    # fluid volume
    vol_x: np.ndarray = None
    vol_w: np.ndarray = None
    vol_elem: np.ndarray = None
    vol_dofs: np.ndarray = None
    vol_N: np.ndarray = None
    vol_gx: np.ndarray = None
    vol_gy: np.ndarray = None
    vol_d2: np.ndarray = None
    interface: SurfaceBlock = None
    boundary: list = field(default_factory=list)  # list[SurfaceBlock]
    ghost: GhostBlock = None
    owner: np.ndarray = None  # stacked re-cut contexts: local dof -> batch row

    def boundary_block(self, name):
        for blk in self.boundary:
            if blk.region is not None and blk.region.name == name:
                return blk
        raise KeyError(f"no boundary region named {name!r}")


def _boundary_chords(mesh, region, covers):
    """Fluid parts of the mesh edges on a region's side, as chords.

    covers is (elem, dofs, edge, t): the boundary intervals of fluid pieces
    on their element's local edges, in parameters t (k, 2) along each edge.
    Returns chords (elem, dofs, a, b, normal) in edge order along the side
    and per edge in cover order, clipped to the region's span.
    """
    elem, dofs, edge, t = covers
    side = region.side
    owners = mesh.boundary_edge_elems[side]
    edge_at = np.full(mesh.n_elems, -1)
    edge_at[owners] = np.arange(owners.shape[0])
    idx = edge_at[elem]
    rows = np.nonzero((edge == _EDGE_OF_SIDE[side]) & (idx >= 0))[0]
    rows = rows[np.argsort(idx[rows], kind="stable")]
    s0, s1 = t[rows, 0], t[rows, 1]
    if side in ("top", "left"):  # edges 2 and 3 run against the axis
        s0, s1 = 1.0 - s1, 1.0 - s0
    ends = mesh.boundary_edges[side][idx[rows]]
    a, b = mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]]
    axis = _SIDE_AXIS[side]
    lo = a[:, axis] + s0 * (b[:, axis] - a[:, axis])
    hi = a[:, axis] + s1 * (b[:, axis] - a[:, axis])
    if region.span is not None:
        lo, hi = np.maximum(lo, region.span[0]), np.minimum(hi, region.span[1])
        keep = ~(hi - lo < 1e-14)
        rows, a, b, lo, hi = rows[keep], a[keep], b[keep], lo[keep], hi[keep]
    a[:, axis], b[:, axis] = lo, hi  # a and b are gathered copies
    normal = np.broadcast_to(_SIDE_NORMAL[side], a.shape)
    return elem[rows], dofs[rows], a, b, normal


def _volume_rows(mesh, pieces):
    """Fluid-volume (x, w, elem, dofs) over every fluid piece, in order."""
    h = mesh.h
    full_x, full_w = _G2X2 * h, np.full(4, 0.25 * h * h)
    xs, ws, elems, dofs, counts = [np.zeros((0, 2))], [np.zeros(0)], [], [], []
    for e, plist in pieces.items():
        for p in plist:
            if p.phase != FLUID:
                continue
            if p.full:
                x, w = mesh.element_origin(e) + full_x, full_w
            elif p.triangles.shape[0]:
                x, w = triangle_rule(p.triangles)
            else:
                continue  # sliver: no quadrature
            xs.append(x)
            ws.append(w)
            elems.append(e)
            dofs.append(p.dofs)
            counts.append(w.shape[0])
    return (np.vstack(xs), np.concatenate(ws),
            np.repeat(np.asarray(elems, dtype=np.int64), counts),
            np.repeat(np.asarray(dofs, dtype=np.int64).reshape(-1, 4), counts, axis=0))


def _surface_block(mesh, chords, region=None):
    """2-point Gauss block on chords (elem, dofs, a, b, normal), one row each."""
    elem, dofs, a, b, normal = chords
    x, w = segment_rule(a, b)
    elem = np.repeat(elem, 2)
    N, gx, gy, _ = shape_q1(mesh, elem, x)
    return SurfaceBlock(x=x, w=w, elem=elem, dofs=np.repeat(dofs, 2, axis=0),
                        normal=np.repeat(normal, 2, axis=0), N=N, gx=gx, gy=gy,
                        region=region)


def _ghost_block(mesh, pairs):
    """2-point Gauss jump block on the full facet of each ghost pair."""
    facets = np.array([gp.facet for gp in pairs], dtype=np.int64)
    ends = mesh.facet_nodes[facets]
    x, w = segment_rule(mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]])
    normal = np.repeat(mesh.facet_normals[facets], 2, axis=0)
    e1 = np.repeat(np.array([gp.elems[0] for gp in pairs], dtype=np.int64), 2)
    e2 = np.repeat(np.array([gp.elems[1] for gp in pairs], dtype=np.int64), 2)
    dofs1 = np.repeat(np.array([gp.dofs1 for gp in pairs], dtype=np.int64), 2, axis=0)
    dofs2 = np.repeat(np.array([gp.dofs2 for gp in pairs], dtype=np.int64), 2, axis=0)
    N1, gx1, gy1, _ = shape_q1(mesh, e1, x)
    N2, gx2, gy2, _ = shape_q1(mesh, e2, x)
    gn1 = gx1 * normal[:, :1] + gy1 * normal[:, 1:]
    gn2 = gx2 * normal[:, :1] + gy2 * normal[:, 1:]
    return GhostBlock(w=w, x=x, normal=normal, dofs1=dofs1, dofs2=dofs2,
                      N1=N1, N2=N2, gn1=gn1, gn2=gn2)


def _assemble_context(mesh, scalar_ids, volume, interface, boundary, ghost_pairs=(),
                      owner=None):
    """The one builder of an IntegrationContext.

    volume holds the fluid quadrature rows (x, w, elem, dofs); interface
    and each entry of boundary, a (region, chords) pair, hold chords
    (elem, dofs, a, b, normal) that get the 2-point Gauss rule; ghost_pairs
    are the facet pairs of the ghost penalties (none: no ghost block).
    Dofs are already in the context's numbering, scalar_ids[dof] being the
    global scalar dof.
    """
    ctx = IntegrationContext(mesh=mesh, n=len(scalar_ids), scalar_ids=scalar_ids,
                             h=mesh.h, owner=owner)
    ctx.vol_x, ctx.vol_w, ctx.vol_elem, ctx.vol_dofs = volume
    ctx.vol_N, ctx.vol_gx, ctx.vol_gy, ctx.vol_d2 = shape_q1(mesh, ctx.vol_elem,
                                                             ctx.vol_x)
    ctx.interface = _surface_block(mesh, interface)
    ctx.boundary = [_surface_block(mesh, chords, region=region)
                    for region, chords in boundary]
    if ghost_pairs:
        ctx.ghost = _ghost_block(mesh, ghost_pairs)
    return ctx


def build_context(cm: CutModel, regions=()) -> IntegrationContext:
    """Global integration context: volume + interface + boundary + ghost data.

    Every region gets a boundary block, empty when no fluid reaches it.
    """
    mesh = cm.mesh
    segs = cm.segments
    interface = (np.array([s.element for s in segs], dtype=np.int64),
                 np.array([cm.pieces[s.element][s.piece].dofs for s in segs],
                          dtype=np.int64).reshape(-1, 4),
                 *(np.array([getattr(s, k) for s in segs], dtype=float).reshape(-1, 2)
                   for k in ("a", "b", "normal")))
    covers = [(e, p.dofs, k, t0, t1)
              for e in np.unique(np.concatenate(list(mesh.boundary_edge_elems.values())))
              for p in cm.pieces.get(int(e), ()) if p.phase == FLUID
              for (k, t0, t1) in p.edge_cover]
    covers = (np.array([c[0] for c in covers], dtype=np.int64),
              np.array([c[1] for c in covers], dtype=np.int64).reshape(-1, 4),
              np.array([c[2] for c in covers], dtype=np.int64),
              np.array([c[3:] for c in covers], dtype=float).reshape(-1, 2))
    boundary = [(region, _boundary_chords(mesh, region, covers)) for region in regions]
    return _assemble_context(mesh, np.arange(cm.n_dofs, dtype=np.int64),
                             _volume_rows(mesh, cm.pieces), interface, boundary,
                             cm.ghost_pairs)


def element_context(cm: CutModel, elems, phi4s, regions=()):
    """One stacked context for a batch of cut elements re-cut at new corner values.

    Row i re-cuts element elems[i] (cut at the stored level set) at corner
    values phi4s[i] with its enrichment frozen. Each row owns a disjoint
    block of local dofs, the element's scalar dofs in sorted order
    (ctx.owner maps a local dof to its row), and its quadrature rows come
    in the order a one-row call gives them. Boundary blocks cover every
    region, empty where no row's fluid reaches it; ghost terms are
    geometry-independent and excluded. Returns (ctx, invalid): invalid
    marks the rows whose re-cut changes the cut pattern (a corner sign or
    the phase of a saddle centre), which own no dofs and no quadrature.
    """
    mesh = cm.mesh
    elems = np.asarray(elems, dtype=np.int64)
    phi4s = np.asarray(phi4s, dtype=float).reshape(-1, 4)
    invalid = cell_patterns(phi4s) != cell_patterns(cm.phi[mesh.elements[elems]])
    rows = np.nonzero(~invalid)[0]

    # frozen enrichment: per distinct element, its sorted scalar dofs and
    # the position of each fluid piece's corner dofs among them
    uniq, which = np.unique(elems[rows], return_inverse=True)
    ids, pos = [], np.zeros((uniq.shape[0], 3, 4), dtype=np.int64)
    for i, e in enumerate(uniq.tolist()):
        fluid = [(j, p.dofs) for j, p in enumerate(cm.pieces[e]) if p.phase == FLUID]
        ids.append(np.unique(np.concatenate([d for _, d in fluid])))
        for j, d in fluid:
            pos[i, j] = np.searchsorted(ids[-1], d)
    counts = np.zeros(elems.shape[0], dtype=np.int64)
    counts[rows] = [ids[i].shape[0] for i in which.tolist()]
    first = np.cumsum(counts) - counts
    scalar_ids = np.concatenate([np.zeros(0, dtype=np.int64)]
                                + [ids[i] for i in which.tolist()])
    owner = np.repeat(np.arange(elems.shape[0]), counts)

    cuts = decompose_cells(phi4s[rows], mesh.nodes[mesh.elements[elems[rows], 0]],
                           mesh.h)
    piece_row = rows[cuts.cell]
    piece_dofs = first[piece_row, None] + pos[which[cuts.cell], cuts.local]

    tri = np.nonzero(cuts.phase[cuts.tri_piece] == FLUID)[0]
    x, w = triangle_rule(cuts.triangles[tri])
    tp = cuts.tri_piece[tri]
    volume = (x, w, np.repeat(elems[piece_row[tp]], 3),
              np.repeat(piece_dofs[tp], 3, axis=0))

    seg_row = rows[cuts.seg_cell]
    seg_piece = np.searchsorted(piece_row * 3 + cuts.local, seg_row * 3 + cuts.seg_piece)
    interface = (elems[seg_row], piece_dofs[seg_piece], cuts.seg_a, cuts.seg_b,
                 cuts.seg_normal)
    cov = np.nonzero(cuts.phase[cuts.cover_piece] == FLUID)[0]
    cp = cuts.cover_piece[cov]
    covers = (elems[piece_row[cp]], piece_dofs[cp], cuts.cover_edge[cov],
              cuts.cover_t[cov])
    boundary = [(region, _boundary_chords(mesh, region, covers)) for region in regions]
    ctx = _assemble_context(mesh, scalar_ids, volume, interface, boundary, owner=owner)
    return ctx, invalid
