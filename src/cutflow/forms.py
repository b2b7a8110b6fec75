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
cut pieces, chords, boundary edges and ghost pairs into a context.
`build_context` calls it on the whole cut model; `element_context` calls
it on one element re-cut at perturbed corner values with its enrichment
frozen, which backs the semi-analytic geometric sensitivities. At the
stored level set the two give bitwise the same rows for that element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cut import FLUID, CutModel, decompose_cell

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

    def boundary_block(self, name):
        for blk in self.boundary:
            if blk.region is not None and blk.region.name == name:
                return blk
        raise KeyError(f"no boundary region named {name!r}")


def _cover_along_axis(piece_cover, side):
    """Convert edge-local cover intervals to the +axis face parameter."""
    edge = _EDGE_OF_SIDE[side]
    out = []
    for (k, t0, t1) in piece_cover:
        if k != edge:
            continue
        if side in ("top", "left"):  # edges 2 and 3 run against the axis
            out.append((1.0 - t1, 1.0 - t0))
        else:
            out.append((t0, t1))
    return out


def _edge_cover(pieces, side, a, b, span):
    """Fluid parts of one boundary edge a-b on a mesh side.

    Yields (piece, p0, p1) for every fluid piece's cover interval of the
    edge, clipped to span (a physical interval along the side axis, or
    None).
    """
    axis = _SIDE_AXIS[side]
    for piece in pieces:
        if piece.phase != FLUID:
            continue
        for (s0, s1) in _cover_along_axis(piece.edge_cover, side):
            lo = a[axis] + s0 * (b[axis] - a[axis])
            hi = a[axis] + s1 * (b[axis] - a[axis])
            if span is not None:
                lo, hi = max(lo, span[0]), min(hi, span[1])
                if hi - lo < 1e-14:
                    continue
            p0, p1 = a.copy(), b.copy()
            p0[axis], p1[axis] = lo, hi
            yield piece, p0, p1


def _repeat_rows(values, counts, width):
    """Per-group rows (one per group) repeated counts times, as (sum, width)."""
    return np.repeat(np.asarray(values).reshape(-1, width), counts, axis=0)


def _volume_rows(mesh, pieces, scalar_ids):
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
            np.searchsorted(scalar_ids, _repeat_rows(dofs, counts, 4)))


def _surface_block(mesh, scalar_ids, chords, region=None):
    """2-point Gauss block on chords [(element, dofs, a, b, normal), ...]."""
    elem = np.array([c[0] for c in chords], dtype=np.int64)
    a = np.array([c[2] for c in chords], dtype=float).reshape(-1, 2)
    b = np.array([c[3] for c in chords], dtype=float).reshape(-1, 2)
    x, w = segment_rule(a, b)
    elem = np.repeat(elem, 2)
    dofs = np.searchsorted(scalar_ids, _repeat_rows([c[1] for c in chords], 2, 4))
    normal = _repeat_rows([c[4] for c in chords], 2, 2)
    N, gx, gy, _ = shape_q1(mesh, elem, x)
    return SurfaceBlock(x=x, w=w, elem=elem, dofs=dofs, normal=normal,
                        N=N, gx=gx, gy=gy, region=region)


def _ghost_block(mesh, scalar_ids, pairs):
    """2-point Gauss jump block on the full facet of each ghost pair."""
    facets = np.array([gp.facet for gp in pairs], dtype=np.int64)
    ends = mesh.facet_nodes[facets]
    x, w = segment_rule(mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]])
    normal = np.repeat(mesh.facet_normals[facets], 2, axis=0)
    e1 = np.repeat(np.array([gp.elems[0] for gp in pairs], dtype=np.int64), 2)
    e2 = np.repeat(np.array([gp.elems[1] for gp in pairs], dtype=np.int64), 2)
    dofs1 = np.searchsorted(scalar_ids, _repeat_rows([gp.dofs1 for gp in pairs], 2, 4))
    dofs2 = np.searchsorted(scalar_ids, _repeat_rows([gp.dofs2 for gp in pairs], 2, 4))
    N1, gx1, gy1, _ = shape_q1(mesh, e1, x)
    N2, gx2, gy2, _ = shape_q1(mesh, e2, x)
    gn1 = gx1 * normal[:, :1] + gy1 * normal[:, 1:]
    gn2 = gx2 * normal[:, :1] + gy2 * normal[:, 1:]
    return GhostBlock(w=w, x=x, normal=normal, dofs1=dofs1, dofs2=dofs2,
                      N1=N1, N2=N2, gn1=gn1, gn2=gn2)


def _assemble_context(mesh, pieces, segments, boundary, ghost_pairs, scalar_ids):
    """The one builder of an IntegrationContext.

    pieces maps element -> its pieces in element order (fluid pieces carry
    quadrature); segments are interface chords whose `piece` indexes
    pieces[seg.element]; boundary lists (region, indices into
    mesh.boundary_edges[region.side]) and yields one block per entry, empty
    when no fluid lies on those edges; ghost_pairs are the facet pairs of
    the ghost penalties (none: no ghost block). Dofs are renumbered to
    their positions in the sorted scalar_ids, one lookup per block.
    """
    ctx = IntegrationContext(mesh=mesh, n=len(scalar_ids), scalar_ids=scalar_ids,
                             h=mesh.h)
    x, w, elem, ctx.vol_dofs = _volume_rows(mesh, pieces, scalar_ids)
    ctx.vol_x, ctx.vol_w, ctx.vol_elem = x, w, elem
    ctx.vol_N, ctx.vol_gx, ctx.vol_gy, ctx.vol_d2 = shape_q1(mesh, elem, x)

    ctx.interface = _surface_block(mesh, scalar_ids, [
        (seg.element, pieces[seg.element][seg.piece].dofs, seg.a, seg.b, seg.normal)
        for seg in segments
    ])
    for region, edge_ids in boundary:
        side = region.side
        edges = mesh.boundary_edges[side]
        owners = mesh.boundary_edge_elems[side]
        chords = []
        for idx in edge_ids:
            e = int(owners[idx])
            if e not in pieces:
                continue
            a, b = mesh.nodes[edges[idx, 0]], mesh.nodes[edges[idx, 1]]
            for piece, p0, p1 in _edge_cover(pieces[e], side, a, b, region.span):
                chords.append((e, piece.dofs, p0, p1, _SIDE_NORMAL[side]))
        ctx.boundary.append(_surface_block(mesh, scalar_ids, chords, region=region))
    if ghost_pairs:
        ctx.ghost = _ghost_block(mesh, scalar_ids, ghost_pairs)
    return ctx


def build_context(cm: CutModel, regions=()) -> IntegrationContext:
    """Global integration context: volume + interface + boundary + ghost data.

    Every region gets a boundary block, empty when no fluid reaches it.
    """
    mesh = cm.mesh
    boundary = [(region, range(mesh.boundary_edges[region.side].shape[0]))
                for region in regions]
    return _assemble_context(mesh, cm.pieces, cm.segments, boundary, cm.ghost_pairs,
                             np.arange(cm.n_dofs, dtype=np.int64))


def element_context(cm: CutModel, e, phi4, regions=()):
    """Compact context for one element with (possibly perturbed) corner phi.

    Reuses the frozen enrichment: pieces of the re-cut must appear in the
    same order and phases as the stored decomposition. Boundary blocks
    cover the regions on the mesh sides the element touches; ghost terms
    are geometry-independent and excluded. Returns None if the element has
    no fluid. Raises ValueError when the perturbation changes the corner
    sign pattern (classification flip) or the pieces.
    """
    mesh = cm.mesh
    e = int(e)
    stored = cm.pieces.get(e, [])
    phi4 = np.asarray(phi4, dtype=float)
    stored_signs = np.where(cm.phi[mesh.elements[e]] > 0, 1, -1)
    new_signs = np.where(phi4 > 0, 1, -1)
    if not np.array_equal(stored_signs, new_signs):
        raise ValueError("classification flip under level set perturbation")

    if np.all(new_signs > 0):
        return None
    if np.all(new_signs < 0):
        plist, segs = stored, []
    else:
        plist, segs = decompose_cell(phi4, mesh.element_origin(e), mesh.h, element=e)
        if len(plist) != len(stored):
            raise ValueError("piece count changed under level set perturbation")
        for p_new, p_old in zip(plist, stored):
            if p_new.phase != p_old.phase:
                raise ValueError("piece phase changed under level set perturbation")
            p_new.dofs = p_old.dofs
            p_new.region = p_old.region

    boundary = []
    for region in regions:
        edge_ids = np.nonzero(mesh.boundary_edge_elems[region.side] == e)[0]
        if edge_ids.size:
            boundary.append((region, edge_ids))
    ids = np.unique(np.concatenate([p.dofs for p in plist if p.phase == FLUID]))
    return _assemble_context(mesh, {e: plist}, segs, boundary, (), ids)
