"""Shape functions and batched integration contexts.

Everything is bilinear Q1 on axis-aligned squares, so basis values at
arbitrary physical points reduce to closed forms; the same expressions
extend an element's polynomial beyond its own square, which is what the
ghost-penalty jumps integrate. An IntegrationContext packages quadrature
points, basis tables and scalar-space dof maps for one geometry so the
flow/species/indicator assemblers stay data-driven; a compact per-element
variant of the same structure backs the semi-analytic geometric
sensitivities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cut import (
    CUT,
    FLUID,
    CutModel,
    QuadBlock,
    _EDGE_OF_SIDE,
    decompose_cell,
    segment_rule,
    triangle_rule,
)

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
    owner: np.ndarray = None

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


def _edge_cover_rules(pieces, side, a, b, span, npts):
    """Quadrature of the fluid part of one boundary edge a-b on a mesh side.

    Yields (piece, points, weights) for every fluid piece's cover interval
    of the edge, clipped to span (a physical interval along the side axis,
    or None).
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
            yield (piece, *segment_rule(p0, p1, npts))


def boundary_quadrature(cm: CutModel, side, span=None, npts=2):
    """Fluid-portion quadrature of one mesh side, optionally span-limited.

    Returns arrays (x, w, elem, dofs, normal). span is a physical interval
    along the face axis.
    """
    mesh = cm.mesh
    edges = mesh.boundary_edges[side]
    owners = mesh.boundary_edge_elems[side]
    nrm = _SIDE_NORMAL[side]
    xs, ws, elems, dofs = [], [], [], []
    for idx in range(edges.shape[0]):
        e = int(owners[idx])
        if e not in cm.pieces:
            continue
        a = mesh.nodes[edges[idx, 0]]
        b = mesh.nodes[edges[idx, 1]]
        for piece, pts, w in _edge_cover_rules(cm.pieces[e], side, a, b, span, npts):
            xs.append(pts)
            ws.append(w)
            elems.append(np.full(len(w), e, dtype=np.int64))
            dofs.append(np.tile(piece.dofs, (len(w), 1)))
    if not xs:
        z = np.zeros
        return (z((0, 2)), z(0), z(0, dtype=np.int64), z((0, 4), dtype=np.int64),
                np.tile(nrm, (0, 1)))
    x = np.vstack(xs)
    return (x, np.concatenate(ws), np.concatenate(elems), np.vstack(dofs),
            np.tile(nrm, (x.shape[0], 1)))


def _surface_block(mesh, x, w, elem, dofs, normal, region=None, owner=None):
    if x.shape[0]:
        N, gx, gy, _ = shape_q1(mesh, elem, x)
    else:
        N = gx = gy = np.zeros((0, 4))
    return SurfaceBlock(x=x, w=w, elem=elem, dofs=dofs, normal=normal,
                        N=N, gx=gx, gy=gy, region=region, owner=owner)


def _ghost_block(cm: CutModel):
    mesh = cm.mesh
    pairs = cm.ghost_pairs
    if not pairs:
        z = np.zeros
        return GhostBlock(w=z(0), x=z((0, 2)), normal=z((0, 2)),
                          dofs1=z((0, 4), dtype=np.int64), dofs2=z((0, 4), dtype=np.int64),
                          N1=z((0, 4)), N2=z((0, 4)), gn1=z((0, 4)), gn2=z((0, 4)))
    xs, ws, nrms, d1, d2, e1s, e2s = [], [], [], [], [], [], []
    for gp in pairs:
        n1, n2 = mesh.facet_nodes[gp.facet]
        pts, w = segment_rule(mesh.nodes[n1], mesh.nodes[n2], 2)
        nrm = mesh.facet_normals[gp.facet]
        xs.append(pts)
        ws.append(w)
        nrms.append(np.tile(nrm, (len(w), 1)))
        d1.append(np.tile(gp.dofs1, (len(w), 1)))
        d2.append(np.tile(gp.dofs2, (len(w), 1)))
        e1s.append(np.full(len(w), gp.elems[0], dtype=np.int64))
        e2s.append(np.full(len(w), gp.elems[1], dtype=np.int64))
    x = np.vstack(xs)
    w = np.concatenate(ws)
    normal = np.vstack(nrms)
    e1s = np.concatenate(e1s)
    e2s = np.concatenate(e2s)
    N1, gx1, gy1, _ = shape_q1(mesh, e1s, x)
    N2, gx2, gy2, _ = shape_q1(mesh, e2s, x)
    gn1 = gx1 * normal[:, :1] + gy1 * normal[:, 1:]
    gn2 = gx2 * normal[:, :1] + gy2 * normal[:, 1:]
    return GhostBlock(w=w, x=x, normal=normal, dofs1=np.vstack(d1), dofs2=np.vstack(d2),
                      N1=N1, N2=N2, gn1=gn1, gn2=gn2)


def build_context(cm: CutModel, regions=()) -> IntegrationContext:
    """Global integration context: volume + interface + boundary + ghost data."""
    mesh = cm.mesh
    vol = cm.volume_qp
    ctx = IntegrationContext(
        mesh=mesh, n=cm.n_dofs,
        scalar_ids=np.arange(cm.n_dofs, dtype=np.int64), h=mesh.h,
    )
    ctx.vol_x, ctx.vol_w, ctx.vol_elem, ctx.vol_dofs = vol.x, vol.w, vol.elem, vol.dofs
    if vol.x.shape[0]:
        ctx.vol_N, ctx.vol_gx, ctx.vol_gy, ctx.vol_d2 = shape_q1(mesh, vol.elem, vol.x)
    else:
        ctx.vol_N = ctx.vol_gx = ctx.vol_gy = ctx.vol_d2 = np.zeros((0, 4))
    ifc = cm.interface_qp
    ctx.interface = _surface_block(mesh, ifc.x, ifc.w, ifc.elem, ifc.dofs,
                                   ifc.normal, owner=ifc.owner)
    for region in regions:
        x, w, elem, dofs, normal = boundary_quadrature(
            cm, region.side, span=region.span, npts=cm.seg_points
        )
        ctx.boundary.append(_surface_block(mesh, x, w, elem, dofs, normal, region=region))
    ctx.ghost = _ghost_block(cm)
    return ctx


def element_context(cm: CutModel, e, phi4, regions=(), side_of_elem=None):
    """Compact context for one element with (possibly perturbed) corner phi.

    Reuses the frozen enrichment: pieces of the re-cut must appear in the
    same order and phases as the stored decomposition. Ghost terms are
    geometry-independent and excluded. Returns None if the element has no
    fluid. Raises ValueError when the perturbation changes the corner sign
    pattern (classification flip).
    """
    mesh = cm.mesh
    h = mesh.h
    stored = cm.pieces.get(int(e), [])
    origin = mesh.element_origin(e)
    phi4 = np.asarray(phi4, dtype=float)
    stored_signs = np.where(cm.phi[mesh.elements[e]] > 0, 1, -1)
    new_signs = np.where(phi4 > 0, 1, -1)
    if not np.array_equal(stored_signs, new_signs):
        raise ValueError("classification flip under level set perturbation")

    if np.all(new_signs > 0):
        return None
    if np.all(new_signs < 0):
        pieces = [stored[0]]
        segs = []
        plist = pieces
    else:
        plist, segs = decompose_cell(phi4, origin, h, element=int(e))
        if len(plist) != len(stored):
            raise ValueError("piece count changed under level set perturbation")
        for p_new, p_old in zip(plist, stored):
            if p_new.phase != p_old.phase:
                raise ValueError("piece phase changed under level set perturbation")
            p_new.dofs = p_old.dofs
            p_new.region = p_old.region

    used = sorted({int(d) for p in plist if p.phase == FLUID for d in p.dofs})
    local = {g: i for i, g in enumerate(used)}
    ctx = IntegrationContext(
        mesh=mesh, n=len(used),
        scalar_ids=np.asarray(used, dtype=np.int64), h=h,
    )

    def loc(dofs):
        return np.vectorize(local.__getitem__, otypes=[np.int64])(dofs)

    xs, ws, elems, dofs = [], [], [], []
    ref_g = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
    ref = np.array([[gx_, gy_] for gy_ in ref_g for gx_ in ref_g])
    for p in plist:
        if p.phase != FLUID:
            continue
        if p.full:
            xs.append(origin[None, :] + ref * h)
            ws.append(np.full(4, 0.25 * h * h))
            elems.append(np.full(4, e, dtype=np.int64))
            dofs.append(np.tile(loc(p.dofs), (4, 1)))
        elif p.triangles.shape[0]:
            pts, w = triangle_rule(p.triangles, cm.tri_points)
            xs.append(pts)
            ws.append(w)
            elems.append(np.full(len(w), e, dtype=np.int64))
            dofs.append(np.tile(loc(p.dofs), (len(w), 1)))
    if xs:
        ctx.vol_x = np.vstack(xs)
        ctx.vol_w = np.concatenate(ws)
        ctx.vol_elem = np.concatenate(elems)
        ctx.vol_dofs = np.vstack(dofs)
        ctx.vol_N, ctx.vol_gx, ctx.vol_gy, ctx.vol_d2 = shape_q1(
            mesh, ctx.vol_elem, ctx.vol_x
        )
    else:
        z = np.zeros
        ctx.vol_x, ctx.vol_w = z((0, 2)), z(0)
        ctx.vol_elem, ctx.vol_dofs = z(0, dtype=np.int64), z((0, 4), dtype=np.int64)
        ctx.vol_N = ctx.vol_gx = ctx.vol_gy = ctx.vol_d2 = z((0, 4))

    # interface chords of this element
    xs, ws, elems, dofs, nrms = [], [], [], [], []
    for seg in segs:
        pts, w = segment_rule(seg.a, seg.b, cm.seg_points)
        piece = plist[seg.piece]
        if piece.phase != FLUID:  # chord stored against fluid side by construction
            continue
        xs.append(pts)
        ws.append(w)
        elems.append(np.full(len(w), e, dtype=np.int64))
        dofs.append(np.tile(loc(piece.dofs), (len(w), 1)))
        nrms.append(np.tile(seg.normal, (len(w), 1)))
    if xs:
        x = np.vstack(xs)
        ctx.interface = _surface_block(
            mesh, x, np.concatenate(ws), np.concatenate(elems), np.vstack(dofs),
            np.vstack(nrms)
        )
    else:
        z = np.zeros
        ctx.interface = _surface_block(
            mesh, z((0, 2)), z(0), z(0, dtype=np.int64), z((0, 4), dtype=np.int64),
            z((0, 2))
        )

    # boundary sub-segments owned by this element
    if side_of_elem:
        for region in regions:
            xs, ws, elems, dofs = [], [], [], []
            for (side, a, b) in side_of_elem.get(region.name, ()):
                for piece, pts, w in _edge_cover_rules(plist, side, a, b, region.span,
                                                       cm.seg_points):
                    xs.append(pts)
                    ws.append(w)
                    elems.append(np.full(len(w), e, dtype=np.int64))
                    dofs.append(np.tile(loc(piece.dofs), (len(w), 1)))
            if xs:
                x = np.vstack(xs)
                nrm = np.tile(_SIDE_NORMAL[region.side], (x.shape[0], 1))
                ctx.boundary.append(_surface_block(
                    mesh, x, np.concatenate(ws), np.concatenate(elems),
                    np.vstack(dofs), nrm, region=region
                ))
    z = np.zeros
    ctx.ghost = GhostBlock(w=z(0), x=z((0, 2)), normal=z((0, 2)),
                           dofs1=z((0, 4), dtype=np.int64),
                           dofs2=z((0, 4), dtype=np.int64),
                           N1=z((0, 4)), N2=z((0, 4)), gn1=z((0, 4)), gn2=z((0, 4)))
    return ctx


def element_boundary_edges(mesh, e):
    """(region-agnostic) boundary sides owned by element e: (side, a, b)."""
    out = []
    for side in ("left", "right", "bottom", "top"):
        owners = mesh.boundary_edge_elems[side]
        hits = np.nonzero(owners == e)[0]
        for idx in hits:
            na, nb = mesh.boundary_edges[side][idx]
            out.append((side, mesh.nodes[na].copy(), mesh.nodes[nb].copy()))
    return out
