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
quadrature rows, chords and ghost pairs into a context with three point
tables, each possibly empty: the volume and surface tables are one type,
`PointTable` (per point its weight, element, dofs, N, d_x N, d_y N and
run; on the surface also its position, normal and region), and the ghost
facets a two-sided `GhostBlock`. The surface table holds the interface
chords and then each region's; its region slices (`surface_part`), its
condition sets and the volume batches of an assembly are all `take`s of
a table.

An assembly's geometry part is built once, on first use, and kept with
what owns it (`kept`): each table's test table T = [N; d_x N; d_y N]
(3, b, nq), the points last, and its run plan (`Plan`); the volume
batches; a context's region slices, prescribed data per time, velocity
projector and Nitsche trial rows. So every later assembly on a context
does only the state-dependent arithmetic, and `IntegrationContext.release`
drops what it keeps. A field's values and gradients at a table's points
come from one routine, `field_at` (`PointTable.at`): one gather of the
fields, one multiply by the test table and one sum over the bases, the
four products of each point added in the order (basis * u[dofs]).sum(1)
adds them.

This module alone maps regions to conditions
(`IntegrationContext.conditions`, `prescribed`, `projector`): the
condition kinds are velocity (the interface, velocity regions and
symmetry regions, whose velocity condition is projected on the normal),
traction, species and port. `build_context` feeds it the
whole cut model; `element_context` feeds it a batch of elements re-cut at
perturbed corner values by one `decompose_cells` call, with the
enrichment frozen: one stacked context in which each re-cut owns a
disjoint block of dofs, which backs the semi-analytic geometric
sensitivities. At the stored level set an element's rows are bitwise the
global context's rows of that element.

It also owns the one path from terms to vectors and CSR matrices. Each
table numbers its runs once (a run is a piece: the points of one volume
piece, the chords of one surface region in one element, the points of
one ghost facet), and a context counts its scalar sparsity on its first
matrix (`Sparsity`; a stacked context that only assembles residuals never
does): the dof pairs of every run, counted into CSR order without a sort,
since cut numbers dofs by node, then level, and every pair lies within a
5x5 node stencil. `piece_blocks` sums w_q T_q^T C_q per run from a
table's test table and trial rows C on the table's plan, `ghost_jumps` is
the face-oriented jump penalty of every field, `Triplets` turns the
blocks, each naming the table and fields it couples, into a CSR matrix
whose structure and triplet slots are index arithmetic on the sparsity,
and `Scatter` sums a residual's terms by one bincount.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .cut import (FLUID, CutModel, cell_patterns, concat_ranges, decompose_cells,
                  fluid_covers)
from .grid import EDGE_NORMALS, SIDE_EDGE

# Gauss points on [0,1]
_G2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
# tensor 2x2 Gauss points on the unit square, x fastest
_G2X2 = np.array([[gx, gy] for gy in _G2 for gx in _G2])


def shape_q1(mesh, elems, x):
    """N, dN/dx, dN/dy of the 4 corner bases at physical points.

    Valid also outside the element (polynomial extension).
    """
    x = np.atleast_2d(x)
    origin = mesh.nodes[mesh.elements[elems, 0]]
    h = mesh.h
    xi = (x[:, 0] - origin[:, 0]) / h
    eta = (x[:, 1] - origin[:, 1]) / h
    N = np.stack([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta], axis=1)
    gx = np.stack([-(1 - eta), (1 - eta), eta, -eta], axis=1) / h
    gy = np.stack([-(1 - xi), -xi, xi, (1 - xi)], axis=1) / h
    return N, gx, gy


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


# the interface takes velocity (no slip) alone
_CONDITIONS = ("velocity", "traction", "species", "port")


def _takes(region, kind):
    """Whether a boundary region takes a condition kind; a symmetry region
    takes the velocity condition projected on its normal (projector)."""
    return {"species": region.species_value is not None, "port": region.port,
            "velocity": region.kind in ("velocity", "symmetry")}.get(kind, region.kind == kind)


def field_at(u, dofs, tests):
    """The one evaluation of fields at quadrature points: u (..., n), one
    value per dof of each field, gathered once at the points' corner dofs
    (nq, b) with the bases first, multiplied by the test tables tests
    (k, b, nq) (N, d_x N, d_y N or constant rows (k, b, 1)) and summed over
    the bases by one .sum(-2): (..., k, nq). Each point adds its b = 4
    products in order, the sum (B * u[dofs]).sum(1) gives for a basis
    table B (nq, b)."""
    return (tests * np.take(u, dofs.T, axis=-1)[..., None, :, :]).sum(-2)


def kept(owner, key, build):
    """build(), made once per key and kept on owner (a point table or a
    context), which it goes with. An array is kept read-only: every later
    caller gets the same one."""
    memo = owner.__dict__.setdefault("_memo", {})
    if key not in memo:
        value = memo[key] = build()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return memo[key]


@dataclass
class Plan:
    """How a point table's points sum per run (piece_blocks), planned once:
    the first point of each run (or part of a run) and its id, and the runs
    with L points grouped, each group's positions among the runs (sel) and
    points (R_L, L)."""

    starts: np.ndarray
    runs: np.ndarray  # (R,) run ids
    key: bytes  # the bytes of runs, which key the CSR layouts
    groups: list  # (sel, pts) per point count L, L ascending


class _Planned:
    """A point table whose run plan is made on first use and kept with it
    (piece_blocks); the table provides run."""

    @property
    def plan(self):
        def build():
            starts = _run_starts(self.run)
            count = np.diff(starts, append=self.run.shape[0])
            runs = self.run[starts]
            groups = []
            for L in np.flatnonzero(np.bincount(count)):
                sel = np.flatnonzero(count == L)
                groups.append((sel, starts[sel, None] + np.arange(L)))
            return Plan(starts, runs, runs.tobytes(), groups)
        return kept(self, "plan", build)


@dataclass
class PointTable(_Planned):
    """A batch of quadrature points with their basis tables: a context's
    volume or surface table, or a take of one (a condition set, a region's
    slice, a batch of volume points)."""

    name: str  # the sparsity table its runs number: 'volume' or 'surface'
    w: np.ndarray  # (nq,)
    elem: np.ndarray  # (nq,)
    dofs: np.ndarray  # (nq, 4) corner dofs in the context's numbering
    N: np.ndarray  # (nq, 4) bases, and their x and y derivatives
    gx: np.ndarray
    gy: np.ndarray
    run: np.ndarray  # per point: its run in the table's runs
    x: np.ndarray = None  # (nq, 2) on the surface, which prescribed data read
    normal: np.ndarray = None  # (nq, 2) on the surface
    # per surface point: index into the context's regions, -1 on the interface
    region: np.ndarray = None

    @property
    def nq(self):
        return self.w.shape[0]

    @property
    def tests(self):
        """The test table T = [N; d_x N; d_y N] (3, b, nq), the points last,
        whose rows NT, gxT, gyT the trial rows are built from."""
        return kept(self, "tests", lambda: np.stack([self.N.T, self.gx.T, self.gy.T]))

    def take(self, rows):
        """The table of the points rows (a slice or an index array)."""
        return PointTable(*(v if v is None or isinstance(v, str) else v[rows]
                            for v in (getattr(self, f.name) for f in fields(self))))

    def batches(self, step):
        """(points, table) per batch of step points, made once per step: the
        table itself when one batch holds every point. The batches' test
        tables are views of this table's."""
        if 0 < self.nq <= step:
            return [(slice(0, self.nq), self)]

        def build():
            out = []
            for start in range(0, self.nq, step):
                pts = slice(start, start + step)
                part = self.take(pts)
                kept(part, "tests", lambda: self.tests[:, :, pts])
                out.append((pts, part))
            return out
        return kept(self, ("batches", step), build)

    def at(self, u, k=3):
        """Fields u (..., n) at the points under the first k of N, d_x N,
        d_y N: (..., k, nq), their values and gradients (field_at)."""
        return field_at(u, self.dofs, self.tests[:k])


@dataclass
class GhostBlock(_Planned):
    """Full-facet jump quadrature for the face-oriented penalties."""

    name: str  # 'ghost', the sparsity table its runs number
    w: np.ndarray  # (nq,)
    normal: np.ndarray  # (nq, 2)
    dofs: np.ndarray  # (nq, 8) the lower element's corner dofs, then the upper's
    dofs1: np.ndarray  # (nq, 4) views of dofs
    dofs2: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    gn1: np.ndarray  # (nq, 4) normal gradient of side-1 bases
    gn2: np.ndarray
    run: np.ndarray  # per point: its ghost run (one per facet pair)

    @property
    def nq(self):
        return self.w.shape[0]

    @property
    def gvec(self):
        """The jump [[grad N . n]] of the 8 bases per point (nq, 8)."""
        return kept(self, "gvec", lambda: np.concatenate([self.gn1, -self.gn2], axis=1))

    @property
    def tests(self):
        """The one test, the jump, as a test table (1, 8, nq)."""
        return self.gvec.T[None]


@dataclass
class IntegrationContext:
    """All quadrature/basis data one geometry needs for assembly: three
    point tables, each possibly empty."""

    n: int  # scalar dofs in this context's numbering
    scalar_ids: np.ndarray  # local -> global scalar dof (identity for global ctx)
    h: float
    volume: PointTable  # the fluid volume
    surface: PointTable  # the interface, then each region in order
    ghost: GhostBlock  # the ghost facets
    regions: tuple = ()  # BoundaryRegion per surface region index
    conditions: dict = field(default_factory=dict)  # condition kind -> its surface points
    owner: np.ndarray = None  # stacked re-cut contexts: local dof -> batch row
    cm: CutModel = field(default=None, repr=False, compare=False)  # whose dofs scalar_ids names

    @cached_property
    def sparsity(self):
        """The scalar CSR pattern of the runs of the three tables, counted
        on the context's first matrix: a context whose assemblies are all
        residuals never counts it."""
        cm, ids = self.cm, self.scalar_ids
        runs = {t.name: t.dofs[t.plan.starts] for t in (self.volume, self.surface, self.ghost)}
        return Sparsity.count(cm.dof_node[ids], cm.dof_level[ids], cm.mesh.divisions[0] + 1,
                              runs)

    def release(self):
        """Drop what the context and its tables keep (kept): their test
        tables, run plans, batches, region slices and state-free terms. A
        later assembly builds them again."""
        for owner in (self, self.volume, self.surface, self.ghost, *self.conditions.values()):
            owner.__dict__.pop("_memo", None)

    def surface_part(self, name):
        """The slice of the surface table on the interface ('interface') or on
        the boundary region of that name, made once per name."""
        names = ["interface"] + [r.name for r in self.regions]
        if name not in names:
            raise KeyError(f"no boundary region named {name!r}")
        k = names.index(name) - 1  # region indices ascend along the table
        return kept(self, ("part", name), lambda: self.surface.take(
            slice(*np.searchsorted(self.surface.region, (k, k + 1)))))


def prescribed(ctx, kind, t=0.0):
    """Per-point data of ctx.conditions[kind] at time t: each region's
    velocity_at or traction_at (nq, 2), zero velocity on the interface and
    on symmetry regions, or its species_value (nq,). Made once per kind and
    t on the context; read only."""
    def build():
        blk = ctx.conditions[kind]
        out = np.zeros(blk.nq if kind == "species" else (blk.nq, 2))
        for k, region in enumerate(ctx.regions):
            lo, hi = np.searchsorted(blk.region, (k, k + 1))
            if hi > lo:
                x = blk.x[lo:hi]
                out[lo:hi] = (region.species_value if kind == "species" else
                              region.traction_at(x, t) if kind == "traction" else
                              region.velocity_at(x, t) if region.kind == "velocity" else 0.0)
        return out
    return kept(ctx, ("prescribed", kind, t), build)


def projector(ctx):
    """Per-point projector P[i, j] (2, 2, nq) of ctx.conditions["velocity"],
    which imposes P (u - uhat) = 0: n n^T on symmetry regions (zero normal
    velocity, free tangential traction), the identity on velocity regions
    and on the interface. Made once per context; read only."""
    def build():
        blk = ctx.conditions["velocity"]
        normal = np.array([r.kind == "symmetry" for r in ctx.regions] + [False])[blk.region]
        nT = blk.normal.T
        return np.where(normal, nT[:, None] * nT[None], np.eye(2)[:, :, None])
    return kept(ctx, "projector", build)


def _boundary_chords(mesh, region, covers):
    """Fluid parts of the mesh edges on a region's side, as chords.

    covers is (elem, dofs, edge, t): the boundary intervals of fluid pieces
    on their element's local edges, in parameters t (k, 2) along each
    edge's axis.
    Returns chords (elem, dofs, a, b, normal) in edge order along the side
    and per edge in cover order, clipped to the region's span.
    """
    elem, dofs, edge, t = covers
    side = region.side
    side_edge = SIDE_EDGE[side]
    owners = mesh.boundary_edge_elems[side]
    edge_at = np.full(mesh.n_elems, -1)
    edge_at[owners] = np.arange(owners.shape[0])
    idx = edge_at[elem]
    rows = np.nonzero((edge == side_edge) & (idx >= 0))[0]
    rows = rows[np.argsort(idx[rows], kind="stable")]
    s0, s1 = t[rows, 0], t[rows, 1]
    ends = mesh.boundary_edges[side][idx[rows]]
    a, b = mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]]
    axis = side_edge % 2
    lo = a[:, axis] + s0 * (b[:, axis] - a[:, axis])
    hi = a[:, axis] + s1 * (b[:, axis] - a[:, axis])
    if region.span is not None:
        lo, hi = np.maximum(lo, region.span[0]), np.minimum(hi, region.span[1])
        keep = ~(hi - lo < 1e-14)
        rows, a, b, lo, hi = rows[keep], a[keep], b[keep], lo[keep], hi[keep]
    a[:, axis], b[:, axis] = lo, hi  # a and b are gathered copies
    normal = np.broadcast_to(EDGE_NORMALS[side_edge], a.shape)
    return elem[rows], dofs[rows], a, b, normal


def _volume_rows(cm):
    """Fluid-volume (x, w, elem, dofs) in piece-table order: the tensor 2x2
    Gauss rule on full pieces, the triangle rule on the triangles of fluid
    cut pieces (slivers have none)."""
    mesh, cuts, h = cm.mesh, cm.cuts, cm.mesh.h
    full = np.flatnonzero(cm.piece_full)
    x_full = mesh.nodes[mesh.elements[cm.piece_elem[full], 0]][:, None] + _G2X2 * h
    tri = np.flatnonzero(cuts.phase[cuts.tri_piece] == FLUID)
    x_tri, w_tri = triangle_rule(cuts.triangles[tri])
    row = np.concatenate([np.repeat(full, 4), np.repeat(cm.cut_rows[cuts.tri_piece[tri]], 3)])
    order = np.argsort(row, kind="stable")
    row = row[order]
    return (np.concatenate([x_full.reshape(-1, 2), x_tri])[order],
            np.concatenate([np.full(4 * full.shape[0], 0.25 * h * h), w_tri])[order],
            cm.piece_elem[row], cm.piece_dofs[row])


def _ghost_block(mesh, facets, dofs):
    """2-point Gauss jump block on the full facets of ghost pairs with
    corner dofs (G, 2, 4) on the lower and upper element."""
    ends = mesh.facet_nodes[facets]
    x, w = segment_rule(mesh.nodes[ends[:, 0]], mesh.nodes[ends[:, 1]])
    normal = np.repeat(mesh.facet_normals[facets], 2, axis=0)
    e1, e2 = (np.repeat(mesh.facet_elems[facets, k], 2) for k in (0, 1))
    dofs = np.repeat(dofs.reshape(-1, 8), 2, axis=0)
    N1, gx1, gy1 = shape_q1(mesh, e1, x)
    N2, gx2, gy2 = shape_q1(mesh, e2, x)
    gn1 = gx1 * normal[:, :1] + gy1 * normal[:, 1:]
    gn2 = gx2 * normal[:, :1] + gy2 * normal[:, 1:]
    return GhostBlock("ghost", w, normal, dofs, dofs[:, :4], dofs[:, 4:], N1, N2, gn1, gn2,
                      _runs(dofs))


def _runs(dofs, seam=None):
    """Per point, its run id: a run is a stretch of points with equal dofs
    (nq, b), and equal seam keys (nq,) when given."""
    new = np.ones(dofs.shape[0], dtype=bool)
    new[1:] = (dofs[1:] != dofs[:-1]).any(1)
    if seam is not None:
        new[1:] |= seam[1:] != seam[:-1]
    return np.cumsum(new) - 1


def _run_starts(run):
    """The first point of each run (or part of a run) in run ids (nq,)."""
    new = np.ones(run.shape[0], dtype=bool)
    new[1:] = run[1:] != run[:-1]
    return np.flatnonzero(new)


@dataclass
class Runs:
    """The runs of one point table: each run's dofs (R, b) and the position
    of each of its dof pairs (a, b) among the context's scalar pairs
    (R, b, b)."""

    dofs: np.ndarray
    pairs: np.ndarray


@dataclass
class Sparsity:
    """The scalar CSR pattern of a context, counted once: every dof
    pair of a volume, surface or ghost run, rows sorted, columns sorted per
    row, with bits that say which pairs lie in a volume run and which come
    from a ghost facet. Triplets.matrix takes the structure of every matrix
    from it."""

    indptr: np.ndarray  # (n + 1,)
    indices: np.ndarray  # (K,) column of each pair
    volume: np.ndarray  # (K,) the pair lies in a volume run
    ghost: np.ndarray  # (K,) the pair comes from a ghost facet
    runs: dict  # point table ('volume', 'surface', 'ghost') -> its Runs
    # the layouts Triplets.matrix derived, by the structure of their blocks
    layouts: dict = field(default_factory=dict, repr=False)

    @classmethod
    def count(cls, node, level, nx, runs):
        """The pattern of the runs (point table -> each run's dofs) of a
        context whose dofs sit at node (ids row-major, nx per row) and
        enrichment level.

        The dofs of a context ascend by node, then level (also within each
        re-cut's block), and every pair lies within the 5x5 node stencil of
        its row. So a key of a pair, its row times the stencil's (node,
        level) slots plus its column's slot, orders the pairs as CSR does,
        and a presence table over the keys counts them in order: no sort.
        """
        n = node.shape[0]
        iy, ix = np.divmod(node, nx)
        levels = int(level.max()) + 1 if n else 1
        width = 25 * levels
        # the key of (a, b) is a width + ((5 dy + dx + 12) levels + level[b]),
        # with (dx, dy) the offset of b's node from a's
        slot = (5 * iy + ix) * levels
        row, col = np.arange(n) * width - slot + 12 * levels, slot + level
        keys = {name: row[d][:, :, None] + col[d][:, None, :] for name, d in runs.items()}
        present = np.zeros(n * width, dtype=bool)
        for k in keys.values():
            present[k] = True
        key = np.flatnonzero(present)
        at = np.empty(n * width, dtype=np.int64)
        at[key] = np.arange(key.shape[0])
        runs = {name: Runs(d, at[keys[name]]) for name, d in runs.items()}
        indices = np.empty(key.shape[0], dtype=np.int64)
        for r in runs.values():
            indices[r.pairs] = r.dofs[:, None, :]
        volume, ghost = np.zeros((2, key.shape[0]), dtype=bool)
        volume[runs["volume"].pairs] = True
        ghost[runs["ghost"].pairs] = True
        indptr = np.searchsorted(key, np.arange(n + 1) * width)
        return cls(indptr, indices, volume, ghost, runs)


def _assemble_context(cm, scalar_ids, volume, interface, covers, regions, ghost,
                      owner=None):
    """The one builder of an IntegrationContext.

    volume holds the fluid quadrature rows (x, w, elem, dofs); the surface
    table takes the 2-point Gauss rule on the interface chords (elem, dofs,
    a, b, normal) and then on each region's clip of the boundary covers
    (elem, dofs, edge, t); ghost holds the (facets, dofs) of the ghost
    pairs, possibly none. Dofs are already in the context's numbering,
    scalar_ids[dof] being the global scalar dof of cm. The runs of each
    point table are numbered here, once.
    """
    mesh = cm.mesh
    x, w, elem, dofs = volume
    volume = PointTable("volume", w, elem, dofs, *shape_q1(mesh, elem, x), _runs(dofs))
    chords = [interface] + [_boundary_chords(mesh, region, covers) for region in regions]
    region = np.repeat(np.arange(-1, len(regions)), [2 * c[0].shape[0] for c in chords])
    elem, dofs, a, b, normal = (np.concatenate(part) for part in zip(*chords))
    x, w = segment_rule(a, b)
    elem = np.repeat(elem, 2)
    dofs = np.repeat(dofs, 2, axis=0)
    surface = PointTable("surface", w, elem, dofs, *shape_q1(mesh, elem, x),
                         _runs(dofs, region), x, np.repeat(normal, 2, axis=0), region)
    ctx = IntegrationContext(len(scalar_ids), scalar_ids, mesh.h, volume, surface,
                             _ghost_block(mesh, *ghost), tuple(regions), owner=owner, cm=cm)
    for kind in _CONDITIONS:
        # indexed by region index; the last entry, -1, is the interface
        member = np.array([_takes(r, kind) for r in regions] + [kind == "velocity"])
        ctx.conditions[kind] = surface.take(np.flatnonzero(member[region]))
    return ctx


def build_context(cm: CutModel, regions=()) -> IntegrationContext:
    """Global integration context: volume + interface + boundary + ghost data.

    Every region gets a slice of the surface table, empty when no fluid
    reaches it.
    """
    mesh, cuts = cm.mesh, cm.cuts
    seg = cm.cut_rows[cuts.seg_row]
    interface = (cm.piece_elem[seg], cm.piece_dofs[seg], cuts.seg_a, cuts.seg_b,
                 cuts.seg_normal)
    row, edge, t = fluid_covers(cuts, cm.piece_full)
    covers = (cm.piece_elem[row], cm.piece_dofs[row], edge, t)
    return _assemble_context(cm, np.arange(cm.n_dofs, dtype=np.int64), _volume_rows(cm),
                             interface, covers, regions, (cm.pair_facet, cm.pair_dofs))


def element_context(cm: CutModel, elems, phi4s, regions=()):
    """One stacked context for a batch of cut elements re-cut at new corner values.

    Row i re-cuts element elems[i] (cut at the stored level set) at corner
    values phi4s[i] with its enrichment frozen. Each row owns a disjoint
    block of local dofs, the element's scalar dofs in sorted order
    (ctx.owner maps a local dof to its row), and its quadrature rows come
    in the order a one-row call gives them. The surface table has a slice for
    every region, empty where no row's fluid reaches it; ghost terms are
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
    # the position among them of each piece's corner dofs (dofs is -1 on a
    # solid or absent piece)
    uniq, which = np.unique(elems[rows], return_inverse=True)
    first = np.searchsorted(cm.piece_elem, uniq)
    local = np.arange(3)
    has = local < (np.searchsorted(cm.piece_elem, uniq, side="right") - first)[:, None]
    dofs = np.where(has[:, :, None], cm.piece_dofs[np.where(has, first[:, None] + local, 0)], -1)
    flat = np.sort(dofs.reshape(-1, 12), axis=1)
    new = flat >= 0
    new[:, 1:] &= flat[:, 1:] != flat[:, :-1]
    pos = np.sum(new[:, None, None] & (flat[:, None, None] < dofs[..., None]), axis=-1)
    n_ids = np.count_nonzero(new, axis=1)
    counts = np.zeros(elems.shape[0], dtype=np.int64)
    counts[rows] = n_ids[which]
    first = np.cumsum(counts) - counts
    scalar_ids = flat[new][concat_ranges((np.cumsum(n_ids) - n_ids)[which], n_ids[which])]
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

    interface = (elems[rows[cuts.seg_cell]], piece_dofs[cuts.seg_row], cuts.seg_a,
                 cuts.seg_b, cuts.seg_normal)
    cp, edge, t = fluid_covers(cuts, np.zeros(cuts.cell.shape[0], dtype=bool))
    covers = (elems[piece_row[cp]], piece_dofs[cp], edge, t)
    no_pairs = (np.zeros(0, dtype=np.int64), np.zeros((0, 2, 4), dtype=np.int64))
    ctx = _assemble_context(cm, scalar_ids, volume, interface, covers, regions, no_pairs,
                            owner=owner)
    return ctx, invalid


# -- Jacobian blocks -> CSR ----------------------------------------------------


def piece_blocks(table, C):
    """Per-run sums of w_q T_q^T C_q over the points of a point table.

    T (k, b, nq) holds the table's first k tests of b bases (k = 3: N,
    d_x N, d_y N; k = 1: N, or the jump on a ghost table), C (k, m, c, nq)
    the trial row that each test multiplies in each of m row blocks,
    c = g b trial entries long (g trial fields of b bases); C is weighted
    by the table's w in place. A run ends where the table's run id changes,
    so a batch that splits a run gives a block for each part. The runs
    with L points are one batched (b x kL) . (kL x mc) matmul, on groups
    the table plans once (table.plan). Returns the blocks (m, g, runs, b, b)
    in the order of table.plan.runs: blocks[i, j, r] couples row block i to
    trial field j on run r.
    """
    k, m, c, nq = C.shape
    plan = table.plan
    T = table.tests[:k]
    b = T.shape[1]
    C *= table.w
    # points-first views; the gathers below are the one transpose
    Cq, Tq = C.reshape(k * m * c, nq).T, T.transpose(2, 0, 1)
    out = np.empty((plan.runs.shape[0], b, m * c))
    for sel, pts in plan.groups:
        L = pts.shape[1]
        A = Tq[pts].reshape(-1, L * k, b).transpose(0, 2, 1)
        out[sel] = A @ Cq[pts].reshape(-1, L * k, m * c)
    return out.reshape(-1, b, m, c // b, b).transpose(2, 3, 0, 1, 4).copy()


def ghost_jumps(ctx, U, groups, R, tri):
    """Face-oriented jump penalty gamma [[grad w . n]] [[grad u . n]] on the
    ghost facets: residual terms into the Scatter R, per-facet Jacobian
    blocks into tri (None: residual only).

    U holds fields of ctx.n dofs each, field f at f n; groups is
    ((gamma, fields), ...), gamma a constant or one value per point
    penalizing the jumps of each of its fields.
    """
    g, n = ctx.ghost, ctx.n
    gvec = g.gvec
    U = U.reshape(-1, n)
    for gamma, fields in groups:
        if tri is not None:
            blocks = piece_blocks(g, (gamma * g.tests)[None])
        u = U[list(fields)]
        jumps = (field_at(u, g.dofs1, g.gn1.T[None]) - field_at(u, g.dofs2, g.gn2.T[None]))[:, 0]
        for f, jump in zip(fields, jumps):
            R.add(g.dofs + f * n, gvec * (gamma * jump)[:, None] * g.w[:, None])
            if tri is not None:
                tri.add(g.name, g.plan.runs, blocks, (f,), (f,), g.plan.key)


class Scatter:
    """The terms of one vector of size entries (a residual or a criterion
    partial), summed by one np.bincount in the order added. The vector
    starts at zero, so every entry is the sum, in the same order, that
    np.add.at of each term in turn would give."""

    def __init__(self, size):
        self.size, self.index, self.values = size, [], []

    def add(self, index, values):
        """Add values[...] at index[...] (arrays of one shape)."""
        self.index.append(index.ravel())
        self.values.append(values.ravel())

    def total(self):
        if not self.index:
            return np.zeros(self.size)
        return np.bincount(np.concatenate(self.index), np.concatenate(self.values),
                           minlength=self.size)


class Triplets:
    """The Jacobian entries of one assembly pass, summed into CSR.

    add(table, runs, vals, rows, cols, key) adds blocks on runs of one of
    the context's point tables ('volume', 'surface', 'ghost'), laid out as
    piece_blocks returns them: vals[i, j, r, a, b] goes to row
    rows[i] n + d[a] and column cols[j] n + d[b], d the dofs of run
    runs[r]; key is the bytes of runs (a table's plan holds both). The
    assemblers add blocks already summed per run, and the volume and ghost
    tables whole. matrix takes the CSR structure and every triplet's slot
    from the context's Sparsity by index arithmetic: field pair (f, g)
    holds the pairs of the volume table, of the ghost table and of the
    surface runs added on it, and the entries are one bincount.
    """

    def __init__(self):
        self.blocks = []

    def add(self, table, runs, vals, rows, cols, key):
        self.blocks.append((table, runs, vals, tuple(rows), tuple(cols), key))

    def add_pieces(self, table, C, rows=None, cols=None):
        """Add the per-run blocks (piece_blocks) of a trial table C on the
        points of a point table: row blocks rows and trial fields cols, by
        default the square block of C's row blocks."""
        square = range(C.shape[1])
        self.add(table.name, table.plan.runs, piece_blocks(table, C), rows or square,
                 cols or square, table.plan.key)

    def matrix(self, ctx, shape):
        """The CSR matrix (shape a multiple of ctx.n) of the triplets."""
        if not self.blocks:
            return sp.csr_matrix(shape)
        key = (shape,) + tuple((table, k, F, G) for table, _, _, F, G, k in self.blocks)
        layout = ctx.sparsity.layouts.get(key)
        if layout is None:
            layout = ctx.sparsity.layouts[key] = self._layout(ctx.sparsity, ctx.n, shape)
        slot, indices, indptr = layout
        data = np.bincount(slot, np.concatenate([v.ravel() for _, _, v, *_ in self.blocks]),
                           minlength=indices.shape[0])
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=shape)

    def _layout(self, s, n, shape):
        """(slot, indices, indptr): the CSR structure of the blocks on the
        sparsity s and each triplet's slot in it, by index arithmetic."""
        nf = (shape[0] // n, shape[1] // n)
        index = np.int32 if np.prod(shape) < 2**31 else np.int64
        # a field pair's pattern: the pairs of the tables added whole on it
        # (volume, ghost) and of the surface runs added on it
        sources = {}
        for i, (table, _, _, F, G, _) in enumerate(self.blocks):
            for fg in itertools.product(F, G):
                sources.setdefault(fg, set()).add(i if table == "surface" else table)
        patterns = {}
        which = np.full(nf, -1)  # each field pair's pattern, -1 where it has none
        for fg, src in sources.items():
            which[fg] = patterns.setdefault(frozenset(src), len(patterns))
        on = np.zeros((len(patterns), s.indices.shape[0]), dtype=bool)
        for key, c in patterns.items():
            for src in key:
                if src in ("volume", "ghost"):
                    on[c] |= getattr(s, src)
                else:
                    on[c, s.runs["surface"].pairs[self.blocks[src][1]]] = True
        rank = np.cumsum(on, axis=1) - 1  # a pair's rank in each pattern
        before = np.concatenate([np.zeros((len(patterns), 1), dtype=np.int64), rank + 1],
                                axis=1)[:, s.indptr]  # pattern pairs before each row
        per_row = np.diff(before, axis=1)
        count = np.where(which[..., None] < 0, 0, per_row[which])
        indptr = np.concatenate([[0], count.sum(1).ravel().cumsum()])
        # field pair (f, g) puts the pair of rank q in its pattern, in row a,
        # at slot q + shift[f, g, a]
        shift = (indptr[:-1].reshape(nf[0], 1, n) + np.cumsum(count, axis=1) - count
                 - before[which, :-1])
        indices = np.empty(indptr[-1], dtype=index)
        for c in range(len(patterns)):
            f, g = np.nonzero(which == c)
            cols = s.indices[on[c]]
            at = np.arange(cols.shape[0]) + np.repeat(shift[f, g], per_row[c], axis=1)
            indices[at] = cols + (g * n)[:, None]
        # each block's triplets in its (i, j, run, a, b) order, so that each
        # slot sums its triplets in the order they were added
        slot = np.empty(sum(v.size for _, _, v, *_ in self.blocks), dtype=np.intp)
        start = 0
        for table, runs, v, F, G, _ in self.blocks:
            r = s.runs[table]
            d, pairs = r.dofs[runs], r.pairs[runs]
            out = slot[start:start + v.size].reshape((-1,) + pairs.shape)
            ranks = {}
            for i, (f, g) in enumerate(itertools.product(F, G)):
                c = which[f, g]
                if c not in ranks:
                    ranks[c] = rank[c, pairs]
                np.add(shift[f, g, d][..., None], ranks[c], out=out[i])
            start += v.size
        return slot, indices, indptr.astype(index)
