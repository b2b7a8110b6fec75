import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutflow.cut as cut
from cutflow.cut import (CUT, FLUID, SOLID, build_cut_model, cell_patterns,
                         classify_elements, decompose_cells)
from cutflow.errors import CapacityError
from cutflow.forms import build_context
from cutflow.grid import build_mesh

from fixtures_common import perturb


def _mesh(n=4, L=1.0):
    return build_mesh(((0, 0), (L, L)), (n, n))


# --- classification ----------------------------------------------------------

def test_classify_all_fluid_all_solid():
    m = _mesh(3)
    assert np.all(classify_elements(m, -np.ones(m.n_nodes)) == FLUID)
    assert np.all(classify_elements(m, np.ones(m.n_nodes)) == SOLID)


def test_classify_mixed_corner_signs():
    m = _mesh(1)
    phi = np.array([-1.0, -1.0, 1.0, -1.0])
    assert classify_elements(m, phi)[0] == CUT


def test_classify_rejects_zero_values():
    m = _mesh(1)
    with pytest.raises(RuntimeError):
        classify_elements(m, np.array([0.0, 1.0, 1.0, 1.0]))


# --- decomposition -----------------------------------------------------------

def _decompose(phi4, origin=(0.0, 0.0), h=1.0):
    """decompose_cells on one cell: piece and chord arrays of that cell."""
    return decompose_cells(np.asarray(phi4, dtype=float)[None],
                           np.asarray(origin, dtype=float)[None], h)


def test_decompose_three_one_corner():
    # corners (-1,-1,-1,+1): solid triangle with legs 0.5, area 0.125
    cuts = _decompose([-1.0, -1.0, -1.0, 1.0])
    areas = dict(zip(cuts.phase.tolist(), cuts.area.tolist()))
    assert areas[SOLID] == pytest.approx(0.125, abs=1e-14)
    assert areas[FLUID] == pytest.approx(0.875, abs=1e-14)
    assert cuts.seg_length.shape == (1,)
    assert cuts.seg_length[0] == pytest.approx(np.hypot(0.5, 0.5), abs=1e-14)
    # normal points toward solid (top-left corner)
    assert cuts.seg_normal[0] @ np.array([-1.0, 1.0]) > 0


def test_decompose_half_split():
    # corners (-1,-1,+1,+1): vertical... bottom fluid, top solid, straight chord
    cuts = _decompose([-1.0, -1.0, 1.0, 1.0])
    areas = dict(zip(cuts.phase.tolist(), cuts.area.tolist()))
    assert areas[FLUID] == pytest.approx(0.5, abs=1e-14)
    assert areas[SOLID] == pytest.approx(0.5, abs=1e-14)
    assert cuts.seg_length.shape == (1,)
    assert cuts.seg_length[0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(cuts.seg_normal[0], [0.0, 1.0], atol=1e-14)


def test_decompose_linear_field_analytic_areas():
    # phi(x, y) = x - 0.3: solid where x > 0.3
    cuts = _decompose([-0.3, 0.7, 0.7, -0.3])
    areas = dict(zip(cuts.phase.tolist(), cuts.area.tolist()))
    assert areas[FLUID] == pytest.approx(0.3, abs=1e-12)
    assert areas[SOLID] == pytest.approx(0.7, abs=1e-12)
    # diagonal: phi = x + y - 0.7, fluid triangle area 0.7^2/2
    cuts = _decompose([-0.7, 0.3, 1.3, 0.3])
    areas = dict(zip(cuts.phase.tolist(), cuts.area.tolist()))
    assert areas[FLUID] == pytest.approx(0.245, abs=1e-12)


def test_decompose_saddle_center_solid():
    # corners (-1, 3, -1, 3): center mean = 1 > 0, solid keeps the center;
    # fluid = two corner triangles with legs 0.25 (crossings at t = 1/4, 3/4)
    cuts = _decompose([-1.0, 3.0, -1.0, 3.0])
    fluid = cuts.area[cuts.phase == FLUID]
    solid = cuts.area[cuts.phase == SOLID]
    assert len(fluid) == 2 and len(solid) == 1
    for area in fluid:
        assert area == pytest.approx(0.03125, abs=1e-14)
    assert solid[0] == pytest.approx(1 - 0.0625, abs=1e-14)
    assert cuts.seg_length.shape == (2,)
    assert np.all(cuts.phase[cuts.seg_piece] == FLUID)


def test_decompose_saddle_center_fluid():
    cuts = _decompose([1.0, -3.0, 1.0, -3.0])
    fluid = cuts.area[cuts.phase == FLUID]
    solid = cuts.area[cuts.phase == SOLID]
    assert len(fluid) == 1 and len(solid) == 2
    assert fluid[0] == pytest.approx(1 - 0.0625, abs=1e-14)


def test_fluid_plus_solid_equals_element_area():
    rng = np.random.default_rng(0)
    for _ in range(200):
        phi4 = rng.normal(size=4)
        if np.all(phi4 > 0) or np.all(phi4 < 0) or np.any(phi4 == 0):
            continue
        h = rng.uniform(0.1, 2.0)
        total = _decompose(phi4, rng.normal(size=2), h).area.sum()
        assert abs(total - h * h) < 1e-12 * h * h + 1e-15


def test_batched_decomposition_equals_one_cell_calls():
    # every cut pattern, saddles of both centre phases and near-corner
    # crossings in one batch: each cell's rows are bitwise a one-row call's
    rng = np.random.default_rng(1)
    phi4s = rng.normal(size=(400, 4))
    phi4s[::7, 1] = 1e-15
    phi4s[::11] = [[-1.0, 3.0, -1.0, 3.0]] * len(phi4s[::11])
    phi4s[::13] = [[1.0, -3.0, 1.0, -3.0]] * len(phi4s[::13])
    phi4s = phi4s[np.any(phi4s > 0, axis=1) & np.any(phi4s <= 0, axis=1)]
    patterns = set(cell_patterns(phi4s).tolist())
    assert len(patterns) == 16  # 12 non-saddles, 2 saddles x 2 centre phases
    origins = rng.normal(size=(phi4s.shape[0], 2))
    h = 0.3
    batch = decompose_cells(phi4s, origins, h)

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for i in range(phi4s.shape[0]):
        one = decompose_cells(phi4s[i:i + 1], origins[i:i + 1], h)
        pieces = np.nonzero(batch.cell == i)[0]
        for name in ("local", "phase", "area", "polygon", "n_vert"):
            assert same(getattr(batch, name)[pieces], getattr(one, name))
        tris = np.isin(batch.tri_piece, pieces)
        assert same(batch.triangles[tris], one.triangles)
        assert same(batch.tri_piece[tris] - pieces[0], one.tri_piece)
        cover = np.isin(batch.cover_piece, pieces)
        assert same(batch.cover_t[cover], one.cover_t)
        assert same(batch.cover_edge[cover], one.cover_edge)
        assert same(batch.cover_piece[cover] - pieces[0], one.cover_piece)
        segs = batch.seg_cell == i
        for name in ("seg_piece", "seg_a", "seg_b", "seg_normal", "seg_length"):
            assert same(getattr(batch, name)[segs], getattr(one, name))


def _triangle_areas(tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    return 0.5 * np.abs((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                        - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


def test_triangulation_choice_does_not_change_area():
    # each piece's fan from its first crossing, a fan from any other vertex
    # of its polygon, and the whole-square split of an uncut piece all give
    # the piece's area
    rng = np.random.default_rng(2)
    phi4s = rng.normal(size=(60, 4))
    phi4s[::11] = [-1.0, 3.0, -1.0, 3.0]
    phi4s[::13] = [1.0, -3.0, 1.0, -3.0]
    phi4s = phi4s[np.any(phi4s > 0, axis=1) & np.any(phi4s < 0, axis=1)]
    cuts = decompose_cells(phi4s, rng.normal(size=(phi4s.shape[0], 2)), 0.3)
    fans = np.bincount(cuts.tri_piece, _triangle_areas(cuts.triangles),
                       minlength=cuts.area.shape[0])
    has = np.isin(np.arange(cuts.area.shape[0]), cuts.tri_piece)
    assert has.mean() > 0.9
    np.testing.assert_allclose(fans[has], cuts.area[has], rtol=1e-12, atol=1e-15)
    for p in range(cuts.area.shape[0]):
        poly = cuts.polygon[p, :cuts.n_vert[p]]
        for start in range(poly.shape[0]):
            pts = np.roll(poly, -start, axis=0)
            tris = np.stack([np.broadcast_to(pts[0], pts[2:].shape), pts[1:-1], pts[2:]],
                            axis=1)
            assert _triangle_areas(tris).sum() == pytest.approx(cuts.area[p], rel=1e-12,
                                                                abs=1e-15)
    mesh, cm = _circle_model()
    row, tris = cm.triangles()
    np.testing.assert_allclose(np.bincount(row, _triangle_areas(tris))[cm.piece_full],
                               mesh.h ** 2, rtol=1e-14)


def _corner_magnitudes():
    # down to 1e-8 of the largest, so some crossings sit next to a corner
    return st.lists(st.floats(1e-8, 1.0), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 14), _corner_magnitudes()), min_size=1,
                max_size=8),
       st.floats(1e-2, 1.0), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_covers_tile_each_edge_along_its_axis(cells, h, origin):
    # every sign code but the uncut ones; a saddle's centre takes the sign of
    # the mean, so both centres occur. Edge k runs from corner k to k + 1,
    # and a cover's parameters run along the edge's axis: from corner k on
    # edges 0 and 1, from corner k + 1 on edges 2 and 3
    signs = np.array([[1.0 if code >> k & 1 else -1.0 for k in range(4)] for code, _ in cells])
    phi4s = signs * np.array([mags for _, mags in cells])
    origins = np.tile(origin, (phi4s.shape[0], 1))
    cuts = decompose_cells(phi4s, origins, h)
    corners = origins[:, None] + h * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for i, phi in enumerate(phi4s):
        pieces = np.flatnonzero(cuts.cell == i)
        for edge in range(4):
            lo_corner, hi_corner = (edge, (edge + 1) % 4) if edge < 2 else ((edge + 1) % 4, edge)
            cov = np.flatnonzero(np.isin(cuts.cover_piece, pieces) & (cuts.cover_edge == edge))
            t = cuts.cover_t[cov[np.argsort(cuts.cover_t[cov, 0])]]
            assert np.all((0.0 <= t[:, 0]) & (t[:, 0] < t[:, 1]) & (t[:, 1] <= 1.0))
            assert np.all(t[:-1, 1] <= t[1:, 0])  # no overlap
            assert abs(np.sum(t[:, 1] - t[:, 0]) - 1.0) < 1e-12
            # each piece's covers lie where the edge's linear trace has its sign
            s = 0.5 * (cuts.cover_t[cov, 0] + cuts.cover_t[cov, 1])
            trace = (1.0 - s) * phi[lo_corner] + s * phi[hi_corner]
            assert np.all(np.sign(trace) == cuts.phase[cuts.cover_piece[cov]])
        # each chord runs between the crossings of two different edges
        crossed = np.flatnonzero((phi > 0) != (np.roll(phi, -1) > 0))
        tk = phi[crossed] / (phi[crossed] - np.roll(phi, -1)[crossed])
        at = corners[i, crossed] + tk[:, None] * (
            corners[i, (crossed + 1) % 4] - corners[i, crossed])
        dist = [np.linalg.norm(end[cuts.seg_cell == i][:, None] - at[None], axis=2)
                for end in (cuts.seg_a, cuts.seg_b)]
        assert all(np.all(d.min(axis=1) < 1e-12) for d in dist)
        assert np.all(dist[0].argmin(axis=1) != dist[1].argmin(axis=1))


# --- quadrature ---------------------------------------------------------------

def _circle_model(n=8, r=0.22):
    m = _mesh(n)
    phi = perturb(r - np.hypot(m.nodes[:, 0] - 0.5, m.nodes[:, 1] - 0.5), m.h)
    return m, build_cut_model(m, phi)


def test_quadrature_uncut_weights():
    m = _mesh(2)
    ctx = build_context(build_cut_model(m, -np.ones(m.n_nodes)), ())
    wv = ctx.volume.w[ctx.volume.elem == 0]
    assert wv.sum() == pytest.approx(0.25, abs=1e-14)  # element area (h=1/2)


def test_quadrature_cut_weights_match_subcell_area():
    m, cm = _circle_model()
    ctx = build_context(cm, ())
    for e in np.nonzero(cm.classification == CUT)[0]:
        wv = ctx.volume.w[ctx.volume.elem == e]
        interface = ctx.surface_part("interface")
        ws = interface.w[interface.elem == e]
        fluid_area = cm.piece_area[(cm.piece_elem == e) & (cm.piece_phase == FLUID)].sum()
        assert abs(wv.sum() - fluid_area) < 1e-12
        seg_elem = cm.piece_elem[cm.cut_rows[cm.cuts.seg_row]]
        seg_len = cm.cuts.seg_length[seg_elem == e].sum()
        assert abs(ws.sum() - seg_len) < 1e-12


def test_global_fluid_volume_matches_quadrature():
    m, cm = _circle_model()
    vol_w = build_context(cm, ()).volume.w
    assert abs(vol_w.sum() - cm.fluid_volume()) < 1e-12 * cm.fluid_volume()


def test_interface_normals_unit_and_toward_solid():
    m, cm = _circle_model()
    cuts = cm.cuts
    assert cuts.seg_normal.shape[0] > 0
    for a, b, normal in zip(cuts.seg_a, cuts.seg_b, cuts.seg_normal):
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-12
        mid = 0.5 * (a + b)
        outward = mid - np.array([0.5, 0.5])  # solid disk center
        assert normal @ outward < 0  # toward the solid interior


def test_partition_of_unity_at_fluid_points():
    m, cm = _circle_model()
    ctx = build_context(cm, ())
    np.testing.assert_allclose(ctx.volume.N.sum(axis=1), 1.0, atol=1e-12)


# --- enrichment ---------------------------------------------------------------

def _two_channel_model(n=9):
    """Two horizontal fluid channels separated by a one-h solid band.

    The band (3.5h, 4.5h) straddles the node row y = 4h, so those nodes
    have both channels inside their support.
    """
    m = _mesh(n)
    y = m.nodes[:, 1]
    h = m.h
    chan1 = np.maximum(1.5 * h - y, y - 3.5 * h)
    chan2 = np.maximum(4.5 * h - y, y - 6.5 * h)
    phi = perturb(np.minimum(chan1, chan2), h)
    return m, build_cut_model(m, phi)


def test_enrichment_single_channel_one_level():
    m = _mesh(6)
    y = m.nodes[:, 1]
    phi = perturb(np.maximum(0.25 - y, y - 0.75), m.h)
    cm = build_cut_model(m, phi)
    assert cm.n_regions == 1
    assert np.all(np.bincount(cm.dof_node)[cm.dof_node] == 1)


def test_enrichment_two_channels_two_levels_between():
    m, cm = _two_channel_model()
    assert cm.n_regions == 2
    h = m.h
    mid_nodes = [i for i in range(m.n_nodes)
                 if abs(m.nodes[i, 1] - 4.0 * h) < 1e-12]
    assert mid_nodes
    # nodes inside the separating band see both channels in their support
    levels = np.bincount(cm.dof_node, minlength=m.n_nodes)
    assert all(levels[i] == 2 for i in mid_nodes)


def test_enrichment_disconnected_dof_sets_disjoint():
    m, cm = _two_channel_model()
    dofs_by_region = {}
    fluid = cm.piece_phase == FLUID
    for region, dofs in zip(cm.piece_region[fluid], cm.piece_dofs[fluid]):
        dofs_by_region.setdefault(int(region), set()).update(dofs.tolist())
    r0, r1 = sorted(dofs_by_region)
    assert not (dofs_by_region[r0] & dofs_by_region[r1])


def test_enrichment_fully_solid_empty():
    m = _mesh(4)
    cm = build_cut_model(m, np.ones(m.n_nodes))
    assert cm.n_dofs == 0
    assert cm.n_regions == 0
    assert cm.dof_node.size == 0 and cm.dof_level.size == 0


def test_enrichment_capacity_error(monkeypatch):
    monkeypatch.setattr(cut, "MAX_ENRICHMENT_LEVELS", 1)
    with pytest.raises(CapacityError) as exc:
        _two_channel_model()
    assert exc.value.node is not None


# --- ghost facets --------------------------------------------------------------

def collect_ghost_facets(mesh, classification):
    """Oracle for the ghost set: interior facets next to at least one cut
    element with no solid element on either side."""
    out = []
    is_cut = classification == CUT
    for f in range(mesh.n_facets):
        e1, e2 = mesh.facet_elems[f]
        if not (is_cut[e1] or is_cut[e2]):
            continue
        if classification[e1] == SOLID or classification[e2] == SOLID:
            continue
        out.append(f)
    return np.asarray(out, dtype=np.int64)


def test_ghost_empty_without_cuts():
    m = _mesh(4)
    cm = build_cut_model(m, -np.ones(m.n_nodes))
    assert len(cm.ghost_facets) == 0
    assert collect_ghost_facets(m, cm.classification).shape[0] == 0


def test_ghost_single_cut_element_at_corner():
    # a solid domain-corner node produces exactly one cut element whose
    # interior facets all belong to Xi
    m = _mesh(5)
    h = m.h
    phi = perturb(0.5 * h - (m.nodes[:, 0] + m.nodes[:, 1]), h)
    cm = build_cut_model(m, phi)
    cut_elems = np.nonzero(cm.classification == CUT)[0]
    assert len(cut_elems) == 1
    e = int(cut_elems[0])
    facets = [f for f in range(m.n_facets) if e in m.facet_elems[f]]
    assert len(facets) == 2
    assert sorted(facets) == sorted(cm.ghost_facets.tolist())


def test_ghost_set_matches_bruteforce_definition():
    # Xi = interior facets with >= 1 cut neighbor and fluid support both sides
    m, cm = _circle_model()
    expect = []
    for f in range(m.n_facets):
        e1, e2 = (int(v) for v in m.facet_elems[f])
        if CUT not in (cm.classification[e1], cm.classification[e2]):
            continue
        if SOLID in (cm.classification[e1], cm.classification[e2]):
            continue
        expect.append(f)
    assert sorted(expect) == sorted(cm.ghost_facets.tolist())
    # every cut element's non-solid-adjacent facets are all in Xi
    xi = set(cm.ghost_facets.tolist())
    for f in range(m.n_facets):
        e1, e2 = (int(v) for v in m.facet_elems[f])
        if (CUT in (cm.classification[e1], cm.classification[e2])
                and SOLID not in (cm.classification[e1], cm.classification[e2])):
            assert f in xi


def test_ghost_pairs_take_the_nearest_piece_of_each_region():
    # loop oracle: per ghost facet and region with fluid on both sides, the
    # piece of that region whose vertex mean is nearest the facet midpoint
    # on each side, ties to the lower local index. Nodal noise makes saddles
    # whose two fluid corners share a region.
    rng = np.random.default_rng(4)
    m = _mesh(9)
    cm = build_cut_model(m, rng.normal(size=m.n_nodes) - 0.3)
    cuts, cut_rows = cm.cuts, cm.cut_rows

    def fluid_pieces(e):
        out = []
        for local, row in enumerate(np.flatnonzero(cm.piece_elem == e)):
            if cm.piece_phase[row] != FLUID:
                continue
            if cm.piece_full[row]:
                poly = m.nodes[m.elements[e]]
            else:
                p = np.searchsorted(cut_rows, row)
                poly = cuts.polygon[p, :cuts.n_vert[p]]
            out.append((local, int(cm.piece_region[row]), poly.mean(axis=0),
                        cm.piece_dofs[row]))
        return out

    expect, competed = [], 0
    for f in cm.ghost_facets.tolist():
        sides = [fluid_pieces(e) for e in m.facet_elems[f]]
        mid = m.nodes[m.facet_nodes[f]].mean(axis=0)
        for g in sorted({r for _, r, _, _ in sides[0]} & {r for _, r, _, _ in sides[1]}):
            picks = []
            for pieces in sides:
                cands = sorted((np.linalg.norm(c - mid), local, dofs)
                               for local, r, c, dofs in pieces if r == g)
                competed += len(cands) > 1
                picks.append(cands[0][2])
            expect.append((f, picks[0], picks[1]))
    assert competed > 0
    np.testing.assert_array_equal(cm.pair_facet, [f for f, _, _ in expect])
    np.testing.assert_array_equal(cm.pair_dofs, [[d1, d2] for _, d1, d2 in expect])


def test_ghost_excludes_solid_neighbors():
    # straight interface: cut row between fluid above and solid below
    m = _mesh(6)
    yc = 0.25 + 0.4 * m.h
    phi = perturb(yc - m.nodes[:, 1], m.h)
    cm = build_cut_model(m, phi)
    for f in cm.ghost_facets:
        e1, e2 = m.facet_elems[f]
        assert cm.classification[e1] != SOLID
        assert cm.classification[e2] != SOLID
    # facets between the cut row and the solid row below are excluded
    for f in range(m.n_facets):
        e1, e2 = m.facet_elems[f]
        if SOLID in (cm.classification[e1], cm.classification[e2]):
            assert f not in cm.ghost_facets


def test_translation_equivariance():
    # shifting the geometry by exactly h translates the cut model
    m = _mesh(8)
    h = m.h

    def model(cx):
        phi = perturb(0.2 - np.hypot(m.nodes[:, 0] - cx, m.nodes[:, 1] - 0.5), h)
        return build_cut_model(m, phi)

    cm1 = model(0.375)
    cm2 = model(0.375 + h)
    cls1 = cm1.classification.reshape(8, 8)
    cls2 = cm2.classification.reshape(8, 8)
    np.testing.assert_array_equal(cls1[:, :-1], cls2[:, 1:])
    assert abs(cm1.fluid_volume() - cm2.fluid_volume()) < 1e-12
    assert abs(cm1.surface_length() - cm2.surface_length()) < 1e-12
