import numpy as np
import pytest

from cutflow.errors import ConfigurationError
from cutflow.grid import EDGE_CORNERS, EDGE_NORMALS, FACET_EDGES, SIDE_EDGE, build_mesh

SHAPES = [(1, 1), (1, 4), (4, 1), (3, 2), (2, 3), (7, 5), (24, 12), (28, 28), (96, 96)]


def test_single_element():
    m = build_mesh(((0, 0), (1, 1)), (1, 1))
    assert m.n_nodes == 4
    assert m.n_elems == 1
    assert m.n_facets == 0


def test_two_element_strip():
    m = build_mesh(((0, 0), (2, 1)), (2, 1))
    assert m.n_nodes == 6
    assert m.n_elems == 2
    assert m.n_facets == 1
    np.testing.assert_array_equal(m.facet_elems[0], [0, 1])


def test_facet_count_formula_3x3():
    # m(n-1) + n(m-1) = 3*2 + 3*2 = 12
    m = build_mesh(((0, 0), (1, 1)), (3, 3))
    assert m.n_facets == 12


@pytest.mark.parametrize("mx,my", [(2, 2), (4, 3), (5, 5)])
def test_counts_general(mx, my):
    m = build_mesh(((0, 0), (mx * 0.25, my * 0.25)), (mx, my))
    assert m.n_nodes == (mx + 1) * (my + 1)
    assert m.n_elems == mx * my
    assert m.n_facets == mx * (my - 1) + my * (mx - 1)


def test_facets_match_shared_edges_bruteforce():
    m = build_mesh(((0, 0), (1.25, 1.0)), (5, 4))
    # brute force: every element pair sharing exactly 2 nodes must be a facet
    pairs = {}
    for e1 in range(m.n_elems):
        for e2 in range(e1 + 1, m.n_elems):
            shared = set(m.elements[e1]) & set(m.elements[e2])
            if len(shared) == 2:
                pairs[(e1, e2)] = shared
    assert len(pairs) == m.n_facets
    for f in range(m.n_facets):
        e1, e2 = m.facet_elems[f]
        assert (e1, e2) in pairs
        assert set(m.facet_nodes[f]) == pairs[(e1, e2)]
        assert e1 < e2
        np.testing.assert_allclose(np.linalg.norm(m.facet_normals[f]), 1.0)


def test_element_areas_sum_to_extent():
    m = build_mesh(((0.5, -0.25), (2.5, 0.75)), (8, 4))
    area = 0.0
    for e in range(m.n_elems):
        pts = m.nodes[m.elements[e]]
        x, y = pts[:, 0], pts[:, 1]
        area += 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert abs(area - 2.0) < 1e-14


def test_connectivity_counterclockwise():
    m = build_mesh(((0, 0), (1, 1)), (3, 3))
    for e in range(m.n_elems):
        pts = m.nodes[m.elements[e]]
        x, y = pts[:, 0], pts[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0


def test_bad_configs():
    with pytest.raises(ConfigurationError):
        build_mesh(((0, 0), (1, 1)), (0, 3))
    with pytest.raises(ConfigurationError):
        build_mesh(((0, 0), (0, 1)), (2, 2))
    with pytest.raises(ConfigurationError):
        build_mesh(((0, 0), (2, 1)), (2, 2))  # anisotropic h



def _loop_mesh(extent, divisions):
    """The mesh arrays as an element-by-element loop builds them: a
    reference for the index arithmetic of build_mesh."""
    (x0, y0), (x1, y1) = extent
    mx, my = divisions
    nx, ny = mx + 1, my + 1
    X, Y = np.meshgrid(np.linspace(x0, x1, nx), np.linspace(y0, y1, ny), indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * nx + i

    def eid(i, j):
        return j * mx + i

    elements = [(nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1))
                for j in range(my) for i in range(mx)]
    fe, fn, fnorm, fax = [], [], [], []
    for j in range(my):  # facets normal to +x: between (i, j) and (i+1, j)
        for i in range(mx - 1):
            fe.append((eid(i, j), eid(i + 1, j)))
            fn.append((nid(i + 1, j), nid(i + 1, j + 1)))
            fnorm.append((1.0, 0.0))
            fax.append(0)
    for j in range(my - 1):  # facets normal to +y: between (i, j) and (i, j+1)
        for i in range(mx):
            fe.append((eid(i, j), eid(i, j + 1)))
            fn.append((nid(i, j + 1), nid(i + 1, j + 1)))
            fnorm.append((0.0, 1.0))
            fax.append(1)
    sides = {
        "left": ([(nid(0, j), nid(0, j + 1)) for j in range(my)],
                 [eid(0, j) for j in range(my)]),
        "right": ([(nid(mx, j), nid(mx, j + 1)) for j in range(my)],
                  [eid(mx - 1, j) for j in range(my)]),
        "bottom": ([(nid(i, 0), nid(i + 1, 0)) for i in range(mx)],
                   [eid(i, 0) for i in range(mx)]),
        "top": ([(nid(i, my), nid(i + 1, my)) for i in range(mx)],
                [eid(i, my - 1) for i in range(mx)]),
    }
    return dict(
        nodes=nodes,
        elements=np.asarray(elements, dtype=np.int64),
        facet_elems=np.asarray(fe, dtype=np.int64).reshape(-1, 2),
        facet_nodes=np.asarray(fn, dtype=np.int64).reshape(-1, 2),
        facet_normals=np.asarray(fnorm, dtype=np.float64).reshape(-1, 2),
        facet_axis=np.asarray(fax, dtype=np.int64),
        boundary_edges={side: np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                        for side, (edges, _) in sides.items()},
        boundary_edge_elems={side: np.asarray(owners, dtype=np.int64)
                             for side, (_, owners) in sides.items()},
    )


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mx,my", SHAPES)
def test_mesh_matches_the_loop_reference_byte_for_byte(mx, my):
    # facet order and boundary-edge order are part of the contract: the
    # ghost pairs and the surface table are built, and summed, in them
    extent = ((0.5, -0.25), (0.5 + 0.25 * mx, -0.25 + 0.25 * my))
    mesh = build_mesh(extent, (mx, my))
    ref = _loop_mesh(extent, (mx, my))
    for name in ("nodes", "elements", "facet_elems", "facet_nodes", "facet_normals",
                 "facet_axis"):
        assert _same(getattr(mesh, name), ref[name]), name
    for name in ("boundary_edges", "boundary_edge_elems"):
        table = getattr(mesh, name)
        assert list(table) == ["left", "right", "bottom", "top"]
        assert list(table) == list(ref[name])
        for side in table:
            assert _same(table[side], ref[name][side]), (name, side)


@pytest.mark.parametrize("side", list(SIDE_EDGE))
@pytest.mark.parametrize("mx,my", [(1, 1), (3, 2), (2, 3)])
def test_side_edges_follow_the_table(side, mx, my):
    extent = ((0.5, -0.25), (0.5 + 0.25 * mx, -0.25 + 0.25 * my))
    mesh = build_mesh(extent, (mx, my))
    edge = SIDE_EDGE[side]
    axis, across = edge % 2, 1 - edge % 2
    edges, owners = mesh.boundary_edges[side], mesh.boundary_edge_elems[side]
    assert edges.shape == (mesh.divisions[axis], 2)
    ends = mesh.nodes[edges]  # (edge, end, xy)
    normal = EDGE_NORMALS[edge]
    # the edges lie on the side: the box's low or high coordinate across it
    wall = extent[1 if normal[across] > 0 else 0][across]
    assert np.all(ends[:, :, across] == wall)
    # they ascend along the side's axis, each starting where the last ended
    along = ends[:, :, axis]
    assert np.all(along[:, 0] < along[:, 1])
    np.testing.assert_array_equal(edges[1:, 0], edges[:-1, 1])
    assert along[0, 0] == extent[0][axis] and along[-1, 1] == extent[1][axis]
    # they are the owners' corners of the side's edge
    np.testing.assert_array_equal(edges, mesh.elements[owners][:, EDGE_CORNERS[edge]])
    # the edge's normal points out of the box
    assert normal[axis] == 0.0 and abs(normal[across]) == 1.0
    centre = 0.5 * (np.asarray(extent[0]) + np.asarray(extent[1]))
    mid = ends.mean(axis=1)
    assert np.all((mid - centre) @ normal > 0.0)
    low, high = np.asarray(extent[0]), np.asarray(extent[1])
    outside, inside = mid + 0.5 * mesh.h * normal, mid - 0.5 * mesh.h * normal
    assert np.all(np.any((outside < low) | (outside > high), axis=1))
    assert np.all((inside > low) & (inside < high))


def test_facet_nodes_are_the_edge_corners_of_both_elements():
    # the table's facet edges name the same node pair, in the same order, on
    # the lower and the upper element; the cut model's support graph reads
    # corners through this
    mesh = build_mesh(((0, 0), (1.25, 1.0)), (5, 4))
    corners = EDGE_CORNERS[FACET_EDGES[mesh.facet_axis]]  # (facet, lower / upper, 2)
    for k in (0, 1):
        nodes = np.take_along_axis(mesh.elements[mesh.facet_elems[:, k]], corners[:, k], axis=1)
        np.testing.assert_array_equal(nodes, mesh.facet_nodes)
    np.testing.assert_array_equal(mesh.facet_normals,
                                  EDGE_NORMALS[FACET_EDGES[mesh.facet_axis, 0]])
    np.testing.assert_array_equal(mesh.facet_normals,
                                  -EDGE_NORMALS[FACET_EDGES[mesh.facet_axis, 1]])
