import numpy as np
import pytest

from cutflow.errors import ConfigurationError
from cutflow.grid import build_mesh


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

