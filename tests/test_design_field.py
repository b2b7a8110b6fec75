import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cutflow.design import (DesignVector, LevelSetMap, Port, build_filter, ks_min,
                            port_distances)
from cutflow.errors import ConfigurationError
from cutflow.grid import build_mesh


def _mesh(n=4, L=1.0):
    return build_mesh(((0, 0), (L, L)), (n, n))


# --- filter ----------------------------------------------------------------

def test_filter_identity_below_spacing():
    m = _mesh(3)
    f = build_filter(m, 0.2)  # spacing is 1/3
    assert (f - sp.eye(m.n_nodes)).nnz == 0


def test_filter_rows_sum_to_one():
    m = _mesh(5)
    f = build_filter(m, 0.55)
    rowsum = np.asarray(f.sum(axis=1)).ravel()
    np.testing.assert_allclose(rowsum, 1.0, atol=1e-12)


def test_filter_corner_node_weights_by_hand():
    # corner node with two neighbors at distance h: weights
    # (r, r-h, r-h) / (r + 2(r-h)) evaluated from the truncated cone
    m = _mesh(4)
    h = m.h
    r = 1.4 * h
    f = build_filter(m, r)
    row = f.getrow(0).toarray().ravel()
    denom = r + 2 * (r - h)
    assert abs(row[0] - r / denom) < 1e-13
    assert abs(row[1] - (r - h) / denom) < 1e-13
    assert abs(row[5] - (r - h) / denom) < 1e-13
    assert abs(row.sum() - 1.0) < 1e-13


def test_filter_symmetry_pattern_and_nonnegative():
    m = _mesh(6)
    f = build_filter(m, 0.4)
    W = f
    assert W.min() >= 0
    pattern = (W != 0).astype(int)
    assert (pattern != pattern.T).nnz == 0


def test_filter_truncation_radius():
    m = _mesh(6)
    r = 0.35
    f = build_filter(m, r)
    W = f.tocoo()
    d = np.linalg.norm(m.nodes[W.row] - m.nodes[W.col], axis=1)
    assert np.all(d < r - 1e-12)


def test_apply_filter_constant_preserved():
    m = _mesh(5)
    f = build_filter(m, 0.5)
    phi = f @ np.full(m.n_nodes, 0.37)
    np.testing.assert_allclose(phi, 0.37, atol=1e-13)


def test_apply_filter_zero_and_unit_vector():
    m = _mesh(4)
    f = build_filter(m, 0.4)
    assert np.all(f @ np.zeros(m.n_nodes) == 0)
    e7 = np.zeros(m.n_nodes)
    e7[7] = 1.0
    np.testing.assert_allclose(f @ e7, f.toarray()[:, 7], atol=1e-15)


def test_apply_filter_matches_dense_oracle():
    m = _mesh(7)
    r = 0.33
    f = build_filter(m, r)
    rng = np.random.default_rng(11)
    s = rng.normal(size=m.n_nodes)
    # dense brute-force: w_ij = max(0, r - |x_i - x_j|), row-normalized
    X = m.nodes
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    W = np.maximum(0.0, r - D)
    W /= W.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(f @ s, W @ s, atol=1e-13)


def test_apply_filter_length_mismatch():
    # the level set map refuses a nodal block that is not one value per node
    m = _mesh(3)
    lm = LevelSetMap(mesh=m, filt=build_filter(m, 0.5), ports=[])
    d = DesignVector(values=np.zeros(5), lower=np.full(5, -1.0),
                     upper=np.full(5, 1.0), n_nodal=5)
    with pytest.raises(ValueError):
        lm.build(d)


def test_filter_bad_radius():
    with pytest.raises(ConfigurationError):
        build_filter(_mesh(3), -1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=16, max_size=16))
def test_filter_sup_norm_contraction(vals):
    m = _mesh(3)
    f = build_filter(m, 0.6)
    s = np.asarray(vals)
    assert np.max(np.abs(f @ s)) <= np.max(np.abs(s)) + 1e-12


# --- ports and KS ----------------------------------------------------------

def test_port_on_axis_and_interface():
    # a bottom port's level set runs along x; the y coordinate is ignored
    p = Port(name="p", face="bottom", center=(0.0, 0.0), radius=0.3)
    x = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.7], [-0.3, 0.4]])
    d, v = port_distances([p], [], x)
    np.testing.assert_array_equal(d[:, 0], [0.0, 0.3, 0.0, -0.3])
    assert abs(v[0, 0] + 0.3) < 1e-15
    assert abs(v[1, 0]) < 1e-15
    assert abs(v[2, 0] + 0.3) < 1e-15
    assert abs(v[3, 0]) < 1e-15


@pytest.mark.parametrize("bad", [{"radius": -0.1}, {"slab_elements": 0},
                                 {"slab_elements": -1}],
                         ids=["negative_radius", "slab_0", "slab_minus_1"])
def test_port_invalid(bad):
    # a slab of 0 layers holds only the face nodes, and one of -1 none, so
    # the port and its design variables would be silently dropped
    with pytest.raises(ConfigurationError):
        Port(**{"name": "p", "face": "left", "center": (0.0, 0.0), "radius": 0.1, **bad})


def _ks(values, beta):
    return ks_min(np.asarray(values, dtype=float)[None, :], beta)[0][0]


def test_ks_min_singleton_exact():
    assert _ks([3.7], 50.0) == pytest.approx(3.7, abs=1e-14)


def test_ks_min_pair_closed_form():
    beta = 10.0
    assert _ks([2.0, 2.0], beta) == pytest.approx(2.0 - math.log(2) / beta, abs=1e-13)


def test_ks_min_far_pair():
    # ks_min({0, 10}, beta=100) within ln(2)/100 < 0.007 of 0
    assert abs(_ks([0.0, 10.0], 100.0)) < 0.007


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=6), st.integers(0, 5),
       st.floats(0.01, 2.0))
def test_ks_min_monotone_and_bounded(vals, idx, bump):
    beta = 25.0
    base = _ks(vals, beta)
    n = len(vals)
    assert base <= min(vals) + math.log(n) / beta + 1e-9
    assert base >= min(vals) - math.log(n) / beta - 1e-9
    vals2 = list(vals)
    vals2[idx % n] += bump
    assert _ks(vals2, beta) >= base - 1e-9


# --- level set assembly -----------------------------------------------------

def _lsmap(mesh, ports=()):
    return LevelSetMap(mesh=mesh, filt=build_filter(mesh, 2.4 * mesh.h),
                       ports=list(ports))


def test_all_solid_design():
    m = _mesh(4)
    lm = _lsmap(m)
    up = 0.025
    d = DesignVector(values=np.full(m.n_nodes, up), lower=np.full(m.n_nodes, -up),
                     upper=np.full(m.n_nodes, up), n_nodal=m.n_nodes)
    phi = lm.build(d)
    np.testing.assert_allclose(phi, up, atol=1e-14)


def test_zero_value_perturbed_to_solid_shift():
    m = _mesh(4)
    lm = _lsmap(m)
    d = DesignVector(values=np.zeros(m.n_nodes), lower=np.full(m.n_nodes, -1.0),
                     upper=np.full(m.n_nodes, 1.0), n_nodal=m.n_nodes)
    phi = lm.build(d)
    np.testing.assert_allclose(phi, 1e-6 * m.h, atol=1e-20)


def test_no_values_inside_shift_band():
    m = _mesh(6)
    lm = _lsmap(m)
    rng = np.random.default_rng(2)
    d = DesignVector(values=rng.normal(scale=1e-7, size=m.n_nodes),
                     lower=np.full(m.n_nodes, -1.0), upper=np.full(m.n_nodes, 1.0),
                     n_nodal=m.n_nodes)
    phi = lm.build(d)
    assert np.all(np.abs(phi) >= 1e-6 * m.h - 1e-20)


def test_port_axis_node_value():
    m = _mesh(8)
    port = Port(name="p", face="right", center=(1.0, 0.5), radius=0.2, slab_elements=2)
    lm = _lsmap(m, [port])
    d = DesignVector(values=np.full(m.n_nodes, 0.01),
                     lower=np.full(m.n_nodes, -0.01),
                     upper=np.full(m.n_nodes, 0.01), n_nodal=m.n_nodes)
    phi = lm.build(d)
    # node on the port axis inside the slab: KS of a singleton is exact
    axis_node = np.nonzero((np.abs(m.nodes[:, 0] - 1.0) < 1e-12)
                           & (np.abs(m.nodes[:, 1] - 0.5) < 1e-12))[0][0]
    assert phi[axis_node] == pytest.approx(-0.2, abs=1e-9)
    # far from the slab the filtered field survives
    far_node = np.nonzero((np.abs(m.nodes[:, 0]) < 1e-12)
                          & (np.abs(m.nodes[:, 1] - 0.5) < 1e-12))[0][0]
    assert phi[far_node] == pytest.approx(0.01, abs=1e-12)


def test_levelset_jacobian_nodal_rows_are_filter_rows():
    m = _mesh(5)
    lm = _lsmap(m)
    d = DesignVector(values=np.full(m.n_nodes, 0.01),
                     lower=np.full(m.n_nodes, -0.02),
                     upper=np.full(m.n_nodes, 0.02), n_nodal=m.n_nodes)
    J = lm.jacobian(d)
    np.testing.assert_allclose(J.toarray(), lm.filt.toarray(), atol=1e-15)


def test_levelset_jacobian_transpose_product_is_filter_bitwise():
    # without ports J is W in W's own index order, so the gradient
    # contraction J^T g sums in the same order as W^T g
    m = _mesh(12)
    lm = _lsmap(m)
    rng = np.random.default_rng(8)
    d = DesignVector(values=rng.uniform(-0.02, 0.02, m.n_nodes),
                     lower=np.full(m.n_nodes, -0.03),
                     upper=np.full(m.n_nodes, 0.03), n_nodal=m.n_nodes)
    g = rng.normal(size=m.n_nodes)
    assert (lm.jacobian(d).T @ g).tobytes() == (lm.filt.T @ g).tobytes()


def test_levelset_jacobian_nodal_rows_vanish_on_port_slabs():
    m = _mesh(10)
    h = m.h
    ports = [Port(name="a", face="right", center=(1.0, 0.3), radius=0.08,
                  optimize_center=True, optimize_radius=True,
                  center_bounds=(0.15, 0.45), radius_bounds=(0.05, 0.15)),
             Port(name="b", face="bottom", center=(0.6, 0.0), radius=0.1,
                  slab_elements=1, optimize_radius=True, radius_bounds=(0.05, 0.15))]
    lm = _lsmap(m, ports)
    n = m.n_nodes
    rng = np.random.default_rng(9)
    d = DesignVector(values=np.concatenate([rng.uniform(-0.02, 0.02, n),
                                            [0.3, 0.08, 0.1]]),
                     lower=np.concatenate([np.full(n, -0.03), [0.15, 0.05, 0.05]]),
                     upper=np.concatenate([np.full(n, 0.03), [0.45, 0.15, 0.15]]),
                     n_nodal=n)
    J = lm.jacobian(d).toarray()
    assert J.shape == (n, n + 3)
    x, y = m.nodes[:, 0], m.nodes[:, 1]
    slab = (x >= 1.0 - 2.5 * h) | (y <= 1.5 * h)
    assert np.all(J[slab, :n] == 0.0)
    np.testing.assert_array_equal(J[~slab, :n], lm.filt.toarray()[~slab])
    assert np.all(J[~slab, n:] == 0.0)
    assert np.all(J[slab].any(axis=1))


def test_levelset_jacobian_matches_fd():
    m = _mesh(10)
    port = Port(name="p", face="bottom", center=(0.5, 0.0), radius=0.15, slab_elements=2,
                optimize_center=True, optimize_radius=True, center_bounds=(0.2, 0.8),
                radius_bounds=(0.05, 0.4))
    lm = _lsmap(m, [port])
    rng = np.random.default_rng(4)
    n = m.n_nodes
    vals = np.concatenate([rng.normal(scale=0.005, size=n), [0.5, 0.15]])
    d = DesignVector(values=vals,
                     lower=np.concatenate([np.full(n, -0.02), [0.2, 0.05]]),
                     upper=np.concatenate([np.full(n, 0.02), [0.8, 0.4]]),
                     n_nodal=n)
    J = lm.jacobian(d).toarray()
    step = 1e-6 * m.h
    for _ in range(10):
        ds = rng.normal(size=d.n)
        ds /= np.linalg.norm(ds)
        dp = replace(d, values=d.values + step * ds)
        dm = replace(d, values=d.values - step * ds)
        fd = (lm.build(dp) - lm.build(dm)) / (2 * step)
        an = J @ ds
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(fd - an) / denom < 1e-5


def test_levelset_build_unchanged_by_jacobian():
    # the Jacobian reads the filter matrix without changing how later level
    # sets are summed, so a design's level set is the same before and after
    # (a restart rebuilds a warm geometry before any Jacobian is taken)
    m = _mesh(14)
    lm = _lsmap(m)
    rng = np.random.default_rng(5)
    d = DesignVector(values=rng.uniform(-0.02, 0.02, m.n_nodes),
                     lower=np.full(m.n_nodes, -0.03),
                     upper=np.full(m.n_nodes, 0.03), n_nodal=m.n_nodes)
    before = lm.build(d)
    lm.jacobian(d)
    after = lm.build(d)
    assert before.tobytes() == after.tobytes()
