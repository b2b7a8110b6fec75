"""The CSR plan over scalar dof pairs against scipy's COO -> CSR, for every
block layout the assemblers use; a layout that is not in fields raises."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from cutflow.forms import Triplets

N = 7


def _fielded(rng, k, p, fields):
    d = rng.integers(0, N, size=(k, p))
    return np.concatenate([d + f * N for f in fields], axis=1)


def _blocks(rng, shape, mixed):
    fr, fc = shape[0] // N, shape[1] // N
    blocks = []
    for k, p, F, G in ((6, 4, range(fr), range(fc)),  # a [ux, uy, p] block
                       (3, 8, [fr - 1], [fc - 1]),  # a ghost block in one field
                       (4, 4, [fr - 1], [0]),  # one row field, one column field
                       (5, 4, [0], range(fc))):
        rows = _fielded(rng, k, p, F)
        cols = np.concatenate([rows[:, :p] % N + g * N for g in G], axis=1)
        blocks.append((rows, cols, rng.normal(size=(k, rows.shape[1], cols.shape[1]))))
    if mixed:  # fields that change from row to row
        rows = rng.integers(0, shape[0], size=(3, 5))
        cols = rng.integers(0, shape[1], size=(3, 6))
        blocks.append((rows, cols, rng.normal(size=(3, 5, 6))))
    return blocks


@pytest.mark.parametrize("mixed", [False, True], ids=["fields", "mixed"])
@pytest.mark.parametrize("shape", [(3 * N, 3 * N), (3 * N, N), (N, 3 * N), (N, N)])
def test_plan_matches_coo(shape, mixed):
    rng = np.random.default_rng(sum(shape) + mixed)
    blocks = _blocks(rng, shape, mixed)
    tri = Triplets()
    for rows, cols, vals in blocks:
        tri.add(rows, cols, vals)
    ctx = SimpleNamespace(n=N, csr_plans={})
    if mixed and max(shape) > N:  # on an N x N matrix every block is in one field
        with pytest.raises(ValueError, match="not chunks of scalar dofs"):
            tri.matrix(ctx, ("test",), shape)
        return
    M = tri.matrix(ctx, ("test",), shape)
    C = sp.coo_matrix((np.concatenate([v.ravel() for _, _, v in blocks]),
                       (np.concatenate([np.broadcast_to(r[:, :, None], v.shape).ravel()
                                        for r, _, v in blocks]),
                        np.concatenate([np.broadcast_to(c[:, None, :], v.shape).ravel()
                                        for _, c, v in blocks]))), shape=shape).tocsr()
    np.testing.assert_array_equal(M.indptr, C.indptr)
    np.testing.assert_array_equal(M.indices, C.indices)
    assert abs(M - C).max() <= 1e-14 * abs(C).max()
