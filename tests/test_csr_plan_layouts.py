"""The CSR plan over scalar dof pairs against scipy's COO -> CSR, for every
block layout the assemblers use and for field tuples in any order."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from cutflow.forms import Triplets

N = 7


def _blocks(rng, shape, reordered):
    fr, fc = shape[0] // N, shape[1] // N
    blocks = []
    for k, p, F, G in ((6, 4, range(fr), range(fc)),  # a [ux, uy, p] block
                       (3, 8, [fr - 1], [fc - 1]),  # a ghost block in one field
                       (4, 4, [fr - 1], [0]),  # one row field, one column field
                       (5, 4, [0], range(fc))):
        F, G = (list(F)[::-1], list(G)[::-1]) if reordered else (F, G)
        dofs = rng.integers(0, N, size=(k, p))
        blocks.append((dofs, rng.normal(size=(k, len(F) * p, len(G) * p)), F, G))
    return blocks


@pytest.mark.parametrize("reordered", [False, True], ids=["fields", "reordered"])
@pytest.mark.parametrize("shape", [(3 * N, 3 * N), (3 * N, N), (N, 3 * N), (N, N)])
def test_plan_matches_coo(shape, reordered):
    rng = np.random.default_rng(sum(shape) + reordered)
    blocks = _blocks(rng, shape, reordered)
    tri = Triplets()
    for dofs, vals, F, G in blocks:
        tri.add(dofs, vals, F, G)
    M = tri.matrix(SimpleNamespace(n=N, csr_plans={}), ("test",), shape)
    rows, cols = ([np.concatenate([d + f * N for f in F], axis=1) for d, _, F, _ in blocks],
                  [np.concatenate([d + g * N for g in G], axis=1) for d, _, _, G in blocks])
    C = sp.coo_matrix((np.concatenate([v.ravel() for _, v, _, _ in blocks]),
                       (np.concatenate([np.broadcast_to(r[:, :, None], b[1].shape).ravel()
                                        for r, b in zip(rows, blocks)]),
                        np.concatenate([np.broadcast_to(c[:, None, :], b[1].shape).ravel()
                                        for c, b in zip(cols, blocks)]))), shape=shape).tocsr()
    np.testing.assert_array_equal(M.indptr, C.indptr)
    np.testing.assert_array_equal(M.indices, C.indices)
    assert abs(M - C).max() <= 1e-14 * abs(C).max()
