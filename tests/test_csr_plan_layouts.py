"""Triplets.matrix against scipy's COO -> CSR and a plain unique over
global keys, for every block layout the assemblers use and for field
tuples in any order: random blocks on the runs of a context's point tables
(the volume and ghost tables whole, surface runs in part)."""

import numpy as np
import pytest
import scipy.sparse as sp

from cutflow.conditions import BoundaryRegion, wall_regions
from cutflow.cut import build_cut_model
from cutflow.forms import Triplets, build_context
from cutflow.grid import build_mesh

from csr_reference import sorted_reference, triplets, unique_reference
from fixtures_common import perturb


@pytest.fixture(scope="module")
def ctx():
    mesh = build_mesh(((0, 0), (1, 1)), (6, 6))
    xy = mesh.nodes
    phi = perturb(0.25 - np.hypot(xy[:, 0] - 0.45, xy[:, 1] - 0.5), mesh.h)
    regions = wall_regions(mesh, [
        BoundaryRegion(name="inlet", side="left", kind="velocity", port=True),
        BoundaryRegion(name="outlet", side="right", kind="traction", port=True),
    ])
    ctx = build_context(build_cut_model(mesh, phi), regions)
    assert ctx.ghost.nq
    return ctx


def _blocks(ctx, rng, nf, reordered):
    fr, fc = nf
    runs = {name: r.dofs.shape[0] for name, r in ctx.sparsity.runs.items()}
    surface = np.sort(rng.choice(runs["surface"], runs["surface"] // 2, replace=False))
    blocks = []
    for table, ids, F, G in (("volume", np.arange(runs["volume"]), range(fr), range(fc)),
                             ("ghost", np.arange(runs["ghost"]), [fr - 1], [fc - 1]),
                             ("surface", surface, [fr - 1], [0]),
                             ("surface", surface[::2], [0], range(fc))):
        F, G = (tuple(F)[::-1], tuple(G)[::-1]) if reordered else (tuple(F), tuple(G))
        p = ctx.sparsity.runs[table].dofs.shape[1]
        blocks.append((table, ids, rng.normal(size=(len(F), len(G), ids.shape[0], p, p)),
                       F, G, ids.tobytes()))
    return blocks


@pytest.mark.parametrize("reordered", [False, True], ids=["fields", "reordered"])
@pytest.mark.parametrize("shape", [(3, 3), (3, 1), (1, 3), (1, 1)])
def test_plan_matches_coo(ctx, shape, reordered):
    rng = np.random.default_rng(sum(shape) + reordered)
    blocks = _blocks(ctx, rng, shape, reordered)
    tri = Triplets()
    for block in blocks:
        tri.add(*block)
    shape = (shape[0] * ctx.n, shape[1] * ctx.n)
    M = tri.matrix(ctx, shape)
    rows, cols, vals = triplets(ctx, tri.blocks)
    C = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    np.testing.assert_array_equal(M.indptr, C.indptr)
    np.testing.assert_array_equal(M.indices, C.indices)
    assert abs(M - C).max() <= 1e-14 * abs(C).max()
    got = [a.tobytes() for a in (M.indptr, M.indices, M.data)]
    assert got == [a.tobytes() for a in unique_reference(rows, cols, vals, shape)]
    assert got == [a.tobytes() for a in sorted_reference(ctx, tri.blocks, shape)]
