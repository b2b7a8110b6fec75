"""References for the CSR matrices of forms.Triplets: the global triplets
of its blocks, a plain unique over global keys, and the sort-based planner
that built them before each context counted its own sparsity, kept verbatim
as the byte-for-byte reference of the index arithmetic that replaced it."""

import numpy as np


def triplets(ctx, blocks):
    """Global (rows, cols, vals) of Triplets blocks, in the order added."""
    n, out = ctx.n, []
    for table, runs, vals, F, G, _ in blocks:
        d = ctx.sparsity.runs[table].dofs[runs]
        rows = np.array(F)[:, None, None, None, None] * n + d[None, None, :, :, None]
        cols = np.array(G)[None, :, None, None, None] * n + d[None, None, :, None, :]
        out.append([np.broadcast_to(a, vals.shape).ravel() for a in (rows, cols, vals)])
    return [np.concatenate(part) for part in zip(*out)]


def unique_reference(rows, cols, vals, shape):
    """(indptr, indices, data) of triplets by a unique over global keys,
    each entry summed in triplet order by bincount."""
    keys, inverse = np.unique(rows * shape[1] + cols, return_inverse=True)
    row, col = np.divmod(keys, shape[1])
    indptr = np.searchsorted(row, np.arange(shape[0] + 1))
    return indptr.astype(np.int32), col.astype(np.int32), np.bincount(inverse, vals)


def sorted_reference(ctx, blocks, shape):
    """(indptr, indices, data) of the blocks by the sort-based planner."""
    old = []
    for table, runs, vals, F, G, _ in blocks:
        d = ctx.sparsity.runs[table].dofs[runs]
        k, p = d.shape
        old.append((d, vals.transpose(2, 0, 3, 1, 4).reshape(k, len(F) * p, len(G) * p), F, G))
    slot, indices, indptr = sorted_plan(old, shape, ctx.n)
    data = np.bincount(slot, np.concatenate([v.ravel() for _, v, _, _ in old]),
                       minlength=indices.shape[0])
    return indptr, indices, data


def sorted_plan(blocks, shape, n):
    """(slot, indices, indptr): the CSR pattern of the blocks' triplets, with
    sorted indices, and each triplet's position in it. Each field pair takes
    every piece's scalar dof pairs, or those and every ghost pair's.

    blocks hold (dofs (k, p), vals (k, |F| p, |G| p), F, G), vals[k, i p + a,
    j p + b] at row F[i] n + dofs[k, a] and column G[j] n + dofs[k, b]."""
    nf, index = (shape[0] // n, shape[1] // n), np.int32 if np.prod(shape) < 2**31 else np.int64
    pairs = [(d[:, :, None] * n + d[:, None, :]).astype(index).ravel() for d, *_ in blocks]
    keys, pair = np.unique(np.concatenate(pairs), return_inverse=True)  # one unique per kind
    pair, marks = np.split(pair, np.cumsum([p.size for p in pairs[:-1]])), {}
    for pr, (*_, F, G) in zip(pair, blocks):  # each field tuple's pairs are marked once
        marks.setdefault((F, G), np.zeros(keys.size, dtype=bool))[pr] = True
    on = {(f, g): np.flatnonzero(sum(m for (F, G), m in marks.items() if f in F and g in G))
          for f, g in np.ndindex(nf)}  # each field pair's pairs, in row-major order
    count = {fg: np.bincount(keys[q] // n, minlength=n) for fg, q in on.items()}  # per row a
    indptr = np.concatenate([[0]] + [sum(count[f, g] for g in range(nf[1]))
                                     for f in range(nf[0])]).cumsum().astype(index)
    start = indptr[:-1].reshape(nf[0], n).astype(np.int64)  # each CSR row's next free slot
    by_pair = np.empty((keys.size,) + nf, dtype=np.int64)
    indices = np.empty(indptr[-1], dtype=index)
    for (f, g), c in count.items():  # a row's pairs on field g follow those on g - 1
        slots = np.repeat(start[f] - np.cumsum(c) + c, c) + np.arange(on[f, g].size)
        start[f] += c
        by_pair[on[f, g], f, g], indices[slots] = slots, keys[on[f, g]] % n + g * n
    table = {(F, G): by_pair if (F, G) == tuple(tuple(range(k)) for k in nf)
             else by_pair.take(F, axis=1).take(G, axis=2) for F, G in marks}  # (pairs, F, G)
    slot = [np.take(table[F, G], pr, axis=0).reshape(-1, d.shape[1], d.shape[1], len(F), len(G))
            .transpose(0, 3, 1, 4, 2).ravel() for pr, (d, _, F, G) in zip(pair, blocks)]
    return np.concatenate(slot), indices, indptr
