"""Ground truth computed by the harness's own numpy code, outside the child.

Uses ``np.linalg.cholesky`` and blocked gemm only -- nothing from
``repro.kernels`` -- so a bug shared by the program's kernels and its
access methods cannot vouch for itself.  The parent computes and caches
the answers; the measured child loads only top-k index/distance arrays.
"""

from __future__ import annotations

import os

import numpy as np

PAD = 4  # runners-up kept beyond k, to recognise ties at the k-th distance
RTOL = 1e-9
ATOL = 1e-12
_BLOCK_BYTES = 64 << 20


def ground_truth(database, queries, matrix, k, first_visible=None):
    """Top ``k + PAD`` neighbours of every query under the QFD of *matrix*.

    With *first_visible* = m0 (the churn workload), *database* holds the
    indexed rows followed by the insert pool and query ``i`` sees only the
    rows inserted before it: ``database[: m0 + i]``.
    """
    factor = np.linalg.cholesky(np.asarray(matrix, dtype=np.float64))
    rows = np.asarray(database, dtype=np.float64) @ factor
    qs = np.asarray(queries, dtype=np.float64) @ factor
    keep = min(k + PAD, rows.shape[0] if first_visible is None else first_visible)
    shortlist = min(rows.shape[0], keep + 8)
    row_sq = np.einsum("ij,ij->i", rows, rows)
    idx = np.empty((qs.shape[0], keep), dtype=np.int64)
    dist = np.empty((qs.shape[0], keep), dtype=np.float64)
    block = max(1, _BLOCK_BYTES // (rows.shape[0] * 8))
    for start in range(0, qs.shape[0], block):
        q = qs[start : start + block]
        sq = row_sq[None, :] - 2.0 * (q @ rows.T)  # + |q|^2, constant per query
        if first_visible is not None:
            hidden = np.arange(rows.shape[0])[None, :] >= (
                first_visible + start + np.arange(q.shape[0])[:, None]
            )
            sq[hidden] = np.inf
        cand = np.argpartition(sq, shortlist - 1, axis=1)[:, :shortlist]
        for r in range(q.shape[0]):
            # The Gram form only shortlists; distances are recomputed in
            # difference form, which does not cancel near zero.
            c = cand[r][np.isfinite(sq[r, cand[r]])]
            d = np.sqrt(np.einsum("ij,ij->i", rows[c] - q[r], rows[c] - q[r]))
            order = np.lexsort((c, d))[:keep]
            idx[start + r] = c[order]
            dist[start + r] = d[order]
    return idx, dist


def cached_ground_truth(cache_dir, inputs, k, first_visible=None):
    """Path of the ``.npz`` holding the oracle for *inputs*, computing it once."""
    os.makedirs(cache_dir, exist_ok=True)
    kind = "static" if first_visible is None else "growing"
    path = os.path.join(cache_dir, f"oracle_{inputs.sha256[:24]}_{kind}.npz")
    if not os.path.exists(path):
        database = inputs.database
        if first_visible is not None:
            database = np.vstack([inputs.database, inputs.inserts])
        idx, dist = ground_truth(database, inputs.queries, inputs.matrix, k, first_visible)
        tmp = path + f".{os.getpid()}.tmp.npz"
        np.savez(tmp, idx=idx, dist=dist)
        os.replace(tmp, path)
    return path


def answer_matches(neighbors, o_idx, o_dist, k, rtol=RTOL):
    """Whether a program answer equals the oracle's, ties resolved at *rtol*."""
    k = min(k, len(o_idx))
    if len(neighbors) != k:
        return False
    got_d = np.array([n.distance for n in neighbors])
    if not np.allclose(np.sort(got_d), o_dist[:k], rtol=rtol, atol=ATOL):
        return False
    extra = {int(n.index) for n in neighbors} - {int(i) for i in o_idx[:k]}
    if not extra:
        return True
    kth = o_dist[k - 1]
    tied = {int(i) for i, d in zip(o_idx[k:], o_dist[k:]) if abs(d - kth) <= rtol * kth + ATOL}
    return extra <= tied
