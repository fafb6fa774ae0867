"""Gram-expansion distance math (BLAS substrate of the kernel layer).

Both the QFD and the Euclidean distance admit the Gram expansion

    d(u, v)^2 = uAu^T + vAv^T - 2 uAv^T          (A = I for L2)

("Faster Linear Algebra for Distance Matrices", arXiv 2210.15114): once the
per-row norms ``vAv^T`` are known, a whole batch of distances against a
fixed query costs one matrix-vector product instead of one O(n^2) quadratic
form per pair.  The functions here are pure array math — no counting, no
validation; the charging semantics live in :class:`repro.mam.base.DistancePort`.

Cancellation guard
------------------
The expansion subtracts numbers of size ``uAu^T + vAv^T`` to produce a
result that can be arbitrarily small, so tiny distances lose all their
significant digits (``u == v`` comes out as ``±O(eps * scale)`` instead of
exactly ``0``).  Every function therefore *rechecks* suspiciously small
squared distances — anything below ``RECHECK_REL * (uAu^T + vAv^T)`` — by
recomputing them with the exact difference-based form.  The threshold is
orders of magnitude above the expansion's rounding error and orders of
magnitude below any distance the expansion can resolve, so the recheck
changes only values that were pure noise.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RECHECK_REL",
    "qfd_row_norms",
    "l2_row_norms",
    "qfd_squared_one_to_many",
    "qfd_one_to_many",
    "l2_one_to_many",
    "qfd_squared_pairwise",
    "qfd_pairwise",
    "l2_pairwise",
    "qfd_cross",
    "l2_cross",
]

#: Relative threshold under which a Gram-expanded squared distance is
#: indistinguishable from cancellation noise and is recomputed exactly.
#: The expansion's error is O(eps * scale) ~ 1e-14 * scale; true squared
#: distances the caller can ever act on are far above 1e-12 * scale.
RECHECK_REL = 1e-12

_TINY = np.finfo(np.float64).tiny

#: Floats in one tile's difference buffer of :func:`l2_one_to_many` (1 MB, L2-resident).
_L2_TILE_FLOATS = 131072


def _flush_subnormals(x: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """*x* with its float64 subnormals set to ``0.0``, ahead of a BLAS product.

    Every multiply-add that meets a subnormal operand takes an x86
    microcode assist; ``Dirichlet(alpha ~ 1e-3)`` histograms carry ~1 % of
    them and run a gemm 2.5-5x slower for it.  Call once per raw operand
    and reuse the result.  ``inplace`` is only for arrays the caller
    allocated itself; otherwise *x* is copied, and only when it has a
    subnormal.  Results do not move by a bit (``docs/architecture.md``).
    """
    mask = x != 0.0
    mask &= x < _TINY
    mask &= x > -_TINY
    if not inplace:
        if not mask.any():
            return x
        x = x.copy()
    x[mask] = 0.0
    return x


def _as64(rows: np.ndarray) -> np.ndarray:
    """Coerce to float64 so every accumulation runs in double precision.

    A no-op (no copy) for float64 inputs; float32 rows from a
    half-precision store would otherwise hit same-dtype fast paths
    (``rows @ rows.T``, ``einsum("ij,ij->i", rows, rows)``) that
    accumulate in float32 and drift past the kernel-vs-scalar tolerance.
    """
    return np.asarray(rows, dtype=np.float64)


def qfd_row_norms(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-row quadratic forms ``vAv^T`` (the cacheable half of the Gram sum)."""
    rows = _flush_subnormals(_as64(rows))
    return np.einsum("ij,ij->i", rows @ matrix, rows)


def l2_row_norms(rows: np.ndarray) -> np.ndarray:
    """Per-row squared L2 norms ``vv^T``."""
    rows = _as64(rows)
    return np.einsum("ij,ij->i", rows, rows)


def _qfd_squared_diff(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Exact difference-based squared QFD of *rows* against *q* — one
    vector or one row per row (the recheck path)."""
    diff = _flush_subnormals(_as64(rows) - _as64(q), inplace=True)
    return np.einsum("ij,ij->i", diff @ matrix, diff)


def qfd_squared_one_to_many(
    matrix: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    *,
    row_norms: np.ndarray | None = None,
    q_a: np.ndarray | None = None,
    q_norm: float | None = None,
) -> np.ndarray:
    """Squared QFD from *q* to every row via the Gram expansion.

    With *row_norms*, *q_a* (= ``qA``) and *q_norm* (= ``qAq^T``) supplied,
    each row costs one O(n) dot product — this is the amortized hot path of
    :class:`~repro.kernels.kernels.QFDQueryContext`.
    """
    q = _as64(q)
    rows = _as64(rows)
    if q_a is None:
        q_a = q @ matrix
    if q_norm is None:
        q_norm = float(q_a @ q)
    if row_norms is None:
        row_norms = qfd_row_norms(matrix, rows)
    sq = q_norm + row_norms - 2.0 * (rows @ q_a)
    suspect = np.flatnonzero(sq <= RECHECK_REL * (q_norm + row_norms))
    if suspect.size:
        sq[suspect] = _qfd_squared_diff(matrix, q, rows[suspect])
    return np.maximum(sq, 0.0)


def qfd_one_to_many(
    matrix: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    *,
    row_norms: np.ndarray | None = None,
    q_a: np.ndarray | None = None,
    q_norm: float | None = None,
) -> np.ndarray:
    """QFD distances from *q* to every row (Gram expansion + recheck)."""
    return np.sqrt(
        qfd_squared_one_to_many(
            matrix, q, rows, row_norms=row_norms, q_a=q_a, q_norm=q_norm
        )
    )


def l2_one_to_many(
    q: np.ndarray, rows: np.ndarray, *, block_rows: int | None = None
) -> np.ndarray:
    """L2 distances from *q* to every row — difference-based on purpose.

    For a single query the diff form is already one fused pass and, unlike
    the Gram form, exact near zero; the QMap-space query path uses it so
    mapped-space results stay bit-identical to a plain Euclidean scan.
    Past one tile (*block_rows*, else ``_L2_TILE_FLOATS`` worth) rows stream
    through one reused buffer — same floats, no ``m x n`` temporary.
    """
    if block_rows is None:
        if rows.size <= _L2_TILE_FLOATS:  # a node, a refinement block: the one-shot form
            diff = _as64(rows) - _as64(q)
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))
        block_rows = max(1, _L2_TILE_FLOATS // rows.shape[1])
    elif block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    q = _as64(q)
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    buffer = np.empty((min(block_rows, n), rows.shape[1]), dtype=np.float64)
    for start in range(0, n, block_rows):
        block = rows[start : start + block_rows]
        diff = np.subtract(block, q, out=buffer[: block.shape[0]])
        np.einsum("ij,ij->i", diff, diff, out=out[start : start + block_rows])
    return np.sqrt(out, out=out)


def qfd_squared_pairwise(
    matrix: np.ndarray,
    rows: np.ndarray,
    *,
    row_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Exactly-symmetric squared QFD matrix over *rows* (Gram + recheck).

    The diagonal is forced to exactly ``0`` and the cross term is
    symmetrized as ``C + C^T`` (float addition commutes), so the output is
    bit-symmetric — partition decisions that read row *i* against row *j*
    see the same number in both orders.
    """
    rows = _flush_subnormals(_as64(rows))
    g = rows @ matrix
    if row_norms is None:
        row_norms = np.einsum("ij,ij->i", g, rows)
    cross = g @ rows.T
    sq = row_norms[:, None] + row_norms[None, :] - (cross + cross.T)
    np.fill_diagonal(sq, 0.0)
    suspect = sq <= RECHECK_REL * (row_norms[:, None] + row_norms[None, :])
    np.fill_diagonal(suspect, False)
    ii, jj = np.nonzero(np.triu(suspect, 1))
    if ii.size:
        exact = _qfd_squared_diff(matrix, rows[jj], rows[ii])
        sq[ii, jj] = exact
        sq[jj, ii] = exact
    return np.maximum(sq, 0.0)


def qfd_pairwise(
    matrix: np.ndarray,
    rows: np.ndarray,
    *,
    row_norms: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise QFD distance matrix (symmetric, zero diagonal)."""
    return np.sqrt(qfd_squared_pairwise(matrix, rows, row_norms=row_norms))


def l2_pairwise(rows: np.ndarray, *, row_norms: np.ndarray | None = None) -> np.ndarray:
    """Pairwise L2 distance matrix via the Gram expansion (+ recheck)."""
    rows = _as64(rows)
    if row_norms is None:
        row_norms = l2_row_norms(rows)
    cross = rows @ rows.T
    sq = row_norms[:, None] + row_norms[None, :] - (cross + cross.T)
    np.fill_diagonal(sq, 0.0)
    suspect = sq <= RECHECK_REL * (row_norms[:, None] + row_norms[None, :])
    np.fill_diagonal(suspect, False)
    ii, jj = np.nonzero(np.triu(suspect, 1))
    if ii.size:
        diff = rows[ii] - rows[jj]
        exact = np.einsum("ij,ij->i", diff, diff)
        sq[ii, jj] = exact
        sq[jj, ii] = exact
    return np.sqrt(np.maximum(sq, 0.0))


def qfd_cross(
    matrix: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    *,
    norms_a: np.ndarray | None = None,
    norms_b: np.ndarray | None = None,
) -> np.ndarray:
    """``(a, b)`` QFD distance matrix between two row batches."""
    rows_a = _flush_subnormals(_as64(rows_a))
    rows_b = _flush_subnormals(_as64(rows_b))
    g = rows_a @ matrix
    if norms_a is None:
        norms_a = np.einsum("ij,ij->i", g, rows_a)
    if norms_b is None:
        norms_b = qfd_row_norms(matrix, rows_b)
    sq = norms_a[:, None] + norms_b[None, :] - 2.0 * (g @ rows_b.T)
    suspect = sq <= RECHECK_REL * (norms_a[:, None] + norms_b[None, :])
    ii, jj = np.nonzero(suspect)
    if ii.size:
        sq[ii, jj] = _qfd_squared_diff(matrix, rows_b[jj], rows_a[ii])
    return np.sqrt(np.maximum(sq, 0.0))


def l2_cross(
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    *,
    norms_a: np.ndarray | None = None,
    norms_b: np.ndarray | None = None,
) -> np.ndarray:
    """``(a, b)`` L2 distance matrix between two row batches."""
    rows_a = _as64(rows_a)
    rows_b = _as64(rows_b)
    if norms_a is None:
        norms_a = l2_row_norms(rows_a)
    if norms_b is None:
        norms_b = l2_row_norms(rows_b)
    sq = norms_a[:, None] + norms_b[None, :] - 2.0 * (rows_a @ rows_b.T)
    suspect = sq <= RECHECK_REL * (norms_a[:, None] + norms_b[None, :])
    ii, jj = np.nonzero(suspect)
    if ii.size:
        diff = rows_a[ii] - rows_b[jj]
        sq[ii, jj] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(np.maximum(sq, 0.0))
