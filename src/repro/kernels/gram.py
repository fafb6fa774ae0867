"""Batched distance math (BLAS substrate of the kernel layer).

The QFD has one arithmetic, the difference form of paper Section 1.2,

    QFD_A(u, v)^2 = (u - v) A (u - v)^T,

O(n^2) per pair however it is batched (:func:`qfd_one_to_many`, and
:func:`qfd_pairwise` built from it).  Only after QMap is a distance O(n);
the Euclidean functions here use the Gram expansion
``|u - v|^2 = uu^T + vv^T - 2 uv^T`` for their matrix forms
(:func:`l2_pairwise`, :func:`l2_cross`) and the difference form for one
query (:func:`l2_one_to_many`).  The functions are pure array math — no
counting, no validation; the charging semantics live in
:class:`repro.mam.base.DistancePort`.

The QFD sequential scan also runs the quadratic form in float32, over
the upper triangle of ``A + A^T``, as a certified filter
(:func:`qfd_filter` over a :func:`qfd_shadow`): each
row's float32 value comes with a proven bound on its distance from the
float64 value above, and the scan re-evaluates in float64 only the rows
the bound cannot decide — what it returns is always the float64 form's.
Before that pass, :func:`qfd_lower_bound` rules rows out in O(n) each:
``mu ||v - q||^2`` with ``mu`` a certified lower bound on the smallest
eigenvalue of ``A``'s symmetric part (:func:`lambda_min_floor`), less
every rounding error, bounds the float64 form from below.

Cancellation guard (L2 matrix forms)
------------------------------------
The expansion subtracts numbers of size ``uu^T + vv^T`` to produce a
result that can be arbitrarily small, so tiny distances lose all their
significant digits (``u == v`` comes out as ``±O(eps * scale)`` instead of
exactly ``0``).  :func:`l2_pairwise` and :func:`l2_cross` therefore
*recheck* suspiciously small squared distances — anything below
``RECHECK_REL * (uu^T + vv^T)`` — with the exact difference form.  The
threshold is orders of magnitude above the expansion's rounding error and
orders of magnitude below any distance the expansion can resolve, so the
recheck changes only values that were pure noise.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from ._pool import pool_size

__all__ = [
    "RECHECK_REL",
    "qfd_row_norms",
    "l2_row_norms",
    "qfd_one_to_many",
    "qfd_shadow",
    "qfd_triangle",
    "qfd_filter",
    "shadow_norms",
    "qfd_lower_bound",
    "lambda_min_floor",
    "abs_sum_radius",
    "l2_one_to_many",
    "qfd_pairwise",
    "l2_pairwise",
    "l2_cross",
    "row_tiles",
]

#: Relative threshold under which a Gram-expanded squared L2 distance is
#: indistinguishable from cancellation noise and is recomputed exactly.
#: The expansion's error is O(eps * scale) ~ 1e-14 * scale; true squared
#: distances the caller can ever act on are far above 1e-12 * scale.
RECHECK_REL = 1e-12

_TINY32 = float(np.finfo(np.float32).tiny)
_TINY64 = float(np.finfo(np.float64).tiny)
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64

#: Floats in one tile's difference buffer of :func:`l2_one_to_many` (1 MB, L2-resident).
_L2_TILE_FLOATS = 131072

#: Rows per tile of a database-sized operand: 8192 x 512 d x 8 B = 32 MB of
#: float64, so a memory-mapped float32 store is never upcast whole.  Both
#: stores go through the same tiles, which is what keeps an mmap index and
#: its heap twin bit-identical (a one-row tile is a matrix-vector product,
#: another BLAS kernel, so tilings are not interchangeable in general).  A
#: heap database at benchmark sizes is a single tile.
_TILE_ROWS = 8192


def _split_workers() -> int:
    """Threads one QFD tile may be split across: the cores BLAS leaves idle.

    Only a BLAS thread count the environment declares leaves any; with
    none declared, BLAS threads every product over all cores itself.
    """
    declared = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas_threads = int(declared or 0)
    except ValueError:
        return 1
    return pool_size(blas_threads) if blas_threads > 0 else 1


_SPLIT_WORKERS = _split_workers()

#: Fewest multiply-adds (``rows * n^2``) one chunk of a split QFD tile
#: gets; a tile splits only into two or more such chunks.  Set where the
#: split stops losing: with two threads at 512-d, 128 rows read 2.7 ms
#: serial against 5.6 ms split, 256 rows 4.6 against 4.5, 1 024 rows 20.8
#: against 13.2 (Xeon, 2 vCPUs, BLAS pinned to one thread).  Far above
#: OpenBLAS's small-matrix path (``M * N * K <= 1e6``), so every chunk runs
#: the gemm kernel the whole tile runs and each row keeps the floats of
#: the unsplit product.
_CHUNK_MACS = 1 << 25

#: The same floor for :func:`qfd_filter`'s chunks, also in the full
#: product's multiply-adds (``rows * n^2``): its float32 triangle does a
#: fraction of the float64 work per row, in eight smaller gemms at 512-d.
#: With two threads at 512-d the filter read 2.53 ms serial against 3.13
#: split at 400 rows, 6.14 against 6.75 at 1 000, 10.75 against 12.19 at
#: 2 000 and 25.81 against 19.29 at 4 000 (Xeon, 2 vCPUs, BLAS pinned to
#: one thread), so a chunk holds at least 1 024 rows at 512-d.
_FILTER_CHUNK_MACS = 1 << 28


#: Columns per block of the filter's upper-triangle product
#: (:func:`qfd_triangle`): ``n // 64`` near-equal blocks, so 8 at 512-d
#: (9/16 of the full product's multiply-adds) and one below 128-d (the
#: full product).  At 512-d 4 and 8 blocks read alike and 16 lost (Xeon,
#: 2 vCPUs, BLAS pinned to one thread).
_TRIANGLE_COLS = 64


def row_tiles(n: int) -> list[slice]:
    """Slices of at most ``_TILE_ROWS`` rows covering ``range(n)``."""
    return [slice(start, start + _TILE_ROWS) for start in range(0, n, _TILE_ROWS)]


def _flush_subnormals(
    x: np.ndarray, *, inplace: bool = False, masks: np.ndarray | None = None
) -> np.ndarray:
    """*x* with its subnormals set to ``0.0``, ahead of a BLAS product.

    Subnormal means below the ``tiny`` of *x*'s own dtype (float64 or
    float32).  Every multiply-add that meets a subnormal operand takes an
    x86 microcode assist; ``Dirichlet(alpha ~ 1e-3)`` histograms carry ~1 %
    of them and run a gemm 2.5-5x slower for it.  Call once per raw
    operand and reuse the result.  ``inplace`` is only for arrays the
    caller allocated itself; otherwise *x* is copied, and only when it has
    a subnormal.  ``masks`` is a ``(2, *x.shape)`` boolean work buffer
    the caller owns (else one is allocated).  Results of the float64
    kernels do not move by a bit (``docs/architecture.md``).
    """
    tiny = np.finfo(x.dtype).tiny
    mask = np.not_equal(x, 0.0, out=None if masks is None else masks[0])
    spare = np.less(x, tiny, out=None if masks is None else masks[1])
    mask &= spare
    mask &= np.greater(x, -tiny, out=spare)
    if not inplace:
        if not mask.any():
            return x
        x = x.copy()
    np.copyto(x, 0.0, where=mask)
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
    """Per-row quadratic forms ``vAv^T`` (no QFD evaluation reads them)."""
    out = np.empty(rows.shape[0], dtype=np.float64)
    for tile in row_tiles(rows.shape[0]):
        block = _flush_subnormals(_as64(rows[tile]))
        out[tile] = np.einsum("ij,ij->i", block @ matrix, block)
    return out


def l2_row_norms(rows: np.ndarray) -> np.ndarray:
    """Per-row squared L2 norms ``vv^T``."""
    rows = _as64(rows)
    return np.einsum("ij,ij->i", rows, rows)


def qfd_one_to_many(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """QFD distances from *q* to every row: ``sqrt((v - q) A (v - q)^T)``.

    The QFD model's one arithmetic.  One BLAS gemm plus an elementwise
    reduction per tile of :func:`row_tiles`: still O(n^2) per row, the
    paper's cost, merely amortized through BLAS.  The differences are
    flushed of subnormals before the product; a float32 tile upcasts to
    the floats of its float64 copy.  No cancellation: ``v == q`` gives
    exactly ``0``.  A large tile runs as near-equal row chunks on a
    per-call pool when BLAS leaves cores idle (:func:`_split`); each row
    keeps its floats, and no thread outlives the call.
    """
    q = _as64(q)
    m, n = rows.shape
    out = np.empty(m, dtype=np.float64)
    for tile in row_tiles(m):
        block, block_out = rows[tile], out[tile]
        diff = np.empty(block.shape, dtype=np.float64)
        prod = np.empty_like(diff)

        def run(part: slice) -> None:
            _qfd_rows(matrix, q, block[part], diff[part], prod[part], block_out[part])

        _run_split(_split(block.shape[0], n), run)
    return out


def _run_split(parts: list[slice], run: Callable[[slice], None]) -> None:
    """``run(part)`` for every chunk in *parts* (:func:`_split`), the
    calling thread taking the first and a per-call pool the rest; no
    thread outlives it."""
    if len(parts) == 1:
        run(parts[0])
        return
    with ThreadPoolExecutor(len(parts) - 1) as pool:
        pending = [pool.submit(run, part) for part in parts[1:]]
        run(parts[0])
        for job in pending:
            job.result()


def _split(rows: int, n: int, chunk_macs: int | None = None) -> list[slice]:
    """Near-equal row chunks of one QFD tile, one per thread that runs it:
    a single chunk unless BLAS leaves cores idle and the tile holds two or
    more chunks of *chunk_macs* (default ``_CHUNK_MACS``) multiply-adds
    and of two or more rows (a one-row product is a matrix-vector call,
    another BLAS kernel)."""
    macs = _CHUNK_MACS if chunk_macs is None else chunk_macs
    parts = min(_SPLIT_WORKERS, rows * n * n // macs, rows // 2)
    if parts < 2:
        return [slice(0, rows)]
    edges = np.linspace(0, rows, parts + 1).astype(int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _qfd_rows(
    matrix: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    diff: np.ndarray,
    prod: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out = sqrt((rows - q) A (rows - q)^T)`` in buffers the caller owns.

    Allocates nothing of the rows' size, so it may run on a pool thread:
    glibc keeps what a thread frees in that thread's own arena.  Until the
    product lands in *prod*, its bytes hold the subnormal masks.  The
    subtract and flush run on the chunk's thread too: at 4 000 x 512 with
    two threads that reads 52 ms a call against 63 ms with both on the
    calling thread (Xeon, 2 vCPUs, BLAS pinned to one thread).
    """
    np.copyto(diff, rows)  # a float32 tile upcasts without a cast buffer
    np.subtract(diff, q, out=diff)
    masks = prod.reshape(-1).view(np.bool_)[: 2 * diff.size].reshape(2, *diff.shape)
    _flush_subnormals(diff, inplace=True, masks=masks)
    np.matmul(diff, matrix, out=prod)
    np.einsum("ij,ij->i", prod, diff, out=out)
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)


def abs_sum_radius(matrix: np.ndarray) -> float:
    """``R``, the largest absolute row or column sum of ``A``, rounded up.

    ``||A||_2 <= || |A| ||_2 <= sqrt(||A||_1 ||A||_inf) <= R``, so
    ``|y A z| <= |y| |A| |z|^T <= R ||y|| ||z||`` for any vectors, whether
    or not ``A`` is symmetric (a QFD matrix need be only within 1e-9); the
    one constant :func:`qfd_filter`'s bound needs from the matrix.
    """
    n = matrix.shape[0]
    magnitudes = np.abs(matrix)
    largest = max(magnitudes.sum(axis=1).max(), magnitudes.sum(axis=0).max())
    return float(largest) * (1.0 + _gamma(n + 1, _U64))


def qfd_shadow(rows: np.ndarray) -> np.ndarray:
    """The float32 "shadow" of float64 *rows* that :func:`qfd_filter` reads.

    Cast tile by tile and flushed of float32 subnormals, once, so no query
    pays the microcode assist on them; every entry is within
    ``2^-24 |v_i| + tiny32`` of the row's (the bound's ``e`` term).
    """
    shadow = np.empty(rows.shape, dtype=np.float32)
    with np.errstate(over="ignore"):  # beyond float32 range: inf, re-evaluated
        for tile in row_tiles(rows.shape[0]):
            block = shadow[tile]
            np.copyto(block, rows[tile], casting="same_kind")
            _flush_subnormals(block, inplace=True)
    return shadow


def qfd_triangle(matrix: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The operands of :func:`qfd_filter`'s quadratic form: ``T^`` and its
    column blocks.

    ``T = triu(A + A^T, 1) + diag(A)`` has ``x T x^T = x A x^T`` for every
    ``x``, with no symmetry assumed: the sum is formed in float64 from both
    triangles, because a QFD matrix need be symmetric only within 1e-9.
    ``T^`` is ``T`` cast to float32 (an entry beyond float32 range becomes
    infinite, and no row certifies) and flushed of float32 subnormals.  The
    blocks are ``T^[:J.stop, J]``, contiguous, for ``n // _TRIANGLE_COLS``
    near-equal column blocks ``J`` (at least one); a block's shape is
    ``(J.stop, |J|)``, which is all :func:`qfd_filter` needs of ``J``.
    """
    n = matrix.shape[0]
    full = np.triu(matrix + matrix.T, 1)
    np.fill_diagonal(full, np.diagonal(matrix))
    with np.errstate(over="ignore"):
        triangle = _flush_subnormals(full.astype(np.float32), inplace=True)
    edges = np.linspace(0, n, max(1, n // _TRIANGLE_COLS) + 1).astype(int)
    blocks = tuple(
        np.ascontiguousarray(triangle[:stop, start:stop])
        for start, stop in zip(edges[:-1], edges[1:])
    )
    return triangle, blocks


def qfd_filter(
    blocks: tuple[np.ndarray, ...],
    radius: float,
    q: np.ndarray,
    shadow: np.ndarray,
    *,
    rows_exact: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Certified float32 squared QFDs: ``(s, delta)`` per row of *shadow*.

    ``s`` is the float32 value of ``(v^ - q^) T^ (v^ - q^)^T`` over the
    shadow rows ``v^`` (:func:`qfd_shadow`), the flushed float32 query
    ``q^`` and the upper-triangle float32 matrix ``T^`` whose column
    *blocks* :func:`qfd_triangle` makes, in the row tiles of
    :func:`qfd_one_to_many` and chunks of at least ``_FILTER_CHUNK_MACS``:
    per block ``J``, ``P[:, J] = x^[:, :J.stop]
    @ T^[:J.stop, J]``, then the row-dot of ``P`` with ``x^`` (9/16 of the
    full product's multiply-adds at 512-d, in float32: twice the
    multiply-adds per cycle, half the bytes).  ``delta`` bounds
    ``|s - d64|``, where ``d64`` is the squared distance **the float64
    path computes** (:func:`qfd_one_to_many` before its clamp and square
    root, the full difference form over ``A``) for the row ``v`` the
    shadow stands for — not the exact value.  A row whose ``s`` or
    ``delta`` is not finite is certified nothing: callers re-evaluate it.
    *radius* is :func:`abs_sum_radius` of ``A``; ``rows_exact`` says the
    shadow *is* the stored rows (a float32 store), so they carry no
    rounding of their own.

    The bound, with ``u = 2^-24``, ``w = 2^-53``, ``t`` / ``t64`` the two
    dtypes' ``tiny``, ``gamma_k(u) = k u / (1 - k u)``, ``R = radius``,
    ``x = v - q`` exact and ``x^`` the float32 difference::

        delta = [T32 + T_in + T64] (1 + 2^-40) + 2^-50 |s|

    * ``||x^||``: ``nu``, the float32 sum of squares, is within
      ``gamma_n(u) ||x^||^2 + 2 n t`` of it in any summation order, so
      ``||x^|| <= xi = sqrt((nu + 2 n t) / (1 - gamma_n(u)))``.
    * ``T32`` — float32 arithmetic and ``T^``.  Each of the ``n`` inner
      products ``p_j = sum_{i < J.stop} x^_i T^_ij`` (``j`` in block
      ``J``; the zeros below the diagonal included) and the reduction
      ``sum_j p_j x^_j`` has at most ``n`` terms, as in the full product,
      so with or without FMA, blocked or not, the computed form is within
      ``gamma_2n(u) |x^| |T^| |x^|^T`` of ``x^ T^ x^^T`` (Higham, Lemma
      3.3).
      ``T^`` is the float64 sum ``A_ij + A_ji`` rounded to float32, then
      flushed: ``|T^ - T| <= (u + w + uw) |T| + t`` and
      ``|T^| <= (1 + u)(1 + w) |T|``, entrywise, and ``|x| |T| |x|^T <=
      |x| |A| |x|^T`` as ``|A_ij + A_ji| <= |A_ij| + |A_ji|``.  The
      ``w`` terms total under ``3 w``, inside the ``u`` by which
      ``gamma_{2n+2}(u)`` exceeds ``gamma_2n(u) (1 + u) + u``, and the
      ``t`` terms total ``t sum_{i<=j} |x^_i| |x^_j| <= t ||x^||_1^2``.
      With ``|y| |A| |y|^T <= R ||y||^2`` and ``||y||_1 <= sqrt(n) ||y||``:
      ``gamma_{2n+2}(u) R xi^2 + n t xi^2``, the full product's terms.
      Underflow (gradual or flushed to zero) adds at most ``t`` per
      operation, at most doubled by the later additions — no more
      operations than the full product's: ``4 n t + 8 n sqrt(n) t xi``.
    * ``T_in`` — the inputs' rounding.  ``|v^_i - v_i| <= u |v_i| + t``
      (cast, then flush), the same for ``q``, and the float32 subtraction
      is within ``u |x^_i|`` (``t`` more if flushed), so with
      ``||v|| <= ||q|| + ||x||`` and ``||x|| <= ||x^|| + e``::

          e = (2u (||q|| + xi) + 4 sqrt(n) t) / (1 - u) >= ||x^ - x||

      (``e = u (||q|| + xi) + 4 sqrt(n) t`` when ``rows_exact``).  With
      ``X = xi + e >= ||x||``:
      ``|x^ A x^^T - x A x^T| = |(x^ - x) A (x^ + x)^T| <= R e (2X + e)``.
    * ``T64`` — the float64 path's own rounding.  Its difference is within
      ``e64 = w X + sqrt(n) t64`` of ``x`` (a subnormal difference is
      exact, then flushed), adding ``R e64 (2X + e64)``, and its gemm and
      reduction ``gamma_2n(w) R X64^2 + 4 n t64 + 8 n sqrt(n) t64 X64``
      with ``X64 = X + e64``.

    Every term is a sum and product of non-negative float64 values, so
    its computed value is low by a relative ``~1e-14`` at most; the
    ``1 + 2^-40`` absorbs that, and ``2^-50 |s|`` the rounding of a
    caller's ``s - delta`` and ``s + delta``.  The triangle inequality
    in ``T_in`` spares the shadow a per-row norm.  The bound is loose by
    orders of magnitude against the observed error; what it must be is
    certain.
    """
    n = blocks[-1].shape[0]
    m = shadow.shape[0]
    q64 = _as64(q)
    with np.errstate(over="ignore"):
        q32 = _flush_subnormals(q64.astype(np.float32), inplace=True)
    s = np.empty(m, dtype=np.float32)
    nu = np.empty(m, dtype=np.float32)
    for tile in row_tiles(m):
        block, block_s, block_nu = shadow[tile], s[tile], nu[tile]
        diff = np.empty(block.shape, dtype=np.float32)
        prod = np.empty_like(diff)

        def run(part: slice) -> None:
            _qfd_rows_f32(
                blocks, q32, block[part], diff[part], prod[part],
                block_s[part], block_nu[part], flush=rows_exact,
            )

        _run_split(_split(block.shape[0], n, _FILTER_CHUNK_MACS), run)
    s64 = s.astype(np.float64)
    with np.errstate(all="ignore"):  # inf / nan rows: delta not finite
        delta = _filter_bound(s64, nu, float(q64 @ q64), radius, n, rows_exact)
    return s64, delta


def _qfd_rows_f32(
    blocks: tuple[np.ndarray, ...],
    q32: np.ndarray,
    rows32: np.ndarray,
    diff: np.ndarray,
    prod: np.ndarray,
    s: np.ndarray,
    nu: np.ndarray,
    *,
    flush: bool,
) -> None:
    """``s = (rows - q) T (rows - q)^T`` over the column *blocks* of
    :func:`qfd_triangle` and ``nu = ||rows - q||^2`` in float32, in
    buffers the caller owns (see :func:`_qfd_rows`): block ``J``'s
    product lands in ``prod[:, J]``, and one row-dot with the difference
    reduces them all.

    A shadow is flushed once when it is built; stored float32 rows are
    not (the store is read in place), so with ``flush`` the difference
    is, here: 1.6 % of a float32 histogram store is subnormal, and the
    product ran 2x slower on them.
    """
    with np.errstate(all="ignore"):  # rows beyond float32 range: inf / nan
        np.subtract(rows32, q32, out=diff)
        if flush:
            masks = prod.reshape(-1).view(np.bool_)[: 2 * diff.size]
            _flush_subnormals(diff, inplace=True, masks=masks.reshape(2, *diff.shape))
        for block in blocks:
            stop, width = block.shape
            np.matmul(diff[:, :stop], block, out=prod[:, stop - width : stop])
        np.einsum("ij,ij->i", prod, diff, out=s)
        np.einsum("ij,ij->i", diff, diff, out=nu)


def _gamma(k: float, u: float) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``: the relative error bound of
    ``k`` rounded operations in sequence."""
    return k * u / (1.0 - k * u)


def _filter_bound(
    s: np.ndarray, nu: np.ndarray, qq: float, radius: float, n: int, rows_exact: bool
) -> np.ndarray:
    """:func:`qfd_filter`'s ``delta``, term for term (see its docstring)."""
    root_n = np.sqrt(n)
    q_norm = _norm_up(qq, n)
    xi = np.sqrt((nu.astype(np.float64) + 2 * n * _TINY32) / (1.0 - _gamma(n, _U32)))
    if rows_exact:
        e = _U32 * (q_norm + xi) + 4 * root_n * _TINY32
    else:
        e = (2 * _U32 * (q_norm + xi) + 4 * root_n * _TINY32) / (1.0 - _U32)
    big_x = xi + e
    t32 = (_gamma(2 * n + 2, _U32) * radius + n * _TINY32) * xi * xi
    t32 += 4 * n * _TINY32 + 8 * n * root_n * _TINY32 * xi
    t_in = radius * e * (2 * big_x + e)
    t64 = _float64_error(big_x, radius, n)
    return (t32 + t_in + t64) * (1.0 + 2.0**-40) + np.abs(s) * 2.0**-50


def _norm_up(squares: float, n: int) -> float:
    """A vector's norm from its float64 sum of *squares* over *n* entries,
    rounded up."""
    return np.sqrt(squares * (1.0 + _gamma(n + 1, _U64)) + n * _TINY64) * (1.0 + 4 * _U64)


def _float64_error(big_x: np.ndarray, radius: float, n: int) -> np.ndarray:
    """``T64``: how far the float64 path's squared distance can be from
    ``x A x^T`` for any ``x`` with ``||x|| <= big_x`` (:func:`qfd_filter`'s
    last term)."""
    root_n = np.sqrt(n)
    e64 = _U64 * big_x + root_n * _TINY64
    x64 = big_x + e64
    t64 = radius * e64 * (2 * big_x + e64) + _gamma(2 * n, _U64) * radius * x64 * x64
    return t64 + 4 * n * _TINY64 + 8 * n * root_n * _TINY64 * x64


def shadow_norms(shadow: np.ndarray) -> np.ndarray:
    """``||v^||^2`` per float32 row of *shadow*, summed in float64.

    A float32 entry's square is exact in float64 (48 significant bits, and
    even a float32 subnormal's square is a float64 normal), so each value
    is within ``gamma_n(w) ||v^||^2`` of the exact one, in any summation
    order.  :func:`qfd_lower_bound` reads it.
    """
    out = np.empty(shadow.shape[0], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf rows: inf
        for tile in row_tiles(shadow.shape[0]):
            np.einsum("ij,ij->i", shadow[tile], shadow[tile], dtype=np.float64, out=out[tile])
    return out


def qfd_lower_bound(
    mu: float,
    radius: float,
    q: np.ndarray,
    shadow: np.ndarray,
    norms: np.ndarray,
    *,
    rows_exact: bool = False,
) -> np.ndarray:
    """Certified lower bounds, in O(n) per row, on the squared QFDs the
    float64 path computes: ``mu ||v - q||^2`` less every rounding error.

    *mu* is at most ``lambda_min((A + A^T) / 2)`` (:func:`lambda_min_floor`),
    so ``x A x^T >= mu ||x||^2`` for ``x = v - q``.  ``||v - q||`` comes from
    the Gram form over the shadow (:func:`qfd_shadow`): *norms* is
    :func:`shadow_norms`, ``||q^||^2`` is summed in float64 and ``v^ . q^``
    is one float32 gemv ``shadow @ q^``.  Like :func:`qfd_filter`'s
    ``delta``, the result bounds ``d64`` — the value **the float64 path
    computes** (:func:`qfd_one_to_many` before its clamp and square root)
    for the row ``v`` the shadow stands for — not the exact one.  A row
    whose bound is not finite gets ``-inf``: it is never ruled out.
    *radius* and ``rows_exact`` are :func:`qfd_filter`'s.

    The bound, with :func:`qfd_filter`'s ``u``, ``w``, ``t``, ``t64`` and
    ``gamma_k``, ``S = norms + ||q^||^2`` and ``N = S - 2 (v^ . q^)``
    evaluated in float64 from the gemv's float32 result::

        bound = mu l^2 - T64(X)

    * the cancellation: ``N`` is within ``E = gamma_{n+1}(u) S + 9 n t``
      of ``||v^ - q^||^2``.  The gemv is within ``gamma_n(u) |v^| |q^|^T
      <= gamma_n(u) S / 2`` of ``v^ . q^`` in any summation order, with or
      without FMA, plus at most ``t`` per product that underflows and per
      addition, doubled by later additions: ``4 n t``.  ``S``'s two sums
      are within ``gamma_n(w)`` of their squares' (:func:`shadow_norms`),
      and the two float64 operations forming ``N`` within ``w`` of
      operands under ``2 S``: those ``w`` terms total far below the ``u S``
      by which ``gamma_{n+1}(u) S`` exceeds ``gamma_n(u) S``.
    * the inputs' rounding: ``|v^_i - v_i| <= u |v_i| + t`` (cast, then
      flush), so with ``|v_i| <= |v^_i| / (1 - u) + t``,
      ``||v^ - v|| <= e_v = (u ||v^|| + 2 sqrt(n) t) / (1 - u)`` (``0``
      when ``rows_exact``), and ``||q^ - q|| <= e_q = u ||q|| + sqrt(n) t``.
      With ``e = e_v + e_q``: ``l = sqrt(N - E) - e <= ||v - q|| <=
      sqrt(N + E) + e = X``.
    * ``T64`` — the float64 path's own rounding over ``||x|| <= X``,
      :func:`qfd_filter`'s last term: ``d64 >= x A x^T - T64(X) >=
      mu l^2 - T64(X)``.

    Every quantity that must be low (``sqrt(N - E)``, ``l``, ``mu l^2``)
    is scaled by ``1 - 2^-40`` before anything is subtracted from it, and
    every one that must be high (``E``, ``e``, ``sqrt(N + E)``, ``T64``) by
    ``1 + 2^-40``: that absorbs the relative ``~1e-14`` by which their
    float64 evaluation can miss, a subtraction's rounding included.
    """
    n = shadow.shape[1]
    q64 = _as64(q)
    with np.errstate(over="ignore"):
        q32 = _flush_subnormals(q64.astype(np.float32), inplace=True)
    q32_64 = q32.astype(np.float64)
    with np.errstate(all="ignore"):  # rows or a query beyond float32 range
        dots = np.asarray(shadow @ q32).astype(np.float64)
        bound = _lower_bound(
            norms, dots, float(q32_64 @ q32_64), float(q64 @ q64), mu, radius, n, rows_exact
        )
        bound[~np.isfinite(bound)] = -np.inf
    return bound


def _lower_bound(
    norms: np.ndarray,
    dots: np.ndarray,
    qq32: float,
    qq: float,
    mu: float,
    radius: float,
    n: int,
    rows_exact: bool,
) -> np.ndarray:
    """:func:`qfd_lower_bound`'s bound, term for term (see its docstring)."""
    low, high = 1.0 - 2.0**-40, 1.0 + 2.0**-40
    root_n = np.sqrt(n)
    total = norms + qq32
    gram_form = total - 2.0 * dots
    slack = (_gamma(n + 1, _U32) * total + 9 * n * _TINY32) * high
    e = _U32 * _norm_up(qq, n) + root_n * _TINY32
    if not rows_exact:
        v_norm = np.sqrt(norms * (1.0 + _gamma(2 * n, _U64)))
        e = e + (_U32 * v_norm + 2 * root_n * _TINY32) / (1.0 - _U32)
    e = e * high
    floor = np.maximum(np.sqrt(np.maximum(gram_form - slack, 0.0)) * low - e, 0.0) * low
    big_x = np.sqrt(gram_form + slack) * high + e
    return mu * floor * floor * low - _float64_error(big_x, radius, n) * high


def lambda_min_floor(matrix: np.ndarray, factor: np.ndarray | None = None) -> float:
    """``mu``, a certified lower bound on ``lambda_min((A + A^T) / 2)``, or
    ``0.0`` when none above zero can be certified.

    An estimate ``lambda^`` comes from three steps of block inverse
    iteration on *factor* — a Cholesky factor of (about) ``A``, such as the
    one a :class:`~repro.core.qfd.QuadraticFormDistance` makes for its
    positive-definiteness check; factored here when not given — and a
    Rayleigh-Ritz value over the four vectors.  It is only a guess.  The
    certificate is that ``np.linalg.cholesky`` completes on the float64
    ``H = fl((A + A^T) / 2) - (lambda^ / 2) I``: then ``H + dH = R^T R`` is
    positive semi-definite for some ``|dH| <= g |R^T| |R|`` (Demmel;
    Higham, Theorem 10.7: ``g = gamma_{n+1}(w)`` for any order of the
    inner products, so blocked LAPACK and FMA too; ``g = gamma_{n+3}(w)``
    here, for a kernel that multiplies by a rounded reciprocal of the
    pivot instead of dividing), so ``lambda_min(H) >= -||dH||_2 >=
    -g ||R||_F^2 >= -g trace(H) / (1 - g)``.  Underflow adds at most
    ``t64`` per product and ``t64 r_jj`` per division to an entry of
    ``dH``: ``n (n + 1 + max H_ii) t64`` in the 2-norm, taken twice.
    Forming ``H`` is within ``w (R_A + max H_ii) + n t64`` of ``(A + A^T)
    / 2 - (lambda^ / 2) I`` in the 2-norm (``R_A`` the
    :func:`abs_sum_radius`), so

        mu = lambda^ / 2 - g trace(H) / (1 - g) - w (R_A + max H_ii)
             - (2 n (n + 1 + max H_ii) + n) t64

    rounded down.  Halving the estimate costs nothing: the scan's pruning
    is flat from ``lambda_min`` down to ``lambda_min / 4``.  Given the
    factor, ~9 ms at 512-d (one Cholesky, ~2 ms of solves, forming ``H``),
    against 15 ms for ``np.linalg.eigvalsh``.
    """
    n = matrix.shape[0]
    sym = (matrix + matrix.T) * 0.5
    try:
        with np.errstate(all="ignore"):
            if factor is None:
                factor = np.linalg.cholesky(sym)
            estimate = _lambda_min_estimate(factor, sym)
            if not (np.isfinite(estimate) and estimate > 0.0):
                return 0.0
            shifted = sym.copy()
            np.fill_diagonal(shifted, np.diagonal(sym) - 0.5 * estimate)
            np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return 0.0
    g = _gamma(n + 3, _U64)
    diagonal = np.abs(np.diagonal(shifted))
    trace = float(diagonal.sum()) * (1.0 + _gamma(n, _U64))
    top = float(diagonal.max())
    margin = g * trace / (1.0 - g) + _U64 * (abs_sum_radius(matrix) + top)
    margin += (2 * n * (n + 1 + top) + n) * _TINY64
    mu = (0.5 * estimate - margin * (1.0 + 2.0**-40)) * (1.0 - 2.0**-40)
    return mu if mu > 0.0 else 0.0


def _lambda_min_estimate(factor: np.ndarray, sym: np.ndarray) -> float:
    """About ``lambda_min(sym)``: three steps of inverse iteration through
    ``factor factor^T ~ sym`` on four vectors, then the least Rayleigh-Ritz
    value.  Each solve is blocked forward then back substitution over
    the 32-wide diagonal blocks' inverses (numpy has no triangular solve,
    and ``np.linalg.solve`` would factor the triangle again)."""
    n = factor.shape[0]
    edges = list(range(0, n, 32)) + [n]
    blocks = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    inverses = [np.linalg.inv(factor[b, b]) for b in blocks]
    y = np.random.default_rng(0).standard_normal((n, min(4, n)))
    for _ in range(3):
        z = np.empty_like(y)
        for b, inverse in zip(blocks, inverses):
            z[b] = inverse @ (y[b] - factor[b, : b.start] @ z[: b.start])
        for b, inverse in zip(reversed(blocks), reversed(inverses)):
            y[b] = inverse.T @ (z[b] - factor[b.stop :, b].T @ y[b.stop :])
        y, _ = np.linalg.qr(y)
    return float(np.linalg.eigvalsh(y.T @ sym @ y)[0])


def l2_one_to_many(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """L2 distances from *q* to every row — difference-based on purpose.

    For a single query the diff form is already one fused pass and, unlike
    the Gram form, exact near zero; the QMap-space query path uses it so
    mapped-space results stay bit-identical to a plain Euclidean scan.
    Past one tile (``_L2_TILE_FLOATS`` worth of rows) rows stream through
    one reused buffer — same floats, no ``m x n`` temporary.
    """
    if rows.size <= _L2_TILE_FLOATS:  # a node, a refinement block: the one-shot form
        diff = _as64(rows) - _as64(q)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    step = max(1, _L2_TILE_FLOATS // rows.shape[1])
    q = _as64(q)
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    buffer = np.empty((min(step, n), rows.shape[1]), dtype=np.float64)
    for start in range(0, n, step):
        block = rows[start : start + step]
        diff = np.subtract(block, q, out=buffer[: block.shape[0]])
        np.einsum("ij,ij->i", diff, diff, out=out[start : start + step])
    return np.sqrt(out, out=out)


def qfd_pairwise(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairwise QFD distance matrix: each row's :func:`qfd_one_to_many`
    over the rows after it, mirrored.

    Bit-symmetric with an exactly zero diagonal by construction, so
    partition decisions that read row *i* against row *j* see the same
    number in both orders.
    """
    n = rows.shape[0]
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n - 1):
        d = qfd_one_to_many(matrix, rows[i], rows[i + 1 :])
        out[i, i + 1 :] = d
        out[i + 1 :, i] = d
    return out


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
