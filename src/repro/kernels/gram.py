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

        _run_split(block.shape[0], n, run)
    return out


def _run_split(rows: int, n: int, run: Callable[[slice], None]) -> None:
    """``run(part)`` for every chunk of :func:`_split`, the calling thread
    taking the first and a per-call pool the rest; no thread outlives it."""
    parts = _split(rows, n)
    if len(parts) == 1:
        run(parts[0])
        return
    with ThreadPoolExecutor(len(parts) - 1) as pool:
        pending = [pool.submit(run, part) for part in parts[1:]]
        run(parts[0])
        for job in pending:
            job.result()


def _split(rows: int, n: int) -> list[slice]:
    """Near-equal row chunks of one QFD tile, one per thread that runs it:
    a single chunk unless BLAS leaves cores idle and the tile holds two or
    more chunks of ``_CHUNK_MACS`` multiply-adds and of two or more rows
    (a one-row product is a matrix-vector call, another BLAS kernel)."""
    parts = min(_SPLIT_WORKERS, rows * n * n // _CHUNK_MACS, rows // 2)
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
    *blocks* :func:`qfd_triangle` makes, in the row tiles and chunks of
    :func:`qfd_one_to_many`: per block ``J``, ``P[:, J] = x^[:, :J.stop]
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

        _run_split(block.shape[0], n, run)
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
    # ||q|| from its float64 sum of squares, rounded up.
    q_norm = np.sqrt(qq * (1.0 + _gamma(n + 1, _U64)) + n * _TINY64) * (1.0 + 4 * _U64)
    xi = np.sqrt((nu.astype(np.float64) + 2 * n * _TINY32) / (1.0 - _gamma(n, _U32)))
    if rows_exact:
        e = _U32 * (q_norm + xi) + 4 * root_n * _TINY32
    else:
        e = (2 * _U32 * (q_norm + xi) + 4 * root_n * _TINY32) / (1.0 - _U32)
    big_x = xi + e
    e64 = _U64 * big_x + root_n * _TINY64
    x64 = big_x + e64
    t32 = (_gamma(2 * n + 2, _U32) * radius + n * _TINY32) * xi * xi
    t32 += 4 * n * _TINY32 + 8 * n * root_n * _TINY32 * xi
    t_in = radius * e * (2 * big_x + e)
    t64 = radius * e64 * (2 * big_x + e64) + _gamma(2 * n, _U64) * radius * x64 * x64
    t64 += 4 * n * _TINY64 + 8 * n * root_n * _TINY64 * x64
    return (t32 + t_in + t64) * (1.0 + 2.0**-40) + np.abs(s) * 2.0**-50


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
