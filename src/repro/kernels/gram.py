"""Batched distance math (BLAS substrate of the kernel layer).

The QFD has one arithmetic, the difference form of paper Section 1.2,

    QFD_A(u, v)^2 = (u - v) A (u - v)^T,

O(n^2) per pair however it is batched (:func:`qfd_one_to_many`, and
:func:`qfd_pairwise` built from it).  Only after QMap is a distance O(n);
the Euclidean distance has one arithmetic too, the difference form of
:func:`l2_one_to_many` (``v - q``, a row-wise ``einsum``, ``sqrt``), which
the L2 kernel's matrices repeat row for row.  The functions are pure array
math — no counting, no validation; the charging semantics live in
:class:`repro.mam.base.DistancePort`.

The QFD sequential scan rules rows out before it evaluates them
(paper Section 2.3.1's filter-and-refine), in two certified stages
(:func:`qfd_stages`), each a raw per-row sum tested against a cut that
depends on the query alone.  Both read the QFD's own Cholesky factor
``G`` (paper Section 3's QMap, ``x A x^T = ||x G||^2`` up to the factor's
rounding).  First the rows projected once on ``W = fl(G V)``
(:func:`qfd_weights`, :func:`qfd_project`; ``n x k``, ``V`` the L2
filter's certified PCA basis fitted to the mapped rows) give ``||P - q
W||^2`` in O(k) per row, whose cut bounds ``||(v - q) W|| <= ||(v - q)
G|| + delta ||v - q||``.  Then the rows that cut keeps, mapped by ``G``
and stored as float32 (:func:`qfd_map`), give ``||M - q G||^2`` in O(n)
per row, bracketing the float64 form.  The cuts' error terms read one
norm bound per index, so a query evaluates them once; the scan evaluates
in float64 only the rows no cut rules out, so what it returns is always
the float64 form's.

The QMap refines do the same in mapped space with one certified L2
projection bound (:func:`l2_lower_bound`): ``W`` an orthonormal PCA basis
of the rows (:func:`l2_basis`), proven ``||W||_2 <= 1``
(:func:`l2_basis_certified`), so ``||(v - q) W||`` less the rank-k term's
rounding and the L2 path's own bounds the :func:`l2_one_to_many` float
from below.
"""

from __future__ import annotations

from math import sqrt
from typing import Callable

import numpy as np

try:  # numpy's einsum is this C function behind a Python dispatcher
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

__all__ = [
    "qfd_row_norms",
    "l2_row_norms",
    "qfd_one_to_many",
    "qfd_weights",
    "qfd_project",
    "qfd_factor_terms",
    "qfd_map",
    "qfd_stages",
    "abs_sum_radius",
    "l2_one_to_many",
    "l2_basis",
    "l2_basis_certified",
    "l2_project",
    "l2_lower_bound",
    "qfd_pairwise",
    "row_tiles",
]

_TINY32 = float(np.finfo(np.float32).tiny)
_TINY64 = float(np.finfo(np.float64).tiny)
_U32 = 2.0**-24  # unit roundoff of float32
_U64 = 2.0**-53  # unit roundoff of float64
#: Factors on a certified bound's float64 terms that must be low / high
#: (see :func:`qfd_stages`).
_LOW, _HIGH = 1.0 - 2.0**-40, 1.0 + 2.0**-40

#: Floats in one tile's difference buffer of :func:`l2_one_to_many` and of
#: ``L2Kernel.cross``'s row blocks (1 MB, L2-resident).
_L2_TILE_FLOATS = 131072

#: Rows per tile of a database-sized operand: 8192 x 512 d x 8 B = 32 MB of
#: float64, so a memory-mapped float32 store is never upcast whole.  Both
#: stores go through the same tiles, which is what keeps an mmap index and
#: its heap twin bit-identical (a one-row tile is a matrix-vector product,
#: another BLAS kernel, so tilings are not interchangeable in general).  A
#: heap database at benchmark sizes is a single tile.
_TILE_ROWS = 8192


#: Subspace iteration for :func:`l2_basis`: steps, and vectors carried
#: beyond the rank.  The basis is certified however rough the subspace, so
#: steps buy only pruning.
_SUBSPACE_STEPS = 3
_SUBSPACE_EXTRA = 8

#: Columns of :func:`l2_basis`'s ``W`` and rows of the sample it is fitted
#: to, for both models (see the measurements in ``EXPERIMENTS.md``, E_A11
#: and E_A13).
_PROJECTION_RANK = 32
_PROJECTION_SAMPLE = 512

#: Scale on an orthonormal basis, so that ``||W||_2 <= 1`` certifies
#: despite the ~1e-15 by which ``fl(W^T W)`` misses ``I``.
_SHRINK = 1.0 - 2.0**-30


def row_tiles(n: int) -> list[slice]:
    """Slices of at most ``_TILE_ROWS`` rows covering ``range(n)``."""
    return [slice(start, start + _TILE_ROWS) for start in range(0, n, _TILE_ROWS)]


def _flush_subnormals(x: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """*x* with its subnormals set to ``0.0``, ahead of a BLAS product.

    Subnormal means below the ``tiny`` of *x*'s own dtype (float64 or
    float32).  Every multiply-add that meets a subnormal operand takes an
    x86 microcode assist; ``Dirichlet(alpha ~ 1e-3)`` histograms carry ~1 %
    of them and run a gemm 2.5-5x slower for it.  Call once per raw
    operand and reuse the result.  ``inplace`` is only for arrays the
    caller allocated itself; otherwise *x* is copied, and only when it has
    a subnormal.  Results of the float64 kernels do not move by a bit
    (``docs/architecture.md``).
    """
    tiny = np.finfo(x.dtype).tiny
    mask = np.not_equal(x, 0.0)
    spare = np.less(x, tiny)
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
    exactly ``0``.
    """
    q = _as64(q)
    out = np.empty(rows.shape[0], dtype=np.float64)
    for tile in row_tiles(rows.shape[0]):
        diff = np.empty(rows[tile].shape, dtype=np.float64)
        np.copyto(diff, rows[tile])  # a float32 tile upcasts without a cast buffer
        np.subtract(diff, q, out=diff)
        _flush_subnormals(diff, inplace=True)
        block = out[tile]
        np.einsum("ij,ij->i", diff @ matrix, diff, out=block)
        np.sqrt(np.maximum(block, 0.0, out=block), out=block)
    return out


def abs_sum_radius(matrix: np.ndarray) -> float:
    """``R``, the largest absolute row or column sum of ``A``, rounded up.

    ``||A||_2 <= || |A| ||_2 <= sqrt(||A||_1 ||A||_inf) <= R``, so
    ``|y A z| <= |y| |A| |z|^T <= R ||y|| ||z||`` for any vectors, whether
    or not ``A`` is symmetric (a QFD matrix need be only within 1e-9); the
    one constant :func:`qfd_stages`' error terms need from the matrix.
    """
    n = matrix.shape[0]
    magnitudes = np.abs(matrix)
    largest = max(magnitudes.sum(axis=1).max(), magnitudes.sum(axis=0).max())
    return float(largest) * (1.0 + _gamma(n + 1, _U64))


def _gamma(k: float, u: float) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``: the relative error bound of
    ``k`` rounded operations in sequence."""
    return k * u / (1.0 - k * u)


def _norm_up(squares: float, n: int) -> float:
    """A vector's norm from its float64 sum of *squares* over *n* entries,
    rounded up."""
    return np.sqrt(squares * (1.0 + _gamma(n + 1, _U64)) + n * _TINY64) * (1.0 + 4 * _U64)


def _float64_error(big_x: np.ndarray, radius: float, n: int) -> np.ndarray:
    """``T64``: how far the float64 path's squared distance ``d64``
    (:func:`qfd_one_to_many` before its clamp and square root) can be from
    ``x A x^T`` for any ``x = v - q`` with ``||x|| <= X = big_x``.

    With :func:`qfd_stages`' ``w``, ``t64`` and ``gamma_k`` and ``R =
    radius``: the path's difference is within ``e64 = w X +
    sqrt(n) t64`` of ``x`` (a subnormal difference is exact, then
    flushed), which moves the form by at most ``R e64 (2X + e64)``; its
    gemm and reduction add ``gamma_2n(w) R X64^2 + 4 n t64 + 8 n sqrt(n)
    t64 X64`` with ``X64 = X + e64`` (Higham, Lemma 3.3: any summation
    order, with or without FMA; underflow adds at most ``t64`` per
    operation, at most doubled by the later additions).
    """
    root_n = np.sqrt(n)
    e64 = _U64 * big_x + root_n * _TINY64
    x64 = big_x + e64
    t64 = radius * e64 * (2 * big_x + e64) + _gamma(2 * n, _U64) * radius * x64 * x64
    return t64 + 4 * n * _TINY64 + 8 * n * root_n * _TINY64 * x64


def _float_blocks(rows: np.ndarray):
    """``(part, block)``: the rows ``part`` of *rows* upcast to float64 and
    flushed of subnormals, through one ``_L2_TILE_FLOATS`` buffer."""
    m, n = rows.shape
    step = max(1, _L2_TILE_FLOATS // n)
    buffer = np.empty((min(step, m), n), dtype=np.float64)
    for start in range(0, m, step):
        block = buffer[: min(step, m - start)]
        np.copyto(block, rows[start : start + step])
        yield slice(start, start + block.shape[0]), _flush_subnormals(block, inplace=True)


def qfd_weights(
    factor: np.ndarray, f_norm: float, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[float, float]]:
    """``(V, W, (F_W, delta))``: the rank-k stage's operand ``W = fl(G V)``
    (:func:`qfd_stages`) for the QFD's Cholesky *factor* ``G`` (``||G||_F <=
    f_norm``), ``F_W >= ||W||_F`` and ``delta >= ||W - G V||_F``.

    ``V`` is :func:`l2_basis` of the sample it would pick from the *rows*
    (same seed, ``_PROJECTION_SAMPLE`` rows), flushed of subnormals and
    mapped by ``G`` in float64: the L2 filter's basis of the QMap image,
    certified ``||V||_2 <= 1``, ``n x 0`` when refused (then so is ``W``).
    Each column has ``||V_j|| <= 1``, so ``fl(G V_j)`` is within
    :func:`_product_error` at norm 1 of ``G V_j``, and ``delta`` is
    ``sqrt(k)`` times that.  The same rows and factor give the same ``W``,
    bit for bit.
    """
    m, n = rows.shape
    sample = _flush_subnormals(_as64(rows[_sample(m, np.random.default_rng(0))]), inplace=True)
    with np.errstate(all="ignore"):
        basis = l2_basis(sample @ factor)
        weights = factor @ basis
    k = basis.shape[1]
    w_norm = float(_norm_up(float(np.einsum("ij,ij->", weights, weights)), n * k))
    return basis, weights, (w_norm, float(sqrt(k) * _product_error(1.0, f_norm, n) * _HIGH))


def qfd_project(weights: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``(P, S, V)``, the rank-k stage's operands (:func:`qfd_stages`), made
    once per row: ``P = v' W`` in float64 (``W`` from :func:`qfd_weights`),
    ``v'`` the row flushed of subnormals; ``S``, the float64 sum of ``P``'s
    squares; and ``V >= ||v||`` for every row, :func:`_norm_up` of the
    largest float64 sum of a ``v'``'s squares over ``2 n`` entries (``n
    t64`` more for the flushed ones, each below ``t64`` squared).  A
    non-finite row makes ``V`` not finite."""
    m = rows.shape[0]
    projected = np.empty((m, weights.shape[1]), dtype=np.float64)
    squares = np.empty(m, dtype=np.float64)
    with np.errstate(all="ignore"):
        for part, block in _float_blocks(rows):
            np.matmul(block, weights, out=projected[part])
            np.einsum("ij,ij->i", block, block, out=squares[part])
        v_norm = float(_norm_up(squares.max(initial=0.0), 2 * rows.shape[1]))
        return projected, np.einsum("ij,ij->i", projected, projected), v_norm


def qfd_factor_terms(matrix: np.ndarray, factor: np.ndarray) -> tuple[float, float]:
    """``(F, K)`` of the QFD's Cholesky *factor* ``G`` (``np.linalg.cholesky``
    of *matrix*, which reads one triangle ``S``): ``F >= ||G||_F`` and ``K``
    with ``|x G G^T x^T - x A x^T| <= K ||x||^2``.

    ``G G^T = S + dS`` with ``|dS| <= gamma_{n+3}(w) |G| |G^T|`` (Higham,
    Theorem 10.3, with ``n + 3`` for a kernel that multiplies by a rounded
    reciprocal of the pivot instead of dividing), so ``||dS||_2 <=
    gamma_{n+3}(w) F^2``, plus ``2 n (n + 1 + max A_ii) t64`` of underflow
    (at most ``t64`` per product and ``t64 r_jj`` per division, taken
    twice).  ``S`` differs from ``(A + A^T) / 2``, whose form is ``A``'s, by
    ``+-(A_ij - A_ji) / 2`` off the diagonal: the asymmetry (within
    ``is_symmetric``'s 1e-9 for a QFD), at most its largest absolute row sum
    in the 2-norm.  O(n^2) once per kernel, on the distance's own factor: no
    second O(n^3) runs on restart.
    """
    n = matrix.shape[0]
    f_norm = _norm_up(float(np.einsum("ij,ij->", factor, factor)), n * n)
    skew = float(np.abs(matrix - matrix.T).sum(axis=1).max()) * 0.5 * (1.0 + _gamma(n + 1, _U64))
    top = float(np.abs(np.diagonal(matrix)).max())
    backward = _gamma(n + 3, _U64) * f_norm * f_norm + 2 * n * (n + 1 + top) * _TINY64
    return f_norm, (skew + backward) * _HIGH


def qfd_map(factor: np.ndarray, f_norm: float, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """``(M, e)``: the *rows* mapped by the QFD's Cholesky *factor* ``G``
    (paper Section 3's QMap transform ``v G``) stored as float32, and ``e >=
    ||M - v G||`` for every row; *f_norm* is ``F >= ||G||_F``.

    The rows are flushed of subnormals first, as :func:`qfd_one_to_many`
    flushes its differences.  With ``V >= ||v||`` over these rows (as
    :func:`qfd_project` makes it) the float64 ``s = fl(v' G)`` is within
    :func:`_product_error` of ``v G``, and its float32 store within ``u
    |s_j| + t32`` per entry (``u = 2^-24``, ``t32`` float32's ``tiny``): ``u
    (||M|| + sqrt(n) t32) / (1 - u) + sqrt(n) t32`` in norm.  ``e`` is their
    sum at the largest ``V`` and ``||M||``, ``1 + 2^-40`` high.  An entry
    beyond float32 range is stored as ``inf``, and ``e`` is not finite.
    """
    m, n = rows.shape
    root_n = sqrt(n)
    mapped = np.empty((m, n), dtype=np.float32)
    v_squares = 0.0
    with np.errstate(all="ignore"):
        for part, block in _float_blocks(rows):
            np.copyto(mapped[part], block @ factor, casting="same_kind")
            v_squares = np.maximum(v_squares, _einsum("ij,ij->i", block, block).max())
        m_squares = _einsum("ij,ij->i", mapped, mapped, dtype=np.float64).max(initial=0.0)
        store = _U32 * (_norm_up(m_squares, n) + root_n * _TINY32) / (1.0 - _U32)
        store += root_n * _TINY32
        error = store + _product_error(_norm_up(v_squares, 2 * n), f_norm, n)
        return mapped, float(error * _HIGH)


def _product_error(norm: float, f_norm: float, n: int) -> float:
    """How far ``fl(y' G)`` is from ``y G`` for ``||y|| <= norm``, ``y'`` the
    vector flushed of subnormals and ``||G||_F <= f_norm``: ``(gamma_n(w)
    norm + sqrt(n) t64) F + 4 n sqrt(n) t64`` (the flush moves ``y`` by
    ``sqrt(n) t64``, the product's sums of ``n`` terms ``gamma_n`` of ``||
    |y'| |G| || <= norm F`` plus ``4 n t64`` of underflow per entry)."""
    root_n = sqrt(n)
    return (_gamma(n, _U64) * norm + root_n * _TINY64) * f_norm + 4 * n * root_n * _TINY64


def _gram_error(k: int, g_squares: float) -> tuple[float, float]:
    """``(a, b)`` with ``||P - g||^2 >= (c - b) / (1 + 2 a)`` for ``c =
    fl(fl(fl(P (-2 g)) + S) + G)`` (see :func:`qfd_stages`), ``G`` =
    *g_squares*, each ``1 + 2^-40`` high."""
    gamma_k = _gamma(k, _U64)
    a = 4 * _gamma(k + 6, _U64) / (1.0 - gamma_k) * _HIGH
    return a, (a * (3 * g_squares + 6 * k * _TINY64) + 6 * k * _TINY64) * _HIGH


def qfd_stages(
    factor: np.ndarray, weights: np.ndarray, radius: float,
    terms: tuple[float, float, float, float], v_norm: float, q: np.ndarray,
) -> tuple[Callable, Callable] | None:
    """``(rank, mapped)``: the QFD scan's two certified stages for *q* over
    rows of norm at most *v_norm* (:func:`qfd_project`'s ``V``), ``None``
    when ``V`` or ``||q||`` is not finite.  Each tests a raw per-row sum
    against a cut of a squared threshold ``R``: a row above ``cut(R)`` has
    ``d64 > R``, ``d64`` the squared distance **the float64 path computes**
    (:func:`qfd_one_to_many` before its clamp and root).  Every error term
    is a scalar, evaluated once per query.

    *factor* is the QFD's Cholesky factor ``G`` and *weights*
    :func:`qfd_weights`' ``W = fl(G B)``, ``B`` its basis (``||B||_2 <=
    1``): two gemvs of the flushed query give ``g_G = q' G`` and ``g = q'
    W``.  *radius* is :func:`abs_sum_radius`, *terms* ``(F_W,
    delta, F, K)`` (:func:`qfd_weights`, :func:`qfd_factor_terms`).  With ``w
    = 2^-53``, ``t64`` float64's ``tiny``, ``gamma_j = j w / (1 - j w)``,
    ``Q >= ||q||`` and ``X = V + Q >= ||x||``, ``x = v - q``: ``|d64 - x A
    x^T| <= T64(X)`` (:func:`_float64_error`), ``|x G G^T x^T - x A x^T| <=
    K X^2``, and with ``D = K X^2 + T64``:

    * ``rank(P, S) -> (c, cut)``, O(k) per row: ``c = S - 2 P g + G`` in
      float64 (one gemv, two passes; ``G`` the float ``||g||^2``).
      ``||x W|| <= ||x G|| ||B||_2 + delta ||x|| <= sqrt(d64 + D) + delta
      X``, and ``||P - g||`` is within ``E`` of ``||x W||``
      (:func:`_rank_error`).  Three sums of ``k`` products (each within
      ``gamma_k`` of its terms' magnitudes plus ``2 k t64``) and two
      additions (each within ``w`` of a sum under ``2 (||P||^2 + ||g||^2)``)
      put ``c`` within ``4 gamma_{k+6} (||P||^2 + ||g||^2) + 6 k t64`` of
      ``||P - g||^2``; with ``||P||^2 <= 2 ||P - g||^2 + 2 ||g||^2`` and
      ``||g||^2 <= (G + 2 k t64) / (1 - gamma_k)``, ``||P - g||^2 >= (c - b)
      / (1 + 2 a)`` (:func:`_gram_error`).  So ``c > cut(R) = (E + delta X
      + sqrt(R + D))^2 (1 + 2 a) + b`` gives ``d64 > R``.
    * ``mapped(M, e) -> (s, lo_cut, hi)``, O(n) per row (``None`` when *e*
      is not finite): ``s = ||M - g_G||^2`` in float64 over rows mapped by
      :func:`qfd_map` within *e*.  ``g_G`` is within ``e_q`` of ``q G``
      (:func:`_product_error`), ``fl(M - g_G)`` within ``w`` per entry and
      ``s`` within ``gamma_n`` of its squares plus ``2 n t64``, so ``||x G||``
      lies in ``[sqrt((s - 2 n t64) / (1 + gamma_n)) (1 - w) - e - e_q,
      sqrt((s + 2 n t64) / (1 - gamma_n)) / (1 - w) + e + e_q]``.  ``hi(s)``
      is the upper end squared plus ``D``, and ``s > lo_cut(R) = ((sqrt(R +
      D) + e + e_q) sqrt(1 + gamma_n) / (1 - w))^2 + 2 n t64`` puts the
      lower end squared above ``R + D``.

    Every quantity that must be low is scaled by ``1 - 2^-40`` and every
    one that must be high by ``1 + 2^-40``, absorbing their own float64
    rounding.  ``hi`` and the cuts are non-decreasing, so ``hi`` of the
    k-th smallest ``s`` is the k-th smallest ``hi``.
    """
    n, k = weights.shape
    q64 = _as64(q)
    w_norm, delta, f_norm, form = terms
    with np.errstate(all="ignore"):
        q_norm = float(_norm_up(float(q64 @ q64), n))
        if not np.isfinite(v_norm + q_norm):
            return None
        flushed = _flush_subnormals(q64)
        g, g_map = flushed @ weights, flushed @ factor
    g_squares = float(g @ g)
    big_x = (v_norm + q_norm) * _HIGH
    spread = _float64_error(big_x, radius, n) * _HIGH
    form_spread = (form * big_x * big_x + spread) * _HIGH
    a, b = _gram_error(k, g_squares)
    rank_error = _rank_error(v_norm, q_norm, sqrt(n) * _TINY64, w_norm, n, k)
    rank_error = (rank_error + delta * big_x) * _HIGH
    q_error = _product_error(q_norm, f_norm, n)
    underflow = 2 * n * _TINY64
    low = (1.0 - _U64) / sqrt(1.0 + _gamma(n, _U64)) * _LOW
    high = _HIGH / ((1.0 - _U64) * sqrt(1.0 - _gamma(n, _U64)))

    def rank_cut(r: float) -> float:  # Python floats: called a few times per query
        y = (rank_error + sqrt((r + form_spread) * _HIGH) * _HIGH) * _HIGH
        return (y * y * (1.0 + 2 * a) * _HIGH + b) * _HIGH

    def rank(projected: np.ndarray, p_squares: np.ndarray) -> tuple[np.ndarray, Callable]:
        with np.errstate(all="ignore"):
            c = projected @ (-2.0 * g)
            c += p_squares
            c += g_squares
        return c, rank_cut

    def mapped(rows: np.ndarray, m_error: float) -> tuple[np.ndarray, Callable, Callable] | None:
        if not np.isfinite(m_error):
            return None
        e = (m_error + q_error) * _HIGH

        def lo_cut(r: float) -> float:
            z = (sqrt((r + form_spread) * _HIGH) * _HIGH + e) / low * _HIGH
            return (z * z * _HIGH + underflow) * _HIGH

        def hi(s: float) -> float:
            z = (sqrt(s + underflow) * high + e) * _HIGH
            return (z * z * _HIGH + form_spread) * _HIGH

        with np.errstate(all="ignore"):
            y = rows - g_map
            return _einsum("ij,ij->i", y, y), lo_cut, hi

    return rank, mapped


def _rank_error(
    v_norm: float, q_norm: float, row_error: float, f_norm: float, n: int, k: int
) -> float:
    """``E``, how far ``||P - g||`` is from ``||(v - q) W||``, rounded up, for
    ``||v|| <= V = v_norm``, ``||q|| <= Q = q_norm``, rows within
    ``row_error`` of the exact ones and ``||W||_F <= F = f_norm``.

    ``P_j``, the float64 ``v W_j``, is within ``gamma_n ||v|| ||W_j|| + 4 n
    t64`` of it (any summation order, underflow included), and ``g``, the
    float ``q' W`` of the query flushed of subnormals (``sqrt(n) t64`` from
    ``q``), likewise, so ``E = (gamma_n (V + Q) + sqrt(n) t64 + row_error) F
    + 8 n sqrt(k) t64``.  :func:`qfd_stages` reads it with
    ``row_error = sqrt(n) t64`` for the flushed rows and query,
    :func:`l2_lower_bound` with 0."""
    error = _gamma(n, _U64) * (v_norm + q_norm) + sqrt(n) * _TINY64 + row_error
    return (error * f_norm + 8 * n * sqrt(k) * _TINY64) * _HIGH


def l2_one_to_many(q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """L2 distances from *q* to every row: ``sqrt((v - q)(v - q)^T)``.

    The Euclidean distance's one arithmetic: the scalar
    :func:`repro.distances.minkowski.euclidean`, both query contexts'
    calls and the L2 kernel's ``cross`` / ``pairwise`` rows all give its
    floats, so a QMap-space index reports what a plain scan does.  ``v ==
    q`` gives exactly ``0``.  Past one tile (``_L2_TILE_FLOATS`` worth of
    rows) rows stream through one reused buffer — same floats, no ``m x
    n`` temporary.
    """
    q = _as64(q)
    if rows.size <= _L2_TILE_FLOATS:  # a node, a refinement block: the one-shot form
        diff = rows - q  # a float64 q upcasts any other rows exactly
        out = _einsum("ij,ij->i", diff, diff)
        return np.sqrt(out, out=out)
    step = max(1, _L2_TILE_FLOATS // rows.shape[1])
    n = rows.shape[0]
    out = np.empty(n, dtype=np.float64)
    buffer = np.empty((min(step, n), rows.shape[1]), dtype=np.float64)
    for start in range(0, n, step):
        block = rows[start : start + step]
        diff = np.subtract(block, q, out=buffer[: block.shape[0]])
        np.einsum("ij,ij->i", diff, diff, out=out[start : start + step])
    return np.sqrt(out, out=out)


def _sample(m: int, rng: np.random.Generator) -> np.ndarray:
    """The ascending indices of :func:`l2_basis`' sample of *m* rows."""
    return np.sort(rng.choice(m, size=min(m, _PROJECTION_SAMPLE), replace=False))


def l2_basis(rows: np.ndarray) -> np.ndarray:
    """``W``, an orthonormal rank-``k`` PCA basis of *rows* scaled by
    ``_SHRINK``, certified ``||W||_2 <= 1`` (:func:`l2_basis_certified`), or
    ``n x 0`` when it is not: :func:`l2_lower_bound`'s basis, and ``V`` of
    :func:`qfd_weights`.

    Fitted to a seeded sample of ``_PROJECTION_SAMPLE`` rows, centered, by
    ``_SUBSPACE_STEPS`` steps of subspace iteration on ``_PROJECTION_RANK +
    _SUBSPACE_EXTRA`` vectors and Rayleigh-Ritz (a full SVD of 1 024 rows
    takes ~145 ms at 512-d).  The certificate holds however rough the
    subspace, so the fit buys only pruning; the same rows give the same
    ``W``.
    """
    m, n = rows.shape
    rng = np.random.default_rng(0)
    sample = np.array(rows[_sample(m, rng)], dtype=np.float64)
    rank = min(_PROJECTION_RANK, n)
    try:
        with np.errstate(all="ignore"):
            sample -= sample.mean(axis=0)
            _flush_subnormals(sample, inplace=True)
            y = rng.standard_normal((n, min(rank + _SUBSPACE_EXTRA, n)))
            for _ in range(_SUBSPACE_STEPS):
                y, _ = np.linalg.qr(sample.T @ (sample @ y))
            _, vectors = np.linalg.eigh(y.T @ (sample.T @ (sample @ y)))
            basis = (y @ vectors[:, ::-1][:, :rank]) * _SHRINK
    except np.linalg.LinAlgError:  # non-finite rows
        return np.zeros((n, 0))
    return basis if l2_basis_certified(basis) else basis[:, :0]


def l2_basis_certified(basis: np.ndarray) -> bool:
    """Whether ``||W||_2 <= 1`` is proven for *basis* ``W`` (``n x k``, ``k
    >= 1``, finite), by Gershgorin's theorem on ``W^T W``.

    ``G = fl(W^T W)`` is within ``gamma_n(w) |W^T| |W| + 4 n t64`` of ``W^T
    W`` (any summation order, underflow included), and ``(|W^T| |W|)_ij <=
    c_i c_j`` with ``c_j >= ||W_j||`` from ``G_jj`` rounded up
    (:func:`_norm_up`).  So ``||W||_2^2 = lambda_max(W^T W) <= max_i (sum_j
    |G_ij| + gamma_n(w) c_i sum_j c_j + 4 n k t64)``; the two sums of ``k``
    terms are taken ``gamma_k(w)`` high and the whole ``1 + 2^-40`` high.
    An orthonormal ``W`` passes once scaled by ``_SHRINK``.
    """
    n, k = basis.shape
    if not k:
        return False
    with np.errstate(all="ignore"):
        gram_matrix = basis.T @ basis
        columns = _norm_up(np.diagonal(gram_matrix) + 4 * n * _TINY64, n)
        spread = _gamma(n, _U64) * columns * columns.sum() + 4 * n * k * _TINY64
        rows_sum = np.abs(gram_matrix).sum(axis=1) + spread
        bound = rows_sum * (1.0 + _gamma(k + 1, _U64)) * _HIGH
    return bool(np.all(bound <= 1.0))


def l2_project(basis: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """``(P, V)``: the float64 ``v W`` of every row (``m x k``), and ``V >=
    ||v||`` for every row — the operands :func:`l2_lower_bound` reads.
    Float32 rows upcast exactly, in :func:`row_tiles`.  A non-finite row
    makes ``V``, and every cut, not finite."""
    m, n = rows.shape
    projected = np.empty((m, basis.shape[1]), dtype=np.float64)
    largest = 0.0
    with np.errstate(all="ignore"):
        for tile in row_tiles(m):
            block = _as64(rows[tile])
            np.matmul(block, basis, out=projected[tile])
            largest = np.maximum(largest, np.einsum("ij,ij->i", block, block).max())
        return projected, float(_norm_up(largest, n))


def l2_lower_bound(
    basis: np.ndarray, projected: np.ndarray, v_norm: float, q: np.ndarray
) -> tuple[np.ndarray, Callable[[float], float]]:
    """``(squares, cut)``: per row, ``||P - q W||^2`` in float64, and the
    function of a radius ``R`` whose value ``S`` no row exceeds unless the
    float :func:`l2_one_to_many` returns for *q* and that row is above
    ``R``.  A row with ``squares > cut(R)`` cannot be within ``R``.

    *basis* is a ``W`` certified by :func:`l2_basis_certified`, and
    *projected* / *v_norm* are the rows' ``(P, V)`` (:func:`l2_project`).
    With ``x = v - q`` and ``y`` the float ``P - q W``:

    * ``||y|| >= sqrt((squares - 2 k t64) / (1 + gamma_k(w)))``, and
      ``||x W|| >= ||y|| (1 - 2w) - E`` with ``E`` the rank-k term's error
      (:func:`_rank_error`; ``e_v = 0``, the rows being exact, one ``V``
      for every row, and ``F = sqrt(k) (1 + 2^-40) >= ||W||_F`` since
      ``||W||_F^2 <= k ||W||_2^2 <= k``);
    * ``||x|| >= ||x W||``, as ``||W||_2 <= 1``;
    * the float path (``v - q``, squares, a sum of ``n`` of them in any
      order, ``sqrt``) gives ``d >= sqrt(||x||^2 (1 - gamma_{n+2}(w)) - n
      t64) (1 - w)``: a rounded difference is within ``w`` of ``x_i``
      (exact when subnormal), a square within ``w`` plus at most ``t64``
      of underflow, a sum of non-negative terms within ``gamma_{n-1}(w)``.

    So ``d > R`` once ``||x|| > X = sqrt(((R / (1 - w))^2 + n t64) / (1 -
    gamma_{n+2}(w)))``, once ``||y|| > Y = (X + E) / (1 - 2w)``, once
    ``squares > S = Y^2 (1 + gamma_k(w)) + 2 k t64``; every step of ``S``
    is taken ``1 + 2^-40`` high.  ``R = inf`` gives ``S = inf``.  The query
    is not flushed: a product with a subnormal only underflows, within
    the ``4 n t64`` the error already counts.
    """
    n, k = basis.shape
    q = _as64(q)
    error = float(_rank_error(v_norm, _norm_up(float(q @ q), n), 0.0, sqrt(k) * _HIGH, n, k))
    x_slack, y_low = n * _TINY64, (1.0 - 2 * _U64) * _LOW
    x_low, s_high = (1.0 - _gamma(n + 2, _U64)) * _LOW, (1.0 + _gamma(k, _U64)) * _HIGH

    def cut(radius: float) -> float:  # Python floats: called once per block
        big_r = radius / (1.0 - _U64) * _HIGH
        big_x = sqrt((big_r * big_r * _HIGH + x_slack) / x_low) * _HIGH
        big_y = (big_x + error) / y_low * _HIGH
        return big_y * big_y * s_high + 2 * k * _TINY64

    with np.errstate(all="ignore"):
        y = projected - q @ basis
        return _einsum("ij,ij->i", y, y), cut


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
