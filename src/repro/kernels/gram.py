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

The QFD sequential scan rules rows out before it evaluates them
(paper Section 2.3.1's filter-and-refine): :func:`qfd_lower_bound`
bounds the float64 form from below in O(n + k) per row, as
``mu ||v - q||^2 + ||(v - q) W||^2`` less every rounding error.  ``W``
(``n x k``, ``k = _SPECTRAL_RANK``) comes from approximate top
eigenpairs of ``A``'s symmetric part, and :func:`spectral_floor`
certifies ``(A + A^T) / 2 - W W^T - mu I`` positive semi-definite by one
Cholesky factorization; ``||v - q||`` comes from a float32 copy of the
rows (:func:`qfd_shadow`) and ``v W`` from rows projected once
(:func:`qfd_project`).  The scan then evaluates in float64 only the rows
the bound cannot rule out, so what it returns is always the float64
form's.

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

import numpy as np

try:  # numpy's einsum is this C function behind a Python dispatcher
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

__all__ = [
    "RECHECK_REL",
    "qfd_row_norms",
    "l2_row_norms",
    "qfd_one_to_many",
    "qfd_shadow",
    "shadow_norms",
    "qfd_project",
    "qfd_lower_bound",
    "spectral_floor",
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
#: Factors on a certified bound's float64 terms that must be low / high
#: (see :func:`qfd_lower_bound`).
_LOW, _HIGH = 1.0 - 2.0**-40, 1.0 + 2.0**-40

#: Floats in one tile's difference buffer of :func:`l2_one_to_many` (1 MB, L2-resident).
_L2_TILE_FLOATS = 131072

#: Rows per tile of a database-sized operand: 8192 x 512 d x 8 B = 32 MB of
#: float64, so a memory-mapped float32 store is never upcast whole.  Both
#: stores go through the same tiles, which is what keeps an mmap index and
#: its heap twin bit-identical (a one-row tile is a matrix-vector product,
#: another BLAS kernel, so tilings are not interchangeable in general).  A
#: heap database at benchmark sizes is a single tile.
_TILE_ROWS = 8192


#: Columns of ``W``, the rank of :func:`spectral_floor`'s deflation: a
#: ``scan512`` kNN query read 3.30 ms at rank 8, 2.79 at 16, 2.66 at 24,
#: 2.67 at 32 and 2.65 at 48, and 32 beat 16 by 5-7 % in two more runs,
#: for ~2 ms more on the first query (Xeon, 2 vCPUs, BLAS pinned).
_SPECTRAL_RANK = 32

#: Subspace iteration for ``W``: steps, and vectors carried beyond the
#: rank.  The Nystrom form is certified however rough the subspace, so
#: steps buy only pruning: 2-4 steps leave 78-79 ``scan512`` survivors at
#: rank 16, 3-4 steps 63-65 at rank 32.
_SUBSPACE_STEPS = 3
_SUBSPACE_EXTRA = 8


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
    one constant :func:`qfd_lower_bound`'s error terms need from the
    matrix.
    """
    n = matrix.shape[0]
    magnitudes = np.abs(matrix)
    largest = max(magnitudes.sum(axis=1).max(), magnitudes.sum(axis=0).max())
    return float(largest) * (1.0 + _gamma(n + 1, _U64))


def qfd_shadow(rows: np.ndarray) -> np.ndarray:
    """The float32 "shadow" of float64 *rows* whose gemv gives
    :func:`qfd_lower_bound` ``||v - q||``.

    Cast tile by tile and flushed of float32 subnormals, once, so no query
    pays the microcode assist on them; every entry is within
    ``2^-24 |v_i| + tiny32`` of the row's (the bound's ``e_v`` term).
    """
    shadow = np.empty(rows.shape, dtype=np.float32)
    with np.errstate(over="ignore"):  # beyond float32 range: inf, re-evaluated
        for tile in row_tiles(rows.shape[0]):
            block = shadow[tile]
            np.copyto(block, rows[tile], casting="same_kind")
            _flush_subnormals(block, inplace=True)
    return shadow


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

    With :func:`qfd_lower_bound`'s ``w``, ``t64`` and ``gamma_k`` and
    ``R = radius``: the path's difference is within ``e64 = w X +
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


def qfd_project(weights: np.ndarray, shadow: np.ndarray) -> np.ndarray:
    """``v^ W`` per float32 row of *shadow*, in float64 (``m x k``): the
    projected rows :func:`qfd_lower_bound`'s rank-k term reads, made once
    per database.

    A float32 entry, subnormal or not, upcasts to a float64 normal or
    zero, so no product meets a subnormal; the shadow is upcast through a
    1 MB buffer (``_L2_TILE_FLOATS``), not whole.
    """
    m, n = shadow.shape
    out = np.empty((m, weights.shape[1]), dtype=np.float64)
    step = max(1, _L2_TILE_FLOATS // n)
    buffer = np.empty((min(step, m), n), dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf rows: inf or nan, bound -inf
        for start in range(0, m, step):
            block = buffer[: min(step, m - start)]
            np.copyto(block, shadow[start : start + step])
            np.matmul(block, weights, out=out[start : start + block.shape[0]])
    return out


def qfd_lower_bound(
    mu: float,
    radius: float,
    q: np.ndarray,
    shadow: np.ndarray | None,
    norms: np.ndarray,
    *,
    weights: np.ndarray | None = None,
    projected: np.ndarray | None = None,
    rows_exact: bool = False,
) -> np.ndarray:
    """Certified lower bounds, in O(n + k) per row, on the squared QFDs
    the float64 path computes: ``mu ||v - q||^2 + ||(v - q) W||^2`` less
    every rounding error.

    :func:`spectral_floor` certifies ``(A + A^T) / 2 - W W^T - mu I``
    positive semi-definite for its *weights* ``W`` (``n x k``) and *mu*,
    so ``x A x^T >= mu ||x||^2 + ||x W||^2`` for ``x = v - q``.  Without
    *weights*, or with ``k = 0``, the bound is the rank-0 one and *mu* is
    at most ``lambda_min((A + A^T) / 2)`` (:func:`lambda_min_floor`).
    ``||v - q||`` comes from the Gram form over the shadow
    (:func:`qfd_shadow`): *norms* is :func:`shadow_norms`, ``||q^||^2`` is
    summed in float64 and ``v^ . q^`` is one float32 gemv ``shadow @ q^``.
    ``x W`` comes from *projected*, :func:`qfd_project` of the shadow,
    less ``q W``.  The result bounds ``d64`` — the value **the float64
    path computes** (:func:`qfd_one_to_many` before its clamp and square
    root) for the row ``v`` the shadow stands for — not the exact one.
    With ``mu = 0.0`` (nothing certified, no *weights*) every bound is at
    most ``0``, below the path's clamped value.  Without *shadow* the
    bound is the rank-k term alone, ``r^2 - T64(V' + Q)`` with ``V' =
    (V + sqrt(n) t) / (1 - u) >= ||v||`` (``V`` when ``rows_exact``): O(k)
    per row, no pass over the shadow, and still a bound as ``mu >= 0``.  A
    row whose bound is not finite gets ``-inf``: it is never ruled out.
    *radius* is :func:`abs_sum_radius`; ``rows_exact`` says the shadow
    *is* the stored rows (a float32 store), so they carry no rounding of
    their own.

    The bound, with ``u = 2^-24``, ``w = 2^-53``, ``t`` / ``t64`` the two
    dtypes' ``tiny``, ``gamma_k(u) = k u / (1 - k u)``, ``S = norms +
    ||q^||^2`` and ``N = S - 2 (v^ . q^)`` evaluated in float64 from the
    gemv's float32 result::

        bound = mu l^2 - T64(X) + r^2

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
    * ``T64`` — the float64 path's own rounding over ``||x|| <= X``
      (:func:`_float64_error`): ``d64 >= x A x^T - T64(X)``.
    * ``r <= ||x W||``: ``P_j``, the float64 product of the shadow row
      with ``W``'s column ``W_j``, is within ``gamma_n(w) ||v^|| ||W_j||
      + 4 n t64`` of ``v^ W_j`` (any summation order, underflow
      included), so within ``(gamma_n(w) ||v^|| + e_v) ||W_j|| + 4 n
      t64`` of ``v W_j``; ``q W_j``, from the query flushed of float64
      subnormals, is within ``(gamma_n(w) ||q|| + sqrt(n) t64) ||W_j|| +
      4 n t64`` of the exact one, and ``y = P - q W`` rounds by at most
      ``w |y_j| / (1 - w)``.  With ``V >= ||v^||``, ``Q >= ||q||`` and
      ``F >= ||W||_F``::

          r = ||y|| (1 - 2w) - (gamma_n(w) (V + Q) + e_v + sqrt(n) t64) F
              - 8 n sqrt(k) t64

      clamped at ``0``; ``||y||^2``, a float64 sum of ``k`` squares, is
      within ``gamma_k(w)`` of its value plus ``2 k t64`` of underflow.

    Every quantity that must be low (``sqrt(N - E)``, ``l``, ``mu l^2``,
    ``||y||``, ``r``, ``r^2``) is scaled by ``1 - 2^-40`` before anything
    is subtracted from it, and every one that must be high (``E``, ``e``,
    ``sqrt(N + E)``, ``T64``, ``V`` and ``r``'s error) by ``1 + 2^-40``:
    that absorbs the relative ``~1e-14`` by which their float64
    evaluation can miss, a subtraction's rounding included.
    """
    q64 = _as64(q)
    qq = float(q64 @ q64)
    with np.errstate(all="ignore"):  # rows or a query beyond float32 range
        if shadow is None:
            n = weights.shape[0]
            v_norm = np.sqrt(norms * (1.0 + _gamma(2 * n, _U64))) * _HIGH
            if not rows_exact:
                v_norm = (v_norm + np.sqrt(n) * _TINY32) / (1.0 - _U32) * _HIGH
            bound = -_float64_error((v_norm + _norm_up(qq, n)) * _HIGH, radius, n) * _HIGH
        else:
            n = shadow.shape[1]
            q32 = _flush_subnormals(q64.astype(np.float32), inplace=True)
            q32_64 = q32.astype(np.float64)
            dots = np.asarray(shadow @ q32).astype(np.float64)
            bound = _lower_bound(
                norms, dots, float(q32_64 @ q32_64), qq, mu, radius, n, rows_exact
            )
        if weights is not None and weights.shape[1]:
            bound += _rank_term(weights, projected, q64, norms, qq, rows_exact)
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
    """:func:`qfd_lower_bound`'s ``mu l^2 - T64(X)``, term for term (see its
    docstring)."""
    low, high = _LOW, _HIGH
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


def _rank_term(
    weights: np.ndarray,
    projected: np.ndarray,
    q: np.ndarray,
    norms: np.ndarray,
    qq: float,
    rows_exact: bool,
) -> np.ndarray:
    """:func:`qfd_lower_bound`'s ``r^2``, term for term (see its docstring)."""
    low, high = _LOW, _HIGH
    n, k = weights.shape
    root_n = np.sqrt(n)
    y = projected - _flush_subnormals(q) @ weights
    squares = np.einsum("ij,ij->i", y, y)
    y_norm = np.sqrt(np.maximum(squares - 2 * k * _TINY64, 0.0) / (1.0 + _gamma(k, _U64)))
    v_norm = np.sqrt(norms * (1.0 + _gamma(2 * n, _U64))) * high
    error = _gamma(n, _U64) * (v_norm + _norm_up(qq, n)) + root_n * _TINY64
    if not rows_exact:
        error = error + (_U32 * v_norm + 2 * root_n * _TINY32) / (1.0 - _U32)
    f_norm = _norm_up(float(np.einsum("ij,ij->", weights, weights)), n * k)
    error = (error * f_norm + 8 * n * np.sqrt(k) * _TINY64) * high
    r = np.maximum(y_norm * low * (1.0 - 2 * _U64) - error, 0.0) * low
    return r * r * low


def spectral_floor(
    matrix: np.ndarray, factor: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """``(W, mu)``, :func:`qfd_lower_bound`'s operands: ``W`` (``n x k``)
    and ``mu > 0`` with ``(A + A^T) / 2 - W W^T - mu I`` certified positive
    semi-definite, else the rank-0 ``(n x 0, lambda_min_floor(A))``.

    ``W`` is the Nystrom form of ``A' = fl((A + A^T) / 2) - c I`` over its
    top Ritz vectors, ``c = lambda^ / 2`` with :func:`lambda_min_floor`'s
    estimate ``lambda^``: ``_SUBSPACE_STEPS`` steps of subspace iteration
    on ``_SPECTRAL_RANK + _SUBSPACE_EXTRA`` vectors (``eigh`` takes ~39
    ms at 512-d), then Rayleigh-Ritz; ``U`` holds the top
    ``_SPECTRAL_RANK`` Ritz vectors whose value ``theta`` (of ``A'``)
    exceeds ``c``, and ``W = A' U diag(theta)^(-1/2)``.  For exact
    eigenvectors that is ``V diag(sqrt(lambda_i - c))``; for any ``U``,
    ``W W^T = A' U (U^T A' U)^(-1) U^T A'`` and ``A' - W W^T`` is a Schur
    complement, positive semi-definite when ``A'`` is, so
    ``B = (A + A^T) / 2 - W W^T >= c I`` however rough the subspace.

    The certificate is :func:`lambda_min_floor`'s, applied to ``B``:
    ``np.linalg.cholesky`` must complete on ``H = fl(fl(A_sym) - fl(W
    W^T)) - (c / 2) I``, and ``mu = c / 2`` less its margin.  Forming ``H``
    now also costs the product, within ``gamma_k(w) |W| |W|^T`` (``<=
    gamma_k(w) ||W||_F^2`` in the 2-norm) plus ``4 k t64`` of underflow per
    entry, and the subtraction, within ``w (R_A + (1 + gamma_k(w))
    ||W||_F^2)``: the forming term adds ``w R_A + (gamma_k(w) + 2w)
    ||W||_F^2 + 4 n k t64``.  When it fails, ``W`` is empty and ``mu`` is
    the rank-0 floor, never ``0.0`` while that one certifies.
    """
    estimate, sym = _estimate(matrix, factor)
    radius = abs_sum_radius(matrix)
    with np.errstate(all="ignore"):
        weights = _deflation(sym, 0.5 * estimate) if estimate > 0.0 else sym[:, :0]
    n, k = weights.shape
    if k:
        with np.errstate(all="ignore"):
            deflated = sym - weights @ weights.T
            np.fill_diagonal(deflated, np.diagonal(deflated) - 0.25 * estimate)
        f_norm = _norm_up(float(np.einsum("ij,ij->", weights, weights)), n * k)
        forming = _U64 * radius + (_gamma(k, _U64) + 2 * _U64) * f_norm * f_norm
        mu = _certified(deflated, 0.25 * estimate, radius, forming + 4 * n * k * _TINY64)
        if mu > 0.0:
            return weights, mu
    return np.zeros((n, 0)), lambda_min_floor(matrix, factor)


def _deflation(sym: np.ndarray, shift: float) -> np.ndarray:
    """:func:`spectral_floor`'s ``W`` for ``A' = sym - shift I``."""
    n = sym.shape[0]
    rank = min(_SPECTRAL_RANK, n)
    y = np.random.default_rng(0).standard_normal((n, min(rank + _SUBSPACE_EXTRA, n)))
    for _ in range(_SUBSPACE_STEPS):
        y, _ = np.linalg.qr(sym @ y)
    image = sym @ y - shift * y
    theta, vectors = np.linalg.eigh(y.T @ image)
    top, vectors = theta[::-1][:rank], vectors[:, ::-1][:, :rank]
    keep = top > shift
    return (image @ vectors[:, keep]) / np.sqrt(top[keep])


def lambda_min_floor(matrix: np.ndarray, factor: np.ndarray | None = None) -> float:
    """``mu``, a certified lower bound on ``lambda_min((A + A^T) / 2)``, or
    ``0.0`` when none above zero can be certified: the rank-0 floor
    :func:`spectral_floor` falls back to.

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

    rounded down (:func:`_certified`).
    """
    estimate, sym = _estimate(matrix, factor)
    if not estimate > 0.0:
        return 0.0
    with np.errstate(all="ignore"):
        sym[np.diag_indices_from(sym)] -= 0.5 * estimate
    return _certified(sym, 0.5 * estimate, abs_sum_radius(matrix), 0.0)


def _estimate(matrix: np.ndarray, factor: np.ndarray | None) -> tuple[float, np.ndarray]:
    """``(lambda^, fl((A + A^T) / 2))``, ``lambda^ = 0.0`` when no finite
    positive estimate comes (see :func:`lambda_min_floor`)."""
    sym = (matrix + matrix.T) * 0.5
    try:
        with np.errstate(all="ignore"):
            if factor is None:
                factor = np.linalg.cholesky(sym)
            estimate = _lambda_min_estimate(factor, sym)
    except np.linalg.LinAlgError:
        return 0.0, sym
    return (estimate if np.isfinite(estimate) and estimate > 0.0 else 0.0), sym


def _certified(shifted: np.ndarray, shift: float, radius: float, forming: float) -> float:
    """*shift* less :func:`lambda_min_floor`'s margin, rounded down, if
    ``np.linalg.cholesky`` completes on the float64 *shifted*; ``0.0`` if it
    fails or the margin eats *shift*.  *forming* is what forming
    *shifted* costs beyond ``w (R_A + max H_ii) + n t64``."""
    try:
        with np.errstate(all="ignore"):
            np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return 0.0
    n = shifted.shape[0]
    g = _gamma(n + 3, _U64)
    diagonal = np.abs(np.diagonal(shifted))
    trace = float(diagonal.sum()) * (1.0 + _gamma(n, _U64))
    top = float(diagonal.max())
    margin = g * trace / (1.0 - g) + _U64 * (radius + top) + forming
    margin += (2 * n * (n + 1 + top) + n) * _TINY64
    mu = (shift - margin * _HIGH) * _LOW
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


def l2_pairwise(rows: np.ndarray) -> np.ndarray:
    """Pairwise L2 distance matrix via the Gram expansion (+ recheck).

    ``(|u|^2 + |v|^2) - (uv^T + vu^T)``, the norm sum reused for the
    recheck threshold, every step in place: a split's 17-row matrix is a
    dozen numpy calls.
    """
    rows = _as64(rows)
    diagonal = slice(None, None, rows.shape[0] + 1)  # of the flattened matrix
    row_norms = _einsum("ij,ij->i", rows, rows)
    norm_sums = np.add.outer(row_norms, row_norms)
    sq = rows @ rows.T
    sq += sq.T  # numpy buffers the overlapping operand
    np.subtract(norm_sums, sq, out=sq)
    sq.ravel()[diagonal] = 0.0
    norm_sums *= RECHECK_REL
    suspect = np.less_equal(sq, norm_sums)
    suspect.ravel()[diagonal] = False
    if suspect.any():
        ii, jj = np.nonzero(np.triu(suspect, 1))
        diff = rows[ii] - rows[jj]
        exact = _einsum("ij,ij->i", diff, diff)
        sq[ii, jj] = exact
        sq[jj, ii] = exact
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def l2_cross(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """``(a, b)`` L2 distance matrix between two row batches."""
    rows_a = _as64(rows_a)
    rows_b = _as64(rows_b)
    norms_a = l2_row_norms(rows_a)
    norms_b = l2_row_norms(rows_b)
    sq = norms_a[:, None] + norms_b[None, :] - 2.0 * (rows_a @ rows_b.T)
    suspect = sq <= RECHECK_REL * (norms_a[:, None] + norms_b[None, :])
    ii, jj = np.nonzero(suspect)
    if ii.size:
        diff = rows_a[ii] - rows_b[jj]
        sq[ii, jj] = np.einsum("ij,ij->i", diff, diff)
    return np.sqrt(np.maximum(sq, 0.0))
