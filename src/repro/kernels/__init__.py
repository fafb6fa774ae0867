"""BLAS-backed distance kernels (batched forms, query contexts, factor cache).

This package is the performance substrate under the distance and MAM
layers: pure batched math in :mod:`~repro.kernels.gram` (the one
difference form of the QFD and of L2), per-metric kernel objects and
:func:`~repro.kernels.kernels.resolve_kernel` in
:mod:`~repro.kernels.kernels`, and the content-addressed Cholesky registry
in :mod:`~repro.kernels.cholesky_cache`.  Nothing here counts distance
evaluations — logical charging stays in :class:`repro.mam.base.DistancePort`.
"""

from .cholesky_cache import cached_cholesky, cholesky_cache_info, clear_cholesky_cache
from .gram import (
    l2_one_to_many,
    l2_row_norms,
    qfd_one_to_many,
    qfd_pairwise,
    qfd_row_norms,
    row_tiles,
)
from .kernels import L2Kernel, L2QueryContext, QFDKernel, QFDQueryContext, resolve_kernel
from .ptolemaic import (
    ptolemaic_bound_scalar,
    ptolemaic_bounds,
    valid_pivot_pairs,
)

__all__ = [
    "cached_cholesky",
    "cholesky_cache_info",
    "clear_cholesky_cache",
    "l2_one_to_many",
    "l2_row_norms",
    "qfd_one_to_many",
    "qfd_pairwise",
    "qfd_row_norms",
    "L2Kernel",
    "L2QueryContext",
    "QFDKernel",
    "QFDQueryContext",
    "ptolemaic_bound_scalar",
    "ptolemaic_bounds",
    "resolve_kernel",
    "row_tiles",
    "valid_pivot_pairs",
]
