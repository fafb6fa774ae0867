"""Shared type aliases and small array-validation helpers.

The helpers centralize the coercion of user-supplied array-likes into the
canonical ``float64`` numpy representations used across the library, so the
individual modules can stay focused on the algorithms.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .exceptions import DimensionMismatchError, MatrixError

__all__ = [
    "ArrayLike",
    "Vector",
    "Matrix",
    "as_vector",
    "as_vector_batch",
    "as_square_matrix",
]

ArrayLike = Union[Sequence[float], np.ndarray]
Vector = np.ndarray
Matrix = np.ndarray


def as_vector(data: ArrayLike, dim: int | None = None, *, name: str = "vector") -> Vector:
    """Coerce *data* to a 1-D ``float64`` array, optionally checking its length.

    Parameters
    ----------
    data:
        Any sequence of numbers or numpy array.
    dim:
        Expected dimensionality; ``None`` skips the check.
    name:
        Identifier used in error messages.

    Raises
    ------
    DimensionMismatchError
        If the array is not 1-D or its length differs from *dim*.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} has dimensionality {arr.shape[0]}, expected {dim}"
        )
    return arr


def as_vector_batch(
    data: ArrayLike,
    dim: int | None = None,
    *,
    name: str = "batch",
    keep_float32: bool = False,
) -> Matrix:
    """Coerce *data* to a 2-D ``(m, n)`` ``float64`` array of row vectors.

    A single 1-D vector is promoted to a one-row batch.  With
    *keep_float32* a float32 array (a memory-mapped store) is returned
    without its float64 copy, for a kernel that upcasts it tile by tile.
    """
    arr = np.asarray(data)
    if not (keep_float32 and arr.dtype == np.float32):
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"{name} has dimensionality {arr.shape[1]}, expected {dim}"
        )
    return arr


def as_square_matrix(data: ArrayLike, *, name: str = "matrix") -> Matrix:
    """Coerce *data* to a square 2-D ``float64`` array.

    Raises
    ------
    MatrixError
        If the array is not square or contains non-finite entries.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise MatrixError(f"{name} contains non-finite entries")
    return arr
