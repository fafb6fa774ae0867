"""Positive-definiteness validation for QFD matrices (paper Section 3.2.3).

The paper argues that the QFD matrix must be *strictly* positive-definite:
from the identity postulate of a metric, ``z A z^T = 0`` may hold only for
``z = 0``.  A merely positive-*semi*definite matrix produces a pseudo-metric
in which distinct histograms can have distance zero.

The checks here are used by the matrix constructors and by
:class:`~repro.core.qmap.QMap` before attempting the Cholesky factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._typing import ArrayLike, Matrix, as_square_matrix
from ..exceptions import NotPositiveDefiniteError
from .cholesky import cholesky
from .symmetrize import is_symmetric, symmetrize

__all__ = [
    "is_positive_definite",
    "require_positive_definite",
    "positive_definite_factor",
    "min_eigenvalue",
    "ensure_positive_definite",
    "PDRepair",
]


def is_positive_definite(a: ArrayLike) -> bool:
    """Return whether the symmetric part of *a* is strictly positive-definite.

    Uses a Cholesky attempt, which is both the fastest practical test and
    the one the paper itself relies on (Algorithm 1's error branch).
    """
    mat = symmetrize(as_square_matrix(a, name="matrix"))
    try:
        cholesky(mat, check_symmetry=False)
    except NotPositiveDefiniteError:
        return False
    return True


def require_positive_definite(a: ArrayLike, *, name: str = "QFD matrix") -> Matrix:
    """Return *a* as an array, raising unless it is symmetric PD."""
    mat = as_square_matrix(a, name=name)
    positive_definite_factor(mat, name=name)
    return mat


def positive_definite_factor(a: ArrayLike, *, name: str = "QFD matrix") -> Matrix:
    """The Cholesky factor of *a* (of its symmetric part, unless *a* is
    symmetric within tolerance), raising unless it is strictly PD."""
    mat = as_square_matrix(a, name=name)
    mat_sym = mat if is_symmetric(mat) else symmetrize(mat)
    try:
        return cholesky(mat_sym, check_symmetry=False)
    except NotPositiveDefiniteError:
        raise NotPositiveDefiniteError(
            f"{name} is not strictly positive-definite; QFD would violate "
            "the identity metric postulate (paper Section 3.2.3)"
        ) from None


def min_eigenvalue(a: ArrayLike) -> float:
    """Smallest eigenvalue of the symmetric part of *a*.

    Negative or zero values mean the matrix fails strict positive
    definiteness; the magnitude tells how large a diagonal shift
    :func:`ensure_positive_definite` needs.
    """
    mat = symmetrize(as_square_matrix(a, name="matrix"))
    return float(np.linalg.eigvalsh(mat)[0])


@dataclass(frozen=True)
class PDRepair:
    """Outcome of :func:`ensure_positive_definite`.

    Attributes
    ----------
    matrix:
        The (possibly shifted) symmetric positive-definite matrix.
    shift:
        The value added to the diagonal; ``0.0`` when no repair was needed.
    min_eigenvalue:
        Smallest eigenvalue of the *input* matrix, recorded for reporting.
    """

    matrix: Matrix
    shift: float
    min_eigenvalue: float

    @property
    def was_repaired(self) -> bool:
        """Whether a diagonal shift was applied."""
        return self.shift > 0.0


def ensure_positive_definite(a: ArrayLike, *, margin: float = 1e-9) -> PDRepair:
    """Make the symmetric part of *a* strictly PD by a minimal diagonal shift.

    Used by the Hafner matrix constructor (DESIGN.md Section 5): the
    ``A_ij = 1 - d_ij / d_max`` recipe is not guaranteed strictly PD for
    every prototype layout, so when it fails we add
    ``(|lambda_min| + margin) * I`` and report the shift honestly.
    """
    mat = symmetrize(as_square_matrix(a, name="matrix"))
    lam = float(np.linalg.eigvalsh(mat)[0])
    # A strictly positive smallest eigenvalue may still be so tiny that the
    # Cholesky pivot underflows; the margin guards that edge too.
    if lam > margin and is_positive_definite(mat):
        return PDRepair(matrix=mat, shift=0.0, min_eigenvalue=lam)
    shift = abs(lam) + margin
    repaired = mat + shift * np.eye(mat.shape[0])
    return PDRepair(matrix=repaired, shift=shift, min_eigenvalue=lam)
