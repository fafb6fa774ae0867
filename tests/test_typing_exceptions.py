"""Tests for repro._typing coercions and the exception hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro._typing import as_square_matrix, as_vector, as_vector_batch
from repro.exceptions import (
    DimensionMismatchError,
    EmptyIndexError,
    IndexStateError,
    MatrixError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    PageError,
    QueryError,
    ReproError,
    StorageError,
)


class TestAsVector:
    def test_coerces_list(self) -> None:
        out = as_vector([1, 2, 3])
        assert out.dtype == np.float64
        assert out.shape == (3,)

    def test_checks_dim(self) -> None:
        with pytest.raises(DimensionMismatchError, match="expected 4"):
            as_vector([1.0, 2.0], 4)

    def test_rejects_2d(self) -> None:
        with pytest.raises(DimensionMismatchError):
            as_vector(np.ones((2, 2)))

    def test_name_in_error(self) -> None:
        with pytest.raises(DimensionMismatchError, match="weights"):
            as_vector(np.ones((2, 2)), name="weights")


class TestAsVectorBatch:
    def test_promotes_1d(self) -> None:
        out = as_vector_batch([1.0, 2.0])
        assert out.shape == (1, 2)

    def test_checks_dim(self) -> None:
        with pytest.raises(DimensionMismatchError):
            as_vector_batch(np.ones((3, 2)), 5)

    def test_rejects_3d(self) -> None:
        with pytest.raises(DimensionMismatchError):
            as_vector_batch(np.ones((2, 2, 2)))


class TestAsSquareMatrix:
    def test_accepts_square(self) -> None:
        assert as_square_matrix([[1.0, 0.0], [0.0, 1.0]]).shape == (2, 2)

    def test_rejects_rectangular(self) -> None:
        with pytest.raises(MatrixError):
            as_square_matrix(np.ones((2, 3)))

    def test_rejects_inf(self) -> None:
        a = np.eye(2)
        a[0, 1] = np.inf
        with pytest.raises(MatrixError, match="non-finite"):
            as_square_matrix(a)


class TestExceptionHierarchy:
    """A single `except ReproError` must catch everything the library
    raises, and the standard-library bases must hold for idiomatic use."""

    @pytest.mark.parametrize(
        "exc",
        [
            MatrixError,
            NotPositiveDefiniteError,
            NotSymmetricError,
            DimensionMismatchError,
            IndexStateError,
            EmptyIndexError,
            QueryError,
            StorageError,
            PageError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc) -> None:
        assert issubclass(exc, ReproError)

    def test_value_error_compat(self) -> None:
        assert issubclass(MatrixError, ValueError)
        assert issubclass(QueryError, ValueError)
        assert issubclass(DimensionMismatchError, ValueError)

    def test_runtime_and_io_compat(self) -> None:
        assert issubclass(IndexStateError, RuntimeError)
        assert issubclass(StorageError, IOError)

    def test_specializations(self) -> None:
        assert issubclass(NotPositiveDefiniteError, MatrixError)
        assert issubclass(NotSymmetricError, MatrixError)
        assert issubclass(EmptyIndexError, IndexStateError)
        assert issubclass(PageError, StorageError)

    def test_catching_base_works_in_practice(self) -> None:
        from repro.core import QuadraticFormDistance

        with pytest.raises(ReproError):
            QuadraticFormDistance(np.ones((3, 3)))  # singular


def test_importing_the_package_does_not_import_scipy() -> None:
    # scipy.linalg was half of `import repro`'s time, for two inverse-map
    # calls no build, query or restore reaches; a subprocess, because this
    # process has long since imported it.
    import os
    import subprocess
    import sys

    code = "import sys, repro, repro.cli; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_a_failing_hypothesis_test_fails_alone(tmp_path) -> None:
    # Reporting a falsified @given test imports libcst, whose import trips a
    # third-party DeprecationWarning; as an error it used to abort the whole
    # session with INTERNALERROR instead of reporting one failure.
    import os
    import subprocess
    import sys
    from pathlib import Path

    test_file = tmp_path / "test_falsified.py"
    test_file.write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x != x\n"
    )
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", str(test_file)],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert run.returncode == 1
