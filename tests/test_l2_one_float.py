"""One pair, one float: an L2 distance does not depend on the call it is in.

Every access method reports the distance of ``(q, v)`` through some
entry point — the scalar :func:`repro.distances.euclidean` (a port's
``pair``, a scan without a kernel), ``BoundQuery.one`` (a vantage point,
a split's parent distance), a ``many`` call of however many rows (a node,
a scan tile), or a cell of the kernel's ``pairwise`` / ``cross`` matrices
(a split, a bulk load, the pivot table's pivot pair).  The QMap model's
exactness argument needs all of them to give the same float, so each is
checked here against the scalar under hypothesis: 8-, 64- and 512-d rows,
float32 and float64, calls of 1-17 rows with ``v`` at any position, and
``v`` from far away down to a few ulps from ``q``.

The QFD is not covered: a 1-3-row ``qfd_one_to_many`` call is a
matrix-vector product (or the BLAS's small-matrix path), whose floats
differ from a larger call's (ROADMAP item 2(b)).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QMap
from repro.distances import euclidean
from repro.kernels import L2Kernel
from repro.mam.base import DistancePort


@st.composite
def pair_in_a_call(draw):
    """``(q, v, rows, pos)``: *rows* (the call) holds *v* at *pos*."""
    dim = draw(st.sampled_from([8, 64, 512]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 17))
    pos = draw(st.integers(0, n - 1))
    closeness = draw(st.sampled_from([1.0, 1e-3, 1e-9, 0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # A float32 store's rows are float32; its query is a float64 vector.
    rows = rng.dirichlet(np.full(dim, 0.1), size=n).astype(dtype)
    q = rng.dirichlet(np.full(dim, 0.1))
    v = (q + closeness * rng.standard_normal(dim) / dim).astype(dtype)
    rows[pos] = v
    return q, v, rows, pos


@settings(max_examples=150, deadline=None)
@given(pair_in_a_call())
def test_every_entry_point_gives_the_scalars_float(case) -> None:
    q, v, rows, pos = case
    want = euclidean(q, v)
    kernel = L2Kernel()
    port = DistancePort(euclidean)
    bound = port.bind_query(q)
    got = {
        "euclidean(v, q)": euclidean(v, q),
        "port.pair": port.pair(q, v),
        "QMap.euclidean": QMap(np.eye(len(q))).euclidean(q, v),
        "BoundQuery.one": bound.one(v),
        "BoundQuery.many": bound.many(rows)[pos],
        "one_to_many": kernel.one_to_many(q, rows)[pos],
        "cross(q, rows)": kernel.cross(q[None], rows)[0, pos],
        "cross(rows, q)": kernel.cross(rows, q[None])[pos, 0],
    }
    assert all(value == want for value in got.values()), {
        name: value for name, value in got.items() if value != want
    } | {"want": want}
    # In a matrix, q is a row of the store's dtype, after the call's rows.
    q_row = q.astype(rows.dtype)
    block, last = np.vstack([rows, q_row]), len(rows)
    matrix = {
        "pairwise[q, v]": kernel.pairwise(block)[last, pos],
        "pairwise[v, q]": kernel.pairwise(block)[pos, last],
        "cross(block, rows)": kernel.cross(block, rows)[last, pos],
        "cross(rows, block)": kernel.cross(rows, block)[pos, last],
    }
    want = euclidean(q_row, v)
    assert all(value == want for value in matrix.values()), matrix | {"want": want}
