"""What the Gram-form QFD gave up: exactness against a long-double oracle.

Until the QFD model became one difference-form arithmetic, every QFD-model
tree evaluated its query distances with the Gram expansion

    d(q, v)^2 = qAq^T - 2 qA.v + vAv^T

over cached ``vAv^T`` row norms (O(n) per candidate), and recomputed with
the difference form every squared distance below ``RECHECK_REL`` times
``qAq^T + vAv^T`` (the cancellation recheck).  This script keeps that
arithmetic inline, as it was, and holds it and the difference form the QFD
model runs now against a ``np.longdouble`` difference-form oracle:

* the largest relative error of each form, and the largest distance each
  returns where the oracle's is exactly zero (an exact duplicate);
* how often the recheck fired, per evaluated row;
* kNN answers (``k`` = 10, ties broken by index) whose index set differs
  from the one the oracle's distances, correctly rounded to float64, give;
* over a QFD-model M-tree, kNN queries, and range queries whose radius is
  the k-th rounded oracle distance (an answer boundary on purpose), whose
  answer index sets differ from the rounded oracle's, per arithmetic, and
  queries whose node visits, prunes or charged evaluations differ between
  the two arithmetics (a flipped prune decision shows up there).

Cases: the parity fixtures' histogram workloads (8-d, 64-d) and the paper's
512-d testbed, then Gaussian rows under near-singular and badly scaled SPD
matrices.  Every case's queries are held-out objects, stored objects
(self-queries) and stored objects moved by ~1e-9 (near duplicates).

Usage::

    PYTHONPATH=src python benchmarks/bench_qfd_gram_exactness.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.core import random_spd_matrix
from repro.core.qfd import QuadraticFormDistance
from repro.datasets import histogram_workload
from repro.engine.trace import query_trace
from repro.models import QFDModel

#: The retired recheck threshold (relative to ``qAq^T + vAv^T``).
RECHECK_REL = 1e-12
K = 10
CAPACITY = 16


class _Kernel:
    """Stands in for the port's kernel: binds the Gram or the difference form.

    The Gram context reads each row's ``vAv^T`` from the database's norms,
    computed in one product as the retired norm cache did.
    """

    def __init__(self, matrix: np.ndarray, data: np.ndarray, gram: bool) -> None:
        self.matrix = matrix
        self.gram = gram
        self.rechecks = 0
        norms = self.row_norms(data)
        self.norm_of = {row.tobytes(): float(n) for row, n in zip(data, norms)}

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        return np.einsum("ij,ij->i", rows @ self.matrix, rows)

    def bind(self, query: np.ndarray):
        return _GramContext(self, query) if self.gram else _DiffContext(self.matrix, query)


class _GramContext:
    """The retired ``QFDQueryContext``: ``qA`` and ``qAq^T`` once per query."""

    def __init__(self, kernel: _Kernel, query: np.ndarray) -> None:
        self._kernel = kernel
        self.query = np.asarray(query, dtype=np.float64)
        self.q_a = self.query @ kernel.matrix
        self.q_norm = float(self.q_a @ self.query)

    def many(self, rows: np.ndarray, norms=None) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.float64)
        norms = np.array([self._kernel.norm_of[row.tobytes()] for row in rows])
        sq = self.q_norm + norms - 2.0 * (rows @ self.q_a)
        suspect = np.flatnonzero(sq <= RECHECK_REL * (self.q_norm + norms))
        if suspect.size:
            diff = rows[suspect] - self.query
            sq[suspect] = np.einsum("ij,ij->i", diff @ self._kernel.matrix, diff)
        self._kernel.rechecks += int(suspect.size)
        return np.sqrt(np.maximum(sq, 0.0))

    def one(self, row: np.ndarray) -> float:
        row = np.asarray(row, dtype=np.float64)
        norm = self._kernel.norm_of[row.tobytes()]
        sq = self.q_norm + norm - 2.0 * float(row @ self.q_a)
        if sq <= RECHECK_REL * (self.q_norm + norm):
            self._kernel.rechecks += 1
            diff = row - self.query
            sq = float(diff @ self._kernel.matrix @ diff)
        return float(np.sqrt(sq if sq > 0.0 else 0.0))


class _DiffContext:
    """The difference form: ``QuadraticFormDistance.one_to_many``."""

    def __init__(self, matrix: np.ndarray, query: np.ndarray) -> None:
        self._qfd = QuadraticFormDistance(matrix)
        self.query = np.asarray(query, dtype=np.float64)

    def many(self, rows: np.ndarray, norms=None) -> np.ndarray:
        return self._qfd.one_to_many(self.query, rows)

    def one(self, row: np.ndarray) -> float:
        return float(self.many(np.asarray(row)[None, :])[0])


def oracle(matrix: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Difference-form distances in ``np.longdouble``."""
    a = matrix.astype(np.longdouble)
    diff = rows.astype(np.longdouble) - q.astype(np.longdouble)
    sq = np.einsum("ij,ij->i", diff @ a, diff)
    return np.sqrt(np.maximum(sq, 0))


def _top_k(dist: np.ndarray) -> list[int]:
    """Indices of the *K* nearest by ``(distance, index)``, in index order."""
    return sorted(np.lexsort((np.arange(dist.shape[0]), dist))[:K].tolist())


def _traced(run) -> tuple:
    """``(answer indices in index order, visited, pruned, evaluations)`` of
    one tree query."""
    with query_trace("probe", 0.0) as trace:
        answer = run()
    return (
        sorted(n.index for n in answer),
        trace.nodes_visited,
        trace.nodes_pruned,
        trace.scalar_evaluations + trace.batched_evaluations,
    )


def measure_case(name: str, matrix: np.ndarray, data: np.ndarray, queries: np.ndarray) -> dict:
    kernels = {form: _Kernel(matrix, data, form == "gram") for form in ("gram", "diff")}
    errors = {form: 0.0 for form in kernels}
    zero_out = {form: 0.0 for form in kernels}
    knn_flips = {form: 0 for form in kernels}
    knn_want, range_want, radii = [], [], []
    for q in queries:
        want = oracle(matrix, q, data)
        rounded = want.astype(np.float64)  # what a correctly rounded form returns
        knn_want.append(_top_k(rounded))
        radii.append(float(np.sort(rounded)[K - 1]))
        range_want.append(np.flatnonzero(rounded <= radii[-1]).tolist())
        positive = want > 0
        for form, kernel in kernels.items():
            got = kernel.bind(q).many(data)
            rel = np.abs(got[positive] - want[positive]) / want[positive]
            errors[form] = max(errors[form], float(rel.max(initial=0.0)))
            zero_out[form] = max(zero_out[form], float(got[~positive].max(initial=0.0)))
            knn_flips[form] += _top_k(got) != knn_want[-1]
    scan_rows = len(queries) * data.shape[0]
    scan_rechecks = kernels["gram"].rechecks

    built = QFDModel(matrix).build_index("mtree", data, capacity=CAPACITY)
    tree = built.access_method
    runs, knn_tree, range_tree = {}, {}, {}
    for form, kernel in kernels.items():
        kernel.rechecks = 0
        tree.distance._kernel = kernel
        knn = [_traced(lambda q=q: tree.knn_search(q, K)) for q in queries]
        ranged = [
            _traced(lambda q=q, r=r: tree.range_search(q, r)) for q, r in zip(queries, radii)
        ]
        runs[form] = knn + ranged
        knn_tree[form] = sum(run[0] != want for run, want in zip(knn, knn_want))
        range_tree[form] = sum(run[0] != want for run, want in zip(ranged, range_want))
    tree_evals = sum(run[3] for run in runs["gram"])
    walks = sum(g[1:] != d[1:] for g, d in zip(runs["gram"], runs["diff"]))
    return {
        "case": name,
        "dim": int(data.shape[1]),
        "m": int(data.shape[0]),
        "queries": int(len(queries)),
        "gram_max_rel_err": errors["gram"],
        "diff_max_rel_err": errors["diff"],
        "gram_max_at_zero": zero_out["gram"],
        "diff_max_at_zero": zero_out["diff"],
        "scan_recheck_rate": scan_rechecks / scan_rows,
        "tree_recheck_rate": kernels["gram"].rechecks / max(tree_evals, 1),
        "gram_knn_flips": knn_flips["gram"],
        "diff_knn_flips": knn_flips["diff"],
        "tree_queries": 2 * len(queries),
        "gram_tree_knn_flips": knn_tree["gram"],
        "diff_tree_knn_flips": knn_tree["diff"],
        "gram_tree_range_flips": range_tree["gram"],
        "diff_tree_range_flips": range_tree["diff"],
        "tree_walks_differing": walks,
    }


def _queries(rng: np.random.Generator, data: np.ndarray, held_out: np.ndarray, n: int) -> np.ndarray:
    """Held-out queries, *n* stored objects and *n* near duplicates of others."""
    picks = rng.choice(data.shape[0], size=2 * n, replace=False)
    near = data[picks[n:]] * (1.0 + 1e-9 * rng.standard_normal((n, data.shape[1])))
    return np.vstack([held_out, data[picks[:n]], near])


def _gaussian_case(rng: np.random.Generator, matrix: np.ndarray, m: int, n: int):
    data = rng.standard_normal((m, matrix.shape[0]))
    data[1::97] = data[0::97][: data[1::97].shape[0]]  # exact duplicates
    return matrix, data, _queries(rng, data, rng.standard_normal((n, matrix.shape[0])), n)


def cases(smoke: bool):
    rng = np.random.default_rng(2011)
    scale = 4 if smoke else 1
    for label, bins, m, n in (
        ("parity 8-d histograms", 2, 300, 10),
        ("parity 64-d histograms", 4, 2000, 10),
        ("testbed 512-d histograms", 8, 1000, 5),
    ):
        w = histogram_workload(m // scale, n, bins_per_channel=bins, seed=2011)
        yield label, w.matrix, w.database, _queries(rng, w.database, w.queries, n)
    dim = 16
    basis = rng.standard_normal((dim, dim))
    yield ("near-singular 16-d (BB^T + 1e-10 I)",
           *_gaussian_case(rng, basis @ basis.T + 1e-10 * np.eye(dim), 1000 // scale, 10))
    yield ("near-singular 64-d (cond 1e12)",
           *_gaussian_case(rng, random_spd_matrix(64, condition=1e12, rng=rng), 1000 // scale, 10))
    scaling = np.logspace(-3, 3, 64)
    scaled = scaling[:, None] * random_spd_matrix(64, condition=10.0, rng=rng) * scaling[None, :]
    yield ("badly scaled 64-d (D A D, D = 1e-3..1e3)",
           *_gaussian_case(rng, (scaled + scaled.T) / 2, 1000 // scale, 10))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="quarter-size databases")
    parser.add_argument("--out", type=Path, default=None, help="write the rows as JSON")
    args = parser.parse_args()
    rows = [measure_case(*case) for case in cases(args.smoke)]
    header = (
        f"{'case':<42} {'gram rel':>9} {'diff rel':>9} {'gram@0':>8} {'diff@0':>8} "
        f"{'recheck':>8} {'kNN g/d':>8} {'tree g/d':>9} {'range g/d':>9} {'walks':>7}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['case']:<42} {r['gram_max_rel_err']:>9.1e} {r['diff_max_rel_err']:>9.1e} "
            f"{r['gram_max_at_zero']:>8.1e} {r['diff_max_at_zero']:>8.1e} "
            f"{r['scan_recheck_rate']:>8.2%} "
            f"{r['gram_knn_flips']:>4}/{r['diff_knn_flips']:<3} "
            f"{r['gram_tree_knn_flips']:>4}/{r['diff_tree_knn_flips']:<4} "
            f"{r['gram_tree_range_flips']:>4}/{r['diff_tree_range_flips']:<4} "
            f"{r['tree_walks_differing']:>3}/{r['tree_queries']:<3}"
        )
    if args.out is not None:
        args.out.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
