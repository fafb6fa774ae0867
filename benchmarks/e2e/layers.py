"""The traced child process: one workload, per-layer metrics, from outside.

Nothing inside the program is instrumented.  The harness wraps calls into
each layer's public functions in its own spans (``spans.py``) and derives
self times as differences.  Three passes cover the same requests:

A. the model call (``BuiltIndex.knn_search`` / ``knn_search_batch``),
   once bare and once inside a span (their ratio is the tracing overhead);
B. the same request decomposed by the harness into ``QMap.transform`` and
   ``access_method.knn_search`` on the mapped query -- answers must equal A's;
C. an arithmetic replay: for the M-tree family ``kernel.bind(q)`` plus one
   ``ctx.many`` of ``capacity`` rows per node the traversal visited; for
   the flat structures the distance's vectorized one-to-many form over as
   many rows as were evaluated (counts from the public ``TraceCollector``).
   It prices the arithmetic alone.

The passes are interleaved request by request (each pass offset by a third
of the request list), so slow phases of a noisy host hit all of them alike
and no pass finds the page cache warmed by another.  The number of
requests is fixed, so every count repeats exactly for one input; the
side probes (engine, persistence, planner, observability sinks) run on the
workload's own data.  ``--seconds`` is accepted and ignored.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import shutil
import subprocess
import sys
from time import perf_counter

import ledger

ledger.pin_environment()
ledger.use_program_sources()

import numpy as np  # noqa: E402  (after the environment pinning)

import workloads  # noqa: E402
from measure import Checker  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import BATCH, K  # noqa: E402

SUM_TOLERANCE = 1.05


def med(values) -> float:
    return ledger.median(values) if values else 0.0


def same_answer(a, b) -> bool:
    return [(n.index, n.distance) for n in a] == [(n.index, n.distance) for n in b]


class Traced:
    """State shared by the probes of one traced run."""

    def __init__(self, spec, inputs, check, workdir):
        self.spec, self.inputs, self.check, self.workdir = spec, inputs, check, workdir
        self.rec = SpanRecorder()
        self.metrics: dict = {}
        self.notes: list = []
        self.per_call = BATCH if spec.op == "batch" else 1
        self.n_requests = spec.trace_ops
        self.queries = inputs.queries[: self.n_requests * self.per_call]

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def request(self, i: int):
        """Source-space query (or batch of BATCH queries) of request *i*."""
        if self.per_call == 1:
            return self.queries[i]
        return self.queries[i * BATCH : (i + 1) * BATCH]

    def check_request(self, i: int, answer, label: str) -> None:
        if self.per_call == 1:
            self.check.answer(i, answer, label)
        else:
            for j in range(BATCH):
                self.check.answer(i * BATCH + j, answer[j], label)


# ----------------------------------------------------------------------
# set-up, decomposed
# ----------------------------------------------------------------------

def probe_setup(t: Traced) -> None:
    """Cholesky, database transform and bare access-method build, then the
    model's own pipeline; the model overhead is what the pipeline adds."""
    from repro.core import QMap
    from repro.distances import CountingDistance
    from repro.distances.minkowski import euclidean, euclidean_one_to_many
    from repro.kernels import cached_cholesky, clear_cholesky_cache
    from repro.models import MAM_REGISTRY

    spec, rec, inputs = t.spec, t.rec, t.inputs
    clear_cholesky_cache()
    with rec.span("core.cholesky"):
        cached_cholesky(inputs.matrix)
    t.qmap = QMap(inputs.matrix)
    with rec.span("core.transform_db"):
        t.mapped_db = t.qmap.transform_batch(inputs.database)

    clear_cholesky_cache()
    gc.collect()
    with rec.span("models.setup"):
        with rec.span("models.construct"):
            t.model = workloads.make_model(spec, inputs.matrix)
        with rec.span("models.build_index"):
            t.built = t.model.build_index(
                spec.method, inputs.database,
                **workloads.method_kwargs(spec, t.path("pages.bin")),
            )
    t.am = t.built.access_method

    # The twin: the same structure built directly, with its own counter.
    # For the paged tree its cache holds every page -- the "fits" contrast.
    if spec.model == "qmap":
        t.counter = CountingDistance(euclidean, one_to_many=euclidean_one_to_many)
        index_db = t.mapped_db
    else:
        t.counter = CountingDistance(t.model.qfd, one_to_many=t.model.qfd.one_to_many)
        index_db = inputs.database
    kwargs = workloads.method_kwargs(spec, t.path("pages_twin.bin"))
    if "cache_pages" in kwargs:
        kwargs["cache_pages"] = 1 << 30
    gc.collect()
    with rec.span("mam.build"):
        t.twin = MAM_REGISTRY[spec.method](index_db, t.counter, **kwargs)

    cholesky_s = rec.durations("core.cholesky")[0]
    construct_s = rec.durations("models.construct")[0]
    pipeline_s = rec.durations("models.build_index")[0]
    if spec.model == "qmap":
        construct_s -= cholesky_s  # the QMap model factors the matrix itself
    t.metrics.update({
        "core.cholesky_ms": cholesky_s * 1e3,
        "core.transform_db_s": rec.durations("core.transform_db")[0],
        "mam.build_s": rec.durations("mam.build")[0],
        "mam.build_evals": t.counter.count,
        "models.build_overhead_s": construct_s + pipeline_s - t.built.build_costs.seconds,
    })
    t.counter.reset()


def to_index_space(t: Traced, rows):
    """What the model does to a query before the access method sees it."""
    if t.spec.model != "qmap":
        return rows
    return t.qmap.transform(rows) if rows.ndim == 1 else t.qmap.transform_batch(rows)


# ----------------------------------------------------------------------
# the three passes
# ----------------------------------------------------------------------

def probe_passes(t: Traced) -> None:
    from repro.engine.trace import TraceCollector

    spec, rec, am, built = t.spec, t.rec, t.am, t.built
    n, pc = t.n_requests, t.per_call
    mapped = to_index_space(t, t.queries)

    # Counts first, from the program's public collector, on a cold cache.
    cache = getattr(am, "cache", None)
    if cache is not None:
        before = (cache.stats.hits, cache.stats.faults, cache.backing.stats.reads)
    collector = TraceCollector()
    with rec.span("engine.collector_pass"):
        counted = am.knn_search_batch(mapped, K, collector=collector)
    traces = collector.traces
    summary = collector.summary()
    q = len(traces)
    if cache is not None:
        hits = cache.stats.hits - before[0]
        faults = cache.stats.faults - before[1]
        t.metrics["storage.page_reads_per_query"] = (cache.backing.stats.reads - before[2]) / q
        t.metrics["storage.cache_hit_ratio"] = hits / max(1, hits + faults)
    else:
        t.metrics["storage.page_reads_per_query"] = 0.0
        t.metrics["storage.cache_hit_ratio"] = 0.0
    t.metrics.update({
        "mam.nodes_visited_per_query": summary.nodes_visited / q,
        "mam.nodes_pruned_per_query": summary.nodes_pruned / q,
        "mam.useful_eval_ratio": K * q / summary.distance_evaluations,
        "mam.filter_hit_ratio": summary.filter_hits / max(1, summary.filter_checked),
        "mam.candidates_per_query": summary.candidates / q,
    })

    # Replay plan: per query, the row ranges one arithmetic call each covers.
    # The M-tree family evaluates one kernel context call per visited node;
    # the flat structures call the distance's vectorized one-to-many form
    # (pivots, then candidates; or the whole file).
    kernel = am.distance.kernel
    data = am.database
    with rec.span("kernels.row_norms"):
        norms = kernel.row_norms(data)
    t.metrics["kernels.row_norms_s"] = rec.durations("kernels.row_norms")[0]
    capacity = spec.kwargs.get("capacity", 0)
    pivots = spec.kwargs.get("n_pivots", 0)
    plans, replay_rows = [], 0
    for trace in traces:
        evals = min(trace.distance_evaluations, data.shape[0])
        if capacity:
            span_rows = data.shape[0] - capacity
            plan = [((j * capacity) % span_rows, capacity) for j in range(trace.nodes_visited)]
        elif pivots:
            plan = [(0, pivots), (pivots, evals - pivots)]
        else:
            plan = [(0, evals)]
        plans.append(plan)
        replay_rows += sum(rows for _, rows in plan)
    t.metrics["kernels.computed_mb_per_query"] = replay_rows * data.shape[1] * 8 / q / 1e6
    one_to_many = t.counter.vectorized

    def replay(pos: int) -> None:
        if capacity:
            ctx = kernel.bind(mapped[pos])
            for lo, rows in plans[pos]:
                ctx.many(data[lo : lo + rows], norms[lo : lo + rows])
        else:
            for lo, rows in plans[pos]:
                one_to_many(mapped[pos], data[lo : lo + rows])

    if pc == 1:
        model_call, am_call = built.knn_search, am.knn_search
    else:
        model_call, am_call = built.knn_search_batch, am.knn_search_batch

    bare = [0.0] * n
    answers = {"pass A": [None] * n, "traced A": [None] * n, "pass B": [None] * n}
    for i in range(n):
        start = perf_counter()
        answers["pass A"][i] = model_call(t.request(i), K)
        bare[i] = perf_counter() - start

        j = (i + n // 3) % n
        with rec.span("models.request", j):
            answers["traced A"][j] = model_call(t.request(j), K)

        m = (i + 2 * (n // 3)) % n
        with rec.span("harness.request", m):
            if spec.model == "qmap":
                with rec.span("core.transform", m):
                    in_index_space = to_index_space(t, t.request(m))
            else:
                in_index_space = t.request(m)
            with rec.span("mam.query", m):
                answers["pass B"][m] = am_call(in_index_space, K)

        with rec.span("kernels.replay", i):
            for pos in range(i * pc, (i + 1) * pc):
                replay(pos)

    flat_a = [a for r in answers["pass A"] for a in (r if pc > 1 else [r])]
    for i in range(n):
        t.check_request(i, answers["pass A"][i], "pass A")
    for label, got in (("traced A", answers["traced A"]), ("pass B", answers["pass B"])):
        flat = [a for r in got for a in (r if pc > 1 else [r])]
        _check_identical(t, label, flat_a, flat)
    for i, answer in enumerate(counted):
        # One transform over all requests may differ from the model's
        # per-request transform in the last ulp: check against the oracle.
        t.check.answer(i, answer, "collector pass")

    by_request = _by_request(rec)
    traced = by_request["models.request"]
    whole = by_request["harness.request"]
    transform = by_request.get("core.transform", [0.0] * n)
    query = by_request["mam.query"]
    replay = by_request["kernels.replay"]
    t.metrics.update({
        "mam.query_ms": med(query) / pc * 1e3,
        "kernels.node_replay_ms_per_query": med(replay) / pc * 1e3,
        "mam.traversal_self_ms": (med(query) - med(replay)) / pc * 1e3,
        "models.query_overhead_us": med([a - b for a, b in zip(traced, whole)]) / pc * 1e6,
        "obs.bench_trace_overhead_ratio": med([a / b for a, b in zip(traced, bare)]),
    })
    # Per request, the decomposed parts over the model call.  A harness
    # that did extra work in pass B would push every ratio up, host noise
    # only some, so the run fails when even the lower quartile is too high.
    ratios = sorted((tr + qu) / a for tr, qu, a in zip(transform, query, traced))
    t.passes = {
        "model_call_ms": med(traced) / pc * 1e3,
        "transform_plus_query_over_model_call": ledger.percentile(ratios, 0.5),
    }
    if ledger.percentile(ratios, 0.25) > SUM_TOLERANCE:
        t.check.attempted += 1
        t.check.fail(
            f"layer times do not add up: transform + query is "
            f"{ledger.percentile(ratios, 0.5):.3f} of the model call"
        )


def _check_identical(t: Traced, label: str, expected, got) -> None:
    """Per query: *got* must be the model call's answer, bit for bit."""
    for i, (a, b) in enumerate(zip(expected, got)):
        t.check.attempted += 1
        if not same_answer(a, b):
            t.check.fail(f"{label}: query {i} differs from the model call")


def _by_request(rec: SpanRecorder) -> dict:
    """Span durations per name, ordered by request id (requests are 0..n-1)."""
    out: dict = {}
    for name, start, end, _parent, request in rec.rows:
        if request is not None:
            out.setdefault(name, {})[request] = end - start
    return {name: [d[r] for r in sorted(d)] for name, d in out.items()}


# ----------------------------------------------------------------------
# side probes, one layer each
# ----------------------------------------------------------------------

def probe_kernels(t: Traced) -> None:
    """Full-database scans in both spaces: the O(n^2) quadratic form
    against the O(n) Euclidean distance after QMap -- the paper's contrast."""
    from repro.core import QuadraticFormDistance
    from repro.distances.minkowski import euclidean_one_to_many

    rec, db = t.rec, t.inputs.database
    qfd = QuadraticFormDistance(t.inputs.matrix)
    for q in t.queries[:5]:
        with rec.span("kernels.qfd_scan"):
            qfd.one_to_many(q, db)
        mapped_q = t.qmap.transform(q)
        with rec.span("kernels.l2_scan"):
            euclidean_one_to_many(mapped_q, t.mapped_db)
    per_row = 1e9 / db.shape[0]
    qfd_ns = med(rec.durations("kernels.qfd_scan")) * per_row
    l2_ns = med(rec.durations("kernels.l2_scan")) * per_row
    t.metrics.update({
        "kernels.qfd_scan_ns_per_row": qfd_ns,
        "kernels.l2_scan_ns_per_row": l2_ns,
        "kernels.qfd_over_l2_ratio": qfd_ns / l2_ns,
    })


def probe_core(t: Traced) -> None:
    rec = t.rec
    for q in t.queries[:200]:
        with rec.span("core.transform_query"):
            t.qmap.transform(q)
    block = t.queries[:BATCH]
    for _ in range(5):
        with rec.span("core.transform_batch"):
            t.qmap.transform_batch(block)
    t.metrics["core.transform_query_us"] = med(rec.durations("core.transform_query")) * 1e6
    t.metrics["core.transform_batch_us_per_query"] = (
        med(rec.durations("core.transform_batch")) / len(block) * 1e6
    )


def probe_distances(t: Traced) -> None:
    """What the counting wrapper adds to one scalar distance call."""
    from repro.distances import CountingDistance
    from repro.distances.minkowski import euclidean

    u, v = t.mapped_db[0], t.mapped_db[1]
    counted = CountingDistance(euclidean)
    calls = 2000
    diffs = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(calls):
            euclidean(u, v)
        middle = perf_counter()
        for _ in range(calls):
            counted(u, v)
        diffs.append(((perf_counter() - middle) - (middle - start)) / calls)
    t.metrics["distances.counting_call_overhead_ns"] = med(diffs) * 1e9


def probe_range(t: Traced) -> None:
    """Range queries at a radius calibrated to about K results."""
    n = min(len(t.queries), 100)
    radius = float(np.mean(t.check.o_dist[:n, K - 1]))
    mapped = to_index_space(t, t.queries[:n])
    sizes = []
    for q in mapped:
        with t.rec.span("mam.range_query"):
            sizes.append(len(t.am.range_search(q, radius)))
    t.metrics["mam.range_query_ms"] = med(t.rec.durations("mam.range_query")) * 1e3
    t.notes.append(f"range radius {radius:.6g} returned {np.mean(sizes):.1f} results on average")


def probe_storage(t: Traced) -> None:
    from repro.storage import DEFAULT_PAGE_SIZE, LRUPageCache, PagedFile

    rec, twin = t.rec, t.twin
    n = min(len(t.queries), 150)
    mapped = to_index_space(t, t.queries[:n])
    for q in mapped:  # fill the twin's cache: every page fits
        twin.knn_search(q, K)
    for q in mapped:
        with rec.span("storage.fit_query"):
            twin.knn_search(q, K)
    t.metrics["storage.fit_query_ms"] = med(rec.durations("storage.fit_query")) * 1e3

    # Cold reads through a one-page cache over a real file, at the
    # workload's own page size.
    cache = getattr(twin, "cache", None)
    page_size = cache.backing.page_size if cache is not None else DEFAULT_PAGE_SIZE
    rng = np.random.default_rng(0)
    with PagedFile(page_size, path=t.path("probe_pages.bin")) as pages:
        for _ in range(256):
            pages.write_page(pages.allocate(), rng.bytes(page_size))
        cold = LRUPageCache(pages, 1)
        for page_id in rng.permutation(256):
            with rec.span("storage.read_page"):
                cold.read_page(int(page_id))
    t.metrics["storage.page_read_us"] = med(rec.durations("storage.read_page")) * 1e6

    # The float32 memory-mapped twin of a sequential scan over the same rows.
    with rec.span("storage.mmap_build"):
        scan = t.model.build_index(
            "sequential", t.inputs.database, store="mmap",
            store_path=t.path("rows_f32.mmap"),
        )
    for q in t.queries[: 5 if t.spec.dim > 64 else 20]:
        with rec.span("storage.mmap_scan"):
            scan.knn_search(q, K)
    t.metrics["storage.mmap_f32_scan_ms"] = med(rec.durations("storage.mmap_scan")) * 1e3


def probe_inserts(t: Traced) -> None:
    """Dynamic inserts into the twin (last use of it: they change its answers)."""
    rec, twin = t.rec, t.twin
    pool = t.inputs.inserts if len(t.inputs.inserts) else t.inputs.queries
    vectors = to_index_space(t, pool[: 30 if t.spec.dim > 64 else 100])
    cache = getattr(twin, "cache", None)
    writes = cache.backing.stats.writes if cache is not None else 0
    evals = t.counter.count
    for v in vectors:
        with rec.span("mam.insert"):
            twin.insert(v)
    times = sorted(rec.durations("mam.insert"))
    t.metrics.update({
        "mam.insert_p50_ms": ledger.percentile(times, 0.50) * 1e3,
        "mam.insert_p95_ms": ledger.percentile(times, 0.95) * 1e3,
        "mam.insert_evals": (t.counter.count - evals) / len(vectors),
        "storage.page_writes_per_insert": (
            (cache.backing.stats.writes - writes) / len(vectors) if cache is not None else 0.0
        ),
    })


def probe_engine(t: Traced) -> None:
    from repro.engine.trace import TraceCollector
    from repro.exceptions import QueryError

    rec, am = t.rec, t.am
    queries = to_index_space(t, t.queries[: t.spec.side_queries])
    n = len(queries)
    reference = None
    for _ in range(2):
        with rec.span("engine.serial"):
            reference = am.knn_search_batch(queries, K, executor="serial")
        with rec.span("engine.loop"):
            for q in queries:
                am.knn_search(q, K)
        with rec.span("engine.collector_on"):
            am.knn_search_batch(queries, K, executor="serial", collector=TraceCollector())
    with rec.span("engine.thread2"):
        threaded = am.knn_search_batch(queries, K, executor="thread", workers=2)
    outputs = [("thread", threaded)]
    try:
        payload = len(pickle.dumps(am)) / 1e6
        with rec.span("engine.process2"):
            outputs.append(
                ("process", am.knn_search_batch(queries, K, executor="process", workers=2))
            )
        process_qps = n / rec.durations("engine.process2")[0]
    except (QueryError, TypeError, AttributeError, pickle.PicklingError) as exc:
        payload = process_qps = 0.0
        t.notes.append(f"process executor not usable on this index: {exc}")
    for label, got in outputs:
        t.check.attempted += 1
        if not all(same_answer(a, b) for a, b in zip(reference, got)):
            t.check.fail(f"engine: {label} executor answers differ from serial")
    serial = min(rec.durations("engine.serial"))
    t.metrics.update({
        "engine.serial_qps": n / serial,
        "engine.thread2_qps": n / rec.durations("engine.thread2")[0],
        "engine.process2_qps": process_qps,
        "engine.batch_over_loop_ratio": serial / min(rec.durations("engine.loop")),
        "engine.process_payload_mb": payload,
        "engine.collector_on_ratio": min(rec.durations("engine.collector_on")) / serial,
    })


def probe_persistence(t: Traced) -> None:
    from repro.models import load_built_index

    rec = t.rec
    with rec.span("persistence.save"):
        t.snapshot = t.built.save(t.path("snapshot.npz"))
    for _ in range(3):
        with rec.span("persistence.load_unverified"):
            load_built_index(t.snapshot, verify=False)
        with rec.span("persistence.load"):
            load_built_index(t.snapshot)
    env = dict(os.environ, PYTHONPATH=ledger.SRC)
    for _ in range(3):
        with rec.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import repro"], env=env, check=True, timeout=60)
    load = med(rec.durations("persistence.load"))
    t.metrics.update({
        "persistence.save_s": rec.durations("persistence.save")[0],
        "persistence.load_s": load,
        "persistence.verify_s": load - med(rec.durations("persistence.load_unverified")),
        "persistence.snapshot_mb": os.path.getsize(t.snapshot) / 1e6,
        "cli.import_s": med(rec.durations("cli.import")),
    })


def probe_planner(t: Traced) -> None:
    """Plan over a catalog holding a pivot table and an M-tree, then run
    every considered alternative: chosen seconds over the best's."""
    from repro.exceptions import QueryError, StorageError
    from repro.models import QMapModel
    from repro.models.planning import materialize_plan, plan_query_batch
    from repro.planner import ExecutorChoice

    spec, rec, inputs = t.spec, t.rec, t.inputs
    catalog = t.path("catalog")
    os.makedirs(catalog)
    wanted = {
        "pivot-table": {"n_pivots": spec.kwargs.get("n_pivots", 32)},
        "mtree": {"capacity": 16},
    }
    for method, kwargs in wanted.items():
        target = os.path.join(catalog, f"{method}.npz")
        if spec.method == method and spec.model == "qmap":
            shutil.copyfile(t.snapshot, target)  # the workload's own snapshot
        else:
            QMapModel(inputs.matrix).build_index(method, inputs.database, **kwargs).save(target)
    queries = inputs.queries[: min(spec.side_queries, 8 if spec.dim > 64 else 32)]
    with rec.span("planner.plan"):
        planned = plan_query_batch(
            inputs.matrix, inputs.database, queries, k=K, index_dir=catalog
        )
    seconds = {}
    for candidate in planned.choice.considered:
        if candidate.chosen:
            execution = planned.execution
        else:
            try:
                execution = materialize_plan(
                    candidate.plan, inputs.matrix, inputs.database,
                    executor=ExecutorChoice(name="serial"), batch_size=len(queries),
                )
            except (QueryError, StorageError) as exc:
                t.notes.append(f"planner: {candidate.name} did not materialize: {exc}")
                continue
        with rec.span(f"planner.run:{candidate.name}"):
            answers = execution.run_batch(queries, k=K)
        seconds[candidate.name] = rec.durations(f"planner.run:{candidate.name}")[0]
        if candidate.chosen:
            for i, answer in enumerate(answers):
                t.check.answer(i, answer, f"planner {candidate.name}")
    chosen = planned.plan_name
    best = min(seconds, key=seconds.get)
    t.metrics["planner.plan_ms"] = rec.durations("planner.plan")[0] * 1e3
    t.metrics["planner.regret_ratio"] = seconds[chosen] / seconds[best]
    t.notes.append(f"planner chose {chosen}; fastest measured was {best}")


def probe_obs(t: Traced) -> None:
    """The model call with each observability sink on, against all sinks off."""
    from repro.obs import JsonLinesLogger, MetricsRegistry, use_logger, use_registry

    rec, pc = t.rec, t.per_call
    call = t.built.knn_search if pc == 1 else t.built.knn_search_batch
    n = min(t.n_requests, max(2, t.spec.side_queries // pc))
    registry = MetricsRegistry()
    with JsonLinesLogger(t.path("queries.jsonl")) as logger:
        for i in range(n):
            with rec.span("obs.off"):
                call(t.request(i), K)
            with use_registry(registry), rec.span("obs.registry_on"):
                call(t.request((i + n // 3) % n), K)
            with use_logger(logger), rec.span("obs.logger_on"):
                call(t.request((i + 2 * (n // 3)) % n), K)
    off = sum(rec.durations("obs.off"))
    t.metrics["obs.registry_on_ratio"] = sum(rec.durations("obs.registry_on")) / off
    t.metrics["obs.logger_on_ratio"] = sum(rec.durations("obs.logger_on")) / off


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--oracle", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = workloads.get_spec(args.workload, args.smoke)
    units = {e["name"]: e["unit"] for e in ledger.load_declaration()["per_layer"]}
    host = ledger.host_record()
    start = perf_counter()
    inputs = workloads.make_inputs(spec, args.seed)
    generate_s = perf_counter() - start
    with np.load(args.oracle) as truth:
        check = Checker(truth["idx"], truth["dist"])

    t = Traced(spec, inputs, check, args.workdir)
    t.metrics["datasets.generate_s"] = generate_s
    for probe in (
        probe_setup, probe_passes, probe_kernels, probe_core, probe_distances,
        probe_range, probe_engine, probe_persistence, probe_planner, probe_obs,
        probe_storage, probe_inserts,
    ):
        gc.collect()
        probe(t)
    for index in (t.am, t.twin):
        close = getattr(index, "close", None)
        if close is not None:
            close()

    self_times = t.rec.self_times()
    t.rec.dump(
        args.trace_out, workload=spec.name, seed=args.seed,
        inputs_sha256=inputs.sha256, per_call=t.per_call,
    )
    host["loadavg_end"] = list(os.getloadavg())
    result = {
        "workload": spec.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": 1,
        "inputs_sha256": inputs.sha256,
        "attempted": check.attempted,
        "failed": check.failed,
        "errors": check.errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in t.metrics.items()},
        "samples": {"requests": t.n_requests, "queries": len(t.queries)},
        "passes": t.passes,
        "span_self_time_s": {k: round(v, 6) for k, v in sorted(self_times.items())},
        "notes": t.notes,
        "host": host,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
