"""The measured child process: one workload, tracing off, end-to-end metrics.

Closed loop, one client: every public call is timed on its own and its
answer is checked against the parent's oracle after the round, off the
clock.  Rounds repeat the same query set until ``--seconds`` of measured
time have passed (at least ``MIN_ROUNDS``), so the query mix is identical
in every run and ``dist_evals_per_query`` repeats exactly for one input.
Times are scaled by the host-speed yardstick read between the calls
(``hostspeed.py``); the raw readings are kept beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import traceback
from time import perf_counter, thread_time

import ledger

ledger.pin_environment()
ledger.use_program_sources()

import numpy as np  # noqa: E402  (after the environment pinning)

import oracle  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed, adjust  # noqa: E402
from workloads import BATCH, K  # noqa: E402

MIN_ROUNDS = 3
SETUP_REPS = 3  # the third only when the first two were quick
SETUP_BUDGET_S = 4.0
RESTART_REPS = 7


class Checker:
    """Counts operations attempted and failed; keeps the first few reasons."""

    def __init__(self, o_idx, o_dist):
        self.o_idx, self.o_dist = o_idx, o_dist
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def answer(self, row: int, neighbors, label: str) -> None:
        """One query's answer (``None`` if the call raised) against oracle row."""
        self.attempted += 1
        if neighbors is None:
            self.failed += 1  # the traceback was recorded where it was caught
        elif not oracle.answer_matches(neighbors, self.o_idx[row], self.o_dist[row], K):
            self.fail(f"{label}: answer to query {row} differs from the oracle")

    def raised(self, label: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(f"{label} raised:\n{traceback.format_exc()}")


class Section:
    """Timed intervals that share one host-slowdown reading: the set-up
    repetitions, the restart repetitions, or one round of calls."""

    def __init__(self, speed: HostSpeed) -> None:
        self._speed = speed
        self._mark = speed.mark()
        self._yardstick = speed.spent
        self._start = perf_counter()
        self.walls: list = []
        self.cpus: list = []
        speed.sample(3)

    def add(self, wall: float, cpu: float) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)

    def close(self, ops: int = 0) -> "Section":
        speed = self._speed
        speed.sample(3)
        #: wall time of the whole section without the yardstick's share
        self.wall = perf_counter() - self._start - (speed.spent - self._yardstick)
        self.slowdown = speed.slowdown(self._mark)
        self.ops = ops
        return self

    def adjusted(self) -> list:
        return [adjust(w, c, self.slowdown) for w, c in zip(self.walls, self.cpus)]

    def adjusted_wall(self) -> float:
        """The section's wall time on the quiet reference host (calls plus
        the loop around them; single-threaded harness code, so no CPU floor)."""
        return adjust(self.wall, 0.0, self.slowdown)


def close_index(built) -> None:
    close = getattr(built.access_method, "close", None)
    if close is not None:
        close()


def timed_setups(spec, inputs, workdir, speed):
    """Raw arrays to a queryable index, each time with a cold Cholesky cache."""
    from repro.kernels import clear_cholesky_cache

    section, built, page_path = Section(speed), None, None
    for rep in range(SETUP_REPS):
        if rep == 2 and sum(section.walls) > SETUP_BUDGET_S:
            break
        if built is not None:
            close_index(built)
            built = None
        clear_cholesky_cache()
        gc.collect()
        page_path = os.path.join(workdir, f"pages_{rep}.bin")
        speed.sample(3)
        wall, cpu = perf_counter(), thread_time()
        built = workloads.build(spec, inputs, page_path)
        section.add(perf_counter() - wall, thread_time() - cpu)
    return section.close(), built, page_path


def timed_restarts(snapshot, query, check, speed):
    """``load_built_index`` plus the first answered query, several times."""
    from repro.models import load_built_index

    section = Section(speed)
    for _ in range(RESTART_REPS):
        restored = answer = None  # drop the previous copy before timing the next
        gc.collect()
        speed.sample(3)
        wall, cpu = perf_counter(), thread_time()
        try:
            restored = load_built_index(snapshot)
            answer = restored.knn_search(query, K)
        except Exception:  # boundary: a failed restart is a failed operation
            check.raised("restart")
        section.add(perf_counter() - wall, thread_time() - cpu)
        check.answer(0, answer, "restart")
    return section.close()


def run_rounds(spec, built, inputs, seconds, check, speed):
    """Rounds of single-query or batch calls over the fixed query set."""
    queries = inputs.queries
    if spec.op == "batch":
        call = built.knn_search_batch
        items = [queries[b * BATCH : (b + 1) * BATCH] for b in range(spec.round_ops)]
        per_call = BATCH
    else:
        call = built.knn_search
        items = list(queries)
        per_call = 1
    rounds, measured = [], 0.0
    built.reset_query_costs()
    while len(rounds) < MIN_ROUNDS or measured < seconds:
        section, answers = Section(speed), []
        for item in items:
            speed.sample_if_due()
            wall, cpu = perf_counter(), thread_time()
            try:
                ans = call(item, K)
            except Exception:  # boundary: count it, keep the loop running
                ans = None
                check.raised(spec.name)
            section.add(perf_counter() - wall, thread_time() - cpu)
            answers.append(ans)
        rounds.append(section.close(ops=len(items) * per_call))
        measured += section.wall
        for pos, ans in enumerate(answers):
            if per_call == 1:
                check.answer(pos, ans, spec.name)
            else:
                for j in range(per_call):
                    check.answer(pos * BATCH + j, None if ans is None else ans[j], spec.name)
    n_queries = sum(r.ops for r in rounds)
    evals = built.query_costs().distance_computations / n_queries
    return rounds, evals, {"query": sum(len(r.walls) for r in rounds)}


def run_churn(spec, built, inputs, seconds, check, speed):
    """One kNN query then one insert per step; slices of ``round_ops`` steps."""
    knn, insert, costs = built.knn_search, built.insert, built.query_costs
    rounds, measured, step = [], 0.0, 0
    evals = []
    built.reset_query_costs()
    while step < spec.max_ops and (len(rounds) < MIN_ROUNDS or measured < seconds):
        section, answers = Section(speed), []
        for _ in range(min(spec.round_ops, spec.max_ops - step)):
            speed.sample_if_due()
            before = costs().distance_computations
            ans = new = None
            wall, cpu = perf_counter(), thread_time()
            try:
                ans = knn(inputs.queries[step], K)
            except Exception:  # boundary: count it, keep the loop running
                check.raised("churn64 query")
            section.add(perf_counter() - wall, thread_time() - cpu)
            evals.append(costs().distance_computations - before)
            try:
                new = insert(inputs.inserts[step])
            except Exception:  # boundary: count it, keep the loop running
                check.raised("churn64 insert")
            answers.append((step, ans, new))
            step += 1
        rounds.append(section.close(ops=2 * len(answers)))
        measured += section.wall
        for row, ans, new in answers:
            check.answer(row, ans, "churn64")  # the oracle hid rows inserted later
            check.attempted += 1
            if new != spec.m + row:
                check.fail(f"churn64: insert {row} returned index {new}")
    # Every run executes at least the first MIN_ROUNDS slices, so the
    # count below repeats exactly for one input whatever the host speed.
    fixed = min(len(evals), MIN_ROUNDS * spec.round_ops)
    return rounds, sum(evals[:fixed]) / fixed, {"query": step, "insert": step}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--oracle", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = workloads.get_spec(args.workload, args.smoke)
    host = ledger.host_record()
    inputs = workloads.make_inputs(spec, args.seed)
    with np.load(args.oracle) as truth:
        check = Checker(truth["idx"], truth["dist"])

    speed = HostSpeed()
    setups, built, page_path = timed_setups(spec, inputs, args.workdir, speed)

    snapshot = built.save(os.path.join(args.workdir, "snapshot.npz"))
    stored = os.path.getsize(snapshot)
    if spec.method == "paged-mtree":
        stored += os.path.getsize(page_path)
    restarts = timed_restarts(snapshot, inputs.queries[0], check, speed)

    for query in inputs.queries[:3]:  # warm-up: first-call imports and caches
        built.knn_search(query, K)
    gc.collect()  # GC stays enabled during the phase -- callers run with it
    runner = run_churn if spec.op == "churn" else run_rounds
    rounds, evals_per_query, samples = runner(spec, built, inputs, args.seconds, check, speed)
    close_index(built)

    ops = sum(r.ops for r in rounds)
    pooled = sorted(x for r in rounds for x in r.adjusted())
    pooled_raw = sorted(x for r in rounds for x in r.walls)
    metrics = {
        "setup_s": (ledger.median(setups.adjusted()), "s"),
        "query_p50_ms": (ledger.percentile(pooled, 0.50) * 1e3, "ms"),
        "query_p95_ms": (ledger.percentile(pooled, 0.95) * 1e3, "ms"),
        "throughput_ops_s": (ops / sum(r.adjusted_wall() for r in rounds), "1/s"),
        "error_rate": (check.failed / check.attempted, "ratio"),
        "dist_evals_per_query": (evals_per_query, "count"),
        "restart_s": (ledger.median(restarts.adjusted()), "s"),
        "stored_bytes_ratio": (stored / (spec.m * spec.dim * 8), "ratio"),
        # Read last: the peak covers set-up, snapshot, restart and the phase.
        "peak_rss_mb": (ledger.peak_rss_mb(), "MB"),
    }
    host["loadavg_end"] = list(os.getloadavg())
    result = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": 0,
        "inputs_sha256": inputs.sha256,
        "attempted": check.attempted,
        "failed": check.failed,
        "errors": check.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": {  # as read from the clock, before the host-speed adjustment
            "setup_s": ledger.median(setups.walls),
            "query_p50_ms": ledger.percentile(pooled_raw, 0.50) * 1e3,
            "query_p95_ms": ledger.percentile(pooled_raw, 0.95) * 1e3,
            "throughput_ops_s": ops / sum(r.wall for r in rounds),
            "restart_s": ledger.median(restarts.walls),
        },
        "host_slowdown": {  # (speed, availability) per section
            "setup": setups.slowdown,
            "restart": restarts.slowdown,
            "rounds": [r.slowdown for r in rounds],
            "yardstick_readings": len(speed.readings),
        },
        "samples": samples,
        "measured_s": sum(r.wall for r in rounds),
        "rounds": {
            "query_p50_ms": [ledger.median(r.adjusted()) * 1e3 for r in rounds],
            "query_p95_ms": [
                ledger.percentile(sorted(r.adjusted()), 0.95) * 1e3 for r in rounds
            ],
            "throughput_ops_s": [r.ops / r.adjusted_wall() for r in rounds],
        },
        "repeats": {"setup_s": setups.adjusted(), "restart_s": restarts.adjusted()},
        "host": host,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
