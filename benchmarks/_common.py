"""Shared infrastructure for the per-figure benchmark files.

Every ``bench_*.py`` file in this directory serves two audiences:

* ``pytest benchmarks/ --benchmark-only`` — pytest-benchmark timings of the
  QFD-model and QMap-model variants of each operation; the benchmark table
  itself is the figure's series (one row per model x database size).
* ``python benchmarks/bench_figN_*.py`` — a standalone report that sweeps
  the full parameter grid and prints the paper-style table, including
  speedup factors.  ``python benchmarks/run_all.py`` runs every report.

Scale note (DESIGN.md Section 5): the paper uses 1M Flickr histograms at
512-d in C++; pure Python reproduces the *shape* at reduced database
scale.  The default grid keeps the paper's exact dimensionality (8 bins
per channel -> 512-d) with databases up to ``MAX_DB`` vectors; set
``REPRO_BENCH_SCALE=small`` for a faster 64-d profile with larger m.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from pathlib import Path


from repro.bench import format_table, speedup
from repro.datasets import Workload, histogram_workload

__all__ = [
    "BINS_PER_CHANNEL",
    "MAX_DB",
    "N_QUERIES",
    "SIZES",
    "get_workload",
    "maybe_profile",
    "maybe_serve_metrics",
    "report_sweep",
    "print_header",
    "reset_store_cache",
    "write_report",
]

_SMALL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "small"

#: 8 bins/channel -> the paper's 512-d histograms; 4 -> a fast 64-d profile.
BINS_PER_CHANNEL = 4 if _SMALL_SCALE else 8

#: Largest database in the growing sweep (the paper's 1M, scaled down).
MAX_DB = 8_000 if _SMALL_SCALE else 2_000

#: Queries averaged per measurement (the paper averages 500).
N_QUERIES = 10

#: Growing-database x-axis (Figures 2-7).
SIZES = [MAX_DB // 8, MAX_DB // 4, MAX_DB // 2, MAX_DB]


@functools.lru_cache(maxsize=2)
def get_workload(max_db: int = MAX_DB, n_queries: int = N_QUERIES) -> Workload:
    """The shared testbed workload (cached across benches in one process)."""
    return histogram_workload(
        max_db, n_queries, bins_per_channel=BINS_PER_CHANNEL, seed=2011
    )


@contextlib.contextmanager
def maybe_serve_metrics(registry=None, *, env_var: str = "REPRO_BENCH_SERVE"):
    """Serve the bench's live registry over HTTP when *env_var* is set.

    ``REPRO_BENCH_SERVE=[host:]port`` (port 0 auto-assigns) serves
    ``/metrics`` for the duration of the ``with`` block (the endpoint of
    ``repro query --serve-metrics``: one :class:`repro.obs.ObservedRun`),
    so a long 1M-scale run can be watched from outside with ``curl
    http://host:port/metrics``.  Unset, this yields ``None`` and adds
    nothing — the default bench run stays telemetry-free.

    With *registry* ``None`` the server resolves the process's active
    registry on every request, so benches that install a fresh registry
    per phase (``use_registry``) stay scrapeable throughout.
    """
    spec = os.environ.get(env_var, "").strip()
    if not spec:
        yield None
        return
    from repro.obs import ObservedRun

    with ObservedRun(registry=registry, serve_metrics=spec) as run:
        yield run.server


@contextlib.contextmanager
def maybe_profile(*, env_var: str = "REPRO_BENCH_PROFILE"):
    """Sample the bench under the built-in profiler when *env_var* is set.

    ``REPRO_BENCH_PROFILE=PATH`` runs the ``with`` block under the
    sampling profiler of ``repro query --profile-out`` (one
    :class:`repro.obs.ObservedRun`) and writes the profile to ``PATH`` on
    exit — speedscope JSON for a ``.json`` suffix, collapsed flamegraph
    stacks otherwise.  ``PATH:HZ`` (e.g. ``profile.txt:500``) overrides
    the default 200 Hz sampling rate.  Unset, this yields ``None`` and
    adds nothing — the default bench run stays profiler-free, keeping
    the count baselines bit-identical.
    """
    spec = os.environ.get(env_var, "").strip()
    if not spec:
        yield None
        return
    from repro.obs import ObservedRun

    path, hz = spec, 200.0
    base, sep, suffix = spec.rpartition(":")
    if sep and base:
        try:
            hz = float(suffix)
            path = base
        except ValueError:
            pass
    with ObservedRun(profile_out=path, profile_hz=hz) as run:
        yield run.profiler


def reset_store_cache(index) -> None:
    """Start a measured phase from a cold page cache with zeroed counters.

    Benches reuse one built index across repetitions (the
    ``functools.lru_cache`` pattern above), so without this the LRU
    cache enters each phase holding whatever the previous phase left —
    and, worse, ``clear()`` alone would keep the historical hit/fault
    counters.  ``clear(reset_stats=True)`` drops both, making each
    sweep's cache statistics self-contained.
    """
    cache = getattr(getattr(index, "store", None), "cache", None)
    if cache is not None:
        cache.clear(reset_stats=True)


def print_header(experiment: str, description: str) -> None:
    """Uniform report banner."""
    workload = get_workload()
    print()
    print("=" * 72)
    print(f"{experiment}: {description}")
    print(
        f"testbed: {workload.name}, max m={workload.size}, "
        f"{workload.queries.shape[0]} held-out queries "
        f"(paper: 1M Flickr images, 512-d, 500 queries)"
    )
    print("=" * 72)


def report_sweep(comparisons, *, metric: str, title: str) -> str:
    """Paper-style series table from a list of ModelComparison results.

    ``metric`` is ``"indexing"`` (Figures 2-4) or ``"querying"``
    (Figures 5-9).
    """
    rows = []
    for cmp in comparisons:
        if metric == "indexing":
            qfd_val = cmp.qfd_build.seconds
            qmap_val = cmp.qmap_build.seconds
            evals = cmp.qfd_build.distance_computations
        else:
            qfd_val = cmp.qfd_query.seconds_per_query
            qmap_val = cmp.qmap_query.seconds_per_query
            evals = int(cmp.qfd_query.evaluations_per_query)
        rows.append(
            [
                cmp.database_size,
                f"{qfd_val:.4f}",
                f"{qmap_val:.4f}",
                f"{speedup(qfd_val, qmap_val):.1f}x",
                evals,
            ]
        )
    return format_table(
        ["db size", "QFD model [s]", "QMap model [s]", "speedup", "dist. evals"],
        rows,
        title=title,
    )


def write_report(report: dict, out) -> Path:
    """Write a ``BENCH_*.json`` report to *out*; nothing else is written."""
    out = Path(out)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return out
