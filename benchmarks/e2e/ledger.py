"""Shared by the runner and the two child processes: paths, the metric
declarations in ``BENCHMARK.json``, statistics, and the host/noise record."""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from statistics import median  # noqa: F401  (shared with the other modules)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Everything a run writes (oracle cache, page files, snapshots, traces)
#: stays inside the checkout, under this git-ignored directory.
WORK = os.path.join(ROOT, ".bench_e2e")

#: Environment every child runs under: one BLAS thread, so that the only
#: parallelism is the program's own executors.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def pin_environment() -> None:
    """Set ``PINNED_ENV``; call before numpy is imported."""
    os.environ.update(PINNED_ENV)


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MB.

    ``VmHWM`` rather than ``ru_maxrss``: across ``exec`` Linux carries the
    parent's high-water mark into the child's ``ru_maxrss``, so a child of
    a parent that computed a large oracle would report the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def use_program_sources() -> None:
    """Put ``src/`` on the path; fail (non-zero, no result) without it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"benchmark needs the program's sources at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _blas_version() -> str:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def host_record() -> dict:
    """Everything needed to decide whether two results may be compared."""
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "loadavg_start": list(os.getloadavg()),
    }


def validate_result(result: dict, declared: list, label: str) -> list:
    """Problems with one child result against the declared metric list."""
    problems = []
    metrics = result.get("metrics", {})
    for entry in declared:
        name = entry["name"]
        if not NAME_RE.match(name):
            problems.append(f"{label}: bad metric name {name!r}")
        got = metrics.get(name)
        if got is None:
            problems.append(f"{label}: metric {name} missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
            problems.append(f"{label}: metric {name} is not a number: {value!r}")
        if got.get("unit") != entry["unit"]:
            problems.append(
                f"{label}: metric {name} has unit {got.get('unit')!r}, "
                f"declared {entry['unit']!r}"
            )
    return problems
