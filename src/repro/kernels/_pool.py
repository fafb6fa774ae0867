"""The one CPU-count rule behind every per-call thread pool."""

from __future__ import annotations

import os


def pool_size(share: int = 1) -> int:
    """Threads a per-call pool may start: the CPUs this process may run on,
    divided by the *share* of them each thread occupies, capped at 4."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(4, cpus // share)
