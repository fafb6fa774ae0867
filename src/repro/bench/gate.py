"""The benchmark baseline gate behind ``repro bench check``.

Deterministic cost metrics (distance-evaluation counts on a fixed-seed
workload) are compared against a committed baseline with per-metric
relative thresholds; any increase beyond its threshold is a regression.

Counts are the right gate because the paper's cost unit is the distance
computation: the counts are bit-reproducible for a fixed seed, so the
default threshold is **zero** — any count drift means the traversal
changed.  Wall-clock is never gated here (machine-dependent); it lives
in the ``benchmarks/e2e`` ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RegressionCheck", "check_regression"]


@dataclass(frozen=True)
class RegressionCheck:
    """One gated metric: baseline vs observed under a relative threshold.

    ``regressed`` is True when the observed value *increased* past
    ``baseline * (1 + threshold)`` (costs only go bad upward).
    ``drifted`` additionally flags any out-of-threshold change in either
    direction — an improvement should prompt a baseline update, not
    silent staleness.
    """

    metric: str
    baseline: float
    observed: float
    threshold: float

    @property
    def relative_change(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.observed == 0 else float("inf")
        return (self.observed - self.baseline) / self.baseline

    @property
    def regressed(self) -> bool:
        change = self.relative_change
        return change > self.threshold

    @property
    def drifted(self) -> bool:
        return abs(self.relative_change) > self.threshold

    def describe(self) -> str:
        change = self.relative_change
        if self.regressed:
            verdict = "REGRESSED"
        elif self.drifted:
            verdict = "improved (update the baseline)"
        else:
            verdict = "ok"
        return (
            f"{self.metric}: baseline={self.baseline:g} observed={self.observed:g} "
            f"change={change:+.2%} (threshold {self.threshold:.2%}) [{verdict}]"
        )


def check_regression(
    observed: dict,
    baseline: dict,
    *,
    default_threshold: float = 0.0,
    thresholds: "dict | None" = None,
) -> list[RegressionCheck]:
    """Gate *observed* metrics against *baseline* metrics.

    Every baseline metric must be present in *observed* (a vanished
    metric is reported as a regression from baseline to ``inf``).
    Metrics only present in *observed* are ignored — adding measurements
    must not fail old baselines.
    """
    thresholds = thresholds or {}
    checks = []
    for metric in sorted(baseline):
        base = float(baseline[metric])
        threshold = float(thresholds.get(metric, default_threshold))
        if metric not in observed:
            checks.append(
                RegressionCheck(
                    metric=metric,
                    baseline=base,
                    observed=float("inf"),
                    threshold=threshold,
                )
            )
            continue
        checks.append(
            RegressionCheck(
                metric=metric,
                baseline=base,
                observed=float(observed[metric]),
                threshold=threshold,
            )
        )
    return checks
