"""Reading ``--metrics jsonl`` exports back and diffing two of them.

The helpers behind ``repro report --diff A B`` live in
:mod:`repro.obs.export`, beside :func:`~repro.obs.export.to_jsonl`,
which writes the lines they read.
"""

from __future__ import annotations

import json

from repro.obs.export import diff_metrics, load_metrics_jsonl, render_diff


class TestMetricsDiff:
    def _jsonl(self, path, entries) -> None:
        path.write_text("\n".join(json.dumps(e) for e in entries) + "\n")

    def test_load_flattens_counters_and_histograms(self, tmp_path) -> None:
        path = tmp_path / "metrics.jsonl"
        self._jsonl(
            path,
            [
                {"type": "counter", "name": "repro_x_total", "labels": {"m": "a"}, "value": 3},
                {"type": "histogram", "name": "repro_y_seconds", "labels": {}, "count": 4, "sum": 0.5},
                {"type": "span", "name": "build/index", "seconds": 1.0},
            ],
        )
        flat = load_metrics_jsonl(path)
        assert flat == {
            "repro_x_total{m=a}": 3.0,
            "repro_y_seconds#count": 4.0,
            "repro_y_seconds#sum": 0.5,
        }

    def test_diff_orders_by_absolute_delta(self) -> None:
        deltas = diff_metrics(
            {"a": 1.0, "b": 10.0, "c": 5.0},
            {"a": 2.0, "b": 110.0, "c": 5.0},
        )
        assert [d.key for d in deltas] == ["b", "a", "c"]
        assert deltas[0].delta == 100.0
        assert deltas[-1].delta == 0.0

    def test_diff_tracks_added_and_removed_keys(self) -> None:
        deltas = diff_metrics({"gone": 4.0}, {"new": 9.0})
        by_key = {d.key: d for d in deltas}
        assert by_key["gone"].b is None
        assert by_key["new"].a is None

    def test_render_diff_mentions_changed_keys_only(self) -> None:
        text = render_diff(
            diff_metrics({"same": 1.0, "up": 2.0}, {"same": 1.0, "up": 3.0})
        )
        assert "up" in text
        assert "1 changed / 2 keys" in text

    def test_render_identical_maps(self) -> None:
        text = render_diff(diff_metrics({"k": 1.0}, {"k": 1.0}))
        assert "(identical)" in text
