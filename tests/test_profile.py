"""StageTimings, the repo's one wall-clock instrument: aggregation,
best-of-N, the ``time()`` context manager and the plain-text report."""

from __future__ import annotations

import pytest

from repro.core.pipeline import StageTimings


class TestStageTimings:
    def _timings(self):
        timings = StageTimings()
        timings.add("routing", 0.5)
        timings.add("routing", 0.25)
        timings.add("floorplan", 2.0)
        return timings

    def test_order_preserved_and_aggregated(self):
        timings = self._timings()
        assert timings.names == ["routing", "floorplan"]
        assert timings.count("routing") == 2
        assert timings.total_s("routing") == 0.75
        assert timings.count("missing") == 0
        assert timings.total_s("missing") == 0.0

    def test_best_s(self):
        timings = self._timings()
        assert timings.best_s("routing") == 0.25
        assert timings.best_s("floorplan") == 2.0
        assert timings.best_s("missing") == 0.0

    def test_time_records_one_sample(self):
        timings = StageTimings()
        with timings.time("step"):
            pass
        with timings.time("step"):
            pass
        assert timings.names == ["step"]
        assert timings.count("step") == 2
        assert 0.0 <= timings.best_s("step") <= timings.total_s("step")

    def test_time_records_when_body_raises(self):
        timings = StageTimings()
        with pytest.raises(ValueError):
            with timings.time("step"):
                raise ValueError("boom")
        assert timings.count("step") == 1
        assert timings.total_s("step") >= 0.0

    def test_merge_folds_worker_dicts(self):
        timings = self._timings()
        timings.merge({"routing": 0.25, "verify": 1.0})
        assert timings.count("routing") == 3
        assert timings.names[-1] == "verify"

    def test_as_dict_mean(self):
        doc = self._timings().as_dict()
        assert doc["routing"] == {
            "total_s": 0.75, "count": 2, "mean_ms": 375.0,
        }

    def test_report_formatting(self):
        report = self._timings().report()
        lines = report.splitlines()
        assert lines[0] == "per-stage timings:"
        # Header, separator, then one row per stage in first-seen order.
        assert lines[1].split() == ["stage", "calls", "total", "s", "mean", "ms"]
        assert set(lines[2]) <= {" ", "-"}
        routing_row, floorplan_row = lines[3], lines[4]
        assert routing_row.split() == ["routing", "2", "0.750", "375.00"]
        assert floorplan_row.split() == ["floorplan", "1", "2.000", "2000.00"]
        # Aligned: all rows end at the same column.
        assert len({len(line) for line in lines[1:]}) == 1

    def test_report_empty(self):
        report = StageTimings().report()
        assert report.splitlines()[0] == "per-stage timings:"
