"""Unit tests for repro.rtl.activity."""

import numpy as np
import pytest

from repro.rtl.activity import ActivityRecord, ActivityTrace, ZERO_ACTIVITY


class TestActivityRecord:
    def test_addition(self):
        total = ActivityRecord(1, 2, 3) + ActivityRecord(4, 5, 6)
        assert total == ActivityRecord(5, 7, 9)

    def test_total_toggles(self):
        assert ActivityRecord(1, 2, 3).total_toggles == 6

    def test_idle_detection(self):
        assert ZERO_ACTIVITY.is_idle()
        assert not ActivityRecord(clock_toggles=1).is_idle()


class TestActivityTrace:
    def test_from_records_roundtrip(self):
        records = [ActivityRecord(2, 1, 0), ActivityRecord(0, 0, 0), ActivityRecord(4, 2, 1)]
        trace = ActivityTrace.from_records("t", records)
        assert len(trace) == 3
        assert trace[0] == records[0]
        assert list(trace) == records

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ActivityTrace("t", clock_toggles=np.array([1, 2]), data_toggles=np.array([1]), comb_toggles=np.array([1, 2]))

    def test_zeros(self):
        trace = ActivityTrace.zeros("t", 10)
        assert len(trace) == 10
        assert int(trace.total_toggles.sum()) == 0

    def test_total_toggles_vector(self):
        trace = ActivityTrace.from_records("t", [ActivityRecord(1, 1, 1), ActivityRecord(2, 0, 0)])
        assert list(trace.total_toggles) == [3, 2]

    def test_add_requires_equal_length(self):
        a = ActivityTrace.zeros("a", 4)
        b = ActivityTrace.zeros("b", 5)
        with pytest.raises(ValueError):
            a.add(b)

    def test_add_elementwise(self):
        a = ActivityTrace.from_records("a", [ActivityRecord(1, 0, 0)] * 3)
        b = ActivityTrace.from_records("b", [ActivityRecord(0, 2, 0)] * 3)
        combined = a.add(b)
        assert combined[1] == ActivityRecord(1, 2, 0)

    def test_tile_extends_to_length(self):
        trace = ActivityTrace.from_records("t", [ActivityRecord(1, 0, 0), ActivityRecord(2, 0, 0)])
        tiled = trace.tile(5)
        assert len(tiled) == 5
        assert list(tiled.clock_toggles) == [1, 2, 1, 2, 1]

    def test_tile_empty_rejected(self):
        with pytest.raises(ValueError):
            ActivityTrace.zeros("t", 0).tile(4)

    def test_slice(self):
        trace = ActivityTrace.from_records("t", [ActivityRecord(i, 0, 0) for i in range(6)])
        sliced = trace.slice(2, 4)
        assert list(sliced.clock_toggles) == [2, 3]

    def test_mean_record(self):
        trace = ActivityTrace.from_records("t", [ActivityRecord(2, 4, 6), ActivityRecord(4, 6, 8)])
        mean = trace.mean_record()
        assert mean == ActivityRecord(3, 5, 7)

    def test_mean_record_empty(self):
        assert ActivityTrace.zeros("t", 0).mean_record() == ZERO_ACTIVITY

