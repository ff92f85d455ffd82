"""Fast checks of the benchmark's own tooling (no workload is run)."""

import fnmatch
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer, read_span_files, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "outer", "start": 0.0, "end": 10.0, "id": 1, "parent": 0, "pid": 1},
        {"name": "inner", "start": 1.0, "end": 5.0, "id": 2, "parent": 1, "pid": 1},
        {"name": "leaf", "start": 2.0, "end": 3.0, "id": 3, "parent": 2, "pid": 1},
        {"name": "inner", "start": 6.0, "end": 7.0, "id": 4, "parent": 1, "pid": 1},
        # Same ids in another process (a forked worker) must not mix.
        {"name": "outer", "start": 0.0, "end": 2.0, "id": 2, "parent": 0, "pid": 9},
    ]
    table = self_times(spans)
    assert table["outer"]["calls"] == 2
    assert table["outer"]["self_s"] == (10.0 - 4.0 - 1.0) + 2.0
    assert table["inner"]["self_s"] == (4.0 - 1.0) + 1.0
    assert table["leaf"]["self_s"] == 1.0


def test_tracer_nests_spans_and_inherits_request_ids():
    tracer = Tracer()

    class Layer:
        def top(self, rid):
            return self.bottom() + 1

        def bottom(self):
            return 1

    tracer.wrap_method(Layer, "top", "top", request_id=lambda self, rid: rid)
    tracer.wrap_method(Layer, "bottom", "bottom", value=lambda result, self: result * 10)
    assert Layer().top("req-1") == 2
    assert tracer.take() == []  # disabled wrappers record nothing
    tracer.enabled = True
    Layer().top("req-2")
    spans = {span["name"]: span for span in tracer.take()}
    assert spans["bottom"]["parent"] == spans["top"]["id"]
    assert spans["bottom"]["rid"] == spans["top"]["rid"] == "req-2"
    assert spans["bottom"]["value"] == 10
    assert spans["top"]["start"] <= spans["bottom"]["start"] <= spans["bottom"]["end"]


def test_forked_worker_flushes_spans_per_root_span(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.snapshot = lambda: {"cache": {"hits": 3, "misses": 1, "evictions": 0}}

    def cell():
        return 0

    traced = tracer.traced(cell, "cell")
    tracer.enabled = True
    traced()  # recorded in the parent, kept in memory
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        traced()
        traced()
        os._exit(0)
    os.waitpid(pid, 0)
    spans, snapshots = read_span_files([tmp_path / f"spans-{pid}.jsonl"])
    assert [span["pid"] for span in spans] == [pid, pid]
    assert len(snapshots) == 2 and snapshots[-1]["snapshot"]["cache"]["hits"] == 3
    assert len(tracer.take()) == 1


def test_span_metrics_are_per_unit():
    spans = [
        {"name": "pipeline.store_get", "start": 0.0, "end": 0.002, "id": 1, "parent": 0,
         "pid": 1, "value": 1},
        {"name": "pipeline.store_get", "start": 1.0, "end": 1.002, "id": 2, "parent": 0,
         "pid": 1, "value": 0},
        {"name": "pipeline.store_put", "start": 2.0, "end": 2.004, "id": 3, "parent": 0,
         "pid": 1, "value": 300},
    ]
    names = ["pipeline.store_get.calls", "pipeline.store_get.self_ms",
             "core.periodic_activity.calls"]
    metrics = layers.span_metrics(spans, units=2, names=names)
    assert metrics["pipeline.store_get.calls"] == 1.0
    assert abs(metrics["pipeline.store_get.self_ms"] - 2.0) < 1e-9
    assert metrics["pipeline.store.hit_ratio"] == 0.5
    assert metrics["pipeline.store.bytes_written"] == 150.0
    assert metrics["core.periodic_activity.calls"] == 0.0


def test_cache_counter_deltas_sum_over_workers():
    before = {"soc.m0_window_cache": {"hits": 5, "misses": 2, "evictions": 0}}
    total = {}
    layers.add_deltas(total, before, {"soc.m0_window_cache": {"hits": 8, "misses": 3, "evictions": 0}})
    layers.add_deltas(total, before, {"soc.m0_window_cache": {"hits": 6, "misses": 2, "evictions": 1}})
    assert total["soc.m0_window_cache"] == {"hits": 4, "misses": 1, "evictions": 1}
    assert layers.counter_metrics(total, 1)["soc.m0_window_cache.hit_ratio"] == 0.8


def test_percentiles():
    assert common.percentile([5, 1, 3, 2, 4], 50) == 3
    assert common.percentile(list(range(1, 11)), 90) == 9
    assert common.median([1, 2, 3, 4]) == 2.5
    assert common.median([]) == 0.0


def test_rationale_maps_every_layer_metric_to_one_public_call():
    definition = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rationale = json.loads((HERE / "rationale.json").read_text())
    for metric in definition["per_layer"]:
        calls = [call for call, entry in rationale["per_layer_by_call"].items()
                 if any(fnmatch.fnmatchcase(metric["name"], pattern)
                        for pattern in entry["metrics"])]
        assert len(calls) == 1, (metric["name"], calls)
