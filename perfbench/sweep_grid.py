"""Workload ``sweep-grid``: a template-warm batch sweep on the process backend.

One child interpreter (this file run as a script) plays the sweep parent:
it imports ``repro``, warms chips and templates on seeds outside the grid,
then runs grid after grid through ``ExperimentRunner.run_many(backend=
"process", max_workers=<schedulable CPUs>, store=<fresh dir>)`` until the
run's time is used.  A grid is ``fig6/chip1`` and ``fig6/chip2`` at paper
scale (100 acquisitions of 300k cycles per cell) plus the full-size
``detection-probability`` campaign, each over :data:`GRID_SEEDS` seeds.
"""

import argparse
import json
import os
import pathlib
import random
import resource
import sys
import time
from typing import Any, Dict, List, Tuple

#: Seeds per scenario in one grid (cells per grid = 3 x GRID_SEEDS).
GRID_SEEDS = 2
#: Scenarios of the grid, in dispatch order.
SCENARIOS = ("fig6/chip1", "fig6/chip2", "detection-probability")
#: The sweep parent's set-up and its last grid may each take this long
#: beyond the measured seconds before the run counts as hung (on 2 CPUs:
#: interpreter, import and warm-up ~8 s, a grid ~5 s, both up to ~2.4x
#: that in a slow phase of a shared host).
OVERRUN_S = 45.0
#: Fig. 6 peak rotations (the paper's Fig. 5/6 watermark phase offsets).
PEAK_ROTATION = {"fig6/chip1": 3800, "fig6/chip2": 2400}
#: Fig. 6 detections must stay at or above this share of the 100 runs.
MIN_DETECTION_RATE = 0.95


def _grid(rng: random.Random, avoid: set) -> List[Any]:
    from repro.pipeline.registry import DEFAULT_REGISTRY, RunOptions

    specs = []
    for _ in range(GRID_SEEDS):
        seed = rng.randrange(10_000, 10_000_000)
        while seed in avoid:
            seed = rng.randrange(10_000, 10_000_000)
        avoid.add(seed)
        specs.extend(DEFAULT_REGISTRY.build(name, RunOptions(seed=seed)) for name in SCENARIOS)
    return specs


def _check(specs: List[Any], sweep: Any, store_dir: pathlib.Path) -> Tuple[int, List[str]]:
    """Decision and store checks; returns (cells failing a check, problems)."""
    from repro.pipeline.store import ResultStore

    problems: List[str] = []
    failed = 0
    store = ResultStore(store_dir)
    for spec, result in zip(specs, sweep.results):
        label = f"{spec.name}@{spec.seed}"
        scalars = result.scalars
        found = len(problems)
        if not result.ok:
            problems.append(f"{label}: failed: {result.error}")
            failed += 1
            continue
        if spec.kind == "fig6_chip":
            rotation = PEAK_ROTATION[f"fig6/{spec.chip}"]
            if scalars.get("detection_rate", 0.0) < MIN_DETECTION_RATE:
                problems.append(f"{label}: detection rate {scalars.get('detection_rate')}")
            if not scalars.get("peak_separated"):
                problems.append(f"{label}: peak not separated")
            if scalars.get("peak_rotation") != rotation:
                problems.append(f"{label}: peak at {scalars.get('peak_rotation')}")
        stored = store.get(spec)
        if stored is None or stored.scalars != scalars:
            problems.append(f"{label}: store entry missing or different")
        failed += len(problems) > found
    entries = store.stats().entries
    if entries != len(specs):
        problems.append(f"store holds {entries} entries for {len(specs)} cells")
    return failed, problems


def child_main(argv: List[str]) -> None:
    """The sweep parent: set-up, then grids until time is up; one JSON line out."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workdir = pathlib.Path(args.workdir)

    import_start = time.monotonic()
    from repro.pipeline.runner import ExperimentRunner

    import_s = time.monotonic() - import_start
    interpreter_s = import_start - args.spawned_at
    rng = random.Random(args.seed)
    used: set = set()
    warmup_specs = _grid(rng, used)
    start = time.monotonic()
    runner = ExperimentRunner()
    for spec in warmup_specs[: len(SCENARIOS)]:
        runner.run(spec)
    warmup_s = time.monotonic() - start

    tracer = None
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
        tracer.snapshot = lambda: layers.cache_counters(runner)

    workers = len(os.sched_getaffinity(0))
    grids: List[Dict[str, Any]] = []
    problems: List[str] = []
    start = time.monotonic()
    while len(grids) < 2 or time.monotonic() - start < args.seconds:
        specs = _grid(rng, used)
        index = len(grids)
        store_dir = workdir / f"store-{index}"
        traced = tracer is not None and index % 2 == 0
        if traced:
            trace_dir = workdir / f"trace-{index}"
            trace_dir.mkdir()
            tracer.out_dir = trace_dir
            before = layers.cache_counters(runner)
            tracer.enabled = True
        grid_start = time.monotonic()
        sweep = runner.run_many(specs, backend="process", max_workers=workers,
                                store=store_dir)
        wall = time.monotonic() - grid_start
        grid: Dict[str, Any] = {
            "wall_s": wall,
            "traced": traced,
            "cells": [
                {"name": spec.name, "hash": result.provenance.spec_hash,
                 "elapsed_s": result.provenance.elapsed_s,
                 "attempts": result.provenance.attempts, "ok": result.ok}
                for spec, result in zip(specs, sweep.results)
            ],
        }
        if traced:
            tracer.enabled = False
            grid["parent_spans"] = tracer.take()
            grid["counters_before"] = before
            grid["trace_dir"] = str(trace_dir)
        grid["failed"], grid_problems = _check(specs, sweep, store_dir)
        problems.extend(grid_problems)
        grids.append(grid)

    from common import max_rss_mb

    print(json.dumps({
        "interpreter_s": interpreter_s,
        "import_s": import_s,
        "warmup_s": warmup_s,
        "workers": workers,
        "rss_mb": max_rss_mb() + max_rss_mb(resource.RUSAGE_CHILDREN),
        "grids": grids,
        "problems": problems,
    }))


# -- parent side -------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, workdir: pathlib.Path) -> Dict[str, Any]:
    """Run the sweep parent once; it measures for ``seconds`` after set-up."""
    from common import run_child_json

    args = [__file__, "--spawned-at", repr(time.monotonic()), "--seed", str(seed),
            "--seconds", repr(seconds), "--workdir", str(workdir)]
    if trace:
        args.append("--trace")
    report = run_child_json(args, seconds + 2 * OVERRUN_S)
    cells = [cell for grid in report["grids"] for cell in grid["cells"]]
    report["attempted"] = len(cells)
    report["failed"] = sum(grid["failed"] for grid in report["grids"])
    return report


def _backend_metrics(grids: List[Dict[str, Any]], spans: List[Dict[str, Any]],
                     workers: int) -> Dict[str, float]:
    """Busy time, idle share, first vs steady cell and retries per grid."""
    from common import median

    busy = sum(cell["elapsed_s"] for grid in grids for cell in grid["cells"])
    wall = sum(grid["wall_s"] for grid in grids)
    names = {cell["hash"]: cell["name"] for grid in grids for cell in grid["cells"]}
    cells_by_pid: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["name"] == "pipeline.execute" and not span["parent"]:
            cells_by_pid.setdefault(span["pid"], []).append(span)
    firsts, rest = [], []
    for cells in cells_by_pid.values():
        cells.sort(key=lambda span: span["start"])
        firsts.append(cells[0])
        rest.extend(cells[1:])
    first_s, steady_s = [], []
    for first in firsts:
        same = [span["end"] - span["start"] for span in rest
                if names.get(span["rid"]) == names.get(first["rid"])]
        if same:
            first_s.append(first["end"] - first["start"])
            steady_s.append(median(same))
    count = max(1, len(grids))
    return {
        "backends.cell_busy_s": busy / count,
        "backends.worker_idle_share": 1.0 - busy / (wall * workers) if wall else 0.0,
        "backends.first_cell_s": median(first_s),
        "backends.steady_cell_s": median(steady_s),
        "backends.retries": sum(cell["attempts"] - 1 for grid in grids
                                for cell in grid["cells"]) / count,
    }


def summarize(result: Dict[str, Any], layer_names: List[str]) -> Dict[str, Any]:
    """Named metrics, end-to-end metrics and (traced runs) the per-layer
    metrics named in ``layer_names``."""
    from common import median, percentile

    grids = result["grids"]
    plain = [grid for grid in grids if not grid["traced"]] or grids
    cells_ms = [cell["elapsed_s"] * 1000.0 for grid in plain for cell in grid["cells"]]
    wall_s = sum(grid["wall_s"] for grid in plain)
    setup = result["interpreter_s"] + result["import_s"] + result["warmup_s"]
    throughput = len(cells_ms) / wall_s
    named = [
        ("setup_s", setup, "s", 1),
        ("peak_rss_mb", result["rss_mb"], "MB", 1),
        ("sweep_cells_per_s", throughput, "cells/s", len(plain)),
        ("cell_p50_s", median(cells_ms) / 1000.0, "s", len(cells_ms)),
        ("cell_p90_s", percentile(cells_ms, 90) / 1000.0, "s", len(cells_ms)),
    ]
    e2e = {
        "setup_s": setup,
        "peak_rss_mb": result["rss_mb"],
        "op_p50_ms": median(cells_ms),
        "op_p90_ms": percentile(cells_ms, 90),
        "ops_per_s": throughput,
    }
    layers_out: Dict[str, float] = {}
    traced = [grid for grid in grids if grid["traced"]]
    if traced:
        import layers
        from tracing import read_span_files

        spans: List[Dict[str, Any]] = []
        deltas: Dict[str, Dict[str, int]] = {}
        worker_spans: List[Dict[str, Any]] = []
        for grid in traced:
            files = sorted(pathlib.Path(grid["trace_dir"]).glob("spans-*.jsonl"))
            grid_spans, snapshots = read_span_files(files)
            spans.extend(grid["parent_spans"])
            spans.extend(grid_spans)
            worker_spans.extend(grid_spans)
            last = {record["pid"]: record["snapshot"] for record in snapshots}
            for counters in last.values():
                layers.add_deltas(deltas, grid["counters_before"], counters)
        layers_out.update(layers.span_metrics(spans, len(traced), layer_names))
        layers_out.update(layers.counter_metrics(deltas, len(traced)))
        layers_out.update(_backend_metrics(traced, worker_spans, result["workers"]))
        layers_out["setup.import_s"] = result["import_s"]
        untraced = [grid["wall_s"] for grid in grids if not grid["traced"]]
        if untraced:
            layers_out["trace.overhead_share"] = (
                median([grid["wall_s"] for grid in traced]) / median(untraced) - 1.0
            )
    return {"named": named, "e2e": e2e, "layers": layers_out}


if __name__ == "__main__":
    child_main(sys.argv[1:])
