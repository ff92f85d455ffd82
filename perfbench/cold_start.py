"""Workload ``cold-start``: process-cold, what every ``python -m repro run`` pays.

Each sample is a fresh interpreter (this file run as a script) that
imports ``repro``, builds an :class:`ExperimentRunner` and runs
``fig5/chip1-active`` then ``fig5/chip2-active`` at paper scale into an
empty result store.  The parent starts interpreters one after another until
the run's time is used, then reports medians over them.

The cells are the registered ones exactly as ``python -m repro run`` runs
them, so ``--seed`` does not change them.  At seeds drawn from the
benchmark seed a paper-scale chip II acquisition misses the detection
threshold about once in a few hundred cells (seen once in ~300 while
tuning), which would fail a run's output check by chance.
"""

import argparse
import json
import pathlib
import sys
import time
from typing import Any, Dict, List

#: The two cells, and the peak rotation each must be detected at (the
#: paper's Fig. 5 watermark phase offsets on the 4,095-cycle sequence).
CELLS = (("fig5/chip1-active", "chip1", 3800), ("fig5/chip2-active", "chip2", 2400))

#: At most this long per interpreter before it counts as failed.
CHILD_TIMEOUT_S = 120.0


def child_main(argv: List[str]) -> None:
    """One process-cold sample; prints its measurements as one JSON line."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    import_start = time.monotonic()
    from repro.pipeline.registry import DEFAULT_REGISTRY
    from repro.pipeline.runner import ExperimentRunner

    import_s = time.monotonic() - import_start
    runner = ExperimentRunner()
    ready = time.monotonic()

    tracer = None
    if args.trace_dir:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        layers.install(tracer)
        before = layers.cache_counters(runner)
        tracer.enabled = True

    cells = []
    cells_start = time.monotonic()
    for name, chip, _ in CELLS:
        result = runner.run(DEFAULT_REGISTRY.build(name), store=args.store)
        cells.append({"name": name, "chip": chip, "ok": result.ok,
                      "error": result.error, "scalars": result.scalars})
    cells_s = time.monotonic() - cells_start

    from common import max_rss_mb

    report: Dict[str, Any] = {
        "setup_s": ready - args.spawned_at,
        "import_s": import_s,
        "cells_s": cells_s,
        "rss_mb": max_rss_mb(),
        "cells": cells,
    }
    if tracer is not None:
        tracer.enabled = False
        tracer.dump(pathlib.Path(args.trace_dir) / "spans.jsonl")
        report["counters"] = {"before": before, "after": layers.cache_counters(runner)}
    print(json.dumps(report))


# -- parent side -------------------------------------------------------------


def check(sample: Dict[str, Any]) -> List[str]:
    """Decision checks for one interpreter's two cells."""
    from repro.experiments.common import paper_expectations

    expect = paper_expectations()["fig5"]
    problems = []
    for cell, (name, chip, rotation) in zip(sample["cells"], CELLS):
        scalars = cell["scalars"]
        low, high = expect[f"{chip}_peak_rho_range"]
        if not cell["ok"]:
            problems.append(f"{name}: failed: {cell['error']}")
        elif not scalars.get("detected"):
            problems.append(f"{name}: watermark not detected")
        elif scalars.get("peak_rotation") != rotation:
            problems.append(f"{name}: peak at {scalars.get('peak_rotation')}, not {rotation}")
        elif not low <= scalars.get("peak_correlation", 0.0) <= high:
            problems.append(f"{name}: peak rho {scalars.get('peak_correlation')} outside {low}..{high}")
    return problems


def run(seed: int, seconds: float, trace: bool, workdir: pathlib.Path) -> Dict[str, Any]:
    """Fresh interpreters until ``seconds`` are used (at least three)."""
    from common import run_child_json

    samples: List[Dict[str, Any]] = []
    problems: List[str] = []
    attempted = failed = 0
    start = time.monotonic()
    while attempted < 3 or time.monotonic() - start < seconds:
        traced = trace and attempted % 2 == 1
        store = workdir / f"store-{attempted}"
        trace_dir = workdir / f"trace-{attempted}"
        extra = []
        if traced:
            trace_dir.mkdir()
            extra = ["--trace-dir", str(trace_dir)]
        attempted += 1
        try:
            sample = run_child_json(
                [__file__, "--spawned-at", repr(time.monotonic()), "--store", str(store),
                 *extra],
                CHILD_TIMEOUT_S,
            )
        except RuntimeError as error:
            failed += 1
            problems.append(str(error))
            continue
        sample_problems = check(sample)
        if sample_problems:
            failed += 1
            problems.extend(sample_problems)
        sample["traced"] = traced
        sample["trace_dir"] = str(trace_dir)
        samples.append(sample)
    if not samples:
        raise RuntimeError("no interpreter finished: " + "; ".join(problems))
    return {"samples": samples, "attempted": attempted, "failed": failed,
            "problems": problems}


def summarize(result: Dict[str, Any], layer_names: List[str]) -> Dict[str, Any]:
    """Named metrics, end-to-end metrics and (traced runs) the per-layer
    metrics named in ``layer_names``."""
    from common import median, percentile

    samples = result["samples"]
    untraced = [s for s in samples if not s["traced"]] or samples
    cells_ms = [s["cells_s"] * 1000.0 for s in untraced]
    setup = median([s["setup_s"] for s in samples])
    rss = median([s["rss_mb"] for s in samples])
    named = [
        ("setup_s", setup, "s", len(samples)),
        ("peak_rss_mb", rss, "MB", len(samples)),
        ("cold_cells_s", median(cells_ms) / 1000.0, "s", len(cells_ms)),
    ]
    e2e = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "op_p50_ms": median(cells_ms),
        "op_p90_ms": percentile(cells_ms, 90),
        "ops_per_s": len(CELLS) * len(cells_ms) / (sum(cells_ms) / 1000.0),
    }
    layers_out: Dict[str, float] = {}
    traced = [s for s in samples if s["traced"]]
    if traced:
        import layers
        from tracing import read_span_files

        spans, _ = read_span_files(pathlib.Path(s["trace_dir"]) / "spans.jsonl" for s in traced)
        deltas: Dict[str, Dict[str, int]] = {}
        for sample in traced:
            layers.add_deltas(deltas, sample["counters"]["before"], sample["counters"]["after"])
        layers_out.update(layers.span_metrics(spans, len(traced), layer_names))
        layers_out.update(layers.counter_metrics(deltas, len(traced)))
        layers_out["setup.import_s"] = median([s["import_s"] for s in samples])
        plain = [s["cells_s"] for s in samples if not s["traced"]]
        if plain:
            layers_out["trace.overhead_share"] = (
                median([s["cells_s"] for s in traced]) / median(plain) - 1.0
            )
    return {"named": named, "e2e": e2e, "layers": layers_out}


if __name__ == "__main__":
    child_main(sys.argv[1:])
