#!/usr/bin/env python3
"""Capture the reports and array digests of every paper scenario.

The committed golden was captured from the original per-figure drivers,
which the scenario pipeline has since replaced; re-running this script
freezes the pipeline's current reports and array digests at the same fixed
seeds and scales.  ``tests/test_pipeline_equivalence.py`` pins the pipeline
against the captured output bit for bit.

The campaign scenarios (detection probability, noise and starvation
masking) are captured from their registry specs at ``--quick`` scale.

The CPA path makes no BLAS call, so the digests do not depend on the BLAS
thread count or CPU kernel (``tests/test_detection_host_independence.py``).

Usage:  PYTHONPATH=src python tests/data/capture_pipeline_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.spec import ScenarioSpec
from repro.pipeline import DEFAULT_REGISTRY, ExperimentRunner, RunOptions

OUT = pathlib.Path(__file__).with_name("pipeline_golden.json")

#: Campaign scenarios pinned at their registry ``--quick`` specs.
CAMPAIGNS = ("detection-probability", "masking-noise", "masking-starvation")


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    return hashlib.sha256(array.tobytes()).hexdigest()


def main() -> None:
    config = ExperimentConfig.fast(30_000)
    runner = ExperimentRunner()
    golden = {}

    fig2 = runner.run(ScenarioSpec(kind="fig2", name="fig2", seed=0b1001)).payload
    golden["fig2"] = {
        "report": fig2.to_text(),
        "arrays": {
            "wmark": digest(fig2.wmark),
            "baseline_toggles": digest(fig2.baseline_toggles),
            "clock_modulation_toggles": digest(fig2.clock_modulation_toggles),
        },
    }

    fig3 = runner.run(
        ScenarioSpec(
            kind="fig3",
            name="fig3",
            chip="chip1",
            seed=7,
            m0_window_cycles=2_048,
            params={"num_cycles": 2_048},
        )
    ).payload
    golden["fig3"] = {
        "report": fig3.to_text(),
        "arrays": {"measured_total_power": digest(fig3.measured_total_power)},
    }

    fig5 = runner.run(
        ScenarioSpec(
            kind="fig5",
            name="fig5",
            measurement=config.measurement,
            seed=100,
            m0_window_cycles=4_096,
        )
    ).payload
    golden["fig5"] = {
        "report": fig5.to_text(),
        "arrays": {
            key: digest(panel.cpa.correlations) for key, panel in sorted(fig5.panels.items())
        },
    }

    fig6 = runner.run(
        ScenarioSpec(
            kind="fig6",
            name="fig6",
            measurement=config.measurement,
            seed=1_000,
            repetitions=6,
            m0_window_cycles=4_096,
        )
    ).payload
    golden["fig6"] = {"report": fig6.to_text(), "arrays": {}}

    for name in ("table1", "table2", "robustness"):
        golden[name] = {"report": runner.run(name).payload.to_text(), "arrays": {}}

    for name in CAMPAIGNS:
        spec = DEFAULT_REGISTRY.build(name, RunOptions(quick=True))
        golden[name] = {"report": runner.run(spec).report, "arrays": {}}

    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(golden)} experiments)")


if __name__ == "__main__":
    main()
