"""Paper scenarios pinned bit-identical to the original per-figure drivers.

``tests/data/pipeline_golden.json`` was captured by running the original
drivers (``tests/data/capture_pipeline_golden.py``) at fixed seeds and quick
scales.  Every paper figure and table now runs through the scenario
pipeline; these tests prove the pipeline changed nothing: reports match
character for character and arrays match bit for bit.  The campaign
scenarios' reports are pinned at their registry ``--quick`` specs.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.spec import ScenarioSpec
from repro.pipeline import DEFAULT_REGISTRY, RunOptions, run_scenario

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "pipeline_golden.json").read_text()
)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def fast_config() -> ExperimentConfig:
    return ExperimentConfig.fast(30_000)


class TestFastExperimentsMatchGolden:
    def test_fig2(self):
        result = run_scenario(ScenarioSpec(kind="fig2", name="fig2", seed=0b1001)).payload
        assert result.to_text() == GOLDEN["fig2"]["report"]
        assert digest(result.wmark) == GOLDEN["fig2"]["arrays"]["wmark"]
        assert (
            digest(result.baseline_toggles)
            == GOLDEN["fig2"]["arrays"]["baseline_toggles"]
        )
        assert (
            digest(result.clock_modulation_toggles)
            == GOLDEN["fig2"]["arrays"]["clock_modulation_toggles"]
        )

    def test_fig3(self):
        spec = ScenarioSpec(
            kind="fig3",
            name="fig3",
            chip="chip1",
            seed=7,
            m0_window_cycles=2_048,
            params={"num_cycles": 2_048},
        )
        result = run_scenario(spec).payload
        assert result.to_text() == GOLDEN["fig3"]["report"]
        assert (
            digest(result.measured_total_power)
            == GOLDEN["fig3"]["arrays"]["measured_total_power"]
        )

    def test_table1(self):
        assert run_scenario("table1").payload.to_text() == GOLDEN["table1"]["report"]

    def test_table2(self):
        assert run_scenario("table2").payload.to_text() == GOLDEN["table2"]["report"]

    def test_robustness(self):
        assert (
            run_scenario("robustness").payload.to_text()
            == GOLDEN["robustness"]["report"]
        )


class TestAcquisitionExperimentsMatchGolden:
    """Fig. 5 / Fig. 6 at the captured quick scale (30k cycles, 4k window)."""

    def test_fig5_report_and_spectra(self):
        spec = ScenarioSpec(
            kind="fig5",
            name="fig5",
            measurement=fast_config().measurement,
            seed=100,
            m0_window_cycles=4_096,
        )
        result = run_scenario(spec).payload
        assert result.to_text() == GOLDEN["fig5"]["report"]
        assert set(result.panels) == set(GOLDEN["fig5"]["arrays"])
        for key, panel in result.panels.items():
            assert digest(panel.cpa.correlations) == GOLDEN["fig5"]["arrays"][key], key

    def test_fig6_report(self):
        spec = ScenarioSpec(
            kind="fig6",
            name="fig6",
            measurement=fast_config().measurement,
            seed=1_000,
            repetitions=6,
            m0_window_cycles=4_096,
        )
        assert run_scenario(spec).payload.to_text() == GOLDEN["fig6"]["report"]


class TestCampaignScenariosMatchGolden:
    """Campaign cells at their registry ``--quick`` specs."""

    @pytest.mark.parametrize(
        "name", ["detection-probability", "masking-noise", "masking-starvation"]
    )
    def test_report(self, name):
        spec = DEFAULT_REGISTRY.build(name, RunOptions(quick=True))
        assert run_scenario(spec).report == GOLDEN[name]["report"]
