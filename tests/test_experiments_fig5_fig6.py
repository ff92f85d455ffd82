"""Tests for the Fig. 5 and Fig. 6 scenarios (reduced length).

The reduced-length runs keep the suite fast; the benchmark harness runs the
full 300,000-cycle, 100-repetition campaigns.  To keep detection reliable
at the shorter trace length the tests use a shorter watermark sequence
(fewer rotations) and correspondingly lower acquisition noise.
"""

import numpy as np
import pytest

from repro.core.config import DetectionConfig, MeasurementConfig, WatermarkConfig
from repro.pipeline import ScenarioSpec, run_scenario


@pytest.fixture(scope="module")
def reduced_spec() -> ScenarioSpec:
    """The composite Fig. 5 spec at reduced scale; panels and campaigns derive from it."""
    return ScenarioSpec(
        kind="fig5",
        watermark=WatermarkConfig(lfsr_width=9, lfsr_seed=0x1AB),
        measurement=MeasurementConfig(
            num_cycles=60_000,
            transient_noise_floor_w=0.020,
            transient_noise_fraction=0.4,
            seed=11,
        ),
        detection=DetectionConfig(),
        seed=100,
        m0_window_cycles=2048,
    )


def run_panel(spec, chip_name, watermark_active, **overrides):
    """One Fig. 5 panel at the composite spec's seed."""
    panel_spec = spec.with_overrides(
        kind="fig5_panel", chip=chip_name, watermark_active=watermark_active, **overrides
    )
    return run_scenario(panel_spec).payload


def run_fig6_campaign(spec, chip_name, repetitions):
    """One chip's Fig. 6 campaign at the figure's default base seed."""
    campaign = spec.with_overrides(
        kind="fig6_chip", chip=chip_name, seed=1000, repetitions=repetitions
    )
    return run_scenario(campaign).payload


class TestFig5Panels:
    def test_chip1_active_detected(self, reduced_spec):
        panel = run_panel(reduced_spec, "chip1", True)
        assert panel.cpa.detected
        assert panel.spectrum.has_single_resolvable_peak()

    def test_chip1_inactive_not_detected(self, reduced_spec):
        panel = run_panel(reduced_spec, "chip1", False)
        assert not panel.cpa.detected
        assert abs(panel.cpa.peak_correlation) < 0.02

    def test_peak_appears_at_requested_phase(self, reduced_spec):
        panel = run_panel(reduced_spec, "chip1", True, phase_offset=123)
        assert panel.cpa.peak_rotation == 123

    def test_chip2_peak_lower_than_chip1(self, reduced_spec):
        chip1 = run_panel(reduced_spec, "chip1", True)
        chip2 = run_panel(reduced_spec, "chip2", True)
        assert chip2.cpa.peak_correlation < chip1.cpa.peak_correlation
        assert chip2.cpa.detected

    def test_full_figure_runner(self, reduced_spec):
        result = run_scenario(reduced_spec).payload
        assert len(result.panels) == 4
        assert result.all_active_panels_detected
        assert result.no_inactive_panel_detected
        assert "chip1" in result.to_text()

    def test_panel_lookup(self, reduced_spec):
        result = run_scenario(reduced_spec).payload
        panel = result.panel("chip2", watermark_active=False)
        assert panel.chip_name == "chip2"
        with pytest.raises(KeyError):
            result.panel("chip3", True)


class TestFig6ReducedCampaign:
    def test_repeatability_statistics(self, reduced_spec):
        result = run_fig6_campaign(reduced_spec, "chip1", repetitions=12)
        assert result.statistics.repetitions == 12
        assert result.detection_rate == 1.0
        assert result.peak_separated
        assert result.peak_box.median > result.off_peak_box.median

    def test_invalid_repetitions_rejected(self, reduced_spec):
        with pytest.raises(ValueError):
            run_fig6_campaign(reduced_spec, "chip1", repetitions=0)
