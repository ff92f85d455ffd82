"""Benchmark: regenerate Fig. 6 (box plots over 100 repeated measurements)."""

import pytest

from repro.pipeline import ScenarioSpec, run_scenario


@pytest.mark.parametrize("chip_name", ["chip1", "chip2"])
def test_bench_fig6_repeatability(benchmark, report, paper_config, expectations, chip_name):
    repetitions = expectations["fig6"]["repetitions"]
    spec = ScenarioSpec(
        kind="fig6_chip",
        name=f"fig6/{chip_name}",
        chip=chip_name,
        watermark=paper_config.watermark,
        measurement=paper_config.measurement,
        detection=paper_config.detection,
        seed=1000,
        repetitions=repetitions,
    )
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1).payload
    peak = result.peak_box
    off_peak = result.off_peak_box
    report(
        f"Fig. 6: correlation statistics over {repetitions} repetitions ({chip_name})",
        "\n".join(
            [
                f"peak rotation: {result.statistics.peak_rotation}",
                f"peak box:     median={peak.median:.4f} q1={peak.q1:.4f} q3={peak.q3:.4f} "
                f"whiskers=[{peak.whisker_low:.4f}, {peak.whisker_high:.4f}] "
                f"outliers={len(peak.outliers)}",
                f"off-peak box: median={off_peak.median:.4f} "
                f"whiskers=[{off_peak.whisker_low:.4f}, {off_peak.whisker_high:.4f}]",
                f"detection rate: {result.detection_rate * 100:.0f}%",
                f"peak box separated from off-peak distribution: {result.peak_separated}",
            ]
        ),
    )

    # The paper detects the watermark in every one of the 100 repetitions on
    # both chips, with the in-phase box clearly above the out-of-phase boxes.
    assert result.detection_rate == expectations["fig6"]["detection_rate"]
    assert result.peak_separated
    assert abs(off_peak.median) < 0.001
    assert peak.median > off_peak.whisker_high
