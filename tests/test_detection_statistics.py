"""Unit tests for repro.detection.statistics."""

import numpy as np
import pytest

from repro.detection.statistics import (
    BoxPlotStats,
    RepetitionStatistics,
    detection_z_score,
    peak_to_second_peak_ratio,
)


def make_runs(num_runs=20, period=255, peak_rotation=40, peak_value=0.02, noise=0.002, seed=0):
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(num_runs):
        run = rng.normal(0, noise, period)
        run[peak_rotation] = peak_value + rng.normal(0, noise)
        runs.append(run)
    return runs


class TestScores:
    def test_detection_z_score(self):
        correlations = np.zeros(100)
        correlations[10] = 0.5
        assert detection_z_score(correlations) == float("inf")

    def test_detection_z_score_with_noise(self):
        rng = np.random.default_rng(0)
        correlations = rng.normal(0, 0.01, 1000)
        correlations[5] = 0.1
        assert detection_z_score(correlations) > 5

    def test_z_score_needs_three_values(self):
        with pytest.raises(ValueError):
            detection_z_score(np.array([0.1, 0.2]))

    def test_peak_to_second_peak_ratio(self):
        correlations = np.array([0.01, 0.05, -0.02, 0.002])
        assert peak_to_second_peak_ratio(correlations) == pytest.approx(2.5)

    def test_ratio_with_zero_second(self):
        assert peak_to_second_peak_ratio(np.array([0.5, 0.0, 0.0])) == float("inf")


class TestBoxPlotStats:
    def test_from_samples(self):
        stats = BoxPlotStats.from_samples(np.linspace(0, 1, 101))
        assert stats.median == pytest.approx(0.5)
        assert stats.q1 == pytest.approx(0.25)
        assert stats.q3 == pytest.approx(0.75)
        assert stats.interquartile_range == pytest.approx(0.5)

    def test_whiskers_cover_95_percent(self):
        rng = np.random.default_rng(0)
        stats = BoxPlotStats.from_samples(rng.normal(0, 1, 10_000))
        assert stats.whisker_low == pytest.approx(-1.96, abs=0.1)
        assert stats.whisker_high == pytest.approx(1.96, abs=0.1)

    def test_outliers_identified(self):
        samples = list(np.zeros(99)) + [100.0]
        stats = BoxPlotStats.from_samples(samples)
        assert 100.0 in stats.outliers

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxPlotStats.from_samples([])

    @staticmethod
    def _reference(samples):
        """The per-percentile, per-element formula the vectorized one replaced."""
        values = np.asarray(list(samples), dtype=np.float64)
        whisker_low, whisker_high = np.percentile(values, [2.5, 97.5])
        return BoxPlotStats(
            median=float(np.median(values)),
            q1=float(np.percentile(values, 25)),
            q3=float(np.percentile(values, 75)),
            whisker_low=float(whisker_low),
            whisker_high=float(whisker_high),
            outliers=tuple(
                float(v) for v in values if v < whisker_low or v > whisker_high
            ),
        )

    # 409,500 = 100 runs x 4,095 off-peak rotations: the Fig. 6 off-peak box.
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 100, 409_500])
    def test_bit_identical_to_reference_formula(self, size):
        rng = np.random.default_rng(size)
        samples = rng.normal(0.0, 0.006, size)
        samples[::5] = np.round(samples[::5], 3)  # ties at the percentiles
        fast = BoxPlotStats.from_samples(samples)
        reference = self._reference(samples)
        for name in ("median", "q1", "q3", "whisker_low", "whisker_high"):
            assert getattr(fast, name).hex() == getattr(reference, name).hex(), name
        # Same outliers, in sample order, as plain Python floats.
        assert fast.outliers == reference.outliers
        assert all(type(v) is float for v in fast.outliers)


class TestRepetitionStatistics:
    def test_peak_rotation_identified(self):
        stats = RepetitionStatistics.from_correlation_runs("chip", make_runs())
        assert stats.peak_rotation == 40
        assert stats.repetitions == 20

    def test_peak_and_off_peak_separated(self):
        stats = RepetitionStatistics.from_correlation_runs("chip", make_runs())
        assert stats.separation() > 0
        assert stats.peak_box().median > stats.off_peak_box().median

    def test_detection_rate_with_flags(self):
        runs = make_runs(num_runs=10)
        stats = RepetitionStatistics.from_correlation_runs(
            "chip", runs, detected_flags=[True] * 8 + [False] * 2
        )
        assert stats.detection_rate == pytest.approx(0.8)

    def test_detection_rate_computed_from_z_scores(self):
        stats = RepetitionStatistics.from_correlation_runs("chip", make_runs(peak_value=0.05))
        assert stats.detection_rate == 1.0

    def test_requires_runs(self):
        with pytest.raises(ValueError):
            RepetitionStatistics.from_correlation_runs("chip", [])

    def test_no_separation_for_noise_only_runs(self):
        rng = np.random.default_rng(3)
        runs = [rng.normal(0, 0.002, 255) for _ in range(10)]
        stats = RepetitionStatistics.from_correlation_runs("chip", runs)
        assert stats.separation() < 0.002
