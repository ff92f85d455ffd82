"""Statistics over repeated detection experiments (Fig. 6 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


def detection_z_score(correlations: np.ndarray) -> float:
    """Peak correlation expressed in off-peak standard deviations."""
    correlations = np.asarray(correlations, dtype=np.float64)
    if len(correlations) < 3:
        raise ValueError("need at least three rotations")
    peak_index = int(np.argmax(np.abs(correlations)))
    off_peak = np.delete(correlations, peak_index)
    std = float(np.std(off_peak))
    if std == 0.0:
        return float("inf") if abs(correlations[peak_index]) > 0 else 0.0
    return float((abs(correlations[peak_index]) - abs(np.mean(off_peak))) / std)


def peak_to_second_peak_ratio(correlations: np.ndarray) -> float:
    """|peak| divided by the second largest |correlation|."""
    correlations = np.asarray(correlations, dtype=np.float64)
    if len(correlations) < 2:
        raise ValueError("need at least two rotations")
    magnitudes = np.sort(np.abs(correlations))[::-1]
    if magnitudes[1] == 0.0:
        return float("inf") if magnitudes[0] > 0 else 1.0
    return float(magnitudes[0] / magnitudes[1])


@dataclass(frozen=True)
class BoxPlotStats:
    """Box-plot summary of a sample (median, quartiles, 95% whiskers, outliers).

    Matches the convention of the paper's Fig. 6: the box covers 95% of all
    correlation coefficients with extreme values shown as dots.
    """

    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: tuple

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxPlotStats":
        """Compute the summary from raw samples."""
        values = np.asarray(samples, dtype=np.float64)
        if len(values) == 0:
            raise ValueError("cannot summarise an empty sample")
        whisker_low, q1, q3, whisker_high = np.percentile(values, [2.5, 25, 75, 97.5])
        outside = (values < whisker_low) | (values > whisker_high)
        return cls(
            median=float(np.median(values)),
            q1=float(q1),
            q3=float(q3),
            whisker_low=float(whisker_low),
            whisker_high=float(whisker_high),
            outliers=tuple(values[outside].tolist()),
        )

    @property
    def interquartile_range(self) -> float:
        """Q3 - Q1."""
        return self.q3 - self.q1


@dataclass
class RepetitionStatistics:
    """Aggregated CPA results of a repeated-measurement campaign."""

    label: str
    peak_rotation: int
    peak_values: np.ndarray
    off_peak_values: np.ndarray
    detections: np.ndarray

    @classmethod
    def from_correlation_runs(
        cls,
        label: str,
        runs: Sequence[np.ndarray],
        detected_flags: Optional[Sequence[bool]] = None,
    ) -> "RepetitionStatistics":
        """Aggregate the correlation spectra of many repetitions.

        The peak rotation is determined from the run-averaged |correlation|
        (all repetitions share the same physical phase offset in this model,
        as they do on the bench when acquisition is armed the same way).
        """
        if not runs:
            raise ValueError("need at least one repetition")
        stacked = np.vstack([np.asarray(r, dtype=np.float64) for r in runs])
        mean_abs = np.mean(np.abs(stacked), axis=0)
        peak_rotation = int(np.argmax(mean_abs))
        peak_values = stacked[:, peak_rotation]
        off_peak_values = np.delete(stacked, peak_rotation, axis=1).ravel()
        if detected_flags is None:
            detections = np.array([detection_z_score(run) >= 4.0 for run in stacked])
        else:
            detections = np.asarray(list(detected_flags), dtype=bool)
        return cls(
            label=label,
            peak_rotation=peak_rotation,
            peak_values=peak_values,
            off_peak_values=off_peak_values,
            detections=detections,
        )

    @property
    def repetitions(self) -> int:
        """Number of aggregated repetitions."""
        return len(self.peak_values)

    @property
    def detection_rate(self) -> float:
        """Fraction of repetitions in which the watermark was detected."""
        if len(self.detections) == 0:
            return 0.0
        return float(np.mean(self.detections))

    def peak_box(self) -> BoxPlotStats:
        """Box-plot statistics of the in-phase (peak) correlation values."""
        return BoxPlotStats.from_samples(self.peak_values)

    def off_peak_box(self) -> BoxPlotStats:
        """Box-plot statistics of the out-of-phase correlation values."""
        return BoxPlotStats.from_samples(self.off_peak_values)

    def separation(self) -> float:
        """Gap between the peak box and the off-peak 97.5th percentile.

        Positive separation means the peak box is fully distinguishable from
        the off-peak distribution, i.e. the Fig. 6 peak is resolvable in
        every repetition.
        """
        return float(self.peak_box().whisker_low - self.off_peak_box().whisker_high)
