"""Correlation Power Analysis for watermark detection.

The detector evaluates the Pearson correlation coefficient (equation (1) of
the paper) between the measured per-cycle power vector ``Y`` and the
watermark model sequence ``X`` rotated by every possible number of clock
cycles (the two are not phase-aligned on the bench).  The number of
rotations equals the watermark sequence period.

Two evaluation strategies are provided:

* ``naive`` -- literal re-correlation for every rotation, O(period x N);
  used for validation and small problems.
* ``fft`` -- the measured vector is folded into per-phase sums (the model
  sequence is periodic, so only the phase of each cycle matters) and all
  rotation correlations are obtained with one circular cross-correlation
  via FFT, O(N + period log period).  Numerically identical to the naive
  method up to floating-point rounding.

The FFT path and the detection decision are implemented once, in the
batched engine (:mod:`repro.detection.batch`); this module's single-trace
API delegates to it with a batch of one, so ``CPADetector.detect`` is
bit-identical to row ``i`` of ``BatchCPADetector.detect_many``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import DetectionConfig
from repro.detection.batch import BatchCPADetector, batch_rotation_correlations, row_dot


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length vectors.

    Implements equation (1) of the paper.  Returns 0.0 when either vector
    has zero variance (no relationship can be established).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"vectors must have equal length, got {x.shape} and {y.shape}")
    n = len(x)
    if n == 0:
        raise ValueError("vectors must be non-empty")
    sum_x = x.sum()
    sum_y = y.sum()
    sum_xy = float(row_dot(x, y))
    sum_xx = float(row_dot(x, x))
    sum_yy = float(row_dot(y, y))
    var_x = n * sum_xx - sum_x * sum_x
    var_y = n * sum_yy - sum_y * sum_y
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return float((n * sum_xy - sum_x * sum_y) / np.sqrt(var_x) / np.sqrt(var_y))


def _tiled_rotation(sequence: np.ndarray, rotation: int, length: int) -> np.ndarray:
    """The model sequence rotated by ``rotation`` cycles and tiled to ``length``."""
    period = len(sequence)
    rotated = np.roll(sequence, -rotation)
    reps = int(np.ceil(length / period))
    return np.tile(rotated, reps)[:length]


def _rotation_correlations_naive(sequence: np.ndarray, measured: np.ndarray) -> np.ndarray:
    period = len(sequence)
    return np.array(
        [  # repro-lint: allow[HOT001] golden reference path: the per-rotation definition the FFT engine is validated against
            pearson_correlation(_tiled_rotation(sequence, rotation, len(measured)), measured)
            for rotation in range(period)
        ]
    )


def _rotation_correlations_fft(sequence: np.ndarray, measured: np.ndarray) -> np.ndarray:
    # One code path for single and batched detection: a batch of one.
    return batch_rotation_correlations(sequence, measured[None, :], method="fft")[0]


def rotation_correlations(
    sequence: np.ndarray, measured: np.ndarray, method: str = "fft"
) -> np.ndarray:
    """Correlation coefficient for every rotation of the watermark sequence.

    Parameters
    ----------
    sequence:
        One period of the watermark model sequence (0/1 values).
    measured:
        Measured per-cycle power vector ``Y``.
    method:
        ``"fft"`` (default) or ``"naive"``.
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    if sequence.ndim != 1 or measured.ndim != 1:
        raise ValueError("sequence and measured vectors must be one-dimensional")
    if len(sequence) < 2:
        raise ValueError("the watermark sequence must contain at least two cycles")
    if len(measured) < len(sequence):
        raise ValueError(
            "the measured trace must cover at least one full watermark period "
            f"({len(measured)} < {len(sequence)})"
        )
    if method == "naive":
        return _rotation_correlations_naive(sequence, measured)
    if method == "fft":
        return _rotation_correlations_fft(sequence, measured)
    raise ValueError(f"unknown correlation method {method!r}")


@dataclass
class CPAResult:
    """Outcome of a CPA detection attempt."""

    correlations: np.ndarray
    peak_rotation: int
    peak_correlation: float
    noise_floor_std: float
    second_peak_correlation: float
    z_score: float
    detected: bool
    threshold: float

    @property
    def num_rotations(self) -> int:
        """Number of evaluated rotations (the sequence period)."""
        return len(self.correlations)

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "DETECTED" if self.detected else "not detected"
        if np.isinf(self.z_score):
            z_text = "z=inf (zero noise floor)"
        else:
            z_text = f"z={self.z_score:.1f}"
        return (
            f"{status}: peak rho={self.peak_correlation:.4f} at rotation "
            f"{self.peak_rotation}, noise sigma={self.noise_floor_std:.4f}, "
            f"{z_text}"
        )


class CPADetector:
    """Detects a watermark in a measured power vector.

    The detection rule follows the paper: the watermark is regarded as
    detected only if a *single significant* correlation coefficient can be
    resolved.  "Significant" is operationalised as the peak exceeding the
    off-peak noise floor by ``threshold`` standard deviations (default 4),
    and "single" by requiring the second-highest |correlation| to stay
    below that same threshold.
    """

    def __init__(self, config: Optional[DetectionConfig] = None) -> None:
        self.config = config or DetectionConfig()

    def detect(self, sequence: np.ndarray, measured: np.ndarray) -> CPAResult:
        """Run CPA over all rotations and apply the detection decision."""
        method = "fft" if self.config.use_fft else "naive"
        correlations = rotation_correlations(sequence, measured, method=method)
        return self.evaluate(correlations)

    def evaluate(self, correlations: np.ndarray) -> CPAResult:
        """Apply the detection decision to a precomputed correlation spectrum.

        Delegates to the batched engine with a batch of one, so the result is
        bit-identical to the corresponding row of
        :meth:`repro.detection.batch.BatchCPADetector.evaluate_many`.
        """
        correlations = np.asarray(correlations, dtype=np.float64)
        if correlations.ndim != 1:
            raise ValueError("the correlation spectrum must be one-dimensional")
        batch = BatchCPADetector(self.config).evaluate_many(correlations[None, :])
        return batch.result(0)
