"""Detection-probability campaigns.

The paper fixes one operating point (300,000 cycles, one noise level) and
reports that detection succeeds in every repetition.  This module maps the
surrounding design space: for a given watermark amplitude and noise level it
measures the empirical detection probability as a function of acquisition
length, and compares it with the analytical estimate from
:func:`repro.detection.metrics.estimate_required_cycles` -- the question an
IP vendor actually has to answer when sizing a watermark for a new system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import DetectionConfig
from repro.detection.batch import BatchCPADetector
from repro.detection.metrics import estimate_required_cycles, expected_correlation
from repro.power.synthesis import TraceSynthesizer


@dataclass(frozen=True)
class DetectionOperatingPoint:
    """One point of the detection-probability curve."""

    num_cycles: int
    trials: int
    detections: int
    mean_peak_correlation: float
    mean_z_score: float

    @property
    def detection_probability(self) -> float:
        """Empirical probability of detecting the watermark."""
        if self.trials == 0:
            return 0.0
        return self.detections / self.trials


@dataclass
class DetectionProbabilityCurve:
    """Empirical detection probability versus acquisition length."""

    watermark_amplitude_w: float
    noise_sigma_w: float
    sequence_period: int
    points: List[DetectionOperatingPoint] = field(default_factory=list)

    @property
    def expected_rho(self) -> float:
        """Analytical population correlation at this amplitude/noise."""
        return expected_correlation(self.watermark_amplitude_w, self.noise_sigma_w)

    @property
    def analytical_required_cycles(self) -> int:
        """Cycles the analytical model deems sufficient for reliable detection."""
        return estimate_required_cycles(self.expected_rho, self.sequence_period)

    def empirical_required_cycles(self, target_probability: float = 0.95) -> Optional[int]:
        """Smallest evaluated acquisition length reaching the target probability.

        Returns ``None`` if no evaluated point reaches it.
        """
        if not 0.0 < target_probability <= 1.0:
            raise ValueError("target probability must be in (0, 1]")
        for point in sorted(self.points, key=lambda p: p.num_cycles):
            if point.detection_probability >= target_probability:
                return point.num_cycles
        return None

    def is_monotonic(self, wiggle_tolerance: float = 0.15) -> bool:
        """Detection probability should not degrade with more cycles (statistically).

        ``wiggle_tolerance`` is how much one point may dip below its
        predecessor before the curve counts as non-monotonic; the default
        absorbs the sampling noise of small trial counts.  Pass ``0.0`` to
        require strict (non-decreasing) monotonicity.
        """
        if wiggle_tolerance < 0:
            raise ValueError("wiggle tolerance must be non-negative")
        ordered = sorted(self.points, key=lambda p: p.num_cycles)
        probabilities = [p.detection_probability for p in ordered]
        return all(b >= a - wiggle_tolerance for a, b in zip(probabilities, probabilities[1:]))

    def to_text(self) -> str:
        """Render the curve as a text table."""
        lines = [
            f"Detection probability curve (amplitude={self.watermark_amplitude_w * 1e3:.2f} mW, "
            f"noise sigma={self.noise_sigma_w * 1e3:.1f} mW, expected rho={self.expected_rho:.4f})",
            f"{'cycles':>10} {'P(detect)':>10} {'mean peak rho':>14} {'mean z':>8}",
        ]
        for point in sorted(self.points, key=lambda p: p.num_cycles):
            lines.append(
                f"{point.num_cycles:>10} {point.detection_probability:>10.2f} "
                f"{point.mean_peak_correlation:>14.4f} {point.mean_z_score:>8.1f}"
            )
        lines.append(
            f"analytical sufficient-cycle estimate: {self.analytical_required_cycles} cycles"
        )
        return "\n".join(lines)


def run_detection_probability_campaign(
    sequence: np.ndarray,
    watermark_amplitude_w: float,
    noise_sigma_w: float,
    cycle_counts: Sequence[int],
    trials_per_point: int = 20,
    detection_config: Optional[DetectionConfig] = None,
    base_power_w: float = 5e-3,
    seed: int = 0,
    max_trials_per_chunk: Optional[int] = None,
    chunk_cycles: Optional[int] = None,
) -> DetectionProbabilityCurve:
    """Monte-Carlo estimate of detection probability versus trace length.

    The synthetic measurement model is the same one the full pipeline
    produces after the acquisition chain: ``Y = base + a * X(rotated) +
    N(0, sigma)`` -- which keeps the campaign fast enough to sweep dozens of
    operating points while remaining faithful to what CPA actually sees.

    All trials of one acquisition length are synthesized as a single trial
    matrix by :class:`repro.power.synthesis.TraceSynthesizer` (the offset
    rows come out of one batched modular gather instead of one Python slice
    per trial) and detected in one batched CPA pass.  Each trial's random
    draws (phase offset, then its noise row) happen in the same order as
    the pre-batching per-trial loop, so a given seed produces the *same
    curve* as the original implementation — the golden values in
    ``tests/test_detection_campaign.py`` pin this.
    ``max_trials_per_chunk`` bounds how many trial rows are materialised at
    once so memory stays bounded for very long (1e6-cycle) sweeps; row
    chunking does not touch the draw order, so detection counts are
    identical for any chunk size and the mean statistics agree to
    floating-point rounding.  ``chunk_cycles`` additionally bounds the
    column working set of the batched phase fold.
    """
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 1 or len(sequence) < 3:
        raise ValueError("the watermark sequence must be a 1-D vector of at least 3 cycles")
    if watermark_amplitude_w < 0 or noise_sigma_w < 0:
        raise ValueError("amplitude and noise must be non-negative")
    if trials_per_point <= 0:
        raise ValueError("trials_per_point must be positive")
    if not cycle_counts:
        raise ValueError("at least one acquisition length must be evaluated")
    if max_trials_per_chunk is not None and max_trials_per_chunk <= 0:
        raise ValueError("max_trials_per_chunk must be positive")

    detector = BatchCPADetector(detection_config or DetectionConfig())
    period = len(sequence)
    synthesizer = TraceSynthesizer.from_sequence(
        sequence,
        watermark_amplitude_w=watermark_amplitude_w,
        noise_sigma_w=noise_sigma_w,
        base_power_w=base_power_w,
    )
    rng = np.random.default_rng(seed)
    curve = DetectionProbabilityCurve(
        watermark_amplitude_w=watermark_amplitude_w,
        noise_sigma_w=noise_sigma_w,
        sequence_period=period,
    )
    row_step = trials_per_point if max_trials_per_chunk is None else int(max_trials_per_chunk)
    for num_cycles in cycle_counts:
        num_cycles = int(num_cycles)
        if num_cycles < period:
            raise ValueError(
                f"acquisition of {num_cycles} cycles is shorter than the sequence period {period}"
            )
        detections = 0
        peak_sum = 0.0
        z_sum = 0.0
        # repro-lint: allow[HOT001] O(trials/chunk) memory-bounding chunk loop; synthesis and detection inside are batched
        for start in range(0, trials_per_point, row_step):
            stop = min(trials_per_point, start + row_step)
            # Each row draws its offset then its noise, exactly as the
            # pre-batching per-trial loop did (seed compatibility); the
            # offset rows are gathered in one batched fancy-index pass and
            # the chunk's peak memory stays at one trials x cycles array.
            trial_matrix = synthesizer.synthesize_trials(stop - start, num_cycles, rng)
            batch = detector.detect_many(sequence, trial_matrix, chunk_cycles=chunk_cycles)
            detections += batch.detection_count
            peak_sum += float(batch.peak_correlations.sum())
            z_sum += float(batch.z_scores.sum())
        curve.points.append(
            DetectionOperatingPoint(
                num_cycles=num_cycles,
                trials=trials_per_point,
                detections=detections,
                mean_peak_correlation=peak_sum / trials_per_point,
                mean_z_score=z_sum / trials_per_point,
            )
        )
    return curve
