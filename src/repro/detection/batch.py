"""Batched CPA detection engine: all Monte-Carlo trials in one shot.

Every study this repository runs on top of the paper's single detection --
detection-probability curves, repeatability box plots, masking/robustness
sweeps -- multiplies one CPA evaluation by hundreds of
Monte-Carlo trials.  This module makes "N traces at once" the native shape
of the detector:

* :func:`batch_rotation_correlations` folds a 2-D trial matrix
  (``trials x cycles``) into per-phase sums and computes the full rotation
  correlation spectrum of every trial with a single stack of rFFTs,
  O(trials * cycles + trials * period log period).
* :class:`BatchCPADetector` vectorizes the evaluate step (peak, off-peak
  noise floor, z-score, uniqueness) across rows and returns a structured
  :class:`BatchCPAResult`.

The single-trace :class:`repro.detection.cpa.CPADetector` delegates its FFT
and evaluation paths to this engine, so a batch of one is *bit-identical*
to a single detection -- the equivalence suite in
``tests/test_detection_batch.py`` locks this in.

Memory stays bounded for very long sweeps through two knobs:

``max_trials_per_chunk``
    :meth:`BatchCPADetector.detect_many` processes the trial matrix in row
    chunks of at most this many trials (results are bit-identical to the
    unchunked run; rows are independent).
``chunk_cycles``
    The phase fold accumulates over column chunks of roughly this many
    cycles (rounded to a whole number of periods), bounding the working
    set of the reduction.  Chunking changes the floating-point summation
    order, so correlations can differ from the unchunked fold at the
    ~1e-15 level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DetectionConfig

__all__ = [
    "BatchCPADetector",
    "BatchCPAResult",
    "batch_rotation_correlations",
    "fold_by_phase",
    "row_dot",
]


def row_dot(a: np.ndarray, b: np.ndarray) -> np.float64:
    """Dot product of two equal-length 1-D vectors, without BLAS.

    Every sum of squares and dot product on the CPA path goes through this
    one primitive.  The elementwise product is exact IEEE arithmetic and
    ``np.add.reduce`` sums a contiguous vector pairwise in a fixed order, so
    the result depends only on the two vectors: not on the BLAS build, its
    thread count or the CPU kernel it picks (a BLAS ``ddot`` splits long
    vectors by thread count and kernel), and not on the matrix a row was
    sliced from.  A 2-D ``axis=1`` reduction or ``einsum`` would round
    differently with the batch shape.
    """
    return np.add.reduce(a * b)


def fold_by_phase(
    trace_matrix: np.ndarray, period: int, chunk_cycles: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold every row of ``trace_matrix`` into per-phase sums.

    Returns ``(folded, counts)`` where ``folded[t, p]`` is the sum of row
    ``t`` over all cycles ``c`` with ``c % period == p`` and ``counts[p]``
    is the number of such cycles (identical for every row).

    The fold is the O(trials * cycles) part of batched CPA; everything after
    it operates on ``trials x period`` arrays.
    """
    matrix = np.asarray(trace_matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("trace matrix must be 2-D (trials x cycles)")
    if period < 2:
        raise ValueError("the watermark period must be at least two cycles")
    trials, num_cycles = matrix.shape
    if num_cycles < period:
        raise ValueError(
            "traces must cover at least one full watermark period "
            f"({num_cycles} < {period})"
        )
    if chunk_cycles is None:
        step = num_cycles
    else:
        if chunk_cycles <= 0:
            raise ValueError("chunk_cycles must be positive")
        # Align chunk boundaries to whole periods so every chunk starts at
        # phase zero and the partial fold stays a plain reshape.
        step = max(period, (int(chunk_cycles) // period) * period)

    folded = np.zeros((trials, period), dtype=np.float64)
    start = 0
    # repro-lint: allow[HOT001] O(num_cycles/chunk) chunk loop, not per-cycle; each pass is a vectorized reshape-fold
    while start < num_cycles:
        stop = min(num_cycles, start + step)
        chunk = matrix[:, start:stop]
        width = stop - start
        full_reps = width // period
        remainder = width - full_reps * period
        if full_reps:
            folded += chunk[:, : full_reps * period].reshape(
                trials, full_reps, period
            ).sum(axis=1)
        if remainder:
            folded[:, :remainder] += chunk[:, full_reps * period :]
        start = stop

    counts = np.full(period, num_cycles // period, dtype=np.float64)
    counts[: num_cycles % period] += 1.0
    return folded, counts


def _as_sequence_matrix(sequences: np.ndarray, trials: int) -> Tuple[np.ndarray, bool]:
    """Validate ``sequences`` and report whether it is shared across trials."""
    x = np.asarray(sequences, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("sequences must be a 1-D vector or a (trials x period) matrix")
    if x.shape[-1] < 2:
        raise ValueError("the watermark sequence must contain at least two cycles")
    if x.ndim == 2 and x.shape[0] != trials:
        raise ValueError(
            f"per-trial sequences need one row per trial ({x.shape[0]} != {trials})"
        )
    return x, x.ndim == 1


def batch_rotation_correlations(
    sequences: np.ndarray,
    trace_matrix: np.ndarray,
    method: str = "fft",
    chunk_cycles: Optional[int] = None,
) -> np.ndarray:
    """Rotation correlation spectra for a whole matrix of traces at once.

    Parameters
    ----------
    sequences:
        One period of the watermark model sequence, either a single 1-D
        vector shared by every trial or a ``trials x period`` matrix giving
        each trial its own sequence (same period).
    trace_matrix:
        ``trials x cycles`` matrix of measured per-cycle power vectors.  A
        1-D vector is treated as a batch of one.
    method:
        ``"fft"`` (default) computes all spectra with one stack of rFFTs;
        ``"naive"`` re-correlates literally per rotation and trial
        (validation / small problems only).
    chunk_cycles:
        Optional column-chunk size for the phase fold (memory knob).

    Returns
    -------
    ``trials x period`` matrix; row ``t`` equals
    ``rotation_correlations(sequence_t, trace_matrix[t])``.
    """
    matrix = np.atleast_2d(np.asarray(trace_matrix, dtype=np.float64))
    if matrix.ndim != 2:
        raise ValueError("trace matrix must be 2-D (trials x cycles)")
    trials, num_cycles = matrix.shape
    x, shared = _as_sequence_matrix(sequences, trials)
    period = x.shape[-1]
    if num_cycles < period:
        raise ValueError(
            "traces must cover at least one full watermark period "
            f"({num_cycles} < {period})"
        )
    if chunk_cycles is not None and chunk_cycles <= 0:
        raise ValueError("chunk_cycles must be positive")

    if method == "naive":
        from repro.detection.cpa import rotation_correlations

        rows = []
        # repro-lint: allow[HOT001] golden reference path: the naive per-trial method validates the FFT engine bit-for-bit
        for t in range(trials):
            seq_t = x if shared else x[t]
            rows.append(rotation_correlations(seq_t, matrix[t], method="naive"))
        return np.stack(rows)
    if method != "fft":
        raise ValueError(f"unknown correlation method {method!r}")

    folded, counts = fold_by_phase(matrix, period, chunk_cycles=chunk_cycles)
    # Per-row totals: folded already holds every cycle's contribution, so the
    # row sum falls out of the fold without another pass over the matrix.
    sum_y = folded.sum(axis=1)
    # Per-row sums of squares through row_dot: a batch of N rounds exactly
    # like N batches of one, on any BLAS build, thread count or CPU kernel.
    sum_yy = np.empty(trials, dtype=np.float64)
    # repro-lint: allow[HOT001] one row_dot per trial keeps rounding independent of batch size and host (see row_dot); O(trials), not per-cycle
    for t in range(trials):
        sum_yy[t] = row_dot(matrix[t], matrix[t])
    var_y = num_cycles * sum_yy - sum_y * sum_y

    # For rotation r the tiled model at cycle i is x[(i + r) mod period]:
    #   S_xy(t, r) = sum_p folded[t, p] * x[(p + r) mod period]
    #   S_x(r)     = sum_p counts[p]    * x[(p + r) mod period]
    #   S_xx(r)    = S_x(r) when x is 0/1 valued
    # -- circular cross-correlations, evaluated as one stack of rFFTs.
    fft_x = np.fft.rfft(x, axis=-1)
    fft_counts = np.fft.rfft(counts)
    s_xy = np.fft.irfft(np.conj(np.fft.rfft(folded, axis=-1)) * fft_x, n=period, axis=-1)
    s_x = np.fft.irfft(np.conj(fft_counts) * fft_x, n=period, axis=-1)
    if np.all(np.isin(np.unique(x), (0.0, 1.0))):
        s_xx = s_x
    else:
        s_xx = np.fft.irfft(
            np.conj(fft_counts) * np.fft.rfft(x * x, axis=-1), n=period, axis=-1
        )

    if shared:
        s_x = s_x[None, :]
        s_xx = s_xx[None, :]
    numerator = num_cycles * s_xy - s_x * sum_y[:, None]
    var_x = num_cycles * s_xx - s_x * s_x
    denominator = np.sqrt(np.clip(var_x, 0.0, None)) * np.sqrt(
        np.clip(var_y, 0.0, None)
    )[:, None]
    correlations = np.zeros((trials, period), dtype=np.float64)
    valid = denominator > 0
    np.divide(numerator, denominator, out=correlations, where=valid)
    return correlations


@dataclass
class BatchCPAResult:
    """Vectorized outcome of CPA detection over a matrix of trials.

    Every per-trial scalar of :class:`repro.detection.cpa.CPAResult` becomes
    an array indexed by trial; :meth:`result` recovers the scalar result of
    one trial, equal to what :meth:`CPADetector.detect` returns for that row.
    """

    correlations: np.ndarray
    peak_rotations: np.ndarray
    peak_correlations: np.ndarray
    noise_floor_stds: np.ndarray
    second_peak_correlations: np.ndarray
    z_scores: np.ndarray
    detected: np.ndarray
    threshold: float

    @property
    def num_trials(self) -> int:
        """Number of trials (rows) evaluated."""
        return self.correlations.shape[0]

    @property
    def num_rotations(self) -> int:
        """Number of evaluated rotations (the sequence period)."""
        return self.correlations.shape[1]

    @property
    def detection_count(self) -> int:
        """Number of trials in which the watermark was detected."""
        return int(np.count_nonzero(self.detected))

    @property
    def detection_rate(self) -> float:
        """Fraction of trials in which the watermark was detected."""
        if self.num_trials == 0:
            return 0.0
        return self.detection_count / self.num_trials

    def result(self, index: int):
        """The scalar :class:`CPAResult` of one trial."""
        from repro.detection.cpa import CPAResult

        return CPAResult(
            correlations=self.correlations[index],
            peak_rotation=int(self.peak_rotations[index]),
            peak_correlation=float(self.peak_correlations[index]),
            noise_floor_std=float(self.noise_floor_stds[index]),
            second_peak_correlation=float(self.second_peak_correlations[index]),
            z_score=float(self.z_scores[index]),
            detected=bool(self.detected[index]),
            threshold=self.threshold,
        )

    def __len__(self) -> int:
        return self.num_trials

    def __iter__(self) -> Iterator:
        # repro-lint: allow[HOT001] convenience iterator materializing scalar CPAResult views; not on the measured path
        for index in range(self.num_trials):
            yield self.result(index)

    @staticmethod
    def concatenate(results: Sequence["BatchCPAResult"]) -> "BatchCPAResult":
        """Stack several batch results (e.g. from chunked runs) into one."""
        if not results:
            raise ValueError("need at least one batch result to concatenate")
        thresholds = {r.threshold for r in results}
        if len(thresholds) != 1:
            raise ValueError("cannot concatenate results with different thresholds")
        return BatchCPAResult(
            correlations=np.concatenate([r.correlations for r in results]),
            peak_rotations=np.concatenate([r.peak_rotations for r in results]),
            peak_correlations=np.concatenate([r.peak_correlations for r in results]),
            noise_floor_stds=np.concatenate([r.noise_floor_stds for r in results]),
            second_peak_correlations=np.concatenate(
                [r.second_peak_correlations for r in results]
            ),
            z_scores=np.concatenate([r.z_scores for r in results]),
            detected=np.concatenate([r.detected for r in results]),
            threshold=results[0].threshold,
        )

    def summary(self) -> str:
        """One-line human-readable summary of the batch."""
        finite = self.z_scores[np.isfinite(self.z_scores)]
        if len(finite):
            z_text = f"mean finite z={float(finite.mean()):.1f}"
        else:
            z_text = "all z=inf (zero noise floor)"
        return (
            f"{self.detection_count}/{self.num_trials} trials detected "
            f"(rate {self.detection_rate:.2f}), mean peak rho="
            f"{float(self.peak_correlations.mean()):.4f}, {z_text}"
        )


class BatchCPADetector:
    """Vectorized CPA detector over a matrix of measured traces.

    Applies the same detection rule as :class:`repro.detection.cpa.CPADetector`
    (peak exceeding the off-peak noise floor by ``threshold`` standard
    deviations, second peak below the uniqueness margin, positive peak) to
    every row of a ``trials x cycles`` trace matrix at once.
    """

    def __init__(self, config: Optional[DetectionConfig] = None) -> None:
        self.config = config or DetectionConfig()

    def detect_many(
        self,
        sequences: np.ndarray,
        trace_matrix: np.ndarray,
        chunk_cycles: Optional[int] = None,
        max_trials_per_chunk: Optional[int] = None,
    ) -> BatchCPAResult:
        """Run CPA on every trace row and apply the detection decision.

        ``max_trials_per_chunk`` bounds how many rows are processed at once
        (rows are independent, so chunking does not change any result);
        ``chunk_cycles`` bounds the column working set of the phase fold.
        """
        matrix = np.atleast_2d(np.asarray(trace_matrix, dtype=np.float64))
        trials = matrix.shape[0]
        if trials == 0:
            raise ValueError("the trace matrix must contain at least one trial")
        x, shared = _as_sequence_matrix(sequences, trials)
        method = "fft" if self.config.use_fft else "naive"
        if max_trials_per_chunk is not None and max_trials_per_chunk <= 0:
            raise ValueError("max_trials_per_chunk must be positive")
        step = trials if max_trials_per_chunk is None else int(max_trials_per_chunk)
        step = max(1, step)

        chunks: List[BatchCPAResult] = []
        # repro-lint: allow[HOT001] O(trials/chunk) memory-bounding chunk loop; the work inside is the batched engine
        for start in range(0, trials, step):
            stop = min(trials, start + step)
            seq_chunk = x if shared else x[start:stop]
            correlations = batch_rotation_correlations(
                seq_chunk, matrix[start:stop], method=method, chunk_cycles=chunk_cycles
            )
            chunks.append(self.evaluate_many(correlations))
        if len(chunks) == 1:
            return chunks[0]
        return BatchCPAResult.concatenate(chunks)

    def evaluate_many(self, correlations: np.ndarray) -> BatchCPAResult:
        """Apply the detection decision to precomputed correlation spectra.

        ``correlations`` is a ``trials x period`` matrix (a 1-D vector is
        treated as a batch of one).
        """
        spectra = np.atleast_2d(np.asarray(correlations, dtype=np.float64))
        if spectra.ndim != 2:
            raise ValueError("correlations must be at most 2-D")
        trials, period = spectra.shape
        if trials == 0:
            raise ValueError("the correlation matrix must contain at least one trial")
        if period < 3:
            raise ValueError("need at least three rotations to evaluate detection")

        magnitudes = np.abs(spectra)
        peak_rotations = magnitudes.argmax(axis=1)
        rows = np.arange(trials)
        peak_values = spectra[rows, peak_rotations]

        off_peak_mask = np.ones((trials, period), dtype=bool)
        off_peak_mask[rows, peak_rotations] = False
        off_peak = spectra[off_peak_mask].reshape(trials, period - 1)
        noise_stds = off_peak.std(axis=1)
        noise_means = off_peak.mean(axis=1)
        second_peaks = off_peak[rows, np.abs(off_peak).argmax(axis=1)]

        abs_peaks = np.abs(peak_values)
        with np.errstate(divide="ignore", invalid="ignore"):
            z_scores = (abs_peaks - np.abs(noise_means)) / noise_stds
        z_scores = np.where(
            noise_stds == 0.0,
            np.where(abs_peaks > 0, np.inf, 0.0),
            z_scores,
        )
        unique = (abs_peaks > 0) & (
            np.abs(second_peaks) <= self.config.uniqueness_margin * abs_peaks
        )
        threshold = self.config.detection_threshold
        detected = (z_scores >= threshold) & unique & (peak_values > 0)
        return BatchCPAResult(
            correlations=spectra,
            peak_rotations=peak_rotations.astype(np.int64),
            peak_correlations=peak_values,
            noise_floor_stds=noise_stds,
            second_peak_correlations=second_peaks,
            z_scores=z_scores,
            detected=detected,
            threshold=threshold,
        )
