"""Vectorized trace synthesis: watermarked power traces as array operations.

The cycle-accurate reference -- the blocks' ``step()`` methods -- steps
every block once per clock cycle in Python, which makes trace *generation*
the dominant cost of 100k--300k-cycle acquisitions now that detection is
batched (:mod:`repro.detection.batch`).  The watermark circuits are strictly
periodic, so their per-cycle behaviour is fully characterised by one period
of cycle-accurate stepping; everything past that period is pure indexing.

This module is the generation-side counterpart of the batched detector.
It stacks three layers:

1. **Closed-form sequences** -- :func:`repro.core.lfsr.galois_sequence_bits`
   produces watermark sequences without a per-bit Python loop (cached per
   generator configuration).
2. **Periodic templates** -- :class:`PeriodicPowerTemplate` holds one period
   of a per-cycle power trace and extends it to arbitrary acquisition
   lengths (including trigger-phase rotations) with a modular-index gather.
3. **Batch trial synthesis** -- :class:`TraceSynthesizer` emits whole
   ``trials x cycles`` matrices of the statistical measurement model
   ``Y = base + a * X(rotated) + N(0, sigma)`` that feed straight into
   :meth:`repro.detection.batch.BatchCPADetector.detect_many`.

The per-cycle ``step()`` methods stay as the golden reference: every fast
path here is bit-identical to stepping cycle by cycle (pinned by the
equivalence suite in ``tests/test_power_synthesis.py``), so experiments keep
their numbers while the generation side runs orders of magnitude faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.power.trace import PowerTrace
from repro.rtl.signals import Clock


def periodic_extend(
    template: np.ndarray, num_cycles: int, phase_offset: int = 0
) -> np.ndarray:
    """Extend one period of values to ``num_cycles`` with an optional rotation.

    Bit-identical to
    ``np.roll(np.tile(template, reps)[:num_cycles], -phase_offset)``
    (the tile-then-roll idiom of the measurement chain: the acquisition is
    truncated to ``num_cycles`` first, then rotated, so the wraparound
    splices the truncated tail to the front) without materialising the
    tiled array or the roll copy.
    """
    template = np.asarray(template)
    period = len(template)
    if period == 0:
        raise ValueError("cannot extend an empty template")
    if num_cycles <= 0:
        raise ValueError("num_cycles must be positive")
    index = np.arange(num_cycles, dtype=np.int64)
    if phase_offset:
        index += int(phase_offset)
        index %= num_cycles
    index %= period
    return template[index]


def _periodic_windows(template: np.ndarray, num_cycles: int) -> np.ndarray:
    """All ``period`` phase-shifted windows of a periodic template, as a view.

    The template is tiled once to ``num_cycles + period - 1`` values;
    ``result[offset]`` is the length-``num_cycles`` window starting at that
    phase offset, without copying until a window is actually gathered.
    """
    template = np.asarray(template)
    if template.ndim != 1 or len(template) == 0:
        raise ValueError("the periodic template must be a non-empty 1-D array")
    period = len(template)
    span = num_cycles + period - 1
    tiled = np.tile(template, -(-span // period))[:span]
    return sliding_window_view(tiled, num_cycles)


def gather_periodic_rows(
    template: np.ndarray,
    offsets: np.ndarray,
    num_cycles: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gather ``rows[r, i] = template[(offsets[r] + i) % period]`` batched.

    One strided-window gather replaces a Python slice per trial: every row
    is a window of the tiled template buffer selected by its phase offset.
    """
    windows = _periodic_windows(template, num_cycles)
    offsets = np.asarray(offsets, dtype=np.int64) % len(np.asarray(template))
    if out is None:
        return windows[offsets]
    np.take(windows, offsets, axis=0, out=out)
    return out


@dataclass
class PeriodicPowerTemplate:
    """One period of a strictly periodic per-cycle power trace.

    The watermark circuits repeat exactly with the sequence period, so a
    single cycle-accurate pass over one period fully characterises their
    power; acquisitions of any length are then produced by modular-index
    extension instead of further simulation.
    """

    name: str
    clock: Clock
    power_w: np.ndarray
    voltage_v: float = 1.2

    def __post_init__(self) -> None:
        # Copy (np.array, not np.asarray) so freezing never flips the
        # writeable flag on a caller's aliased array, then serve the one
        # period read-only: templates are shared across every synthesized
        # acquisition and a silent in-place edit would corrupt all of them.
        self.power_w = np.array(self.power_w, dtype=np.float64)
        self.power_w.flags.writeable = False
        if self.power_w.ndim != 1 or len(self.power_w) == 0:
            raise ValueError("a periodic template must be a non-empty 1-D array")
        if self.voltage_v <= 0:
            raise ValueError("supply voltage must be positive")

    @classmethod
    def from_power_trace(cls, trace: PowerTrace) -> "PeriodicPowerTemplate":
        """Wrap a one-period power trace as a template."""
        return cls(
            name=trace.name,
            clock=trace.clock,
            power_w=trace.power_w,
            voltage_v=trace.voltage_v,
        )

    @property
    def period(self) -> int:
        """Template length in cycles."""
        return len(self.power_w)

    def extend(self, num_cycles: int, phase_offset: int = 0) -> PowerTrace:
        """The template tiled to ``num_cycles`` and rotated by ``phase_offset``.

        ``phase_offset`` models the oscilloscope trigger not being aligned
        with the watermark phase; the semantics match
        ``np.roll(tiled, -phase_offset)`` on the truncated acquisition.
        """
        return PowerTrace(
            name=self.name,
            clock=self.clock,
            power_w=periodic_extend(self.power_w, num_cycles, phase_offset),
            voltage_v=self.voltage_v,
        )


def _per_row(
    values: Union[None, float, Sequence[float], np.ndarray],
    default: float,
    trials: int,
    label: str,
) -> np.ndarray:
    """Broadcast a scalar-or-sequence parameter to one value per trial row."""
    if values is None:
        values = default
    array = np.asarray(values, dtype=np.float64)
    if array.ndim == 0:
        return np.full(trials, float(array))
    if array.shape != (trials,):
        raise ValueError(f"{label} must be a scalar or one value per trial row")
    return array


class TraceSynthesizer:
    """Synthesizes watermarked traces and whole trial matrices vectorised.

    Two construction paths cover the pipeline's generation needs:

    * :meth:`from_sequence` -- the statistical measurement model used by
      the detection-probability campaign and the masking sweeps:
      ``Y = base + amplitude * X(rotated) + N(0, sigma)``.
    * :meth:`for_watermark` -- the physical model: one cycle-accurate
      period of a watermark architecture turned into a power template.

    Trial matrices go straight into
    :meth:`repro.detection.batch.BatchCPADetector.detect_many`.
    """

    def __init__(
        self,
        sequence: np.ndarray,
        watermark_amplitude_w: float = 1.0,
        noise_sigma_w: float = 0.0,
        base_power_w: float = 0.0,
        template: Optional[PeriodicPowerTemplate] = None,
    ) -> None:
        self.sequence = np.asarray(sequence, dtype=np.float64)
        if self.sequence.ndim != 1 or len(self.sequence) == 0:
            raise ValueError("the watermark sequence must be a non-empty 1-D array")
        if watermark_amplitude_w < 0 or noise_sigma_w < 0:
            raise ValueError("amplitude and noise must be non-negative")
        self.watermark_amplitude_w = float(watermark_amplitude_w)
        self.noise_sigma_w = float(noise_sigma_w)
        self.base_power_w = float(base_power_w)
        self.template = template

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sequence(
        cls,
        sequence: np.ndarray,
        watermark_amplitude_w: float,
        noise_sigma_w: float,
        base_power_w: float = 5e-3,
    ) -> "TraceSynthesizer":
        """Synthesizer for the statistical measurement model."""
        return cls(
            sequence,
            watermark_amplitude_w=watermark_amplitude_w,
            noise_sigma_w=noise_sigma_w,
            base_power_w=base_power_w,
        )

    @classmethod
    def for_watermark(
        cls, architecture, estimator, include_leakage: bool = True
    ) -> "TraceSynthesizer":
        """Synthesizer built from a watermark architecture's periodic template.

        Runs the cycle-accurate step loop once per period (cached on the
        architecture) and keeps the resulting per-cycle power as the
        template; ``architecture`` is any object exposing the
        :class:`repro.core.architectures.WatermarkArchitecture` interface.
        """
        template = architecture.power_template(estimator, include_leakage)
        return cls(architecture.sequence(), template=template)

    # -- synthesis ----------------------------------------------------------

    @property
    def period(self) -> int:
        """Period of the watermark sequence."""
        return len(self.sequence)

    def synthesize_power(self, num_cycles: int, phase_offset: int = 0) -> PowerTrace:
        """Watermark power trace over ``num_cycles`` from the periodic template."""
        if self.template is None:
            raise ValueError(
                "this synthesizer has no power template; build it with "
                "TraceSynthesizer.for_watermark"
            )
        return self.template.extend(num_cycles, phase_offset)

    def synthesize_trials(
        self,
        trials: int,
        num_cycles: int,
        rng: np.random.Generator,
        noise_sigmas: Union[None, float, Sequence[float]] = None,
        enable_duties: Union[None, float, Sequence[float]] = None,
        amplitudes: Union[None, float, Sequence[float]] = None,
    ) -> np.ndarray:
        """Emit a ``trials x num_cycles`` float64 matrix of the measurement model.

        Each trial draws a uniform phase offset, optionally a starvation
        gate (``enable_duties`` below 1 model the host clock-gate control
        being low part of the time) and its Gaussian noise row -- in
        exactly the order a per-trial loop would draw them, so a given seed
        stream produces the same matrix as the pre-vectorised drivers.

        The watermark rows themselves are strided windows of one
        pre-scaled periodic buffer added in place (no per-trial slice
        copies, no intermediate trials-by-cycles signal matrix).
        """
        if trials <= 0:
            raise ValueError("trials must be positive")
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        period = self.period
        sigmas = _per_row(noise_sigmas, self.noise_sigma_w, trials, "noise_sigmas")
        amps = _per_row(amplitudes, self.watermark_amplitude_w, trials, "amplitudes")
        duties = (
            None
            if enable_duties is None
            else _per_row(enable_duties, 1.0, trials, "enable_duties")
        )
        out = np.empty((trials, num_cycles))
        offsets = np.empty(trials, dtype=np.int64)
        gates: dict = {}
        # repro-lint: allow[HOT001] golden reference path: replays the pre-batching per-trial draw order bit-for-bit
        for row in range(trials):
            offsets[row] = rng.integers(0, period)
            if duties is not None and duties[row] < 1.0:
                gates[row] = rng.random(num_cycles) < duties[row]
            out[row] = rng.normal(0.0, sigmas[row], num_cycles)

        # Rows without a starvation gate add a window of one pre-scaled
        # template (base + amplitude * X) straight into their noise row;
        # scaling the period-long template once is bit-identical to scaling
        # every gathered element.  Gated or per-row-amplitude rows need the
        # raw sequence because the gate applies before the amplitude.
        uniform_amplitude = bool(np.all(amps == amps[0]))
        scaled_windows: Optional[np.ndarray] = None
        if uniform_amplitude:
            scaled_windows = _periodic_windows(
                self.base_power_w + self.sequence * amps[0], num_cycles
            )
        raw_windows: Optional[np.ndarray] = None
        # repro-lint: allow[HOT001] O(trials) window-gather adding one period-indexed row at a time; inner work is vectorized
        for row in range(trials):
            gate = gates.get(row)
            if gate is None and scaled_windows is not None:
                out[row] += scaled_windows[offsets[row]]
                continue
            if raw_windows is None:
                raw_windows = _periodic_windows(self.sequence, num_cycles)
            watermark = raw_windows[offsets[row]].copy()
            if gate is not None:
                watermark *= gate
            watermark *= amps[row]
            watermark += self.base_power_w
            out[row] += watermark
        return out

    def detect_trials(
        self,
        detector,
        trials: int,
        num_cycles: int,
        rng: np.random.Generator,
        chunk_cycles: Optional[int] = None,
        **trial_kwargs,
    ):
        """Synthesize a trial matrix and run it through a batched detector.

        ``detector`` is a :class:`repro.detection.batch.BatchCPADetector`
        (duck-typed to keep this package free of detection imports);
        returns its :class:`BatchCPAResult`.
        """
        matrix = self.synthesize_trials(trials, num_cycles, rng, **trial_kwargs)
        return detector.detect_many(self.sequence, matrix, chunk_cycles=chunk_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceSynthesizer(period={self.period}, "
            f"template={'yes' if self.template is not None else 'no'})"
        )
