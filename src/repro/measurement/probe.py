"""Active differential probe model.

The Agilent 1130A used in the paper is a 1.5 GHz active differential probe;
what matters for the reproduction is its finite bandwidth relative to the
oscilloscope channel and its additive input-referred noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.measurement.noise import gaussian_noise


@dataclass(frozen=True)
class DifferentialProbe:
    """An active differential voltage probe.

    Attributes
    ----------
    gain:
        Voltage gain (attenuation ratios are expressed as gains < 1).
    bandwidth_hz:
        -3 dB bandwidth of the probe/front-end combination.
    noise_rms_v:
        Input-referred RMS voltage noise per sample.
    """

    gain: float = 1.0
    bandwidth_hz: float = 120e6
    noise_rms_v: float = 2.0e-3

    def __post_init__(self) -> None:
        if self.gain <= 0:
            raise ValueError("probe gain must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("probe bandwidth must be positive")
        if self.noise_rms_v < 0:
            raise ValueError("probe noise must be non-negative")

    def apply(
        self,
        voltage_v: np.ndarray,
        sampling_frequency_hz: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Band-limit, scale and add noise to a sampled voltage waveform."""
        if sampling_frequency_hz <= 0:
            raise ValueError("sampling frequency must be positive")
        samples = np.asarray(voltage_v, dtype=np.float64) * self.gain
        nyquist = sampling_frequency_hz / 2.0
        if self.bandwidth_hz < nyquist and len(samples) > 12:
            # Only the opt-in detailed acquisition path filters, so SciPy
            # (about 1.4 s to import) is loaded on first use, not with repro.
            from scipy import signal

            normalized_cutoff = self.bandwidth_hz / nyquist
            b, a = signal.butter(2, normalized_cutoff, btype="low")
            samples = signal.lfilter(b, a, samples)
        if rng is not None and self.noise_rms_v > 0:
            samples = samples + gaussian_noise(rng, self.noise_rms_v * self.gain, len(samples))
        return samples
