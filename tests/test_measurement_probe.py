"""Unit tests for repro.measurement.probe."""

import numpy as np
import pytest

from repro.measurement.probe import DifferentialProbe


class TestDifferentialProbe:
    def test_gain_applied(self):
        probe = DifferentialProbe(gain=2.0, noise_rms_v=0.0, bandwidth_hz=1e12)
        out = probe.apply(np.ones(16), sampling_frequency_hz=500e6)
        assert np.allclose(out, 2.0)

    def test_noise_added_when_rng_given(self):
        probe = DifferentialProbe(noise_rms_v=1e-3, bandwidth_hz=1e12)
        rng = np.random.default_rng(0)
        out = probe.apply(np.zeros(4096), sampling_frequency_hz=500e6, rng=rng)
        assert out.std() == pytest.approx(1e-3, rel=0.1)

    def test_no_noise_without_rng(self):
        probe = DifferentialProbe(noise_rms_v=1e-3, bandwidth_hz=1e12)
        out = probe.apply(np.zeros(64), sampling_frequency_hz=500e6)
        assert np.all(out == 0)

    def test_band_limiting_attenuates_fast_signal(self):
        probe = DifferentialProbe(bandwidth_hz=10e6, noise_rms_v=0.0)
        fs = 500e6
        t = np.arange(4096) / fs
        fast = np.sin(2 * np.pi * 200e6 * t)
        out = probe.apply(fast, sampling_frequency_hz=fs)
        assert np.std(out[500:]) < 0.2 * np.std(fast)

    def test_band_limiting_preserves_slow_signal(self):
        probe = DifferentialProbe(bandwidth_hz=120e6, noise_rms_v=0.0)
        fs = 500e6
        t = np.arange(4096) / fs
        slow = np.sin(2 * np.pi * 1e6 * t)
        out = probe.apply(slow, sampling_frequency_hz=fs)
        assert np.std(out[500:]) > 0.9 * np.std(slow)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DifferentialProbe(gain=0.0)
        with pytest.raises(ValueError):
            DifferentialProbe(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            DifferentialProbe(noise_rms_v=-1.0)
        with pytest.raises(ValueError):
            DifferentialProbe().apply(np.zeros(4), sampling_frequency_hz=0.0)

