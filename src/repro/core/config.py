"""Configuration dataclasses shared by experiments, benches and examples."""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional

#: Acquisition length used by ``--quick`` runs (CLI and registry presets).
QUICK_CYCLES = 60_000
#: Repetition count used by ``--quick`` runs of the Fig. 6 campaign.
QUICK_REPETITIONS = 20
#: Reduced transient-noise knobs of the quick preset: shorter acquisitions
#: need a cleaner bench to keep the correlation peak resolvable.
QUICK_TRANSIENT_NOISE_FLOOR_W = 0.020
QUICK_TRANSIENT_NOISE_FRACTION = 0.4


def _config_to_dict(config: Any) -> Dict[str, Any]:
    """Serialize a configuration dataclass into a JSON-able dict."""
    payload = asdict(config)
    for key, value in payload.items():
        if isinstance(value, enum.Enum):
            payload[key] = value.value
    return payload


def _config_from_dict(cls: type, payload: Dict[str, Any]) -> Any:
    """Rebuild a configuration dataclass from :func:`_config_to_dict` output."""
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    kwargs = dict(payload)
    if "architecture" in kwargs and not isinstance(kwargs["architecture"], ArchitectureKind):
        kwargs["architecture"] = ArchitectureKind(kwargs["architecture"])
    return cls(**kwargs)


class ArchitectureKind(enum.Enum):
    """Which watermark architecture is instantiated."""

    BASELINE_LOAD_CIRCUIT = "baseline"
    CLOCK_MODULATION = "clock_modulation"


@dataclass(frozen=True)
class WatermarkConfig:
    """Parameters of the watermark circuit.

    Defaults reproduce the paper's test-chip configuration: a 12-bit
    maximum-length LFSR modulating a 1,024-register clock-gated bank
    (32 words x 32 bits), with all registers pre-initialised to zero so no
    data switching occurs.
    """

    architecture: ArchitectureKind = ArchitectureKind.CLOCK_MODULATION
    lfsr_width: int = 12
    lfsr_seed: int = 0x5A5 & 0xFFF
    num_words: int = 32
    word_width: int = 32
    switching_registers: int = 0
    load_registers: int = 576
    use_test_chip_wgc: bool = True

    def __post_init__(self) -> None:
        if self.lfsr_width < 2:
            raise ValueError("LFSR width must be at least 2")
        if self.lfsr_seed == 0:
            raise ValueError("LFSR seed must be non-zero")
        if self.num_words <= 0 or self.word_width <= 0:
            raise ValueError("bank dimensions must be positive")
        if self.switching_registers < 0:
            raise ValueError("switching register count must be non-negative")
        if self.switching_registers > self.num_words * self.word_width:
            raise ValueError("more switching registers than registers in the bank")
        if self.load_registers <= 0:
            raise ValueError("load circuit register count must be positive")

    @property
    def sequence_period(self) -> int:
        """Period of the watermark sequence."""
        return (1 << self.lfsr_width) - 1

    @property
    def bank_registers(self) -> int:
        """Total register count of the clock-modulated bank."""
        return self.num_words * self.word_width

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation (the architecture enum becomes its value)."""
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WatermarkConfig":
        """Rebuild from :meth:`to_dict` output."""
        return _config_from_dict(cls, payload)


@dataclass(frozen=True)
class MeasurementConfig:
    """Parameters of the measurement chain (Section IV of the paper).

    The bench is an Agilent MSO6032A oscilloscope with a 1130A differential
    probe across a 270 mOhm shunt, sampling at 500 MS/s while the chips run
    at 10 MHz; 50 samples are averaged into each per-cycle power value and
    300,000 cycles form one correlation vector.

    Two noise knobs dominate the resulting correlation amplitude:

    ``probe_noise_rms_v``
        Per-sample voltage noise of the probe/front-end.
    ``transient_noise_floor_w`` / ``transient_noise_fraction``
        Residual per-cycle noise equivalent (in watts) of the unsettled
        switching transients that the 50-sample average does not remove.
        The effective per-cycle sigma is
        ``floor + fraction * mean_chip_power`` -- the fraction term models
        the oscilloscope's vertical range being scaled up for a chip that
        draws more current.  These defaults are calibrated so that the
        silicon-measured correlation peaks of Fig. 5 (about 0.015-0.02 on
        chip I and about 0.01-0.015 on chip II) are reproduced; see
        EXPERIMENTS.md.
    """

    clock_frequency_hz: float = 10e6
    sampling_frequency_hz: float = 500e6
    num_cycles: int = 300_000
    supply_voltage_v: float = 1.2
    shunt_resistance_ohm: float = 0.270
    probe_noise_rms_v: float = 2.0e-3
    probe_bandwidth_hz: float = 120e6
    adc_bits: int = 8
    transient_noise_floor_w: float = 0.040
    transient_noise_fraction: float = 0.75
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.clock_frequency_hz <= 0 or self.sampling_frequency_hz <= 0:
            raise ValueError("frequencies must be positive")
        if self.sampling_frequency_hz < self.clock_frequency_hz:
            raise ValueError("the oscilloscope must sample faster than the system clock")
        if self.num_cycles <= 0:
            raise ValueError("number of cycles must be positive")
        if self.supply_voltage_v <= 0:
            raise ValueError("supply voltage must be positive")
        if self.shunt_resistance_ohm <= 0:
            raise ValueError("shunt resistance must be positive")
        if self.probe_noise_rms_v < 0 or self.transient_noise_floor_w < 0:
            raise ValueError("noise levels must be non-negative")
        if self.transient_noise_fraction < 0:
            raise ValueError("the range-proportional noise fraction must be non-negative")
        if self.adc_bits < 4:
            raise ValueError("ADC resolution below 4 bits is not supported")

    @property
    def samples_per_cycle(self) -> int:
        """Oscilloscope samples averaged into one per-cycle power value."""
        return int(round(self.sampling_frequency_hz / self.clock_frequency_hz))

    @classmethod
    def quick(cls, num_cycles: Optional[int] = None) -> "MeasurementConfig":
        """The ``--quick`` preset: short acquisition, reduced transient noise.

        Shared by the CLI and the scenario registry so a quick run means the
        same bench everywhere.
        """
        return cls(
            num_cycles=QUICK_CYCLES if num_cycles is None else num_cycles,
            transient_noise_floor_w=QUICK_TRANSIENT_NOISE_FLOOR_W,
            transient_noise_fraction=QUICK_TRANSIENT_NOISE_FRACTION,
        )

    @classmethod
    def full(cls, num_cycles: Optional[int] = None) -> "MeasurementConfig":
        """The paper-scale preset, optionally with an overridden length."""
        if num_cycles is None:
            return cls()
        return cls(num_cycles=num_cycles)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation."""
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MeasurementConfig":
        """Rebuild from :meth:`to_dict` output."""
        return _config_from_dict(cls, payload)


@dataclass(frozen=True)
class DetectionConfig:
    """Parameters of the CPA detector.

    ``detection_threshold`` is the minimum z-score (peak correlation in
    units of the off-peak standard deviation) for significance;
    ``uniqueness_margin`` enforces the paper's "single resolvable peak"
    requirement: the second-largest |correlation| must stay below this
    fraction of the peak.
    """

    detection_threshold: float = 4.0
    uniqueness_margin: float = 0.95
    use_fft: bool = True

    def __post_init__(self) -> None:
        if self.detection_threshold <= 0:
            raise ValueError("detection threshold must be positive")
        if not 0.0 < self.uniqueness_margin <= 1.0:
            raise ValueError("uniqueness margin must be in (0, 1]")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able representation."""
        return _config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "DetectionConfig":
        """Rebuild from :meth:`to_dict` output."""
        return _config_from_dict(cls, payload)


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of all configuration needed by an experiment driver."""

    watermark: WatermarkConfig = field(default_factory=WatermarkConfig)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    @classmethod
    def paper_defaults(cls) -> "ExperimentConfig":
        """The configuration matching the paper's silicon experiments."""
        return cls()

    @classmethod
    def fast(cls, num_cycles: int = 40_000) -> "ExperimentConfig":
        """A reduced-length configuration for quick tests and CI runs."""
        return cls(measurement=MeasurementConfig(num_cycles=num_cycles))

    @classmethod
    def quick(cls, num_cycles: Optional[int] = None) -> "ExperimentConfig":
        """The CLI's ``--quick`` bundle (see :meth:`MeasurementConfig.quick`)."""
        return cls(measurement=MeasurementConfig.quick(num_cycles))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able nested representation."""
        return {
            "watermark": self.watermark.to_dict(),
            "measurement": self.measurement.to_dict(),
            "detection": self.detection.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentConfig":
        """Rebuild from :meth:`to_dict` output."""
        unknown = set(payload) - {"watermark", "measurement", "detection"}
        if unknown:
            raise ValueError(f"unknown ExperimentConfig fields: {sorted(unknown)}")
        return cls(
            watermark=WatermarkConfig.from_dict(payload.get("watermark", {})),
            measurement=MeasurementConfig.from_dict(payload.get("measurement", {})),
            detection=DetectionConfig.from_dict(payload.get("detection", {})),
        )
