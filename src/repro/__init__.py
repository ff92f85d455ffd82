"""Reproduction of "Clock-Modulation Based Watermark for Protection of
Embedded Processors" (Kufel, Wilson, Hill, Al-Hashimi, Whatmough, Myers --
DATE 2014, DOI 10.7873/DATE.2014.053).

The package is organised as follows:

``repro.core``
    The paper's contribution: watermark sequence generators (LFSR /
    circular shift register), the watermark generation circuit, the
    baseline load-circuit watermark, the proposed clock-modulation
    watermark, and the embedding API.
``repro.rtl``
    RTL substrate: registers, integrated clock gates, clock trees,
    hierarchical modules, netlists and a cycle-level activity simulator.
``repro.power``
    Power modelling calibrated to the paper's 65 nm figures.
``repro.soc``
    Embedded-processor substrate: Thumb-like ISA, assembler, Cortex-M0-class
    core, bus, SRAM, caches, background-noise models, chip I/II assemblies.
``repro.measurement``
    Shunt / probe / oscilloscope measurement chain.
``repro.detection``
    Correlation Power Analysis detection, spread spectra and statistics.
``repro.analysis``
    Area, overhead and removal-attack robustness analysis; the
    ``repro-lint`` static-analysis engine.
``repro.pipeline``
    The declarative scenario layer and the one way to run every paper
    table/figure (Fig. 2, 3, 5, 6; Tables I, II; Section VI robustness):
    frozen, serializable :class:`repro.core.spec.ScenarioSpec`, the
    pipeline runner (``ExperimentRunner.run`` / ``run_many``), the
    per-figure result types, typed result artifacts, the result store and
    the named-experiment registry behind ``python -m repro run``.
``repro.service``
    Detection-as-a-service: HTTP server, signed transcripts, ledger.
``repro.experiments``
    The paper's published reference values (``paper_expectations``).

Quickstart
----------
>>> from repro.pipeline import run_scenario
>>> result = run_scenario("table2")
>>> round(result.scalars["headline_reduction"], 2)
0.98
>>> round(result.payload.headline_reduction, 2)
0.98
"""

from repro.core import (
    LFSR,
    BaselineWatermark,
    ClockModulationWatermark,
    WatermarkConfig,
    MeasurementConfig,
    DetectionConfig,
    ExperimentConfig,
    WatermarkGenerationCircuit,
)
from repro.detection import BatchCPADetector, CPADetector, SpreadSpectrum
from repro.measurement import AcquisitionCampaign
from repro.power import PowerEstimator
from repro.soc import build_chip_one, build_chip_two
from repro.pipeline import (
    DEFAULT_REGISTRY,
    ExperimentRunner,
    ScenarioResult,
    ScenarioSpec,
    SweepResult,
    run_scenario,
)

__version__ = "1.1.0"

__all__ = [
    "LFSR",
    "BaselineWatermark",
    "ClockModulationWatermark",
    "WatermarkConfig",
    "MeasurementConfig",
    "DetectionConfig",
    "ExperimentConfig",
    "WatermarkGenerationCircuit",
    "CPADetector",
    "BatchCPADetector",
    "SpreadSpectrum",
    "AcquisitionCampaign",
    "PowerEstimator",
    "build_chip_one",
    "build_chip_two",
    "DEFAULT_REGISTRY",
    "ExperimentRunner",
    "ScenarioResult",
    "ScenarioSpec",
    "SweepResult",
    "run_scenario",
    "__version__",
]
