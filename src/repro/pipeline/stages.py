"""Stage graphs: how a :class:`ScenarioSpec` kind becomes executable stages.

Each scenario kind maps to an ordered list of named stages (chip →
acquisition → synthesis → detection, or a subset).  A stage is a plain
function mutating a :class:`StageContext`; the final stage populates the
context's ``payload`` (a result object from :mod:`repro.pipeline.results`
for the paper's figures and tables), ``report`` (its text rendering), plus
the typed ``scalars``/``arrays`` that end up in the
:class:`repro.pipeline.artifacts.ScenarioResult`.

Reports and arrays at fixed seeds are pinned bit-identical to the original
per-figure drivers by ``tests/test_pipeline_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.analysis.attacks import RemovalAttack
from repro.analysis.overhead import (
    TABLE_II_LOAD_POWERS_W,
    WGC_REGISTERS,
    load_circuit_overhead_table,
)
from repro.analysis.robustness import assess_robustness
from repro.core.architectures import (
    BaselineWatermark,
    ClockModulationWatermark,
    build_watermark,
)
from repro.core.clock_modulation import ClockModulatedIPBlock
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.core.load_circuit import LoadCircuit
from repro.core.spec import ScenarioSpec
from repro.core.wgc import WatermarkGenerationCircuit
from repro.detection.campaign import run_detection_probability_campaign
from repro.detection.cpa import CPADetector
from repro.detection.batch import BatchCPADetector
from repro.detection.spread_spectrum import SpreadSpectrum
from repro.detection.statistics import RepetitionStatistics
from repro.measurement.acquisition import AcquisitionCampaign
from repro.pipeline.results import (
    Fig2Result,
    Fig3Result,
    Fig5Panel,
    Fig5Result,
    Fig6ChipResult,
    Fig6Result,
    RobustnessResult,
    Table1Result,
    Table1Row,
    Table2Result,
    panel_key,
)
from repro.power.estimator import PowerEstimator
from repro.power.trace import PowerTrace
from repro.soc.structure import build_soc_structure, clock_gate_paths


@dataclass
class StageContext:
    """Mutable state threaded through one scenario's stages."""

    spec: ScenarioSpec
    runner: Any
    data: Dict[str, Any] = field(default_factory=dict)

    def finish(
        self,
        payload: Any,
        report: str,
        scalars: Dict[str, Any],
        arrays: Dict[str, np.ndarray],
    ) -> None:
        """Record the scenario's outputs (called by the final stage)."""
        self.data["payload"] = payload
        self.data["report"] = report
        self.data["scalars"] = scalars
        self.data["arrays"] = arrays


@dataclass(frozen=True)
class PipelineStage:
    """One named step of a resolved pipeline."""

    name: str
    run: Callable[[StageContext], None]


StageBuilder = Callable[[ScenarioSpec], List[PipelineStage]]

_STAGE_BUILDERS: Dict[str, StageBuilder] = {}


def stage_builder(kind: str) -> Callable[[StageBuilder], StageBuilder]:
    """Register the stage builder for one scenario kind."""

    def decorate(builder: StageBuilder) -> StageBuilder:
        _STAGE_BUILDERS[kind] = builder
        return builder

    return decorate


def stages_for(spec: ScenarioSpec) -> List[PipelineStage]:
    """Resolve a spec into its ordered stages."""
    try:
        builder = _STAGE_BUILDERS[spec.kind]
    except KeyError:
        raise ValueError(f"no pipeline stages registered for kind {spec.kind!r}") from None
    return builder(spec)


def registered_kinds() -> List[str]:
    """Every kind the stage registry can resolve."""
    return sorted(_STAGE_BUILDERS)


# -- shared stages ---------------------------------------------------------------


def _chip_stage(ctx: StageContext) -> None:
    """Resolve the spec's chip through the runner's shared chip provider."""
    ctx.data["chip"] = ctx.runner.chip_for(ctx.spec)


# -- Fig. 2 ----------------------------------------------------------------------


@stage_builder("fig2")
def _fig2_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def simulate(ctx: StageContext) -> None:
        # Both architectures use the same small WGC (so the WMARK waveforms
        # are identical) and a power-pattern producer of ``register_count``
        # registers (the paper's illustration uses an 8-bit load register).
        num_cycles = ctx.spec.param("num_cycles", 64)
        register_count = ctx.spec.param("register_count", 8)
        lfsr_width = ctx.spec.param("lfsr_width", 4)
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        baseline = BaselineWatermark(
            wgc=WatermarkGenerationCircuit.minimal(width=lfsr_width, seed=ctx.spec.seed),
            load=LoadCircuit(num_registers=register_count, word_width=register_count),
        )
        clock_mod = ClockModulationWatermark(
            wgc=WatermarkGenerationCircuit.minimal(width=lfsr_width, seed=ctx.spec.seed),
            modulated_block=ClockModulatedIPBlock(
                modulated_registers=register_count, num_clock_gates=1
            ),
        )
        wmark_bits = baseline.sequence(num_cycles)
        baseline_traces = baseline.activity_traces(num_cycles)
        clock_mod_traces = clock_mod.activity_traces(num_cycles)
        result = Fig2Result(
            num_cycles=num_cycles,
            wmark=np.asarray(wmark_bits, dtype=np.int8),
            baseline_toggles=baseline_traces["load"].total_toggles,
            clock_modulation_toggles=clock_mod_traces["load"].total_toggles,
            registers_compared=register_count,
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "baseline_toggles_per_active_register": result.baseline_toggles_per_active_register,
                "clock_modulation_toggles_per_active_register": result.clock_modulation_toggles_per_active_register,
                "idle_when_wmark_low": result.idle_when_wmark_low,
            },
            arrays={
                "wmark": result.wmark,
                "baseline_toggles": result.baseline_toggles,
                "clock_modulation_toggles": result.clock_modulation_toggles,
            },
        )

    return [PipelineStage("simulate", simulate)]


# -- Fig. 3 ----------------------------------------------------------------------


@stage_builder("fig3")
def _fig3_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def power(ctx: StageContext) -> None:
        chip = ctx.data["chip"]
        num_cycles = ctx.spec.param("num_cycles", 4_096)
        system = chip.background_power(num_cycles, seed=ctx.spec.seed)
        watermark = chip.watermark_power(num_cycles)
        total = system.add(watermark)
        ctx.data["system"] = system
        ctx.data["watermark"] = watermark
        ctx.data["total"] = PowerTrace(
            name=f"{chip.name}/total",
            clock=total.clock,
            power_w=total.power_w,
            voltage_v=total.voltage_v,
        )

    def acquisition(ctx: StageContext) -> None:
        campaign = AcquisitionCampaign.from_spec(ctx.spec)
        measured = campaign.measure(ctx.data["total"], seed=ctx.spec.seed)
        result = Fig3Result(
            system_power=ctx.data["system"],
            watermark_power=ctx.data["watermark"],
            total_power=ctx.data["total"],
            measured_total_power=measured.values,
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "watermark_amplitude_w": result.watermark_amplitude_w,
                "system_mean_power_w": result.system_mean_power_w,
                "relative_amplitude": result.relative_amplitude,
                "deeply_embedded": result.deeply_embedded,
            },
            arrays={
                "system_power_w": result.system_power.power_w,
                "watermark_power_w": result.watermark_power.power_w,
                "total_power_w": result.total_power.power_w,
                "measured_total_power": result.measured_total_power,
            },
        )

    return [
        PipelineStage("chip", _chip_stage),
        PipelineStage("power", power),
        PipelineStage("acquisition", acquisition),
    ]


# -- Fig. 5 ----------------------------------------------------------------------


#: Fraction of the sequence period at which the paper's correlation peaks
#: appear (the LFSR phase is arbitrary relative to the scope trigger; the
#: silicon measurements happened to land at rotations ~3,800 and ~2,400 of
#: the 4,095-cycle sequence).
_PAPER_PHASE_FRACTION = {"chip1": 3800 / 4095, "chip2": 2400 / 4095}


def _fig5_panel_phase_offset(spec: ScenarioSpec) -> int:
    if spec.phase_offset is not None:
        return spec.phase_offset
    period = spec.watermark.sequence_period
    return int(_PAPER_PHASE_FRACTION.get(spec.chip, 0.5) * period)


@stage_builder("fig5_panel")
def _fig5_panel_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def acquisition(ctx: StageContext) -> None:
        chip = ctx.data["chip"]
        campaign = AcquisitionCampaign.from_spec(ctx.spec)
        ctx.data["measured"] = campaign.measure_chip(
            chip,
            ctx.spec.measurement.num_cycles,
            watermark_active=ctx.spec.watermark_active,
            power_seed=ctx.spec.seed,
            seed=ctx.spec.seed,
            watermark_phase_offset=_fig5_panel_phase_offset(ctx.spec),
        )

    def detection(ctx: StageContext) -> None:
        chip = ctx.data["chip"]
        detector = CPADetector(ctx.spec.detection)
        sequence = chip.watermark_sequence()
        cpa = detector.detect(sequence, ctx.data["measured"].values)
        key = panel_key(ctx.spec.chip, ctx.spec.watermark_active)
        spectrum = SpreadSpectrum(label=key, correlations=cpa.correlations)
        panel = Fig5Panel(
            chip_name=ctx.spec.chip,
            watermark_active=ctx.spec.watermark_active,
            spectrum=spectrum,
            cpa=cpa,
        )
        ctx.finish(
            payload=panel,
            report=f"[{panel.label}] {cpa.summary()}",
            scalars={
                "detected": bool(cpa.detected),
                "peak_correlation": float(cpa.peak_correlation),
                "peak_rotation": int(cpa.peak_rotation),
                "z_score": float(cpa.z_score),
                "noise_floor_std": float(cpa.noise_floor_std),
            },
            arrays={"correlations": cpa.correlations},
        )

    return [
        PipelineStage("chip", _chip_stage),
        PipelineStage("acquisition", acquisition),
        PipelineStage("detection", detection),
    ]


def fig5_panel_spec(spec: ScenarioSpec, chip_name: str, active: bool) -> ScenarioSpec:
    """Derive one Fig. 5 panel spec from the composite Fig. 5 spec.

    Seed offsets (pinned by the Fig. 5 golden): +50 for the
    watermark-inactive control, +7 for chip II.
    """
    return spec.with_overrides(
        kind="fig5_panel",
        name=f"{spec.name or 'fig5'}/{chip_name}-{'active' if active else 'inactive'}",
        chip=chip_name,
        watermark_active=active,
        seed=spec.seed + (0 if active else 50) + (0 if chip_name == "chip1" else 7),
    )


@stage_builder("fig5")
def _fig5_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def panels(ctx: StageContext) -> None:
        result = Fig5Result(config=ctx.spec.experiment_config)
        arrays: Dict[str, np.ndarray] = {}
        for chip_name in ("chip1", "chip2"):
            for active in (True, False):
                sub = ctx.runner.run(fig5_panel_spec(ctx.spec, chip_name, active))
                key = panel_key(chip_name, active)
                result.panels[key] = sub.payload
                arrays[f"{key}/correlations"] = sub.arrays["correlations"]
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "all_active_panels_detected": result.all_active_panels_detected,
                "no_inactive_panel_detected": result.no_inactive_panel_detected,
                **{
                    f"{key}/peak_correlation": float(panel.cpa.peak_correlation)
                    for key, panel in sorted(result.panels.items())
                },
            },
            arrays=arrays,
        )

    return [PipelineStage("panels", panels)]


# -- Fig. 6 ----------------------------------------------------------------------


@stage_builder("fig6_chip")
def _fig6_chip_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def campaign_stage(ctx: StageContext) -> None:
        chip = ctx.data["chip"]
        spec = ctx.spec
        repetitions = spec.repetitions
        batch_size = spec.param("max_repetitions_per_batch", 25)
        if batch_size <= 0:
            raise ValueError("max_repetitions_per_batch must be positive")
        num_cycles = spec.measurement.num_cycles
        phase_offset = _fig5_panel_phase_offset(spec)
        campaign = AcquisitionCampaign.from_spec(spec)
        detector = BatchCPADetector(spec.detection)
        sequence = chip.watermark_sequence()
        runs: List[np.ndarray] = []
        detections: List[bool] = []
        for start in range(0, repetitions, batch_size):
            stop = min(repetitions, start + batch_size)
            trace_matrix = campaign.measure_chip_many(
                chip,
                num_cycles,
                seeds=range(spec.seed + start, spec.seed + stop),
                watermark_active=spec.watermark_active,
                power_seed=spec.seed,
                watermark_phase_offset=phase_offset,
            )
            batch = detector.detect_many(sequence, trace_matrix)
            runs.extend(batch.correlations)
            detections.extend(bool(flag) for flag in batch.detected)
        ctx.data["runs"] = runs
        ctx.data["detections"] = detections

    def statistics(ctx: StageContext) -> None:
        stats = RepetitionStatistics.from_correlation_runs(
            ctx.spec.chip, ctx.data["runs"], detected_flags=ctx.data["detections"]
        )
        result = Fig6ChipResult(
            chip_name=ctx.spec.chip,
            statistics=stats,
            peak_box=stats.peak_box(),
            off_peak_box=stats.off_peak_box(),
        )
        peak = result.peak_box
        ctx.finish(
            payload=result,
            report=(
                f"[{result.chip_name}] detection rate = {result.detection_rate * 100:.0f}%, "
                f"peak rotation {stats.peak_rotation}, median rho = {peak.median:.4f}"
            ),
            scalars={
                "detection_rate": result.detection_rate,
                "peak_separated": result.peak_separated,
                "peak_rotation": int(stats.peak_rotation),
                "peak_median_rho": float(peak.median),
            },
            arrays={
                "correlations": np.vstack(ctx.data["runs"]),
                "detected": np.asarray(ctx.data["detections"], dtype=bool),
            },
        )

    return [
        PipelineStage("chip", _chip_stage),
        PipelineStage("campaign", campaign_stage),
        PipelineStage("statistics", statistics),
    ]


def fig6_chip_spec(spec: ScenarioSpec, chip_name: str) -> ScenarioSpec:
    """Derive one chip's Fig. 6 campaign spec from the composite spec.

    The chip II campaign seeds 500 apart (pinned by the Fig. 6 golden).
    """
    return spec.with_overrides(
        kind="fig6_chip",
        name=f"{spec.name or 'fig6'}/{chip_name}",
        chip=chip_name,
        seed=spec.seed + (0 if chip_name == "chip1" else 500),
    )


@stage_builder("fig6")
def _fig6_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def chips(ctx: StageContext) -> None:
        result = Fig6Result(
            config=ctx.spec.experiment_config, repetitions=ctx.spec.repetitions
        )
        arrays: Dict[str, np.ndarray] = {}
        for chip_name in ("chip1", "chip2"):
            sub = ctx.runner.run(fig6_chip_spec(ctx.spec, chip_name))
            result.chips[chip_name] = sub.payload
            arrays[f"{chip_name}/correlations"] = sub.arrays["correlations"]
            arrays[f"{chip_name}/detected"] = sub.arrays["detected"]
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "all_repetitions_detected": result.all_repetitions_detected,
                **{
                    f"{name}/detection_rate": chip_result.detection_rate
                    for name, chip_result in sorted(result.chips.items())
                },
            },
            arrays=arrays,
        )

    return [PipelineStage("chips", chips)]


# -- Tables ----------------------------------------------------------------------

#: Switching-register counts evaluated by the paper's Table I.
TABLE_I_SWITCHING_REGISTERS: Sequence[int] = (0, 256, 512, 1024)


@stage_builder("table1")
def _table1_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def estimate(ctx: StageContext) -> None:
        counts = ctx.spec.param(
            "switching_register_counts", list(TABLE_I_SWITCHING_REGISTERS)
        )
        estimator = PowerEstimator.at_nominal()
        base_config = ctx.spec.watermark
        result = Table1Result()
        for switching in counts:
            row_config = WatermarkConfig(
                architecture=base_config.architecture,
                lfsr_width=base_config.lfsr_width,
                lfsr_seed=base_config.lfsr_seed,
                num_words=base_config.num_words,
                word_width=base_config.word_width,
                switching_registers=switching,
                load_registers=base_config.load_registers,
                use_test_chip_wgc=True,
            )
            watermark = ClockModulationWatermark.from_config(row_config)

            # Dynamic power of the load (the modulated bank) during enabled
            # cycles, which is what a signoff tool reports for the
            # placed-and-routed macro.
            load_dynamic = watermark.average_active_load_power(estimator)

            # WGC dynamic power (it is clocked every cycle).
            periodic = watermark.periodic_activity()
            wgc_dynamic = estimator.dynamic_model.average_power("dff", periodic["wgc"])

            # Leakage of the bank (registers + clock gates + local buffers).
            bank_inventory = watermark.modulated_block.cell_inventory()
            static = estimator.leakage_of(bank_inventory, active_fraction=switching / 1024.0)

            share = load_dynamic / (load_dynamic + wgc_dynamic) if load_dynamic > 0 else 0.0
            result.rows.append(
                Table1Row(
                    switching_registers=switching,
                    dynamic_w=load_dynamic,
                    static_w=static,
                    share_of_watermark_dynamic=share,
                )
            )
            result.wgc_dynamic_w = wgc_dynamic
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "wgc_dynamic_w": result.wgc_dynamic_w,
                "dynamic_power_monotonic": result.dynamic_power_monotonic(),
            },
            arrays={
                "switching_registers": np.array(
                    [row.switching_registers for row in result.rows], dtype=np.int64
                ),
                "dynamic_w": np.array([row.dynamic_w for row in result.rows]),
                "static_w": np.array([row.static_w for row in result.rows]),
                "share_of_watermark_dynamic": np.array(
                    [row.share_of_watermark_dynamic for row in result.rows]
                ),
            },
        )

    return [PipelineStage("estimate", estimate)]


@stage_builder("table2")
def _table2_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def estimate(ctx: StageContext) -> None:
        # The per-register sizing coefficients are taken from the power
        # estimator (rather than hard-coded), which cross-checks that the
        # activity-based power model reproduces the paper's published
        # per-register figures.
        estimator = PowerEstimator.at_nominal()
        clock_power = estimator.per_register_clock_power()
        data_power = estimator.per_register_data_power()
        load_powers = ctx.spec.param("load_powers_w", list(TABLE_II_LOAD_POWERS_W))
        table = load_circuit_overhead_table(
            load_powers_w=tuple(load_powers),
            wgc_registers=ctx.spec.param("wgc_registers", WGC_REGISTERS),
            clock_buffer_power_w=clock_power,
            data_switching_power_w=data_power,
        )
        result = Table2Result(
            table=table,
            per_register_clock_power_w=clock_power,
            per_register_data_power_w=data_power,
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "headline_reduction": result.headline_reduction,
                "per_register_clock_power_w": result.per_register_clock_power_w,
                "per_register_data_power_w": result.per_register_data_power_w,
                "reduction_monotonic": result.reduction_monotonic(),
            },
            arrays={
                "load_power_w": np.array([row.load_power_w for row in result.table]),
                "load_registers": np.array(
                    [row.load_registers for row in result.table], dtype=np.int64
                ),
                "overhead_reduction": np.array(
                    [row.overhead_reduction for row in result.table]
                ),
            },
        )

    return [PipelineStage("estimate", estimate)]


# -- Robustness ------------------------------------------------------------------


@stage_builder("robustness")
def _robustness_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def attack(ctx: StageContext) -> None:
        modulated_gates = ctx.spec.param("modulated_gates", 4)
        if modulated_gates <= 0:
            raise ValueError("at least one clock gate must be modulated")
        config = ctx.spec.watermark
        removal = RemovalAttack()

        baseline_host = build_soc_structure(name="soc_baseline")
        baseline_config = WatermarkConfig(
            architecture=ArchitectureKind.BASELINE_LOAD_CIRCUIT,
            lfsr_width=config.lfsr_width,
            lfsr_seed=config.lfsr_seed,
            load_registers=config.load_registers,
        )
        baseline_embedded = embed_baseline(baseline_host, baseline_config)
        baseline_assessment = assess_robustness(baseline_embedded, removal)

        clock_mod_host = build_soc_structure(name="soc_clockmod")
        gates = clock_gate_paths(clock_mod_host)[:modulated_gates]
        clock_mod_embedded = embed_clock_modulation(clock_mod_host, gates, config)
        result = RobustnessResult(
            baseline=baseline_assessment,
            clock_modulation=assess_robustness(clock_mod_embedded, removal),
        )
        ctx.finish(
            payload=result,
            report=result.to_text(),
            scalars={
                "baseline_removed_by_blind_attack": result.baseline_removed_by_blind_attack,
                "baseline_removal_harmless": result.baseline_removal_harmless,
                "clock_modulation_survives_blind_attack": result.clock_modulation_survives_blind_attack,
                "clock_modulation_removal_breaks_system": result.clock_modulation_removal_breaks_system,
                "improved_robustness_demonstrated": result.improved_robustness_demonstrated,
            },
            arrays={},
        )

    return [PipelineStage("attack", attack)]


# -- Campaign-style scenarios (beyond the paper's figures) -----------------------

#: Trial rows a campaign stage synthesizes and detects at once.  Bounds
#: memory only: every row keeps its per-trial draw order, so outcomes do
#: not depend on it.
_CAMPAIGN_TRIALS_PER_CHUNK = 25


@stage_builder("detection_probability")
def _detection_probability_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    def campaign_stage(ctx: StageContext) -> None:
        spec = ctx.spec
        sequence = build_watermark(spec.watermark).sequence()
        curve = run_detection_probability_campaign(
            sequence,
            watermark_amplitude_w=spec.param("watermark_amplitude_w", 1.5e-3),
            noise_sigma_w=spec.param("noise_sigma_w", 25e-3),
            cycle_counts=tuple(
                spec.param("cycle_counts", [5_000, 20_000, 80_000, 160_000])
            ),
            trials_per_point=spec.param("trials_per_point", 20),
            detection_config=spec.detection,
            base_power_w=spec.param("base_power_w", 5e-3),
            seed=spec.seed,
            max_trials_per_chunk=_CAMPAIGN_TRIALS_PER_CHUNK,
        )
        points = sorted(curve.points, key=lambda p: p.num_cycles)
        ctx.finish(
            payload=curve,
            report=curve.to_text(),
            scalars={
                "expected_rho": curve.expected_rho,
                "analytical_required_cycles": curve.analytical_required_cycles,
                "empirical_required_cycles": curve.empirical_required_cycles(),
            },
            arrays={
                "cycles": np.array([p.num_cycles for p in points], dtype=np.int64),
                "detection_probability": np.array(
                    [p.detection_probability for p in points]
                ),
                "mean_peak_correlation": np.array(
                    [p.mean_peak_correlation for p in points]
                ),
                "mean_z_score": np.array([p.mean_z_score for p in points]),
            },
        )

    return [PipelineStage("campaign", campaign_stage)]


def _masking_stages(spec: ScenarioSpec, starvation: bool) -> List[PipelineStage]:
    def sweep(ctx: StageContext) -> None:
        from repro.analysis.masking import run_noise_masking_study, run_starvation_study

        spec = ctx.spec
        sequence = build_watermark(spec.watermark).sequence()
        common = dict(
            watermark_amplitude_w=spec.param("watermark_amplitude_w", 1.5e-3),
            base_noise_sigma_w=spec.param("base_noise_sigma_w", 43e-3),
            num_cycles=spec.measurement.num_cycles,
            detection_config=spec.detection,
            seed=spec.seed,
            trials_per_point=spec.param("trials_per_point", 1),
            max_trials_per_chunk=_CAMPAIGN_TRIALS_PER_CHUNK,
        )
        if starvation:
            study = run_starvation_study(
                sequence,
                enable_duties=tuple(
                    spec.param("enable_duties", [1.0, 0.5, 0.25, 0.1, 0.02])
                ),
                **common,
            )
        else:
            study = run_noise_masking_study(
                sequence,
                masking_noise_levels_w=tuple(
                    spec.param(
                        "masking_noise_levels_w", [0.0, 50e-3, 100e-3, 200e-3, 400e-3]
                    )
                ),
                **common,
            )
        defeated = study.detection_defeated_at()
        ctx.finish(
            payload=study,
            report=study.to_text(),
            scalars={
                "still_detected_everywhere": study.still_detected_everywhere(),
                "defeated_at_masking_noise_w": (
                    None if defeated is None else defeated.masking_noise_w
                ),
                "defeated_at_enable_duty": (
                    None if defeated is None else defeated.enable_duty
                ),
            },
            arrays={
                "masking_noise_w": np.array([p.masking_noise_w for p in study.points]),
                "enable_duty": np.array([p.enable_duty for p in study.points]),
                "peak_correlation": np.array([p.peak_correlation for p in study.points]),
                "z_score": np.array([p.z_score for p in study.points]),
                "detection_probability": np.array(
                    [p.detection_probability for p in study.points]
                ),
            },
        )

    return [PipelineStage("sweep", sweep)]


@stage_builder("masking_noise")
def _masking_noise_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    return _masking_stages(spec, starvation=False)


@stage_builder("masking_starvation")
def _masking_starvation_stages(spec: ScenarioSpec) -> List[PipelineStage]:
    return _masking_stages(spec, starvation=True)
