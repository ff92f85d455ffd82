"""Typed result payloads of the paper's figures and tables.

Each paper scenario kind's final stage (see :mod:`repro.pipeline.stages`)
builds one of these dataclasses as its ``ScenarioResult.payload``: the raw
numbers plus a ``to_text()`` renderer whose output becomes the scenario's
``report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.analysis.overhead import OverheadTable
from repro.analysis.robustness import RobustnessAssessment
from repro.core.config import ExperimentConfig
from repro.detection.cpa import CPAResult
from repro.detection.spread_spectrum import SpreadSpectrum
from repro.detection.statistics import BoxPlotStats, RepetitionStatistics
from repro.power.report import PowerReport, PowerReportRow
from repro.power.trace import PowerTrace


# -- Fig. 2 ----------------------------------------------------------------------


@dataclass
class Fig2Result:
    """Per-cycle waveforms of the functional simulation."""

    num_cycles: int
    wmark: np.ndarray
    baseline_toggles: np.ndarray
    clock_modulation_toggles: np.ndarray
    registers_compared: int

    @property
    def baseline_toggles_per_active_register(self) -> float:
        """Average toggles per register per WMARK-high cycle (baseline)."""
        return self._per_register(self.baseline_toggles)

    @property
    def clock_modulation_toggles_per_active_register(self) -> float:
        """Average toggles per register per WMARK-high cycle (proposed)."""
        return self._per_register(self.clock_modulation_toggles)

    def _per_register(self, toggles: np.ndarray) -> float:
        active = toggles[self.wmark.astype(bool)]
        if len(active) == 0:
            return 0.0
        return float(np.mean(active)) / self.registers_compared

    @property
    def idle_when_wmark_low(self) -> bool:
        """Both architectures must be idle while WMARK is 0."""
        low = ~self.wmark.astype(bool)
        return bool(
            np.all(self.baseline_toggles[low] == 0)
            and np.all(self.clock_modulation_toggles[low] == 0)
        )

    def to_text(self) -> str:
        """Render the waveforms as a small text chart."""
        lines = [
            "Fig. 2 reproduction: functional simulation (first 48 cycles shown)",
            "cycle:      " + "".join(str(i % 10) for i in range(min(48, self.num_cycles))),
            "WMARK:      " + "".join("1" if b else "0" for b in self.wmark[:48]),
            "load SR:    " + "".join("#" if t > 0 else "." for t in self.baseline_toggles[:48]),
            "clock mod.: " + "".join("#" if t > 0 else "." for t in self.clock_modulation_toggles[:48]),
            "",
            f"toggles per register per active cycle: "
            f"load circuit = {self.baseline_toggles_per_active_register:.2f}, "
            f"clock modulation = {self.clock_modulation_toggles_per_active_register:.2f}",
        ]
        return "\n".join(lines)


# -- Fig. 3 ----------------------------------------------------------------------


@dataclass
class Fig3Result:
    """The three stacked traces of Fig. 3 plus embedding metrics."""

    system_power: PowerTrace
    watermark_power: PowerTrace
    total_power: PowerTrace
    measured_total_power: np.ndarray

    @property
    def watermark_amplitude_w(self) -> float:
        """Peak-to-trough modulation amplitude of the watermark signal."""
        values = self.watermark_power.power_w
        return float(np.max(values) - np.min(values))

    @property
    def system_mean_power_w(self) -> float:
        """Mean power of the embedded system without the watermark."""
        return self.system_power.average_power_w

    @property
    def relative_amplitude(self) -> float:
        """Watermark amplitude as a fraction of the total mean power."""
        total_mean = self.total_power.average_power_w
        if total_mean == 0:
            return 0.0
        return self.watermark_amplitude_w / total_mean

    @property
    def deeply_embedded(self) -> bool:
        """Whether the watermark disappears in the measured total power.

        In the paper's figure the watermark signal is invisible in the
        device total power; here that means its modulation amplitude is
        smaller than the cycle-to-cycle variation of the *measured* total
        power (system activity plus acquisition noise), i.e. an analytical
        technique such as CPA is genuinely required to find it.
        """
        measured_variation = float(np.std(self.measured_total_power))
        return self.watermark_amplitude_w <= measured_variation

    def to_text(self) -> str:
        """Summary table of the three traces."""
        rows = [
            ("embedded system power", self.system_power),
            ("watermark power signal", self.watermark_power),
            ("device total power", self.total_power),
        ]
        lines = ["Fig. 3 reproduction: watermark embedded in total device power", ""]
        for label, trace in rows:
            lines.append(
                f"  {label:<26} mean = {trace.average_power_w * 1e3:7.3f} mW, "
                f"peak = {trace.peak_power_w * 1e3:7.3f} mW"
            )
        lines.append("")
        lines.append(
            f"  watermark modulation amplitude = {self.watermark_amplitude_w * 1e3:.3f} mW "
            f"({self.relative_amplitude * 100:.1f}% of total mean power)"
        )
        lines.append(
            f"  measured total power sigma = {float(np.std(self.measured_total_power)) * 1e3:.3f} mW"
        )
        lines.append(f"  deeply embedded (invisible without CPA): {self.deeply_embedded}")
        return "\n".join(lines)


# -- Fig. 5 ----------------------------------------------------------------------


@dataclass
class Fig5Panel:
    """One of the four panels of Fig. 5."""

    chip_name: str
    watermark_active: bool
    spectrum: SpreadSpectrum
    cpa: CPAResult

    @property
    def label(self) -> str:
        """Panel label in the paper's naming."""
        state = "active" if self.watermark_active else "inactive"
        return f"{self.chip_name} / watermark {state}"


@dataclass
class Fig5Result:
    """All four panels plus the shared experiment configuration."""

    config: ExperimentConfig
    panels: Dict[str, Fig5Panel] = field(default_factory=dict)

    def panel(self, chip_name: str, watermark_active: bool) -> Fig5Panel:
        """Look up one panel."""
        key = panel_key(chip_name, watermark_active)
        if key not in self.panels:
            raise KeyError(f"panel {key!r} was not produced; available: {sorted(self.panels)}")
        return self.panels[key]

    @property
    def all_active_panels_detected(self) -> bool:
        """Whether every watermark-active panel shows a detected watermark."""
        return all(p.cpa.detected for p in self.panels.values() if p.watermark_active)

    @property
    def no_inactive_panel_detected(self) -> bool:
        """Whether no watermark-inactive panel produced a false detection."""
        return all(not p.cpa.detected for p in self.panels.values() if not p.watermark_active)

    def to_text(self) -> str:
        """Summary of all panels."""
        lines = [
            "Fig. 5 reproduction: CPA spread spectra "
            f"({self.config.measurement.num_cycles} cycles per correlation)",
            "",
        ]
        for key in sorted(self.panels):
            panel = self.panels[key]
            lines.append(f"  [{panel.label}] {panel.cpa.summary()}")
        lines.append("")
        lines.append(f"  all active panels detected:   {self.all_active_panels_detected}")
        lines.append(f"  no inactive false detections: {self.no_inactive_panel_detected}")
        return "\n".join(lines)


def panel_key(chip_name: str, watermark_active: bool) -> str:
    """The ``"<chip>/<active|inactive>"`` key of one Fig. 5 panel."""
    return f"{chip_name}/{'active' if watermark_active else 'inactive'}"


# -- Fig. 6 ----------------------------------------------------------------------


@dataclass
class Fig6ChipResult:
    """Repeated-measurement statistics of one chip."""

    chip_name: str
    statistics: RepetitionStatistics
    peak_box: BoxPlotStats
    off_peak_box: BoxPlotStats

    @property
    def detection_rate(self) -> float:
        """Fraction of repetitions with a successful detection."""
        return self.statistics.detection_rate

    @property
    def peak_separated(self) -> bool:
        """Whether the peak box is separated from the off-peak distribution."""
        return self.peak_box.whisker_low - self.off_peak_box.whisker_high > 0


@dataclass
class Fig6Result:
    """Fig. 6 reproduction: both chips."""

    config: ExperimentConfig
    repetitions: int
    chips: Dict[str, Fig6ChipResult] = field(default_factory=dict)

    def chip(self, chip_name: str) -> Fig6ChipResult:
        """Result of one chip."""
        if chip_name not in self.chips:
            raise KeyError(f"no result for chip {chip_name!r}")
        return self.chips[chip_name]

    @property
    def all_repetitions_detected(self) -> bool:
        """Whether the watermark was detected in every repetition on every chip."""
        return all(result.detection_rate == 1.0 for result in self.chips.values())

    def to_text(self) -> str:
        """Summary of the box-plot statistics."""
        lines = [
            f"Fig. 6 reproduction: correlation statistics over {self.repetitions} repetitions",
            "",
        ]
        for chip_name in sorted(self.chips):
            result = self.chips[chip_name]
            peak = result.peak_box
            off = result.off_peak_box
            lines.append(
                f"  [{chip_name}] peak rotation {result.statistics.peak_rotation}: "
                f"median rho = {peak.median:.4f} "
                f"(box {peak.q1:.4f}..{peak.q3:.4f}, whiskers {peak.whisker_low:.4f}..{peak.whisker_high:.4f})"
            )
            lines.append(
                f"           off-peak: median rho = {off.median:.4f} "
                f"(whiskers {off.whisker_low:.4f}..{off.whisker_high:.4f})"
            )
            lines.append(
                f"           detection rate = {result.detection_rate * 100:.0f}%, "
                f"peak box separated = {result.peak_separated}"
            )
        lines.append("")
        lines.append(f"  detected in all repetitions on all chips: {self.all_repetitions_detected}")
        return "\n".join(lines)


# -- Table I ---------------------------------------------------------------------


@dataclass
class Table1Row:
    """One Table I row: a load-circuit implementation and its power."""

    switching_registers: int
    dynamic_w: float
    static_w: float
    share_of_watermark_dynamic: float

    @property
    def total_w(self) -> float:
        """Dynamic plus static power."""
        return self.dynamic_w + self.static_w

    @property
    def implementation(self) -> str:
        """Row label mirroring the paper's wording."""
        if self.switching_registers == 0:
            return "Clock Buffers Modulation, No Data Switching"
        return f"Clock Buffers Modulation, {self.switching_registers} Switching Registers"


@dataclass
class Table1Result:
    """The Table I reproduction."""

    rows: List[Table1Row] = field(default_factory=list)
    wgc_dynamic_w: float = 0.0

    def row(self, switching_registers: int) -> Table1Row:
        """Look up the row for a switching-register count."""
        for row in self.rows:
            if row.switching_registers == switching_registers:
                return row
        raise KeyError(f"no row for {switching_registers} switching registers")

    def dynamic_power_monotonic(self) -> bool:
        """Dynamic power must grow with the number of switching registers."""
        dynamics = [row.dynamic_w for row in self.rows]
        return all(b > a for a, b in zip(dynamics, dynamics[1:]))

    def to_power_report(self) -> PowerReport:
        """Render as a :class:`PowerReport` (Table I layout)."""
        report = PowerReport(title="Table I: power consumption of placed and routed load circuit")
        for row in self.rows:
            report.add_row(
                PowerReportRow(
                    implementation=row.implementation,
                    dynamic_w=row.dynamic_w,
                    static_w=row.static_w,
                    share_of_watermark_dynamic=row.share_of_watermark_dynamic,
                )
            )
        return report

    def to_text(self) -> str:
        """Text rendering."""
        return self.to_power_report().to_text()


# -- Table II --------------------------------------------------------------------


@dataclass
class Table2Result:
    """The Table II reproduction plus the calibration cross-check."""

    table: OverheadTable
    per_register_clock_power_w: float
    per_register_data_power_w: float

    @property
    def headline_reduction(self) -> float:
        """The paper's headline figure: reduction at the 1.5 mW operating point."""
        return self.table.row_for_power(1.5e-3).overhead_reduction

    def reduction_monotonic(self) -> bool:
        """The reduction must grow with system size (required load power)."""
        reductions = [row.overhead_reduction for row in self.table]
        return all(b >= a for a, b in zip(reductions, reductions[1:]))

    def to_text(self) -> str:
        """Text rendering of the table plus the calibration figures."""
        lines = [
            self.table.to_text(),
            "",
            "Per-register powers used for sizing (from the power estimator):",
            f"  clock buffer:   {self.per_register_clock_power_w * 1e6:.3f} uW  (paper: 1.476 uW)",
            f"  data switching: {self.per_register_data_power_w * 1e6:.3f} uW  (paper: 1.126 uW)",
            "",
            f"Headline area-overhead reduction at 1.5 mW: {self.headline_reduction * 100:.1f}% (paper: 98%)",
        ]
        return "\n".join(lines)


# -- Robustness (Section VI) -----------------------------------------------------


@dataclass
class RobustnessResult:
    """Robustness assessment of both architectures on the same host SoC."""

    baseline: RobustnessAssessment
    clock_modulation: RobustnessAssessment

    @property
    def baseline_removed_by_blind_attack(self) -> bool:
        """The paper's claim: the stand-alone load circuit is easily removed."""
        return self.baseline.blind_attack.watermark_fully_removed

    @property
    def clock_modulation_survives_blind_attack(self) -> bool:
        """The proposed watermark is not identifiable as a stand-alone block."""
        return self.clock_modulation.survives_blind_attack

    @property
    def clock_modulation_removal_breaks_system(self) -> bool:
        """Even an informed removal of the proposed watermark damages the host."""
        return self.clock_modulation.removal_breaks_system

    @property
    def baseline_removal_harmless(self) -> bool:
        """Removing the baseline watermark leaves the host design intact."""
        return not self.baseline.removal_breaks_system

    @property
    def improved_robustness_demonstrated(self) -> bool:
        """The overall Section VI claim."""
        return (
            self.baseline_removed_by_blind_attack
            and self.baseline_removal_harmless
            and self.clock_modulation_survives_blind_attack
            and self.clock_modulation_removal_breaks_system
        )

    def to_text(self) -> str:
        """Summary of both assessments."""
        lines = [
            "Section VI reproduction: robustness against removal attacks",
            "",
            self.baseline.summary(),
            "",
            self.clock_modulation.summary(),
            "",
            f"improved robustness demonstrated: {self.improved_robustness_demonstrated}",
        ]
        return "\n".join(lines)
