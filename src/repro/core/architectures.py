"""The two watermark architectures compared in the paper.

Both architectures pair a :class:`WatermarkGenerationCircuit` with a power
pattern producer:

* :class:`BaselineWatermark` (Fig. 1(a)): WGC + dedicated load circuit.
* :class:`ClockModulationWatermark` (Fig. 1(b)): WGC + clock-modulated
  existing (or redundant) clock-gated logic.

Both expose the same interface so that the measurement chain, the CPA
detector and the area analysis treat them interchangeably:

``step()``
    advance one cycle, returning the WMARK bit and per-group activity;
``periodic_activity()``
    exact per-cycle activity over one watermark period, derived in closed
    form from the WMARK state sequence (``stepped_periodic_activity()``,
    the ``step()`` loop, is its golden reference);
``activity_traces(num_cycles)``
    exact per-cycle activity for a long run, computed from one watermark
    period and tiled (the circuits are strictly periodic);
``power_trace(estimator, num_cycles)``
    the watermark's per-cycle power contribution;
``cell_inventory()`` / ``added_register_count``
    structural figures for the area and leakage analysis.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.core.clock_modulation import ClockModulatedBank, ClockModulatedIPBlock
from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.load_circuit import LoadCircuit
from repro.core.wgc import WatermarkGenerationCircuit
from repro.power.estimator import PowerEstimator
from repro.power.synthesis import PeriodicPowerTemplate
from repro.power.trace import PowerTrace
from repro.rtl.activity import ActivityRecord, ActivityTrace


def _copy_activity_trace(trace: ActivityTrace) -> ActivityTrace:
    """An independent copy of a trace (array slices are views, not copies)."""
    return ActivityTrace(
        name=trace.name,
        clock_toggles=trace.clock_toggles.copy(),
        data_toggles=trace.data_toggles.copy(),
        comb_toggles=trace.comb_toggles.copy(),
    )


class WatermarkArchitecture(abc.ABC):
    """Common behaviour of both watermark architectures."""

    def __init__(self, wgc: WatermarkGenerationCircuit, name: str) -> None:
        self.wgc = wgc
        self.name = name
        self._periodic_activity_cache: Optional[Dict[str, ActivityTrace]] = None

    # -- abstract structural/behavioural hooks -----------------------------

    @property
    @abc.abstractmethod
    def kind(self) -> ArchitectureKind:
        """Which architecture this is."""

    @abc.abstractmethod
    def _load_step(self, wmark: int) -> ActivityRecord:
        """Advance the power-pattern producer one cycle."""

    @abc.abstractmethod
    def _load_reset(self) -> None:
        """Reset the power-pattern producer."""

    @abc.abstractmethod
    def _load_activity(self, wmark: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`_load_step` over consecutive cycles from reset."""

    @property
    @abc.abstractmethod
    def added_register_count(self) -> int:
        """Registers the watermark adds to the host design."""

    @abc.abstractmethod
    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class of all watermark-involved hardware.

        Used for leakage estimation: every cell whose activity the watermark
        controls contributes, including reused host cells.
        """

    # -- shared behaviour -----------------------------------------------------

    @property
    def sequence_period(self) -> int:
        """Period of the watermark sequence."""
        return self.wgc.period

    def sequence(self, length: Optional[int] = None) -> np.ndarray:
        """The watermark model sequence (the CPA vector ``X``)."""
        return self.wgc.sequence(length)

    def reset(self) -> None:
        """Reset the WGC and the power-pattern producer."""
        self.wgc.reset()
        self._load_reset()

    def step(self) -> Dict[str, ActivityRecord]:
        """Advance one clock cycle.

        Returns the activity of the two watermark sub-circuits under the
        keys ``"wgc"`` and ``"load"``.  The load sees the WMARK value of the
        *previous* cycle boundary (registered output), matching the paper's
        Fig. 2 waveforms where the load responds to the registered WMARK.
        """
        wmark_before = self.wgc.wmark
        _, wgc_activity = self.wgc.step()
        load_activity = self._load_step(wmark_before)
        return {"wgc": wgc_activity, "load": load_activity}

    def periodic_activity(self, use_cache: bool = True) -> Dict[str, ActivityTrace]:
        """Exact per-cycle activity over one full watermark period.

        The watermark circuits are strictly periodic with the sequence
        period, so one period fully characterises them.  Because WMARK is
        only ANDed into existing enables, every cycle's toggle counts are a
        closed-form function of the generator's state sequence: the WGC
        trace comes from the GF(2)-linear state sequence, the load trace
        from the array forms of the load components driven by the WMARK
        bits.  The result is bit-identical to
        :meth:`stepped_periodic_activity`, the cycle-accurate golden
        reference, and is cached per architecture instance (the circuit
        configuration is fixed at construction).  Callers receive
        independent trace copies, so mutating a returned trace cannot
        corrupt the cache.  Pass ``use_cache=False`` to bypass the cache.
        """
        if use_cache and self._periodic_activity_cache is not None:
            return {
                key: _copy_activity_trace(trace)
                for key, trace in self._periodic_activity_cache.items()
            }
        period = self.sequence_period
        # The load sees the registered WMARK, i.e. the output bit of the
        # state the WGC leaves in each cycle: the sequence from reset.
        wgc = self.wgc.activity_trace(period)
        load = self._load_activity(self.sequence(period))
        wgc.name = f"{self.name}/wgc"
        load.name = f"{self.name}/load"
        traces = {"wgc": wgc, "load": load}
        if use_cache:
            self._periodic_activity_cache = {
                key: _copy_activity_trace(trace) for key, trace in traces.items()
            }
        return traces

    def stepped_periodic_activity(self) -> Dict[str, ActivityTrace]:
        """One period of activity by cycle-accurate stepping (golden reference).

        The equivalence suite pins :meth:`periodic_activity` to this bit
        for bit; nothing else calls it.
        """
        self.reset()
        period = self.sequence_period
        wgc_records = []
        load_records = []
        # repro-lint: allow[HOT001] golden reference path: the step loop the closed-form periodic_activity is pinned against
        for _ in range(period):
            activity = self.step()
            wgc_records.append(activity["wgc"])
            load_records.append(activity["load"])
        self.reset()
        return {
            "wgc": ActivityTrace.from_records(f"{self.name}/wgc", wgc_records),
            "load": ActivityTrace.from_records(f"{self.name}/load", load_records),
        }

    def activity_traces(self, num_cycles: int) -> Dict[str, ActivityTrace]:
        """Exact activity traces over ``num_cycles`` cycles (tiled periods)."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        periodic = self.periodic_activity()
        return {key: trace.tile(num_cycles) for key, trace in periodic.items()}

    def combined_activity(self, num_cycles: int) -> ActivityTrace:
        """Total watermark activity (WGC plus load) over ``num_cycles``."""
        traces = self.activity_traces(num_cycles)
        combined = traces["wgc"].add(traces["load"])
        combined.name = self.name
        return combined

    def power_template(
        self, estimator: PowerEstimator, include_leakage: bool = True
    ) -> PeriodicPowerTemplate:
        """One-period per-cycle power template of the watermark circuit.

        Computed from the cached periodic activity, so after the first call
        per architecture no cycle-accurate stepping happens at all.
        """
        traces = self.periodic_activity()
        static = estimator.leakage_of(self.cell_inventory()) if include_leakage else 0.0
        trace = estimator.combined_power_trace(
            traces,
            cell_types={key: "dff" for key in traces},
            static_w=static,
            name=self.name,
        )
        return PeriodicPowerTemplate.from_power_trace(trace)

    def power_trace(
        self,
        estimator: PowerEstimator,
        num_cycles: int,
        include_leakage: bool = True,
        phase_offset: int = 0,
    ) -> PowerTrace:
        """Per-cycle power contributed by the watermark circuit.

        Synthesized from the one-period power template by modular-index
        extension -- bit-identical to estimating power over cycle-accurate
        activity of the full acquisition length (the equivalence suite in
        ``tests/test_power_synthesis.py`` pins this).  ``phase_offset``
        rotates the trace like ``np.roll(power_w, -phase_offset)``, which
        models the scope trigger being unaligned with the watermark phase.
        """
        template = self.power_template(estimator, include_leakage)
        return template.extend(num_cycles, phase_offset)

    def average_active_load_power(self, estimator: PowerEstimator) -> float:
        """Average load dynamic power during WMARK-high cycles.

        This is the quantity Table I reports ("power consumption of the
        placed-and-routed load circuit"): the load's dynamic power while the
        watermark enables it.
        """
        periodic = self.periodic_activity()
        wmark = self.sequence(self.sequence_period).astype(bool)
        load_power = estimator.dynamic_model.power_per_cycle("dff", periodic["load"])
        active = load_power[wmark[: len(load_power)]]
        if len(active) == 0:
            return 0.0
        return float(np.mean(active))

    def total_register_count(self) -> int:
        """All registers of the watermark hardware (WGC plus added load)."""
        return self.wgc.register_count + self.added_register_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, period={self.sequence_period})"


class BaselineWatermark(WatermarkArchitecture):
    """State-of-the-art watermark: WGC plus dedicated load circuit."""

    def __init__(
        self,
        wgc: Optional[WatermarkGenerationCircuit] = None,
        load: Optional[LoadCircuit] = None,
        name: str = "baseline_watermark",
    ) -> None:
        super().__init__(wgc or WatermarkGenerationCircuit.minimal(), name)
        self.load = load or LoadCircuit()

    @classmethod
    def from_config(cls, config: WatermarkConfig, name: str = "baseline_watermark") -> "BaselineWatermark":
        """Build the baseline architecture from a :class:`WatermarkConfig`."""
        wgc = (
            WatermarkGenerationCircuit.test_chip(active_width=config.lfsr_width, seed=config.lfsr_seed)
            if config.use_test_chip_wgc
            else WatermarkGenerationCircuit.minimal(width=config.lfsr_width, seed=config.lfsr_seed)
        )
        return cls(wgc=wgc, load=LoadCircuit(num_registers=config.load_registers), name=name)

    @property
    def kind(self) -> ArchitectureKind:
        return ArchitectureKind.BASELINE_LOAD_CIRCUIT

    def _load_step(self, wmark: int) -> ActivityRecord:
        return self.load.step(wmark)

    def _load_reset(self) -> None:
        self.load.reset()

    def _load_activity(self, wmark: np.ndarray) -> ActivityTrace:
        return self.load.activity_trace(wmark)

    @property
    def added_register_count(self) -> int:
        return self.load.register_count

    def cell_inventory(self) -> Dict[str, int]:
        inventory = dict(self.wgc.cell_inventory())
        for cell_type, count in self.load.cell_inventory().items():
            inventory[cell_type] = inventory.get(cell_type, 0) + count
        return inventory


class ClockModulationWatermark(WatermarkArchitecture):
    """Proposed watermark: WGC modulating clock-gated logic."""

    def __init__(
        self,
        wgc: Optional[WatermarkGenerationCircuit] = None,
        modulated_block=None,
        name: str = "clock_modulation_watermark",
    ) -> None:
        super().__init__(wgc or WatermarkGenerationCircuit.test_chip(), name)
        self.modulated_block = modulated_block or ClockModulatedBank()

    @classmethod
    def from_config(cls, config: WatermarkConfig, name: str = "clock_modulation_watermark") -> "ClockModulationWatermark":
        """Build the proposed architecture from a :class:`WatermarkConfig`."""
        wgc = (
            WatermarkGenerationCircuit.test_chip(active_width=config.lfsr_width, seed=config.lfsr_seed)
            if config.use_test_chip_wgc
            else WatermarkGenerationCircuit.minimal(width=config.lfsr_width, seed=config.lfsr_seed)
        )
        bank = ClockModulatedBank(
            num_words=config.num_words,
            word_width=config.word_width,
            switching_registers=config.switching_registers,
        )
        return cls(wgc=wgc, modulated_block=bank, name=name)

    @classmethod
    def reusing_ip_block(
        cls,
        modulated_registers: int,
        data_activity_factor: float = 0.0,
        config: Optional[WatermarkConfig] = None,
        name: str = "clock_modulation_watermark",
    ) -> "ClockModulationWatermark":
        """The end-application variant that reuses an existing IP sub-module."""
        config = config or WatermarkConfig()
        wgc = WatermarkGenerationCircuit.minimal(width=config.lfsr_width, seed=config.lfsr_seed)
        block = ClockModulatedIPBlock(
            modulated_registers=modulated_registers,
            data_activity_factor=data_activity_factor,
        )
        return cls(wgc=wgc, modulated_block=block, name=name)

    @property
    def kind(self) -> ArchitectureKind:
        return ArchitectureKind.CLOCK_MODULATION

    def _load_step(self, wmark: int) -> ActivityRecord:
        return self.modulated_block.step(wmark)

    def _load_reset(self) -> None:
        self.modulated_block.reset()

    def _load_activity(self, wmark: np.ndarray) -> ActivityTrace:
        return self.modulated_block.activity_trace(wmark)

    @property
    def added_register_count(self) -> int:
        return self.modulated_block.register_count

    def cell_inventory(self) -> Dict[str, int]:
        inventory = dict(self.wgc.cell_inventory())
        for cell_type, count in self.modulated_block.cell_inventory().items():
            inventory[cell_type] = inventory.get(cell_type, 0) + count
        return inventory


def build_watermark(config: Optional[WatermarkConfig] = None) -> WatermarkArchitecture:
    """Build the watermark architecture selected by ``config``."""
    config = config or WatermarkConfig()
    if config.architecture is ArchitectureKind.CLOCK_MODULATION:
        return ClockModulationWatermark.from_config(config)
    return BaselineWatermark.from_config(config)
