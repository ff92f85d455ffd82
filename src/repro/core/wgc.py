"""Watermark generation circuit (WGC).

The WGC is the only part of the watermark hardware the proposed technique
keeps.  It produces the periodic binary watermark sequence ``WMARK`` that
either enables the load circuit (baseline architecture) or drives the
enable inputs of existing integrated clock gates (proposed architecture).

Two variants matter for the paper's numbers:

* the *minimal* WGC used in the area analysis of Section V -- just the
  12-bit maximum-length LFSR, i.e. 12 registers;
* the *test-chip* WGC (Fig. 4(a)) -- two 32-bit sequence generators plus
  configuration/control logic, of which a single generator configured as a
  12-bit LFSR is used during the experiments.  Its (larger) dynamic power
  is what makes the load circuit "only" 95.6%-98% of the total watermark
  dynamic power in Table I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.lfsr import LFSR, CircularShiftRegister, SequenceGenerator
from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, CombinationalBlock


class WatermarkGenerationCircuit:
    """Generates the watermark sequence ``WMARK``.

    Parameters
    ----------
    generators:
        The sequence generators physically present in the circuit.  Only
        ``generators[active_index]`` contributes to the output; the others
        are assumed clock-gated off (they still leak and occupy area).
    active_index:
        Which generator drives the ``WMARK`` output.
    control_gates:
        Size of the configuration/control glue logic in NAND2-equivalents.
    always_clocked_registers:
        Registers (e.g. configuration registers) whose clock is never gated;
        they add clock-buffer power every cycle.
    name:
        Instance name.
    """

    def __init__(
        self,
        generators: List[SequenceGenerator],
        active_index: int = 0,
        control_gates: int = 8,
        always_clocked_registers: int = 0,
        name: str = "wgc",
    ) -> None:
        if not generators:
            raise ValueError("WGC needs at least one sequence generator")
        if not 0 <= active_index < len(generators):
            raise ValueError("active_index outside the generator list")
        self.name = name
        self.generators = generators
        self.active_index = active_index
        self.control = CombinationalBlock(
            f"{name}/control", gate_count=max(1, control_gates), activity_factor=0.1
        )
        self.always_clocked_registers = always_clocked_registers
        self._wmark = self.active_generator.output_bit

    # -- constructors -----------------------------------------------------

    @classmethod
    def minimal(cls, width: int = 12, seed: int = 1, name: str = "wgc") -> "WatermarkGenerationCircuit":
        """The minimal WGC of the area analysis: a single ``width``-bit LFSR."""
        return cls(
            generators=[LFSR(width=width, seed=seed, name=f"{name}/lfsr")],
            control_gates=4,
            always_clocked_registers=0,
            name=name,
        )

    @classmethod
    def test_chip(
        cls,
        active_width: int = 12,
        seed: int = 1,
        name: str = "wgc",
    ) -> "WatermarkGenerationCircuit":
        """The WGC embedded in the paper's test chips (Fig. 4(a)).

        Two 32-bit sequence generators are present; a single one is used,
        configured as an ``active_width``-bit maximum-length LFSR.  The
        unused stages of the active generator remain clocked (they are part
        of the same 32-bit register), which is modelled by
        ``always_clocked_registers``.
        """
        active = LFSR(width=active_width, seed=seed, name=f"{name}/lfsr0")
        spare = CircularShiftRegister(pattern=0xAAAAAAAA, width=32, name=f"{name}/gen1")
        return cls(
            generators=[active, spare],
            active_index=0,
            control_gates=24,
            always_clocked_registers=32 - active_width + 8,
            name=name,
        )

    # -- structural properties ---------------------------------------------

    @property
    def active_generator(self) -> SequenceGenerator:
        """The sequence generator currently driving ``WMARK``."""
        return self.generators[self.active_index]

    @property
    def wmark(self) -> int:
        """Current value of the watermark output signal."""
        return self._wmark

    @property
    def period(self) -> int:
        """Period of the watermark sequence."""
        return self.active_generator.period

    @property
    def register_count(self) -> int:
        """Total flip-flop count of the WGC (all generators plus config)."""
        generators = sum(g.register_count for g in self.generators)
        return generators + self.always_clocked_registers

    @property
    def active_register_count(self) -> int:
        """Flip-flops that are clocked during watermark operation."""
        return self.active_generator.register_count + self.always_clocked_registers

    @property
    def cell_count(self) -> int:
        """Library cell count (registers plus control gates)."""
        return self.register_count + self.control.gate_count

    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class, for leakage and area estimation."""
        return {"dff": self.register_count, "comb": self.control.gate_count}

    # -- behaviour ----------------------------------------------------------

    def reset(self) -> None:
        """Reset every generator to its seed state."""
        for generator in self.generators:
            generator.reset()
        self._wmark = self.active_generator.output_bit

    def step(self, clock_enabled: bool = True) -> Tuple[int, ActivityRecord]:
        """Advance the WGC one clock cycle.

        Returns the new ``WMARK`` bit and the WGC's own switching activity
        (active generator, always-clocked configuration registers and a
        small amount of control-logic activity).
        """
        if not clock_enabled:
            return self._wmark, ActivityRecord()
        bit, generator_activity = self.active_generator.step()
        self._wmark = bit
        config_activity = ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.always_clocked_registers
        )
        control_activity = self.control.step(active=True)
        return self._wmark, generator_activity + config_activity + control_activity

    def activity_trace(self, num_cycles: int) -> ActivityTrace:
        """Array form of :meth:`step`: ``num_cycles`` cycles from reset."""
        trace = self.active_generator.activity_trace(num_cycles)
        control = self.control.activity_trace(np.ones(num_cycles, dtype=bool))
        return ActivityTrace(
            self.name,
            clock_toggles=trace.clock_toggles
            + CLOCK_EDGES_PER_CYCLE * self.always_clocked_registers,
            data_toggles=trace.data_toggles,
            comb_toggles=trace.comb_toggles + control.comb_toggles,
        )

    def sequence(self, length: Optional[int] = None) -> np.ndarray:
        """The watermark sequence as a numpy array of 0/1 values.

        This is the model vector ``X`` the CPA detector correlates against
        (after the detector's own rotation handling).
        """
        return self.active_generator.sequence(length)
