"""Baseline load circuit (the state of the art the paper improves on).

In the reference power-watermark architecture (Fig. 1(a); Becker et al.
HOST'10, Ziener et al. FPT'06) the watermark power pattern is produced by a
dedicated *load circuit*: a bank of shift registers initialised with the
alternating ``1010...`` pattern whose shift-enable is driven by ``WMARK``.
While ``WMARK`` is high every register bit flips every cycle, maximising
dynamic power; while it is low the circuit is idle.

The load circuit is pure overhead -- its size scales with the host system
because the watermark power must stay detectable above the system's
background noise -- and that is exactly the cost the clock-modulation
technique removes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.power.library import (
    PAPER_CLOCK_BUFFER_POWER_W,
    PAPER_DATA_SWITCHING_POWER_W,
)
from repro.rtl.activity import ActivityRecord, ActivityTrace, ZERO_ACTIVITY
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, ShiftRegister


def registers_for_load_power(
    load_power_w: float,
    clock_buffer_power_w: float = PAPER_CLOCK_BUFFER_POWER_W,
    data_switching_power_w: float = PAPER_DATA_SWITCHING_POWER_W,
) -> int:
    """Number of load-circuit registers needed for a target dynamic power.

    This is the sizing rule of Table II:

    ``N = P_load / (P_data + P_clock) = P_load / (1.126 uW + 1.476 uW)``

    because every register in the load circuit both flips its data and
    toggles its clock buffer each enabled cycle.
    """
    if load_power_w <= 0:
        raise ValueError("load power must be positive")
    per_register = clock_buffer_power_w + data_switching_power_w
    return int(load_power_w / per_register)


class LoadCircuit:
    """A bank of shift registers acting as the watermark load.

    Parameters
    ----------
    num_registers:
        Total number of flip-flops in the load circuit.
    word_width:
        Width of each shift-register word (8 bits in the paper's Fig. 2
        illustration, 16 bits per LUT in the FPGA prior work).
    name:
        Instance name.
    """

    def __init__(self, num_registers: int = 576, word_width: int = 8, name: str = "load") -> None:
        if num_registers <= 0:
            raise ValueError("load circuit needs at least one register")
        if word_width <= 0:
            raise ValueError("word width must be positive")
        self.name = name
        self.word_width = word_width
        self.num_registers = num_registers
        self.words: List[ShiftRegister] = []
        remaining = num_registers
        index = 0
        while remaining > 0:
            width = min(word_width, remaining)
            self.words.append(ShiftRegister(f"{name}/sr{index}", width=width, circular=True))
            remaining -= width
            index += 1

    @classmethod
    def sized_for_power(
        cls, load_power_w: float, word_width: int = 8, name: str = "load"
    ) -> "LoadCircuit":
        """Build a load circuit sized for a target detectable dynamic power."""
        return cls(
            num_registers=registers_for_load_power(load_power_w),
            word_width=word_width,
            name=name,
        )

    # -- structural properties ---------------------------------------------

    @property
    def register_count(self) -> int:
        """Total number of flip-flops."""
        return self.num_registers

    @property
    def cell_count(self) -> int:
        """Library cell count (one DFF per bit)."""
        return self.num_registers

    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class."""
        return {"dff": self.num_registers}

    # -- behaviour ------------------------------------------------------------

    def reset(self) -> None:
        """Re-initialise every word with the alternating pattern."""
        for word in self.words:
            word.reset()

    def step(self, wmark: int) -> ActivityRecord:
        """Advance the load circuit one cycle with the given ``WMARK`` bit.

        When ``WMARK`` is 1 every register shifts: all clock buffers toggle
        and, thanks to the alternating initialisation, every bit flips.
        When ``WMARK`` is 0 the shift-enable is low and the circuit is idle.
        """
        if not wmark:
            return ZERO_ACTIVITY
        total = ZERO_ACTIVITY
        for word in self.words:
            total = total + word.shift(enable=True)
        return total

    def activity_trace(self, wmark: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`step` over consecutive cycles from reset."""
        enable = np.asarray(wmark, dtype=bool)
        total = ActivityTrace.zeros(self.name, len(enable))
        for word in self.words:
            shifted = word.activity_trace(enable)
            total.clock_toggles += shifted.clock_toggles
            total.data_toggles += shifted.data_toggles
        return total

    def expected_active_activity(self) -> ActivityRecord:
        """Activity of one enabled cycle, for analytical power estimates."""
        return ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.num_registers,
            data_toggles=self.num_registers,
        )
