"""Clock-modulation watermark load (the paper's proposed technique).

Instead of adding a dedicated load circuit, the proposed architecture
(Fig. 1(b)) reuses clock-gated sequential logic that already exists in the
design: the ``WMARK`` bit is ANDed into the enable of the block's integrated
clock gates, so while ``WMARK`` is 1 the block's clock tree (and every
register clock buffer below it) toggles, and while ``WMARK`` is 0 the clock
is stopped at the gates and the block consumes no dynamic power.

Two flavours are provided:

* :class:`ClockModulatedBank` -- the *redundant* 1,024-register bank used on
  the paper's test chips (32 words x 32 bits, one ICG per word, registers
  pre-initialised to zero so by default no data switching occurs).  This is
  the configuration measured in Section IV and costed in Table I.
* :class:`ClockModulatedIPBlock` -- the intended end application: an existing
  commercial IP sub-module whose clock gates are modulated, so the watermark
  adds *no* load registers at all.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.rtl.activity import ActivityRecord, ActivityTrace, ZERO_ACTIVITY
from repro.rtl.clock_tree import ClockTree
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE, CombinationalBlock, RegisterBank


class ClockModulatedBank:
    """The redundant clock-gated register bank of the test chips (Fig. 4(a)).

    Parameters
    ----------
    num_words, word_width:
        Bank organisation; the silicon uses 32 words of 32 bits (1,024
        registers).
    switching_registers:
        How many registers flip their data when clocked.  The silicon
        pre-initialises all registers to 0 so no data switching occurs
        (``0``); Table I additionally evaluates 256, 512 and 1,024.
    clock_tree_fanout:
        Maximum fanout used when building the bank's local clock tree.
    """

    def __init__(
        self,
        num_words: int = 32,
        word_width: int = 32,
        switching_registers: int = 0,
        clock_tree_fanout: int = 16,
        name: str = "cm_bank",
    ) -> None:
        self.name = name
        self.bank = RegisterBank(
            f"{name}/bank",
            num_words=num_words,
            word_width=word_width,
            switching_registers=switching_registers,
        )
        self.enable_logic = CombinationalBlock(f"{name}/enable", gate_count=num_words, activity_factor=0.05)
        # Local clock tree feeding the ICGs; it sits above the gates, so it
        # keeps toggling even when the watermark disables the words.  Its
        # contribution is small (num_words sinks).
        self.icg_clock_tree = ClockTree(f"{name}/icg_tree", num_sinks=num_words, max_fanout=clock_tree_fanout)

    # -- structural properties ---------------------------------------------

    @property
    def register_count(self) -> int:
        """Registers added by this (redundant) load implementation."""
        return self.bank.total_registers

    @property
    def switching_registers(self) -> int:
        """Registers that flip data when the watermark enables the clock."""
        return self.bank.switching_registers

    @property
    def num_words(self) -> int:
        """Number of clock-gated words (equals the number of ICGs)."""
        return self.bank.num_words

    def cell_inventory(self) -> Dict[str, int]:
        """Cell counts per library class, for leakage/area estimation."""
        return {
            "dff": self.bank.total_registers,
            "icg": self.bank.num_words,
            "clk_buf": self.icg_clock_tree.buffer_count,
            "comb": self.enable_logic.gate_count,
        }

    # -- behaviour ------------------------------------------------------------

    def reset(self) -> None:
        """Reset the bank contents and clock gates."""
        self.bank.reset()

    def step(self, wmark: int, clk_ctrl: int = 1) -> ActivityRecord:
        """Advance one cycle.

        ``clk_ctrl`` is the original clock-gate control of the host design
        (Fig. 1(b)); the effective enable is ``WMARK AND CLK_CTRL``.  For the
        stand-alone redundant bank ``clk_ctrl`` is tied high.
        """
        enable = bool(wmark) and bool(clk_ctrl)
        activity = self.bank.step(enable)
        # The ICG-level clock tree above the gates follows the root clock and
        # keeps running; the enable glue logic switches when WMARK changes.
        activity = activity + self.icg_clock_tree.step(gated=False)
        activity = activity + self.enable_logic.step(active=enable)
        return activity

    def activity_trace(self, wmark: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`step` (``clk_ctrl`` tied high) from reset."""
        enable = np.asarray(wmark, dtype=bool)
        bank = self.bank.activity_trace(enable)
        enable_logic = self.enable_logic.activity_trace(enable)
        return ActivityTrace(
            self.name,
            clock_toggles=bank.clock_toggles + self.icg_clock_tree.toggles_per_cycle(),
            data_toggles=bank.data_toggles,
            comb_toggles=bank.comb_toggles + enable_logic.comb_toggles,
        )

    def expected_active_activity(self) -> ActivityRecord:
        """Activity of one enabled cycle, for analytical power estimates."""
        return ActivityRecord(
            clock_toggles=(
                CLOCK_EDGES_PER_CYCLE * self.bank.total_registers
                + CLOCK_EDGES_PER_CYCLE * self.bank.num_words
                + self.icg_clock_tree.toggles_per_cycle()
            ),
            data_toggles=self.bank.switching_registers,
            comb_toggles=int(round(self.enable_logic.gate_count * self.enable_logic.activity_factor)),
        )


class ClockModulatedIPBlock:
    """An existing IP sub-module whose clock gates are watermark-modulated.

    This is the intended end application (Section IV, last paragraph): no
    redundant registers are added at all; the watermark reuses the
    sub-module's own ``modulated_registers`` flip-flops and their clock
    tree.  The block's functional behaviour is outside the scope of the
    power model -- what matters is that its clock tree toggles when
    ``WMARK AND CLK_CTRL`` is 1.

    Parameters
    ----------
    modulated_registers:
        Number of flip-flops below the modulated clock gate(s).
    data_activity_factor:
        Average fraction of those registers that change data per enabled
        cycle (0 for an idle sub-module, which is the paper's measurement
        scenario: the watermark is exercised while the sub-module is
        otherwise inactive).
    """

    def __init__(
        self,
        modulated_registers: int,
        data_activity_factor: float = 0.0,
        num_clock_gates: Optional[int] = None,
        clock_tree_fanout: int = 16,
        name: str = "cm_ip",
    ) -> None:
        if modulated_registers <= 0:
            raise ValueError("the modulated sub-module must contain registers")
        if not 0.0 <= data_activity_factor <= 1.0:
            raise ValueError("data activity factor must be within [0, 1]")
        self.name = name
        self.modulated_registers = modulated_registers
        self.data_activity_factor = data_activity_factor
        self.num_clock_gates = num_clock_gates or max(1, modulated_registers // 32)
        self.clock_tree = ClockTree(f"{name}/clk_tree", num_sinks=modulated_registers, max_fanout=clock_tree_fanout)

    @property
    def register_count(self) -> int:
        """Registers *added* by the watermark: none, the block already exists."""
        return 0

    def cell_inventory(self) -> Dict[str, int]:
        """Cells whose activity the watermark modulates (owned by the host IP)."""
        return {
            "dff": self.modulated_registers,
            "icg": self.num_clock_gates,
            "clk_buf": self.clock_tree.buffer_count,
        }

    def reset(self) -> None:
        """The block holds no watermark-owned state."""
        return None

    def step(self, wmark: int, clk_ctrl: int = 1) -> ActivityRecord:
        """Activity of the modulated sub-module for one cycle."""
        enable = bool(wmark) and bool(clk_ctrl)
        if not enable:
            return ZERO_ACTIVITY
        register_clocks = CLOCK_EDGES_PER_CYCLE * self.modulated_registers
        gate_clocks = CLOCK_EDGES_PER_CYCLE * self.num_clock_gates
        tree_clocks = self.clock_tree.toggles_per_cycle()
        data = int(round(self.modulated_registers * self.data_activity_factor))
        return ActivityRecord(
            clock_toggles=register_clocks + gate_clocks + tree_clocks,
            data_toggles=data,
        )

    def activity_trace(self, wmark: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`step` (``clk_ctrl`` tied high)."""
        enable = np.asarray(wmark, dtype=bool)
        active = self.expected_active_activity()
        return ActivityTrace(
            self.name,
            clock_toggles=active.clock_toggles * enable,
            data_toggles=active.data_toggles * enable,
            comb_toggles=active.comb_toggles * enable,
        )

    def expected_active_activity(self) -> ActivityRecord:
        """Activity of one enabled cycle, for analytical power estimates."""
        return self.step(wmark=1, clk_ctrl=1)
