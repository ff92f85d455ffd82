"""Sequential, clock-network and combinational components.

Every component exposes two things:

* a structural description (cell type, register count, area contribution)
  used by the netlist/area analysis, and
* a per-cycle behavioural ``step`` that returns an :class:`ActivityRecord`
  describing how many nodes toggled during that cycle.

The components the watermark drives also have an array form,
``activity_trace(enable)``: the activity of consecutive cycles from reset
for a per-cycle enable array, bit-identical to stepping them.  ``step``
stays the golden reference.

The clock-power model follows Section II of the paper: when a register's
clock is *enabled*, its internal clock buffer toggles twice per cycle
(rising and falling edge) regardless of whether the stored data changes;
when the clock is gated off, the clock pin does not toggle and no dynamic
power is consumed.  Data toggles are counted as Hamming distance between
the old and the new register contents.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

import numpy as np

from repro.rtl.activity import ActivityRecord, ActivityTrace, ZERO_ACTIVITY
from repro.rtl.signals import hamming_distance, hamming_weight

#: Clock-net transitions per cycle when the clock is propagated.
CLOCK_EDGES_PER_CYCLE = 2


class Component(abc.ABC):
    """Base class for all structural components.

    Parameters
    ----------
    name:
        Hierarchical instance name, unique within a netlist.
    cell_type:
        Library cell class used for power/area lookup
        (``"dff"``, ``"icg"``, ``"clk_buf"``, ``"comb"``).
    """

    def __init__(self, name: str, cell_type: str) -> None:
        if not name:
            raise ValueError("component name must be non-empty")
        self.name = name
        self.cell_type = cell_type

    @property
    def register_count(self) -> int:
        """Number of storage bits implemented by this component."""
        return 0

    @property
    def cell_count(self) -> int:
        """Number of library cells this component maps to."""
        return 1

    @abc.abstractmethod
    def reset(self) -> None:
        """Return the component to its power-on state."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class Register(Component):
    """A ``width``-bit register word with a clock-enable.

    The register models a word of flip-flops sharing one local clock branch.
    ``step(clock_enabled, next_value)`` advances one cycle:

    * if the clock is enabled the clock pins of all ``width`` flip-flops
      toggle twice and the data toggles equal the Hamming distance between
      the current and next contents;
    * if the clock is gated the register retains its value and reports zero
      activity.
    """

    def __init__(self, name: str, width: int = 1, reset_value: int = 0) -> None:
        super().__init__(name, cell_type="dff")
        if width <= 0:
            raise ValueError("register width must be positive")
        self.width = width
        self.reset_value = reset_value & ((1 << width) - 1)
        self.value = self.reset_value

    @property
    def register_count(self) -> int:
        return self.width

    @property
    def cell_count(self) -> int:
        return self.width

    def reset(self) -> None:
        self.value = self.reset_value

    def step(self, clock_enabled: bool, next_value: Optional[int] = None) -> ActivityRecord:
        """Advance one clock cycle.

        Parameters
        ----------
        clock_enabled:
            Whether the (possibly gated) clock reaches this register word.
        next_value:
            Value captured at the clock edge.  ``None`` means "hold".
        """
        if not clock_enabled:
            return ZERO_ACTIVITY
        clock_toggles = CLOCK_EDGES_PER_CYCLE * self.width
        data_toggles = 0
        if next_value is not None:
            next_value &= (1 << self.width) - 1
            data_toggles = hamming_distance(self.value, next_value, self.width)
            self.value = next_value
        return ActivityRecord(clock_toggles=clock_toggles, data_toggles=data_toggles)


class ShiftRegister(Register):
    """A shift register used as the baseline watermark *load circuit*.

    The state-of-the-art power watermark (Fig. 1(a) of the paper) drives an
    ``N``-bit shift register initialised with the alternating ``1010...``
    pattern.  While the shift-enable is high every bit changes on every
    cycle, maximising dynamic power.
    """

    #: Alternating pattern that maximises per-shift Hamming distance.
    ALTERNATING_PATTERN = 0b10

    def __init__(self, name: str, width: int = 8, circular: bool = True) -> None:
        pattern = 0
        for i in range(width):
            if i % 2 == 1:
                pattern |= 1 << i
        super().__init__(name, width=width, reset_value=pattern)
        self.circular = circular

    def shift(self, enable: bool, serial_in: Optional[int] = None) -> ActivityRecord:
        """Shift by one position when ``enable`` is high.

        When the shift-enable is low the register's clock is assumed to be
        gated (as in the reference architecture, where the enable drives the
        shift-enable input) and no activity is produced.
        """
        if not enable:
            return ZERO_ACTIVITY
        return self.step(clock_enabled=True, next_value=self._shifted(self.value, serial_in))

    def _shifted(self, value: int, serial_in: Optional[int] = None) -> int:
        if serial_in is None:
            serial_in = (value >> (self.width - 1)) & 1 if self.circular else 0
        return ((value << 1) | (serial_in & 1)) & ((1 << self.width) - 1)

    def activity_trace(self, enable: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`shift` over consecutive cycles from reset.

        The data toggles of a shift depend only on how many shifts came
        before it: the contents after ``k`` shifts are the reset pattern
        rotated (circular) or shifted out (linear) ``k`` places.  One
        word-width table of per-shift Hamming distances therefore serves
        every cycle.
        """
        enabled = np.asarray(enable, dtype=bool)
        per_shift = np.zeros(self.width + 1, dtype=np.int64)
        value = self.reset_value
        for shifts in range(self.width):
            shifted = self._shifted(value)
            per_shift[shifts] = hamming_distance(value, shifted, self.width)
            value = shifted
        shifts_before = np.cumsum(enabled) - enabled
        if self.circular:
            shifts_before %= self.width
        else:
            np.minimum(shifts_before, self.width, out=shifts_before)
        return ActivityTrace(
            self.name,
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.width * enabled,
            data_toggles=per_shift[shifts_before] * enabled,
            comb_toggles=np.zeros(len(enabled), dtype=np.int64),
        )


class ClockGate(Component):
    """An integrated clock-gating cell (ICG).

    The ICG propagates the input clock to its output branch when the enable
    is high.  The cell itself contributes a small amount of activity (its
    internal latch and the gated-clock root node) which is charged as
    combinational toggles; the activity of the *driven* registers is
    accounted for by the registers themselves.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name, cell_type="icg")
        self.enabled = False
        self._previous_enabled = False

    def reset(self) -> None:
        self.enabled = False
        self._previous_enabled = False

    def step(self, enable: bool) -> ActivityRecord:
        """Evaluate the gate for one cycle and return its own activity."""
        self._previous_enabled = self.enabled
        self.enabled = bool(enable)
        # The enable latch toggles when the enable changes; the gated clock
        # root toggles twice per cycle while enabled.
        comb = 1 if self.enabled != self._previous_enabled else 0
        clock = CLOCK_EDGES_PER_CYCLE if self.enabled else 0
        return ActivityRecord(clock_toggles=clock, comb_toggles=comb)

    def activity_trace(self, enable: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`step` over consecutive cycles from reset."""
        enabled = np.asarray(enable, dtype=bool)
        previous = np.zeros_like(enabled)
        previous[1:] = enabled[:-1]
        return ActivityTrace(
            self.name,
            clock_toggles=CLOCK_EDGES_PER_CYCLE * enabled,
            data_toggles=np.zeros(len(enabled), dtype=np.int64),
            comb_toggles=enabled != previous,
        )

    def clock_out(self, enable: bool) -> bool:
        """Whether the downstream clock branch is active this cycle."""
        return bool(enable)


class ClockBuffer(Component):
    """A clock-tree buffer driving a sub-tree of sinks.

    Buffers toggle twice per cycle whenever their branch of the clock tree
    is active.  The number of sinks is retained so that clock-tree power can
    be reported per level.
    """

    def __init__(self, name: str, fanout: int = 1) -> None:
        super().__init__(name, cell_type="clk_buf")
        if fanout <= 0:
            raise ValueError("clock buffer fanout must be positive")
        self.fanout = fanout

    def reset(self) -> None:  # stateless
        return None

    def step(self, branch_active: bool) -> ActivityRecord:
        """Return the buffer's activity for one cycle."""
        if not branch_active:
            return ZERO_ACTIVITY
        return ActivityRecord(clock_toggles=CLOCK_EDGES_PER_CYCLE)


class CombinationalBlock(Component):
    """A lump of combinational logic with a signal-count and activity factor.

    Used for glue logic (enable gating, LFSR feedback, decoders) whose exact
    gate-level structure is irrelevant to the power signature but whose
    transition count is not.
    """

    def __init__(self, name: str, gate_count: int = 1, activity_factor: float = 0.2) -> None:
        super().__init__(name, cell_type="comb")
        if gate_count <= 0:
            raise ValueError("gate count must be positive")
        if not 0.0 <= activity_factor <= 1.0:
            raise ValueError("activity factor must be within [0, 1]")
        self.gate_count = gate_count
        self.activity_factor = activity_factor

    @property
    def cell_count(self) -> int:
        return self.gate_count

    def reset(self) -> None:  # stateless
        return None

    def step(self, active: bool = True, toggles: Optional[int] = None) -> ActivityRecord:
        """Return the block's activity for one cycle.

        ``toggles`` overrides the activity-factor estimate when the caller
        knows the exact transition count (e.g. XOR feedback of an LFSR).
        """
        if not active:
            return ZERO_ACTIVITY
        if toggles is None:
            toggles = int(round(self.gate_count * self.activity_factor))
        return ActivityRecord(comb_toggles=toggles)

    def activity_trace(self, active: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`step` (activity-factor estimate) per cycle."""
        toggles = self.step(active=True).comb_toggles
        zeros = np.zeros(len(active), dtype=np.int64)
        return ActivityTrace(
            self.name,
            clock_toggles=zeros,
            data_toggles=zeros.copy(),
            comb_toggles=toggles * np.asarray(active, dtype=bool),
        )


class RegisterBank(Component):
    """A bank of clock-gated register words (the redundant logic of Fig. 4(a)).

    The paper's test-chip watermark contains 1,024 registers organised as 32
    words of 32 bits, each word clock-gated by one ICG whose enable is driven
    by the watermark bit.  The bank generalises that structure: ``num_words``
    words of ``word_width`` bits, each with its own :class:`ClockGate`.

    ``switching_registers`` selects how many registers toggle their *data*
    when clocked (Table I sweeps 0, 256, 512 and 1,024); the remaining
    registers only burn clock-buffer power.
    """

    def __init__(
        self,
        name: str,
        num_words: int = 32,
        word_width: int = 32,
        switching_registers: int = 0,
    ) -> None:
        super().__init__(name, cell_type="register_bank")
        if num_words <= 0 or word_width <= 0:
            raise ValueError("register bank dimensions must be positive")
        total = num_words * word_width
        if not 0 <= switching_registers <= total:
            raise ValueError(
                f"switching_registers must be within [0, {total}], got {switching_registers}"
            )
        self.num_words = num_words
        self.word_width = word_width
        self.switching_registers = switching_registers
        self.words: List[Register] = [
            Register(f"{name}/word{i}", width=word_width, reset_value=0)
            for i in range(num_words)
        ]
        self.clock_gates: List[ClockGate] = [
            ClockGate(f"{name}/icg{i}") for i in range(num_words)
        ]
        self._toggle_phase = 0

    @property
    def total_registers(self) -> int:
        """Total number of flip-flops in the bank."""
        return self.num_words * self.word_width

    @property
    def register_count(self) -> int:
        return self.total_registers

    @property
    def cell_count(self) -> int:
        return self.total_registers + self.num_words

    def reset(self) -> None:
        for word in self.words:
            word.reset()
        for gate in self.clock_gates:
            gate.reset()
        self._toggle_phase = 0

    def step(self, enable: bool) -> ActivityRecord:
        """Advance the bank one cycle with the watermark bit on the ICG enables.

        When ``enable`` is high every word's clock branch is active, so every
        register's clock buffer toggles twice; the first
        ``switching_registers`` registers additionally invert their contents
        (data toggles).  When ``enable`` is low the bank is completely idle.
        """
        total = ZERO_ACTIVITY
        remaining_switching = self.switching_registers
        for word, gate in zip(self.words, self.clock_gates):
            total = total + gate.step(enable)
            clock_on = gate.clock_out(enable)
            if not clock_on:
                continue
            switching_bits = min(remaining_switching, word.width)
            remaining_switching -= switching_bits
            if switching_bits > 0:
                mask = (1 << switching_bits) - 1
                next_value = word.value ^ mask
            else:
                next_value = word.value
            total = total + word.step(clock_enabled=True, next_value=next_value)
        self._toggle_phase ^= 1
        return total

    def activity_trace(self, enable: np.ndarray) -> ActivityTrace:
        """Array form of :meth:`step` over consecutive cycles from reset.

        Every ICG sees the same enable, so the bank's gate activity is one
        gate's times ``num_words``.  An enabled cycle clocks every register
        and flips exactly ``switching_registers`` bits (the XOR masks cover
        that many bits in total, whatever the word contents).
        """
        enabled = np.asarray(enable, dtype=bool)
        gates = self.clock_gates[0].activity_trace(enabled)
        return ActivityTrace(
            self.name,
            clock_toggles=self.num_words * gates.clock_toggles
            + CLOCK_EDGES_PER_CYCLE * self.total_registers * enabled,
            data_toggles=self.switching_registers * enabled,
            comb_toggles=self.num_words * gates.comb_toggles,
        )
