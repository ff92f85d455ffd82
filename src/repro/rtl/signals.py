"""Signals, clocks and logic levels for the RTL substrate.

A :class:`Signal` carries a scalar logic value between components and keeps
its previous value so that toggles (the quantity that costs dynamic power)
can be counted.  A :class:`Clock` describes the periodic signal that drives
sequential elements; the clock itself is never simulated edge by edge --
components know that an *enabled* clock toggles twice per cycle (rising and
falling edge), which is the fact the paper exploits (Section II).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class LogicLevel(enum.IntEnum):
    """Binary logic level of a signal."""

    LOW = 0
    HIGH = 1

    @classmethod
    def from_bool(cls, value: bool) -> "LogicLevel":
        """Convert a boolean to a logic level."""
        return cls.HIGH if value else cls.LOW

    def __invert__(self) -> "LogicLevel":
        return LogicLevel.LOW if self is LogicLevel.HIGH else LogicLevel.HIGH


class Signal:
    """A named scalar signal with toggle tracking.

    Parameters
    ----------
    name:
        Hierarchical name of the signal (``"wgc/wmark"``).
    value:
        Initial logic value.
    """

    __slots__ = ("name", "_value", "_previous", "toggle_count")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self._value = int(bool(value))
        self._previous = self._value
        self.toggle_count = 0

    @property
    def value(self) -> int:
        """Current logic value (0 or 1)."""
        return self._value

    @property
    def previous(self) -> int:
        """Value before the most recent :meth:`set`."""
        return self._previous

    def set(self, value: int) -> bool:
        """Drive the signal to ``value``.

        Returns ``True`` if the value changed (a toggle), ``False`` otherwise.
        """
        new = int(bool(value))
        self._previous = self._value
        toggled = new != self._value
        if toggled:
            self.toggle_count += 1
        self._value = new
        return toggled

    def toggled(self) -> bool:
        """Whether the last :meth:`set` changed the value."""
        return self._value != self._previous

    def reset(self, value: int = 0) -> None:
        """Reset value, previous value and toggle statistics."""
        self._value = int(bool(value))
        self._previous = self._value
        self.toggle_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal(name={self.name!r}, value={self._value})"


@dataclass(frozen=True)
class Clock:
    """Description of a clock domain.

    Attributes
    ----------
    name:
        Clock name, e.g. ``"clk_sys"``.
    frequency_hz:
        Nominal frequency.  The paper's test chips run at 10 MHz.
    duty_cycle:
        High-time fraction, kept for completeness (power models assume 0.5).
    """

    name: str
    frequency_hz: float
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"clock frequency must be positive, got {self.frequency_hz}")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError(f"duty cycle must be in (0, 1), got {self.duty_cycle}")

    @property
    def period_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.frequency_hz

    @property
    def edges_per_cycle(self) -> int:
        """Number of clock-net transitions per cycle (rising + falling)."""
        return 2

    def cycles_for_duration(self, duration_s: float) -> int:
        """Number of whole clock cycles that fit in ``duration_s`` seconds."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return int(duration_s * self.frequency_hz)


@dataclass
class SignalBundle:
    """A named collection of signals, used for multi-bit buses.

    The bundle owns its signals; ``word`` packs them into an integer with
    bit 0 being ``signals[0]``.
    """

    name: str
    width: int
    signals: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("bundle width must be positive")
        if not self.signals:
            self.signals = [Signal(f"{self.name}[{i}]") for i in range(self.width)]
        if len(self.signals) != self.width:
            raise ValueError("number of signals does not match declared width")

    @property
    def word(self) -> int:
        """Pack the bundle into an integer (bit 0 = ``signals[0]``)."""
        value = 0
        for i, sig in enumerate(self.signals):
            value |= (sig.value & 1) << i
        return value

    def drive(self, value: int) -> int:
        """Drive all bits from an integer; returns the number of toggles."""
        toggles = 0
        for i, sig in enumerate(self.signals):
            if sig.set((value >> i) & 1):
                toggles += 1
        return toggles

    def reset(self, value: int = 0) -> None:
        """Reset every bit of the bundle."""
        for i, sig in enumerate(self.signals):
            sig.reset((value >> i) & 1)

    def __len__(self) -> int:
        return self.width


def hamming_distance(a: int, b: int, width: Optional[int] = None) -> int:
    """Number of differing bits between ``a`` and ``b``.

    This is the canonical switching-activity measure for a register word:
    the dynamic energy of a data update is proportional to the Hamming
    distance between the old and new contents.
    """
    diff = a ^ b
    if width is not None:
        diff &= (1 << width) - 1
    return int(diff).bit_count()


def hamming_weight(value: int, width: Optional[int] = None) -> int:
    """Number of set bits in ``value`` (optionally masked to ``width`` bits)."""
    if width is not None:
        value &= (1 << width) - 1
    return bin(value).count("1")
