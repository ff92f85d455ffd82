"""Cycle-level activity simulator.

The simulator drives a set of *behavioural blocks* -- callables that, given
the cycle index, advance their internal state by one clock cycle and return
an :class:`ActivityRecord`.  Watermark circuits, the redundant register bank
and the SoC activity model all plug in through this interface, which keeps
the simulator agnostic of what it is simulating while still producing the
per-component activity traces the power estimator needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.rtl.activity import ActivityAccumulator, ActivityRecord, ActivityTrace
from repro.rtl.signals import Clock

#: A behavioural block: advance one cycle, return the activity of that cycle.
StepFunction = Callable[[int], ActivityRecord]


@dataclass
class SimulationResult:
    """Outcome of a cycle-level simulation run."""

    clock: Clock
    num_cycles: int
    traces: Dict[str, ActivityTrace] = field(default_factory=dict)

    def trace(self, name: str) -> ActivityTrace:
        """Activity trace of one block."""
        if name not in self.traces:
            raise KeyError(
                f"no trace named {name!r}; available: {sorted(self.traces)}"
            )
        return self.traces[name]

    def combined_trace(self, names: Optional[List[str]] = None) -> ActivityTrace:
        """Element-wise sum of the selected traces (default: all of them)."""
        selected = names if names is not None else sorted(self.traces)
        if not selected:
            raise ValueError("no traces to combine")
        combined = self.traces[selected[0]]
        for name in selected[1:]:
            combined = combined.add(self.traces[name])
        combined.name = "combined"
        return combined

    @property
    def duration_s(self) -> float:
        """Simulated wall-clock duration."""
        return self.num_cycles * self.clock.period_s


class CycleSimulator:
    """Runs registered behavioural blocks cycle by cycle.

    Example
    -------
    >>> from repro.rtl import CycleSimulator
    >>> from repro.rtl.signals import Clock
    >>> from repro.core import WatermarkGenerationCircuit
    >>> sim = CycleSimulator(Clock("clk", 10e6))
    >>> wgc = WatermarkGenerationCircuit.minimal(width=4)
    >>> sim.add_block("wgc", lambda cycle: wgc.step()[1])
    >>> result = sim.run(32)
    >>> len(result.trace("wgc"))
    32
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._blocks: Dict[str, StepFunction] = {}
        self._reset_hooks: List[Callable[[], None]] = []

    def add_block(self, name: str, step: StepFunction, reset: Optional[Callable[[], None]] = None) -> None:
        """Register a behavioural block under ``name``."""
        if name in self._blocks:
            raise ValueError(f"duplicate simulation block {name!r}")
        self._blocks[name] = step
        if reset is not None:
            self._reset_hooks.append(reset)

    @property
    def block_names(self) -> List[str]:
        """Names of all registered blocks."""
        return sorted(self._blocks)

    def reset(self) -> None:
        """Invoke every registered reset hook."""
        for hook in self._reset_hooks:
            hook()

    def run(self, num_cycles: int, reset_first: bool = False) -> SimulationResult:
        """Simulate ``num_cycles`` clock cycles and return the activity traces."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        if not self._blocks:
            raise ValueError("no simulation blocks registered")
        if reset_first:
            self.reset()
        accumulator = ActivityAccumulator()
        for cycle in range(num_cycles):
            for name, step in self._blocks.items():
                accumulator.record(name, step(cycle))
            accumulator.end_cycle()
        return SimulationResult(
            clock=self.clock,
            num_cycles=num_cycles,
            traces=accumulator.finalize(),
        )

    def run_periodic(
        self, period_cycles: int, num_cycles: int, reset_first: bool = True
    ) -> SimulationResult:
        """Simulate one period cycle-accurately and tile it to ``num_cycles``.

        This is the synthesis fast path for strictly periodic block sets
        (watermark circuits repeat exactly with the sequence period): the
        per-cycle Python loop runs ``period_cycles`` times regardless of the
        acquisition length, and the remaining cycles are produced by array
        tiling.  The caller asserts periodicity; ``run`` stays the golden
        reference and the equivalence is pinned in the test suite.  Blocks
        are reset first by default so the period starts from the power-on
        state, as a full :meth:`run` from reset would.
        """
        if period_cycles <= 0:
            raise ValueError("period_cycles must be positive")
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        result = self.run(min(period_cycles, num_cycles), reset_first=reset_first)
        if result.num_cycles >= num_cycles:
            return result
        return SimulationResult(
            clock=self.clock,
            num_cycles=num_cycles,
            traces={
                name: trace.tile(num_cycles) for name, trace in result.traces.items()
            },
        )
