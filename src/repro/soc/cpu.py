"""Cortex-M0-class scalar in-order core model.

The core executes programs written in the Thumb-like ISA and, for every
clock cycle, reports a switching-activity record assembled from:

* the core's clock network (always-clocked control registers, pipeline
  registers while the core is not sleeping, register-file write banks when
  a result is written),
* datapath toggles (fetch bus, operand buses, ALU result, load/store data),
* decode/ALU combinational activity, and
* the activity returned by the system bus / SRAM for memory accesses.

Timing loosely follows the Cortex-M0: single-cycle ALU operations,
two-cycle loads and stores, pipeline-refill penalty on taken branches.
The goal is not microarchitectural fidelity but a background power trace
whose cycle-to-cycle structure is driven by real instruction execution --
exactly the "noise" the CPA detector has to overcome in the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from dataclasses import dataclass, field

import numpy as np

from repro.caching import LRUCache
from repro.rtl.activity import ActivityRecord, ActivityTrace, ZERO_ACTIVITY
from repro.rtl.components import CLOCK_EDGES_PER_CYCLE
from repro.rtl.signals import hamming_distance
from repro.soc.assembler import Program
from repro.soc.bus import SystemBus
from repro.soc.isa import (
    Condition,
    Instruction,
    Opcode,
    Operand,
    TAKEN_BRANCH_PENALTY,
    LR,
    PC,
    SP,
)

_WORD_MASK = 0xFFFFFFFF

#: One cycle's ``(clock_toggles, data_toggles, comb_toggles)``.
CycleCounts = Tuple[int, int, int]

#: Branch conditions as predicates over the ``(n, z, c, v)`` flags.
_CONDITIONS: Dict[Condition, Callable[[bool, bool, bool, bool], bool]] = {
    Condition.AL: lambda n, z, c, v: True,
    Condition.EQ: lambda n, z, c, v: z,
    Condition.NE: lambda n, z, c, v: not z,
    Condition.CS: lambda n, z, c, v: c,
    Condition.CC: lambda n, z, c, v: not c,
    Condition.MI: lambda n, z, c, v: n,
    Condition.PL: lambda n, z, c, v: not n,
    Condition.LT: lambda n, z, c, v: n != v,
    Condition.LE: lambda n, z, c, v: z or (n != v),
    Condition.GT: lambda n, z, c, v: (not z) and (n == v),
    Condition.GE: lambda n, z, c, v: n == v,
}


# -- shared M0 window cache ----------------------------------------------------
#
# Every ``ChipModel.m0_activity`` call used to re-run the cycle-accurate
# window simulation -- the last O(cycles) Python loop on the generation
# side.  The simulated window is a pure function of the program (including
# its initial memory image), the window length and the structural
# configuration of the core/bus, so one simulation can be shared by every
# chip instance that executes the same program.  The cache is keyed by a
# caller-built tuple (see ``ChipModel._m0_window_cache_key``) whose program
# component comes from :func:`program_fingerprint`, which is what
# invalidates entries when the program text or memory image differs.

#: Upper bound on retained window traces (LRU eviction beyond this).
M0_WINDOW_CACHE_MAX_ENTRIES = 32

_M0_WINDOW_CACHE = LRUCache(lambda: M0_WINDOW_CACHE_MAX_ENTRIES)


def program_fingerprint(program: Program) -> Hashable:
    """Hashable identity of a program *and* its initial memory image.

    Two programs share a fingerprint exactly when they decode to the same
    instruction stream (opcodes, operands, conditions), branch labels,
    entry point and ``.word`` data section -- i.e. when a cycle-accurate
    run from reset is guaranteed to produce the same activity.  Used as
    the program component of the shared M0 window-cache key, so a changed
    program or memory image can never alias a stale cached window.
    """
    instructions = tuple(
        (
            instruction.opcode.value,
            tuple((operand.kind, operand.value) for operand in instruction.operands),
            instruction.condition.value,
        )
        for instruction in program.instructions
    )
    return (
        program.entry_point,
        instructions,
        tuple(sorted(program.labels.items())),
        tuple(sorted(program.data_words.items())),
    )


def _frozen_trace_copy(trace: ActivityTrace) -> ActivityTrace:
    """A read-only snapshot of a trace (shared cache entries must not mutate)."""
    arrays = {}
    for attr in ("clock_toggles", "data_toggles", "comb_toggles"):
        array = np.array(getattr(trace, attr), dtype=np.int64)
        array.flags.writeable = False
        arrays[attr] = array
    return ActivityTrace(name=trace.name, **arrays)


def cached_window_trace(
    key: Hashable, simulate: Callable[[], ActivityTrace]
) -> ActivityTrace:
    """The cached activity window for ``key``, simulating on a miss.

    The returned trace shares read-only arrays with the cache, so callers
    can gather/index freely but cannot corrupt other chips' view of the
    window.
    """
    return _M0_WINDOW_CACHE.get_or_compute(key, lambda: _frozen_trace_copy(simulate()))


def clear_m0_window_cache() -> None:
    """Explicitly drop every cached M0 window (and reset the hit counters)."""
    _M0_WINDOW_CACHE.clear()


def m0_window_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters plus current size of the window cache."""
    return _M0_WINDOW_CACHE.stats()


@dataclass(frozen=True)
class CPUActivityModel:
    """Structural activity parameters of the core.

    Register counts are representative of a Cortex-M0-class core
    (~1,000 flip-flops); they determine the clock-network share of the
    core's dynamic power, which the paper notes is typically up to half of
    total dynamic power.
    """

    always_clocked_registers: int = 180
    pipeline_registers: int = 130
    regfile_registers: int = 512
    regfile_write_width: int = 32
    decode_gates: int = 400
    alu_gates: int = 600
    comb_activity_factor: float = 0.12

    @property
    def total_registers(self) -> int:
        """Total flip-flop count of the core."""
        return self.always_clocked_registers + self.pipeline_registers + self.regfile_registers

    def idle_activity(self) -> ActivityRecord:
        """Activity of a cycle in which the core is clocked but sleeping."""
        return ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * self.always_clocked_registers
        )

    def cycle_activity(
        self,
        executing: bool,
        regfile_write: bool,
        datapath_toggles: int,
        comb_toggles: int,
    ) -> ActivityRecord:
        """Assemble the core-internal activity of one cycle."""
        clocked = self.always_clocked_registers
        if executing:
            clocked += self.pipeline_registers
        if regfile_write:
            clocked += self.regfile_write_width
        return ActivityRecord(
            clock_toggles=CLOCK_EDGES_PER_CYCLE * clocked,
            data_toggles=datapath_toggles,
            comb_toggles=comb_toggles,
        )


@dataclass
class ExecutionStats:
    """Aggregate execution statistics of a run.

    ``cycles`` counts only cycles during which the core was running the
    program; cycles stepped after ``halt`` are tracked separately in
    ``halted_cycles`` so CPI and cycle-count consumers are not inflated by
    post-halt idle stepping (the core is still clocked while halted, which
    matters for power but not for execution statistics).
    """

    cycles: int = 0
    halted_cycles: int = 0
    instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    memory_accesses: int = 0
    halted: bool = False

    @property
    def total_cycles(self) -> int:
        """All stepped cycles, including post-halt idle cycles."""
        return self.cycles + self.halted_cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction (excluding post-halt idle cycles)."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


class CPUError(Exception):
    """Raised on invalid program behaviour (bad PC, missing label, ...)."""


class CortexM0Like:
    """In-order scalar core executing an assembled :class:`Program`."""

    def __init__(
        self,
        program: Program,
        bus: SystemBus,
        activity_model: Optional[CPUActivityModel] = None,
        stack_pointer: int = 0x2000_F000,
        name: str = "cpu0",
    ) -> None:
        self.name = name
        self.program = program
        self.bus = bus
        self.activity = activity_model or CPUActivityModel()
        self.registers: List[int] = [0] * 16
        self.registers[SP] = stack_pointer
        self.registers[PC] = program.entry_point
        self.flags = {"n": False, "z": False, "c": False, "v": False}
        self.stats = ExecutionStats()
        self.halted = False
        self._initial_sp = stack_pointer
        # Datapath history for Hamming-distance switching estimates.
        self._prev_fetch_word = 0
        self._prev_result = 0
        self._prev_operands = (0, 0)
        # Multi-cycle instruction bookkeeping.
        self._stall_cycles = 0
        self._pending_counts: Optional[CycleCounts] = None
        # Constants of the per-cycle path: the fetch encoding of every
        # instruction of the program and the activity-model terms that do
        # not depend on the executed instruction.
        self._fetch_words = [instruction.encode() for instruction in program.instructions]
        model = self.activity
        self._decode_comb_toggles = int(
            round((model.decode_gates + model.alu_gates) * model.comb_activity_factor)
        )
        self._idle_counts: CycleCounts = (model.idle_activity().clock_toggles, 0, 0)

    # -- architectural helpers -----------------------------------------------

    def reset(self) -> None:
        """Reset architectural and activity state (memory is left alone)."""
        self.registers = [0] * 16
        self.registers[SP] = self._initial_sp
        self.registers[PC] = self.program.entry_point
        self.flags = {"n": False, "z": False, "c": False, "v": False}
        self.stats = ExecutionStats()
        self.halted = False
        self._prev_fetch_word = 0
        self._prev_result = 0
        self._prev_operands = (0, 0)
        self._stall_cycles = 0
        self._pending_counts = None

    def register(self, index: int) -> int:
        """Read an architectural register."""
        return self.registers[index] & _WORD_MASK

    def _write_register(self, index: int, value: int) -> None:
        self.registers[index] = value & _WORD_MASK

    def _operand_value(self, operand: Operand) -> int:
        if operand.kind == "reg":
            return self.register(operand.value)
        if operand.kind == "imm":
            return operand.value & _WORD_MASK
        raise CPUError(f"cannot read value of operand kind {operand.kind!r}")

    def _set_nz(self, value: int) -> None:
        value &= _WORD_MASK
        self.flags["n"] = bool(value & 0x8000_0000)
        self.flags["z"] = value == 0

    @staticmethod
    def _to_signed(value: int) -> int:
        value &= _WORD_MASK
        return value - (1 << 32) if value & 0x8000_0000 else value

    def _set_add_flags(self, a: int, b: int, result: int) -> None:
        self._set_nz(result)
        self.flags["c"] = result > _WORD_MASK
        signed_a = self._to_signed(a)
        signed_b = self._to_signed(b)
        signed_r = self._to_signed(result)
        self.flags["v"] = bool((signed_a >= 0) == (signed_b >= 0) and (signed_r >= 0) != (signed_a >= 0))

    def _set_sub_flags(self, a: int, b: int, result: int) -> None:
        self._set_nz(result)
        self.flags["c"] = (a & _WORD_MASK) >= (b & _WORD_MASK)
        signed_a = self._to_signed(a)
        signed_b = self._to_signed(b)
        signed_r = self._to_signed(result)
        self.flags["v"] = bool((signed_a >= 0) != (signed_b >= 0) and (signed_r >= 0) != (signed_a >= 0))

    def _condition_met(self, condition: Condition) -> bool:
        flags = self.flags
        return _CONDITIONS[condition](flags["n"], flags["z"], flags["c"], flags["v"])

    # -- execution -----------------------------------------------------------

    def step_cycle(self) -> ActivityRecord:
        """Advance the core by exactly one clock cycle."""
        clock_toggles, data_toggles, comb_toggles = self._step_counts()
        return ActivityRecord(clock_toggles, data_toggles, comb_toggles)

    def _step_counts(self) -> CycleCounts:
        """:meth:`step_cycle` as a plain ``(clock, data, comb)`` tuple."""
        if self.halted:
            self.stats.halted_cycles += 1
            return self._idle_counts
        self.stats.cycles += 1
        if self._stall_cycles > 0:
            self._stall_cycles -= 1
            clock_toggles, data_toggles, comb_toggles = self._pending_counts or self._idle_counts
            # Stall cycles re-use the clock network but not the full datapath.
            return clock_toggles, data_toggles // 2, comb_toggles // 2
        return self._execute_next_instruction()

    def _execute_next_instruction(self) -> CycleCounts:
        pc = self.registers[PC]
        if not 0 <= pc < len(self.program.instructions):
            raise CPUError(f"program counter {pc} outside program of {len(self.program)} instructions")
        instruction = self.program.instructions[pc]
        self.stats.instructions += 1

        fetch_word = self._fetch_words[pc]
        fetch_toggles = hamming_distance(self._prev_fetch_word, fetch_word, 16)
        self._prev_fetch_word = fetch_word

        result, next_pc, bus_activity, extra_cycles, regfile_write, operand_toggles = self._execute(
            instruction, pc
        )

        result_toggles = hamming_distance(self._prev_result, result, 32)
        self._prev_result = result
        datapath_toggles = fetch_toggles + result_toggles + operand_toggles
        comb_toggles = self._decode_comb_toggles + datapath_toggles // 2

        core_activity = self.activity.cycle_activity(
            executing=True,
            regfile_write=regfile_write,
            datapath_toggles=datapath_toggles,
            comb_toggles=comb_toggles,
        )
        self._pending_counts = (core_activity.clock_toggles, datapath_toggles, comb_toggles)

        total_cycles = instruction.base_cycles() + extra_cycles
        self._stall_cycles = max(0, total_cycles - 1)
        self.registers[PC] = next_pc
        return (
            core_activity.clock_toggles + bus_activity.clock_toggles,
            datapath_toggles + bus_activity.data_toggles,
            comb_toggles + bus_activity.comb_toggles,
        )

    def _execute(
        self, instruction: Instruction, pc: int
    ) -> Tuple[int, int, ActivityRecord, int, bool, int]:
        """Execute one instruction.

        Returns ``(result, next_pc, bus_activity, extra_cycles,
        regfile_write, operand_toggles)``.
        """
        opcode = instruction.opcode
        operands = instruction.operands
        bus_activity = ZERO_ACTIVITY
        extra_cycles = 0
        regfile_write = False
        result = 0
        next_pc = pc + 1

        operand_values = [
            self._operand_value(op) for op in operands if op.kind in ("reg", "imm")
        ]
        operand_toggles = 0
        if operand_values:
            a = operand_values[0]
            b = operand_values[1] if len(operand_values) > 1 else 0
            operand_toggles = hamming_distance(self._prev_operands[0], a, 32) + hamming_distance(
                self._prev_operands[1], b, 32
            )
            self._prev_operands = (a, b)

        if opcode is Opcode.NOP:
            pass
        elif opcode is Opcode.HALT:
            self.halted = True
            self.stats.halted = True
            next_pc = pc
        elif opcode in (Opcode.MOV, Opcode.MVN):
            value = self._operand_value(operands[1])
            result = (~value & _WORD_MASK) if opcode is Opcode.MVN else value
            self._write_register(operands[0].value, result)
            self._set_nz(result)
            regfile_write = True
        elif opcode in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.ORR, Opcode.EOR,
                        Opcode.LSL, Opcode.LSR, Opcode.ASR):
            result, regfile_write = self._execute_alu(opcode, operands)
        elif opcode is Opcode.CMP:
            a = self._operand_value(operands[0])
            b = self._operand_value(operands[1])
            result = (a - b) & _WORD_MASK
            self._set_sub_flags(a, b, a - b)
        elif opcode in (Opcode.LDR, Opcode.LDRB, Opcode.STR, Opcode.STRB):
            result, bus_activity, extra_cycles, regfile_write = self._execute_memory(opcode, operands)
            self.stats.memory_accesses += 1
        elif opcode is Opcode.PUSH:
            bus_activity, extra_cycles = self._execute_push(operands[0])
            self.stats.memory_accesses += len(operands[0].value)
        elif opcode is Opcode.POP:
            result, next_pc_override, bus_activity, extra_cycles = self._execute_pop(operands[0], next_pc)
            next_pc = next_pc_override
            regfile_write = True
            self.stats.memory_accesses += len(operands[0].value)
        elif opcode is Opcode.B:
            self.stats.branches += 1
            if self._condition_met(instruction.condition):
                self.stats.taken_branches += 1
                next_pc = self.program.label_address(operands[0].value)
                extra_cycles = TAKEN_BRANCH_PENALTY
        elif opcode is Opcode.BL:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            self._write_register(LR, pc + 1)
            next_pc = self.program.label_address(operands[0].value)
            regfile_write = True
        elif opcode is Opcode.BX:
            self.stats.branches += 1
            self.stats.taken_branches += 1
            next_pc = self.register(operands[0].value)
        else:  # pragma: no cover - all opcodes handled above
            raise CPUError(f"unhandled opcode {opcode}")
        return result, next_pc, bus_activity, extra_cycles, regfile_write, operand_toggles

    def _execute_alu(self, opcode: Opcode, operands: Tuple[Operand, ...]) -> Tuple[int, bool]:
        destination = operands[0].value
        if len(operands) == 3:
            a = self._operand_value(operands[1])
            b = self._operand_value(operands[2])
        else:
            a = self.register(destination)
            b = self._operand_value(operands[1])
        if opcode is Opcode.ADD:
            raw = a + b
            result = raw & _WORD_MASK
            self._set_add_flags(a, b, raw)
        elif opcode is Opcode.SUB:
            raw = a - b
            result = raw & _WORD_MASK
            self._set_sub_flags(a, b, raw)
        elif opcode is Opcode.MUL:
            result = (a * b) & _WORD_MASK
            self._set_nz(result)
        elif opcode is Opcode.AND:
            result = a & b
            self._set_nz(result)
        elif opcode is Opcode.ORR:
            result = a | b
            self._set_nz(result)
        elif opcode is Opcode.EOR:
            result = a ^ b
            self._set_nz(result)
        elif opcode is Opcode.LSL:
            shift = b & 0x1F
            result = (a << shift) & _WORD_MASK
            self._set_nz(result)
        elif opcode is Opcode.LSR:
            shift = b & 0x1F
            result = (a & _WORD_MASK) >> shift
            self._set_nz(result)
        else:  # ASR
            shift = b & 0x1F
            result = (self._to_signed(a) >> shift) & _WORD_MASK
            self._set_nz(result)
        self._write_register(destination, result)
        return result, True

    def _execute_memory(
        self, opcode: Opcode, operands: Tuple[Operand, ...]
    ) -> Tuple[int, ActivityRecord, int, bool]:
        register_index = operands[0].value
        base, offset = operands[1].value
        address = (self.register(base) + offset) & _WORD_MASK
        width = 1 if opcode in (Opcode.LDRB, Opcode.STRB) else 4
        if opcode in (Opcode.LDR, Opcode.LDRB):
            value, activity, wait = self.bus.access(address, write=False, width=width)
            self._write_register(register_index, value or 0)
            return value or 0, activity, wait, True
        value = self.register(register_index)
        if width == 1:
            value &= 0xFF
        _, activity, wait = self.bus.access(address, write=True, value=value, width=width)
        return value, activity, wait, False

    def _execute_push(self, reglist: Operand) -> Tuple[ActivityRecord, int]:
        activity = ActivityRecord()
        wait_total = 0
        for register_index in reversed(reglist.value):
            self._write_register(SP, self.register(SP) - 4)
            _, access_activity, wait = self.bus.access(
                self.register(SP), write=True, value=self.register(register_index), width=4
            )
            activity = activity + access_activity
            wait_total += wait
        return activity, wait_total

    def _execute_pop(self, reglist: Operand, next_pc: int) -> Tuple[int, int, ActivityRecord, int]:
        activity = ActivityRecord()
        wait_total = 0
        result = 0
        for register_index in reglist.value:
            value, access_activity, wait = self.bus.access(self.register(SP), write=False, width=4)
            self._write_register(SP, self.register(SP) + 4)
            activity = activity + access_activity
            wait_total += wait
            value = value or 0
            result = value
            if register_index == PC:
                next_pc = value
            else:
                self._write_register(register_index, value)
        return result, next_pc, activity, wait_total

    # -- trace generation ----------------------------------------------------

    def run_cycles(self, num_cycles: int) -> ActivityTrace:
        """Run for ``num_cycles`` clock cycles and return the activity trace."""
        if num_cycles <= 0:
            raise ValueError("num_cycles must be positive")
        counts = np.empty((3, num_cycles), dtype=np.int64)
        clock_toggles, data_toggles, comb_toggles = counts
        step = self._step_counts
        # repro-lint: allow[HOT001] golden reference path: the cycle-accurate ISS is the ground truth the fast paths window-cache
        for cycle in range(num_cycles):
            clock_toggles[cycle], data_toggles[cycle], comb_toggles[cycle] = step()
        return ActivityTrace(self.name, clock_toggles, data_toggles, comb_toggles)

    def run_until_halt(self, max_cycles: int = 1_000_000) -> ActivityTrace:
        """Run until the program executes ``halt`` (or ``max_cycles`` elapse)."""
        counts: List[CycleCounts] = []
        # repro-lint: allow[HOT001] golden reference path: halt detection needs the cycle-accurate ISS step loop
        for _ in range(max_cycles):
            counts.append(self._step_counts())
            if self.halted:
                break
        clock_toggles, data_toggles, comb_toggles = np.array(counts, dtype=np.int64).reshape(-1, 3).T
        return ActivityTrace(self.name, clock_toggles, data_toggles, comb_toggles)
