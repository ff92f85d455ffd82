"""A small Thumb-like instruction set.

The instruction set covers the classes of operations Dhrystone exercises on
a Cortex-M0 (integer arithmetic, logic, shifts, compares, loads/stores,
branches and calls) without attempting binary compatibility.  Instructions
are represented symbolically; a synthetic 16-bit encoding is provided only
so the core's fetch datapath has realistic bit-level switching activity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Architectural register names.  r13 = sp, r14 = lr, r15 = pc.
REGISTER_NAMES: Tuple[str, ...] = tuple(f"r{i}" for i in range(16))
NUM_REGISTERS = 16
SP = 13
LR = 14
PC = 15


class Opcode(enum.Enum):
    """Instruction mnemonics."""

    MOV = "mov"
    MVN = "mvn"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    ORR = "orr"
    EOR = "eor"
    LSL = "lsl"
    LSR = "lsr"
    ASR = "asr"
    CMP = "cmp"
    LDR = "ldr"
    LDRB = "ldrb"
    STR = "str"
    STRB = "strb"
    PUSH = "push"
    POP = "pop"
    B = "b"
    BL = "bl"
    BX = "bx"
    NOP = "nop"
    HALT = "halt"


class Condition(enum.Enum):
    """Branch conditions (a subset of the ARM condition codes)."""

    AL = "al"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    CS = "cs"
    CC = "cc"
    MI = "mi"
    PL = "pl"


#: Base execution latency per opcode, in cycles, loosely following the
#: Cortex-M0 (single-cycle ALU, two-cycle loads/stores, three-cycle taken
#: branches, one extra cycle per transferred register for PUSH/POP).
BASE_CYCLES: Dict[Opcode, int] = {
    Opcode.MOV: 1,
    Opcode.MVN: 1,
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 1,
    Opcode.AND: 1,
    Opcode.ORR: 1,
    Opcode.EOR: 1,
    Opcode.LSL: 1,
    Opcode.LSR: 1,
    Opcode.ASR: 1,
    Opcode.CMP: 1,
    Opcode.LDR: 2,
    Opcode.LDRB: 2,
    Opcode.STR: 2,
    Opcode.STRB: 2,
    Opcode.PUSH: 1,
    Opcode.POP: 1,
    Opcode.B: 1,
    Opcode.BL: 3,
    Opcode.BX: 3,
    Opcode.NOP: 1,
    Opcode.HALT: 1,
}

#: Extra cycles when a branch is taken (pipeline refill).
TAKEN_BRANCH_PENALTY = 2

#: Encoding fields: the declaration index of each opcode and condition.
_OPCODE_FIELDS: Dict[Opcode, int] = {opcode: index for index, opcode in enumerate(Opcode)}
_CONDITION_FIELDS: Dict[Condition, int] = {
    condition: index for index, condition in enumerate(Condition)
}


@dataclass(frozen=True)
class Operand:
    """A single instruction operand."""

    kind: str  # "reg", "imm", "label", "mem", "reglist"
    value: object

    @classmethod
    def reg(cls, index: int) -> "Operand":
        if not 0 <= index < NUM_REGISTERS:
            raise ValueError(f"register index out of range: {index}")
        return cls(kind="reg", value=index)

    @classmethod
    def imm(cls, value: int) -> "Operand":
        return cls(kind="imm", value=int(value))

    @classmethod
    def label(cls, name: str) -> "Operand":
        return cls(kind="label", value=name)

    @classmethod
    def mem(cls, base: int, offset: int = 0) -> "Operand":
        return cls(kind="mem", value=(base, offset))

    @classmethod
    def reglist(cls, registers: List[int]) -> "Operand":
        return cls(kind="reglist", value=tuple(sorted(registers)))


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction."""

    opcode: Opcode
    operands: Tuple[Operand, ...] = ()
    condition: Condition = Condition.AL
    label: Optional[str] = None
    source_line: int = 0

    @property
    def is_branch(self) -> bool:
        """Whether the instruction can redirect control flow."""
        return self.opcode in (Opcode.B, Opcode.BL, Opcode.BX)

    @property
    def is_memory(self) -> bool:
        """Whether the instruction accesses data memory."""
        return self.opcode in (
            Opcode.LDR,
            Opcode.LDRB,
            Opcode.STR,
            Opcode.STRB,
            Opcode.PUSH,
            Opcode.POP,
        )

    def base_cycles(self) -> int:
        """Execution latency before branch/reglist adjustments."""
        cycles = BASE_CYCLES[self.opcode]
        if self.opcode in (Opcode.PUSH, Opcode.POP) and self.operands:
            reglist = self.operands[0]
            if reglist.kind == "reglist":
                cycles += len(reglist.value)
        return cycles

    def encode(self) -> int:
        """Synthetic 16-bit encoding used for fetch-path switching activity.

        The encoding is *not* ARM Thumb; it simply mixes the opcode and
        operand fields into 16 bits so that consecutive fetched words have
        data-dependent Hamming distances, which is what the power model
        needs.
        """
        opcode_field = _OPCODE_FIELDS[self.opcode] & 0x1F
        cond_field = _CONDITION_FIELDS[self.condition] & 0xF
        operand_hash = 0
        for i, operand in enumerate(self.operands):
            if operand.kind == "reg":
                operand_hash ^= (operand.value & 0xF) << (4 * (i % 2))
            elif operand.kind == "imm":
                operand_hash ^= operand.value & 0xFF
            elif operand.kind == "mem":
                base, offset = operand.value
                operand_hash ^= ((base & 0xF) << 4) | (offset & 0xF)
            elif operand.kind == "reglist":
                for reg in operand.value:
                    operand_hash ^= 1 << (reg % 8)
            elif operand.kind == "label":
                operand_hash ^= sum(ord(c) for c in str(operand.value)) & 0xFF
        word = (opcode_field << 11) | (cond_field << 7) | (operand_hash & 0x7F)
        return word & 0xFFFF

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        suffix = "" if self.condition is Condition.AL else self.condition.value
        operand_text = ", ".join(str(op.value) for op in self.operands)
        return f"{self.opcode.value}{suffix} {operand_text}".strip()


def parse_register(token: str) -> int:
    """Parse a register token (``r0``-``r15``, ``sp``, ``lr``, ``pc``)."""
    token = token.strip().lower()
    aliases = {"sp": SP, "lr": LR, "pc": PC}
    if token in aliases:
        return aliases[token]
    if token.startswith("r") and token[1:].isdigit():
        index = int(token[1:])
        if 0 <= index < NUM_REGISTERS:
            return index
    raise ValueError(f"invalid register name: {token!r}")
