"""Register-transfer-level circuit substrate.

This package provides the structural building blocks used by the watermark
architectures and by the SoC model: signals, sequential and clock-network
components, a hierarchical module system, a flattened netlist graph, and
per-cycle switching-activity records.

The substrate is intentionally cycle-accurate rather than event-accurate:
Correlation Power Analysis (the paper's detection technique) consumes one
power value per clock cycle, so per-cycle switching-activity accounting is
the right level of abstraction for reproducing the paper's results.
"""

from repro.rtl.signals import Signal, Clock, LogicLevel
from repro.rtl.activity import ActivityRecord, ActivityTrace
from repro.rtl.components import (
    Component,
    Register,
    RegisterBank,
    ClockGate,
    ClockBuffer,
    CombinationalBlock,
    ShiftRegister,
)
from repro.rtl.clock_tree import ClockTree, ClockTreeLevel, build_clock_tree
from repro.rtl.netlist import Netlist, NetlistEdge
from repro.rtl.module import Module, Port, PortDirection

__all__ = [
    "Signal",
    "Clock",
    "LogicLevel",
    "ActivityRecord",
    "ActivityTrace",
    "Component",
    "Register",
    "RegisterBank",
    "ClockGate",
    "ClockBuffer",
    "CombinationalBlock",
    "ShiftRegister",
    "ClockTree",
    "ClockTreeLevel",
    "build_clock_tree",
    "Netlist",
    "NetlistEdge",
    "Module",
    "Port",
    "PortDirection",
]
