#!/usr/bin/env python3
"""Capture sha256 digests of the simulated M0 window for every workload.

Runs the cycle-accurate Cortex-M0-class window (the 16,384-cycle window a
default chip simulates, cache bypassed) for each registered workload program
and records the digests of its three activity arrays plus the execution
statistics of the run.  ``tests/test_soc_m0_window_golden.py`` then pins the
instruction-set simulator against the captured file bit for bit.

Usage:  PYTHONPATH=src python tests/data/capture_m0_window_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.soc.bus import SystemBus
from repro.soc.cpu import CortexM0Like
from repro.soc.memory import Memory
from repro.soc.registry import available_workloads, workload_program
from repro.soc.workloads import dhrystone_like_program

OUT = pathlib.Path(__file__).with_name("m0_window_golden.json")

#: Window length of a default chip (``ChipDescription.m0_window_cycles``).
WINDOW_CYCLES = 16_384

ARRAYS = ("clock_toggles", "data_toggles", "comb_toggles")
STATS = ("cycles", "halted_cycles", "instructions", "branches", "taken_branches", "memory_accesses")


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


def simulate(workload: str):
    """The window trace and core of ``workload`` from a pristine reset."""
    program = workload_program(workload) or dhrystone_like_program()
    memory = Memory()
    bus = SystemBus()
    bus.attach(memory)
    if program.data_words:
        memory.load_words(program.data_words)
    cpu = CortexM0Like(program, bus)
    return cpu.run_cycles(WINDOW_CYCLES), cpu


def capture(workload: str) -> dict:
    trace, cpu = simulate(workload)
    return {
        "arrays": {name: digest(getattr(trace, name)) for name in ARRAYS},
        "stats": {name: getattr(cpu.stats, name) for name in STATS},
    }


def main() -> None:
    golden = {
        "window_cycles": WINDOW_CYCLES,
        "workloads": {name: capture(name) for name in available_workloads()},
    }
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(golden['workloads'])} workloads)")


if __name__ == "__main__":
    main()
