"""The simulated M0 window pinned bit for bit to its captured digests.

``tests/data/m0_window_golden.json`` holds sha256 digests of the three
activity arrays (and the execution statistics) of the 16,384-cycle
cycle-accurate window for every registered workload program, captured with
``tests/data/capture_m0_window_golden.py``.  Any change to the
instruction-set simulator must leave these digests untouched.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.soc.chip import build_chip_one
from repro.soc.registry import available_workloads, workload_program

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "m0_window_golden.json").read_text()
)


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.int64).tobytes()).hexdigest()


def test_every_registered_workload_is_pinned():
    assert sorted(GOLDEN["workloads"]) == sorted(available_workloads())


@pytest.mark.parametrize("workload", sorted(GOLDEN["workloads"]))
def test_window_matches_golden(workload):
    window = GOLDEN["window_cycles"]
    chip = build_chip_one(program=workload_program(workload), m0_window_cycles=window)
    trace = chip.m0_activity(window, use_cache=False)
    expected = GOLDEN["workloads"][workload]
    assert len(trace) == window
    for name, value in expected["arrays"].items():
        assert digest(getattr(trace, name)) == value, name


@pytest.mark.parametrize("workload", sorted(GOLDEN["workloads"]))
def test_run_statistics_match_golden(workload):
    window = GOLDEN["window_cycles"]
    chip = build_chip_one(program=workload_program(workload), m0_window_cycles=window)
    chip.cpu.run_cycles(window)
    expected = GOLDEN["workloads"][workload]["stats"]
    assert {name: getattr(chip.cpu.stats, name) for name in expected} == expected
