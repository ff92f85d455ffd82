"""Closed-form periodic watermark activity vs. the cycle-accurate step loop.

``WatermarkArchitecture.periodic_activity()`` derives one period of
activity from the generator's state sequence with array operations;
``stepped_periodic_activity()`` runs the ``step()`` loop it replaced.  The
two must agree bit for bit on every array of both the ``wgc`` and the
``load`` trace, across architectures, WGC variants, LFSR widths and seeds,
bank switching configurations and load-circuit geometries.  The array
forms of the individual components are pinned against their ``step`` the
same way.
"""

import numpy as np
import pytest

from repro.core.architectures import BaselineWatermark, ClockModulationWatermark
from repro.core.clock_modulation import ClockModulatedBank, ClockModulatedIPBlock
from repro.core.config import WatermarkConfig
from repro.core.lfsr import LFSR, CircularShiftRegister, linear_state_sequence
from repro.core.load_circuit import LoadCircuit
from repro.core.wgc import WatermarkGenerationCircuit
from repro.rtl.activity import ActivityTrace
from repro.rtl.components import ClockGate, CombinationalBlock, RegisterBank, ShiftRegister

FIELDS = ("clock_toggles", "data_toggles", "comb_toggles")


def assert_traces_equal(closed: ActivityTrace, stepped: ActivityTrace) -> None:
    assert closed.name == stepped.name
    for field in FIELDS:
        actual = getattr(closed, field)
        expected = getattr(stepped, field)
        assert actual.dtype == expected.dtype == np.int64, field
        assert np.array_equal(actual, expected), field


def assert_architecture_matches(architecture) -> None:
    closed = architecture.periodic_activity(use_cache=False)
    stepped = architecture.stepped_periodic_activity()
    assert sorted(closed) == sorted(stepped) == ["load", "wgc"]
    for key in ("wgc", "load"):
        assert len(closed[key]) == architecture.sequence_period
        assert_traces_equal(closed[key], stepped[key])


def seed_for(width: int) -> int:
    """A non-default, non-zero seed that exercises both halves of the state."""
    return (0x5A5A_5A5A ^ (width * 0x1111)) & ((1 << width) - 1) or 1


def build(arch: str, width: int, seed: int, test_chip: bool, **config):
    config = WatermarkConfig(
        lfsr_width=width, lfsr_seed=seed, use_test_chip_wgc=test_chip, **config
    )
    cls = BaselineWatermark if arch == "baseline" else ClockModulationWatermark
    return cls.from_config(config)


SMALL_LOAD = dict(num_words=4, word_width=8, switching_registers=12, load_registers=36)


@pytest.mark.parametrize("width", range(2, 13))
@pytest.mark.parametrize("test_chip", [False, True], ids=["minimal", "test_chip"])
@pytest.mark.parametrize("arch", ["baseline", "clock_modulation"])
def test_architectures_wgcs_and_widths(arch, test_chip, width):
    assert_architecture_matches(build(arch, width, seed_for(width), test_chip, **SMALL_LOAD))


@pytest.mark.parametrize(
    "arch, test_chip, width",
    [
        ("baseline", False, 13),
        ("clock_modulation", True, 14),
        ("clock_modulation", False, 15),
        ("baseline", True, 16),
    ],
)
def test_wide_lfsrs(arch, test_chip, width):
    assert_architecture_matches(build(arch, width, seed_for(width), test_chip, **SMALL_LOAD))


@pytest.mark.parametrize("seed", [1, 0x800, 0xFFF, 0x123])
def test_seeds(seed):
    assert_architecture_matches(build("clock_modulation", 12, seed, True, **SMALL_LOAD))


@pytest.mark.parametrize("switching_registers", [0, 100, 512, 1024])
def test_paper_bank_switching_registers(switching_registers):
    # 100 ends mid-word: three full 32-bit words plus four bits of the fourth.
    architecture = ClockModulationWatermark.from_config(
        WatermarkConfig(switching_registers=switching_registers)
    )
    assert_architecture_matches(architecture)


def test_paper_baseline_load_circuit():
    assert_architecture_matches(BaselineWatermark.from_config(WatermarkConfig()))


@pytest.mark.parametrize("data_activity_factor", [0.0, 0.3, 1.0])
def test_ip_block(data_activity_factor):
    architecture = ClockModulationWatermark.reusing_ip_block(
        modulated_registers=700,
        data_activity_factor=data_activity_factor,
        config=WatermarkConfig(lfsr_width=9, lfsr_seed=0x15),
    )
    assert_architecture_matches(architecture)


@pytest.mark.parametrize("num_registers, word_width", [(40, 7), (33, 5), (9, 9), (16, 3)])
def test_load_circuit_odd_word_width(num_registers, word_width):
    # An odd circular word holds one adjacent equal pair, so a shift flips
    # word_width - 1 bits, not all of them; a short last word differs again.
    architecture = BaselineWatermark(
        wgc=WatermarkGenerationCircuit.minimal(width=7, seed=0x2B),
        load=LoadCircuit(num_registers=num_registers, word_width=word_width),
    )
    assert_architecture_matches(architecture)


def test_circular_shift_register_wgc():
    wgc = WatermarkGenerationCircuit(
        generators=[CircularShiftRegister(pattern=0b1100_1011_0001, width=12)],
        always_clocked_registers=5,
    )
    architecture = ClockModulationWatermark(
        wgc=wgc, modulated_block=ClockModulatedBank(num_words=3, word_width=5, switching_registers=7)
    )
    assert_architecture_matches(architecture)


def test_closed_form_leaves_stepping_state_alone():
    architecture = build("clock_modulation", 6, 0x21, True, **SMALL_LOAD)
    architecture.reset()
    for _ in range(5):
        architecture.step()
    state = architecture.wgc.active_generator.state
    architecture.periodic_activity(use_cache=False)
    assert architecture.wgc.active_generator.state == state


# -- generators ------------------------------------------------------------------


def stepped_generator_trace(generator, num_cycles: int) -> ActivityTrace:
    generator.reset()
    records = [generator.step()[1] for _ in range(num_cycles)]
    generator.reset()
    return ActivityTrace.from_records(generator.name, records)


@pytest.mark.parametrize("width", range(2, 33))
def test_lfsr_activity_trace_all_tabulated_widths(width):
    lfsr = LFSR(width=width, seed=seed_for(width))
    assert_traces_equal(lfsr.activity_trace(300), stepped_generator_trace(lfsr, 300))


def test_lfsr_with_non_maximal_taps():
    lfsr = LFSR(width=8, seed=0x3C, taps=(8, 2))
    assert_traces_equal(lfsr.activity_trace(517), stepped_generator_trace(lfsr, 517))


@pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 65, 1000])
def test_linear_state_sequence_lengths(length):
    lfsr = LFSR(width=10, seed=0x2F1)
    states = linear_state_sequence(
        [lfsr._feedback_mask] + [1 << (j - 1) for j in range(1, 10)], lfsr.seed, length
    )
    lfsr.reset()
    expected = [lfsr.state]
    for _ in range(length - 1):
        lfsr.step()
        expected.append(lfsr.state)
    assert states.tolist() == expected


# -- components ------------------------------------------------------------------


def random_enables(num_cycles: int = 200, seed: int = 5) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, num_cycles).astype(bool)


@pytest.mark.parametrize("circular", [True, False])
@pytest.mark.parametrize("width", [1, 2, 5, 8])
def test_shift_register_array_form(width, circular):
    enable = random_enables()
    register = ShiftRegister("sr", width=width, circular=circular)
    records = [register.shift(bool(e)) for e in enable]
    register.reset()
    assert_traces_equal(
        register.activity_trace(enable), ActivityTrace.from_records("sr", records)
    )


def test_clock_gate_array_form():
    enable = random_enables()
    gate = ClockGate("icg")
    records = [gate.step(bool(e)) for e in enable]
    assert_traces_equal(gate.activity_trace(enable), ActivityTrace.from_records("icg", records))


@pytest.mark.parametrize("switching_registers", [0, 3, 8, 13, 24])
def test_register_bank_array_form(switching_registers):
    enable = random_enables()
    bank = RegisterBank("bank", num_words=3, word_width=8, switching_registers=switching_registers)
    records = [bank.step(bool(e)) for e in enable]
    assert_traces_equal(bank.activity_trace(enable), ActivityTrace.from_records("bank", records))


def test_combinational_block_array_form():
    enable = random_enables()
    block = CombinationalBlock("glue", gate_count=37, activity_factor=0.23)
    records = [block.step(active=bool(e)) for e in enable]
    assert_traces_equal(block.activity_trace(enable), ActivityTrace.from_records("glue", records))


def test_modulated_components_on_arbitrary_enables():
    enable = random_enables(seed=11)
    for component in (
        ClockModulatedBank(num_words=5, word_width=6, switching_registers=17, name="bank"),
        ClockModulatedIPBlock(modulated_registers=300, data_activity_factor=0.4, name="ip"),
        LoadCircuit(num_registers=45, word_width=7, name="load"),
    ):
        records = [component.step(int(e)) for e in enable]
        component.reset()
        assert_traces_equal(
            component.activity_trace(enable),
            ActivityTrace.from_records(component.name, records),
        )


def test_closed_form_never_steps(monkeypatch):
    architecture = build("baseline", 8, 0x5B, True, **SMALL_LOAD)

    def boom(self):  # pragma: no cover - the assertion is that it never runs
        raise AssertionError("periodic_activity stepped the circuit")

    monkeypatch.setattr(type(architecture), "step", boom)
    assert len(architecture.periodic_activity(use_cache=False)["load"]) == 255
