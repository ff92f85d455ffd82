"""Cache-correctness suite for the chip-level background subsystem.

Pins the contract of the two module-level caches introduced with the
chip-level background-synthesis work:

* the shared M0 window cache (:mod:`repro.soc.cpu`) -- one cycle-accurate
  window simulation per (program identity, window length), shared across
  chip instances, invalidated when the program or memory image differs;
* the background-power template cache (:mod:`repro.soc.chip`) -- one
  per-cycle background template per (chip configuration, seed,
  acquisition length).

Every fast path must be bit-identical to the cache-bypassing computation.
"""

import numpy as np
import pytest

from repro.core.architectures import ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.soc import chip as chip_module
from repro.soc import cpu as cpu_module
from repro.soc.assembler import Assembler
from repro.soc.chip import build_chip_one, build_chip_two
from repro.soc.cpu import program_fingerprint
from repro.soc.workloads import dhrystone_like_program, idle_loop_program


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts from empty module-level caches."""
    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()
    yield
    cpu_module.clear_m0_window_cache()
    chip_module.clear_background_template_cache()


def _trace_equal(a, b) -> bool:
    return (
        np.array_equal(a.clock_toggles, b.clock_toggles)
        and np.array_equal(a.data_toggles, b.data_toggles)
        and np.array_equal(a.comb_toggles, b.comb_toggles)
    )


class TestProgramFingerprint:
    def test_identical_programs_share_fingerprint(self):
        assert program_fingerprint(dhrystone_like_program()) == program_fingerprint(
            dhrystone_like_program()
        )

    def test_different_programs_differ(self):
        assert program_fingerprint(dhrystone_like_program()) != program_fingerprint(
            idle_loop_program()
        )

    def test_memory_image_is_part_of_the_identity(self):
        source = "main:\n ldr r0, [r1]\n b main\n.word 1, 2, 3"
        a = Assembler().assemble(source, entry_label="main")
        b = Assembler().assemble(source, entry_label="main")
        assert program_fingerprint(a) == program_fingerprint(b)
        b.data_words = {address: word + 1 for address, word in b.data_words.items()}
        assert program_fingerprint(a) != program_fingerprint(b)


class TestM0WindowCache:
    def test_cached_trace_bit_identical_to_uncached(self):
        chip = build_chip_one(m0_window_cycles=512)
        cached = chip.m0_activity(2000, seed=13)
        uncached = chip.m0_activity(2000, seed=13, use_cache=False)
        assert _trace_equal(cached, uncached)

    def test_window_simulated_once_across_instances(self):
        first = build_chip_one(m0_window_cycles=512)
        second = build_chip_one(m0_window_cycles=512)
        first.m0_activity(1500, seed=1)
        stats = cpu_module.m0_window_cache_stats()
        assert stats["misses"] == 1
        second.m0_activity(1500, seed=2)
        second.m0_activity(3000, seed=3)
        stats = cpu_module.m0_window_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_different_program_misses(self):
        dhrystone = build_chip_one(m0_window_cycles=512)
        idle = build_chip_one(program=idle_loop_program(), m0_window_cycles=512)
        dhrystone.m0_activity(600, seed=1)
        idle.m0_activity(600, seed=1)
        assert cpu_module.m0_window_cache_stats()["misses"] == 2

    def test_different_window_misses(self):
        chip_small = build_chip_one(m0_window_cycles=256)
        chip_large = build_chip_one(m0_window_cycles=512)
        chip_small.m0_activity(600, seed=1)
        chip_large.m0_activity(600, seed=1)
        assert cpu_module.m0_window_cache_stats()["misses"] == 2

    def test_short_acquisition_window_also_cached(self):
        chip = build_chip_one(m0_window_cycles=4096)
        a = chip.m0_activity(100, seed=1)
        b = chip.m0_activity(100, seed=1)
        assert _trace_equal(a, b)
        assert cpu_module.m0_window_cache_stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_cached_arrays_are_read_only(self):
        chip = build_chip_one(m0_window_cycles=256)
        trace = chip.m0_activity(256, seed=1)
        with pytest.raises(ValueError):
            trace.clock_toggles[0] = 0

    def test_clear_resets_cache_and_counters(self):
        chip = build_chip_one(m0_window_cycles=256)
        chip.m0_activity(300, seed=1)
        cpu_module.clear_m0_window_cache()
        assert cpu_module.m0_window_cache_stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
        }

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(cpu_module, "M0_WINDOW_CACHE_MAX_ENTRIES", 2)
        chip = build_chip_one(m0_window_cycles=64)
        for cycles in (16, 32, 64):
            chip.m0_activity(cycles, seed=1)
        stats = cpu_module.m0_window_cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1


class TestBackgroundTemplateCache:
    @pytest.fixture()
    def chip(self):
        watermark = ClockModulationWatermark.from_config(
            WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D)
        )
        return build_chip_one(watermark=watermark, m0_window_cycles=512)

    def test_cached_power_bit_identical_to_uncached(self, chip):
        warm = chip.background_power(4000, seed=21)
        again = chip.background_power(4000, seed=21)
        reference = chip.background_power(4000, seed=21, use_cache=False)
        assert np.array_equal(warm.power_w, reference.power_w)
        assert np.array_equal(again.power_w, reference.power_w)
        stats = chip_module.background_template_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_total_power_bit_identical_through_cache(self, chip):
        cold = chip.total_power(4000, seed=5, watermark_phase_offset=17)
        warm = chip.total_power(4000, seed=5, watermark_phase_offset=17)
        reference = chip.total_power(
            4000, seed=5, watermark_phase_offset=17, use_cache=False
        )
        assert np.array_equal(cold.power_w, reference.power_w)
        assert np.array_equal(warm.power_w, reference.power_w)

    def test_different_seed_misses(self, chip):
        chip.background_power(1000, seed=1)
        chip.background_power(1000, seed=2)
        assert chip_module.background_template_cache_stats()["misses"] == 2

    def test_different_num_cycles_misses(self, chip):
        # Each acquisition length is its own cache class: the block
        # activity draws are length-dependent, so a truncated longer
        # template would not be bit-identical to a direct shorter draw.
        chip.background_power(1000, seed=1)
        chip.background_power(2000, seed=1)
        assert chip_module.background_template_cache_stats()["misses"] == 2

    def test_different_chip_configuration_misses(self, chip):
        chip.background_power(1000, seed=1)
        chip2 = build_chip_two(m0_window_cycles=512)
        chip2.background_power(1000, seed=1)
        assert chip_module.background_template_cache_stats()["misses"] == 2

    def test_different_program_misses(self, chip):
        chip.background_power(1000, seed=1)
        other = build_chip_one(program=idle_loop_program(), m0_window_cycles=512)
        other.background_power(1000, seed=1)
        assert chip_module.background_template_cache_stats()["misses"] == 2

    def test_same_named_but_recalibrated_library_misses(self, chip):
        # Regression: the template key must identify the cell library by
        # value, not by name -- a recalibrated library that keeps the
        # default name must never be served the default library's template.
        from dataclasses import replace

        from repro.power.estimator import PowerEstimator
        from repro.power.library import CellLibrary, TSMC65LP_LIKE

        chip.background_power(1000, seed=1)
        hotter = CellLibrary(
            name=TSMC65LP_LIKE.name,  # deliberately the same name
            voltage_v=TSMC65LP_LIKE.voltage_v,
            cells={
                cell_type: replace(cell, leakage_w=cell.leakage_w * 10)
                for cell_type, cell in TSMC65LP_LIKE.cells.items()
            },
        )
        estimator = PowerEstimator(
            chip.estimator.operating_point, library=hotter
        )
        other = build_chip_one(m0_window_cycles=512)
        other.estimator = estimator
        trace = other.background_power(1000, seed=1)
        assert chip_module.background_template_cache_stats()["misses"] == 2
        reference = chip.background_power(1000, seed=1, use_cache=False)
        assert trace.power_w.mean() > reference.power_w.mean()

    def test_shared_across_equivalent_instances(self, chip):
        chip.background_power(1000, seed=1)
        sibling = build_chip_one(m0_window_cycles=512)  # watermark is irrelevant
        sibling.background_power(1000, seed=1)
        stats = chip_module.background_template_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_default_seed_resolves_to_chip_seed(self):
        a = build_chip_one(m0_window_cycles=256, seed=77)
        b = build_chip_one(m0_window_cycles=256, seed=77)
        explicit = a.background_power(500)
        implicit = b.background_power(500, seed=77)
        assert np.array_equal(explicit.power_w, implicit.power_w)
        assert chip_module.background_template_cache_stats()["hits"] == 1

    def test_cached_template_is_read_only(self, chip):
        power = chip.background_power(500, seed=3)
        with pytest.raises(ValueError):
            power.power_w[0] = 0.0

    def test_lru_bound_evicts_oldest(self, chip, monkeypatch):
        monkeypatch.setattr(chip_module, "BACKGROUND_TEMPLATE_CACHE_MAX_ENTRIES", 2)
        for seed in (1, 2, 3):
            chip.background_power(200, seed=seed)
        stats = chip_module.background_template_cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1

    def test_clear_resets_cache_and_counters(self, chip):
        chip.background_power(200, seed=1)
        chip_module.clear_background_template_cache()
        assert chip_module.background_template_cache_stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
        }


class TestWarmPathHasNoPerCycleLoop:
    def test_warm_total_power_never_steps_the_core(self, monkeypatch):
        watermark = ClockModulationWatermark.from_config(
            WatermarkConfig(lfsr_width=8, lfsr_seed=0x2D)
        )
        chip = build_chip_one(watermark=watermark, m0_window_cycles=512)
        chip.total_power(3000, seed=4)  # cold: simulates and caches

        def boom(self):  # pragma: no cover - the assertion is that it never runs
            raise AssertionError("warm path stepped the core cycle by cycle")

        monkeypatch.setattr(cpu_module.CortexM0Like, "step_cycle", boom)
        monkeypatch.setattr(cpu_module.CortexM0Like, "_step_counts", boom)
        warm = chip.total_power(3000, seed=4)
        assert len(warm) == 3000
