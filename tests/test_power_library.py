"""Unit tests for repro.power.library."""

import pytest

from repro.power.library import (
    CLOCK_TOGGLE_ENERGY_J,
    DATA_TOGGLE_ENERGY_J,
    PAPER_CLOCK_BUFFER_POWER_W,
    PAPER_DATA_SWITCHING_POWER_W,
    REFERENCE_FREQUENCY_HZ,
    CellCharacteristics,
    CellLibrary,
    TSMC65LP_LIKE,
)


class TestCalibrationConstants:
    def test_clock_toggle_energy_matches_paper(self):
        # Two clock transitions per cycle at 10 MHz must give 1.476 uW.
        power = CLOCK_TOGGLE_ENERGY_J * 2 * REFERENCE_FREQUENCY_HZ
        assert power == pytest.approx(PAPER_CLOCK_BUFFER_POWER_W)

    def test_data_toggle_energy_matches_paper(self):
        power = DATA_TOGGLE_ENERGY_J * REFERENCE_FREQUENCY_HZ
        assert power == pytest.approx(PAPER_DATA_SWITCHING_POWER_W)


class TestCellCharacteristics:
    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            CellCharacteristics(
                name="bad",
                clock_toggle_energy_j=-1.0,
                data_toggle_energy_j=0.0,
                comb_toggle_energy_j=0.0,
                leakage_w=0.0,
            )


class TestCellLibrary:
    def test_default_library_has_expected_cells(self):
        for cell_type in ("dff", "icg", "clk_buf", "comb", "sram"):
            assert cell_type in TSMC65LP_LIKE.cells

    def test_unknown_cell_falls_back_to_comb(self):
        cell = TSMC65LP_LIKE.cell("weird_macro")
        assert cell.name == "comb"

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            CellLibrary(name="empty", voltage_v=1.2, cells={})

    def test_invalid_voltage_rejected(self):
        with pytest.raises(ValueError):
            CellLibrary(name="lib", voltage_v=0.0, cells=dict(TSMC65LP_LIKE.cells))

    def test_redundant_bank_leakage_near_paper_value(self):
        # 1,024 DFFs + 32 ICGs should leak around 0.40 uW (Table I static column).
        leak = (
            TSMC65LP_LIKE.cell("dff").leakage_w * 1024
            + TSMC65LP_LIKE.cell("icg").leakage_w * 32
        )
        assert 0.35e-6 < leak < 0.45e-6

    def test_clock_buffer_has_no_data_energy(self):
        assert TSMC65LP_LIKE.cell("clk_buf").data_toggle_energy_j == 0.0
