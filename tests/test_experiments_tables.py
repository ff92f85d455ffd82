"""Tests for the Table I, Table II and Section VI scenarios."""

import pytest

from repro.experiments.common import paper_expectations
from repro.pipeline import ScenarioSpec, run_scenario


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("table1").payload

    def test_four_rows(self, result):
        assert [row.switching_registers for row in result.rows] == [0, 256, 512, 1024]

    def test_dynamic_power_close_to_paper(self, result):
        expectations = paper_expectations()["table1"]["dynamic_power_mw"]
        for row in result.rows:
            expected_mw = expectations[row.switching_registers]
            assert row.dynamic_w * 1e3 == pytest.approx(expected_mw, rel=0.15)

    def test_dynamic_power_monotonic(self, result):
        assert result.dynamic_power_monotonic()

    def test_static_power_negligible(self, result):
        for row in result.rows:
            assert row.static_w < 1e-6
            assert row.static_w / row.total_w < 0.01

    def test_clock_power_dominates_data_power(self, result):
        # Going from 0 to 1,024 switching registers adds data power for all
        # 1,024 registers; that increase must stay below the clock-only row,
        # i.e. per-register clock power > per-register data power.
        clock_only = result.row(0).dynamic_w
        full = result.row(1024).dynamic_w
        assert full - clock_only < clock_only

    def test_share_of_watermark_dynamic_high(self, result):
        expectations = paper_expectations()["table1"]["share_of_watermark_dynamic"]
        for row in result.rows:
            assert row.share_of_watermark_dynamic == pytest.approx(
                expectations[row.switching_registers], abs=0.02
            )

    def test_row_lookup_and_rendering(self, result):
        assert result.row(512).switching_registers == 512
        with pytest.raises(KeyError):
            result.row(999)
        text = result.to_text()
        assert "No Data Switching" in text
        assert "1024 Switching Registers" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("table2").payload

    def test_register_counts_match_paper_exactly(self, result):
        expectations = paper_expectations()["table2"]["load_registers"]
        for row in result.table:
            assert row.load_registers == expectations[row.load_power_w]

    def test_overhead_reductions_match_paper(self, result):
        expectations = paper_expectations()["table2"]["overhead_reduction"]
        for row in result.table:
            assert row.overhead_reduction == pytest.approx(expectations[row.load_power_w], abs=5e-3)

    def test_headline_value(self, result):
        assert result.headline_reduction == pytest.approx(0.98, abs=1e-3)

    def test_sizing_coefficients_come_from_power_model(self, result):
        assert result.per_register_clock_power_w == pytest.approx(1.476e-6, rel=1e-6)
        assert result.per_register_data_power_w == pytest.approx(1.126e-6, rel=1e-6)

    def test_monotonic(self, result):
        assert result.reduction_monotonic()

    def test_rendering(self, result):
        text = result.to_text()
        assert "98.0%" in text
        assert "1.476" in text


class TestRobustnessExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("robustness").payload

    def test_baseline_easily_removed(self, result):
        assert result.baseline_removed_by_blind_attack
        assert result.baseline_removal_harmless

    def test_clock_modulation_robust(self, result):
        assert result.clock_modulation_survives_blind_attack
        assert result.clock_modulation_removal_breaks_system

    def test_overall_claim(self, result):
        assert result.improved_robustness_demonstrated
        assert "improved robustness demonstrated: True" in result.to_text()

    # -1 must not slice clock_gate_paths(host)[:-1], which would silently
    # modulate every gate but the last.
    @pytest.mark.parametrize("modulated_gates", [0, -1])
    def test_invalid_gate_count_rejected(self, modulated_gates):
        spec = ScenarioSpec(kind="robustness", params={"modulated_gates": modulated_gates})
        with pytest.raises(ValueError, match="at least one clock gate"):
            run_scenario(spec)
