"""Benchmark: Section VI robustness comparison (removal attacks)."""

from repro.pipeline import run_scenario


def test_bench_robustness_removal_attacks(benchmark, report):
    result = benchmark.pedantic(
        run_scenario, args=("robustness",), rounds=3, iterations=1
    ).payload
    report("Section VI: robustness against removal attacks", result.to_text())

    # The paper's claims: the stand-alone load-circuit watermark is easily
    # located and removed without harming the design, while the
    # clock-modulation watermark is not identifiable as a stand-alone block
    # and its removal impairs the host system.
    assert result.baseline_removed_by_blind_attack
    assert result.baseline_removal_harmless
    assert result.clock_modulation_survives_blind_attack
    assert result.clock_modulation_removal_breaks_system
    assert result.improved_robustness_demonstrated
