#!/usr/bin/env python3
"""Area and power overhead study (Tables I and II plus a sizing sweep).

Shows how the proposed clock-modulation watermark removes the load circuit
that dominates the state-of-the-art watermark's cost:

* Table I -- power of the clock-modulated redundant bank as the number of
  data-switching registers grows (clock-buffer power dominates);
* Table II -- how many load registers the baseline needs for a detectable
  power signature at various system sizes, and the resulting area-overhead
  reduction of the proposed technique;
* a sweep showing the watermark's relative area overhead for IP blocks of
  different sizes, for both architectures.

Run:  python examples/area_overhead_study.py
"""

from __future__ import annotations

from repro.analysis.area import AreaModel
from repro.core.architectures import BaselineWatermark, ClockModulationWatermark
from repro.core.config import WatermarkConfig
from repro.pipeline import ExperimentRunner


def relative_overhead_sweep() -> str:
    """Watermark area relative to host IP size, for both architectures."""
    model = AreaModel()
    config = WatermarkConfig(use_test_chip_wgc=False)
    baseline = BaselineWatermark.from_config(
        WatermarkConfig(load_registers=576, use_test_chip_wgc=False)
    )
    proposed = ClockModulationWatermark.reusing_ip_block(modulated_registers=1024, config=config)

    lines = [
        f"{'host IP registers':>18} {'baseline overhead':>18} {'clock-mod overhead':>19}",
    ]
    for system_registers in (5_000, 20_000, 100_000, 500_000):
        system_cells = {"dff": system_registers, "comb": system_registers * 6}
        baseline_overhead = model.relative_overhead(baseline.added_cell_inventory(), system_cells)
        proposed_overhead = model.relative_overhead(proposed.added_cell_inventory(), system_cells)
        lines.append(
            f"{system_registers:>18,} {baseline_overhead * 100:>17.3f}% {proposed_overhead * 100:>18.4f}%"
        )
    return "\n".join(lines)


def main() -> None:
    runner = ExperimentRunner()
    print("== Table I: power of the placed-and-routed load circuit ==")
    table1 = runner.run("table1").payload
    print(table1.to_text())
    print(f"(WGC dynamic power: {table1.wgc_dynamic_w * 1e6:.1f} uW)")
    print()

    print("== Table II: load circuit implementation costs ==")
    table2 = runner.run("table2").payload
    print(table2.to_text())
    print()

    print("== Watermark area relative to host IP size ==")
    print(relative_overhead_sweep())
    print()
    print(
        "The proposed technique keeps only the watermark generation circuit, so its\n"
        "overhead is independent of the host system size -- the paper's 98% reduction\n"
        "at the 1.5 mW operating point grows towards 100% for larger systems."
    )


if __name__ == "__main__":
    main()
