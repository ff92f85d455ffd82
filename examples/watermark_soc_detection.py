#!/usr/bin/env python3
"""Silicon-measurement scenario: chips I and II, active and disabled watermark.

Reproduces the experimental campaign of Section IV on the simulated chips:

* chip I  -- Cortex-M0-class SoC (plus peripherals) running a Dhrystone-like
  workload, watermark embedded as a macro;
* chip II -- the same SoC plus a clocked-but-idle dual-core Cortex-A5-class
  subsystem with caches contributing background noise;

each measured with the watermark circuit enabled and disabled (the paper's
control experiment), followed by a repeated-measurement campaign that mirrors
the 100-acquisition box plots of Fig. 6.

Run:  python examples/watermark_soc_detection.py [--quick]
"""

from __future__ import annotations

import argparse

from repro.core.config import MeasurementConfig
from repro.pipeline import ExperimentRunner, ScenarioSpec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use a reduced acquisition (60,000 cycles, 20 repetitions) for a fast demo",
    )
    args = parser.parse_args()

    if args.quick:
        measurement = MeasurementConfig(
            num_cycles=60_000, transient_noise_floor_w=0.020, transient_noise_fraction=0.4
        )
        repetitions = 20
    else:
        measurement = MeasurementConfig()
        repetitions = 100

    # One runner shares the chip models (and their cached M0 window and
    # background templates) between the Fig. 5 and Fig. 6 scenarios.
    runner = ExperimentRunner()
    print("== Spread spectra (Fig. 5 scenario) ==")
    fig5 = runner.run(
        ScenarioSpec(kind="fig5", name="fig5", measurement=measurement, seed=100)
    ).payload
    print(fig5.to_text())
    print()
    for key in sorted(fig5.panels):
        panel = fig5.panels[key]
        if panel.watermark_active:
            print(panel.spectrum.render_ascii(width=72, height=8))
            print()

    print(f"== Repeatability over {repetitions} acquisitions (Fig. 6 scenario) ==")
    fig6 = runner.run(
        ScenarioSpec(
            kind="fig6",
            name="fig6",
            measurement=measurement,
            seed=1_000,
            repetitions=repetitions,
        )
    ).payload
    print(fig6.to_text())


if __name__ == "__main__":
    main()
