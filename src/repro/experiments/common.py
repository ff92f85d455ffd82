"""The paper's published values for the reproduction to be compared against."""

from __future__ import annotations

from typing import Dict


def paper_expectations() -> Dict[str, Dict]:
    """The published values our reproduction is compared against.

    Only the *shape* is expected to hold (see DESIGN.md); absolute values
    from the silicon measurements depend on the authors' testbed.
    """
    return {
        "table1": {
            "dynamic_power_mw": {0: 1.51, 256: 1.80, 512: 2.09, 1024: 2.66},
            "static_power_uw": {0: 0.404, 256: 0.407, 512: 0.407, 1024: 0.408},
            "share_of_watermark_dynamic": {0: 0.956, 256: 0.968, 512: 0.972, 1024: 0.98},
        },
        "table2": {
            "load_registers": {0.25e-3: 96, 0.5e-3: 192, 1e-3: 384, 1.5e-3: 576, 5e-3: 1921, 10e-3: 3843},
            "overhead_reduction": {0.25e-3: 0.889, 0.5e-3: 0.941, 1e-3: 0.969, 1.5e-3: 0.98, 5e-3: 0.994, 10e-3: 0.997},
        },
        "fig5": {
            "chip1_peak_rho_range": (0.010, 0.025),
            "chip2_peak_rho_range": (0.007, 0.020),
            "noise_floor_abs_max": 0.008,
        },
        "fig6": {
            "repetitions": 100,
            "detection_rate": 1.0,
        },
        "headline_area_reduction": 0.98,
    }
