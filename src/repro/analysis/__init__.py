"""Area, overhead and robustness analysis (Sections V and VI of the paper).

The package also holds repro-lint, the static determinism & cache-safety
analyzer (``python -m repro.analysis``).  Its engine and rules are imported
from their submodules, never from here, so that loading the analysis
passes does not load the linter.
"""

from repro.analysis.overhead import (
    OverheadRow,
    OverheadTable,
    area_overhead_reduction,
    load_circuit_overhead_table,
)
from repro.analysis.attacks import (
    AttackOutcome,
    MaskingAttack,
    RemovalAttack,
    find_standalone_clusters,
)
from repro.analysis.robustness import (
    DetectionRobustnessAssessment,
    RobustnessAssessment,
    assess_detection_robustness,
    assess_robustness,
)
from repro.analysis.masking import (
    MaskingPoint,
    MaskingStudy,
    run_noise_masking_study,
    run_starvation_study,
)

__all__ = [
    "MaskingPoint",
    "MaskingStudy",
    "run_noise_masking_study",
    "run_starvation_study",
    "OverheadRow",
    "OverheadTable",
    "area_overhead_reduction",
    "load_circuit_overhead_table",
    "RemovalAttack",
    "MaskingAttack",
    "AttackOutcome",
    "find_standalone_clusters",
    "RobustnessAssessment",
    "DetectionRobustnessAssessment",
    "assess_robustness",
    "assess_detection_robustness",
]
