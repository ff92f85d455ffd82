"""Area, overhead and robustness analysis (Sections V and VI of the paper),
plus repro-lint, the static determinism & cache-safety analyzer
(``python -m repro.analysis``)."""

from repro.analysis.engine import (
    Finding,
    LintModule,
    Rule,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    unsuppressed,
)
from repro.analysis.rules import ALL_RULES, RULE_INDEX
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
    "ALL_RULES",
    "RULE_INDEX",
    "Finding",
    "LintModule",
    "Rule",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "unsuppressed",
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
