"""The CPA path rounds the same on every host.

Every sum of squares and dot product in :mod:`repro.detection` goes through
``row_dot`` (an elementwise product and a pairwise ``np.add.reduce``), never
through BLAS: a BLAS ``ddot`` splits long vectors by thread count and picks
its kernel by CPU, so the pinned Fig. 5 correlation digests would depend on
the machine.  These tests run the golden Fig. 5 cell in fresh interpreters
under different BLAS thread counts, numpy SIMD targets and OpenBLAS kernels
and require the pinned digests from each, and they keep BLAS calls out of
the detection sources.
"""

import ast
import json
import os
import pathlib
import platform
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DETECTION = ROOT / "src" / "repro" / "detection"
GOLDEN = json.loads((ROOT / "tests" / "data" / "pipeline_golden.json").read_text())

#: The Fig. 5 cell of ``test_pipeline_equivalence`` (30k cycles, 4k window),
#: printed as ``{"digests": {panel: sha256}, "cpu_features": {...}}``.
FIG5_CELL = """
import hashlib, json
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from repro.core.config import ExperimentConfig
from repro.core.spec import ScenarioSpec
from repro.pipeline import run_scenario

spec = ScenarioSpec(
    kind="fig5",
    name="fig5",
    measurement=ExperimentConfig.fast(30_000).measurement,
    seed=100,
    m0_window_cycles=4_096,
)
panels = run_scenario(spec).payload.panels
digests = {
    key: hashlib.sha256(np.ascontiguousarray(panel.cpa.correlations).tobytes()).hexdigest()
    for key, panel in panels.items()
}
print(json.dumps({"digests": digests, "cpu_features": __cpu_features__}))
"""


def _avx512_targets():
    """numpy's dispatched SIMD targets at AVX-512 level on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return [
        target
        for target in getattr(umath, "__cpu_dispatch__", [])
        if (target.startswith("AVX512") or target == "X86_V4") and features.get(target)
    ]


def _host_configs():
    on_x86_64 = platform.machine().lower() in ("x86_64", "amd64")
    avx512 = _avx512_targets()
    return [
        pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="blas-1-thread"),
        pytest.param({"OPENBLAS_NUM_THREADS": "2"}, id="blas-2-threads"),
        pytest.param(
            {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)},
            id="numpy-avx512-off",
            marks=pytest.mark.skipif(not avx512, reason="no AVX-512 numpy targets here"),
        ),
        pytest.param(
            {"OPENBLAS_CORETYPE": "Haswell"},
            id="openblas-haswell",
            marks=pytest.mark.skipif(not on_x86_64, reason="x86-64 OpenBLAS kernel"),
        ),
    ]


@pytest.mark.parametrize("overrides", _host_configs())
def test_fig5_digests_are_host_independent(overrides):
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
        env.pop(name, None)
    env.update(overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", FIG5_CELL],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    out = json.loads(completed.stdout.strip().splitlines()[-1])
    # The switch took effect: disabled SIMD targets are really off.
    for target in overrides.get("NPY_DISABLE_CPU_FEATURES", "").split():
        assert out["cpu_features"][target] is False, target
    assert out["digests"] == GOLDEN["fig5"]["arrays"]


_BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}


def test_detection_sources_make_no_blas_call():
    hits = []
    for path in sorted(DETECTION.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            line = getattr(node, "lineno", 0)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult
            ):
                hits.append(f"{path.name}:{line} @")
            elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
                hits.append(f"{path.name}:{line} .{node.attr}")
    assert hits == [], "BLAS calls on the CPA path: " + ", ".join(hits)
