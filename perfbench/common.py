"""Helpers shared by the workloads: statistics, child processes, the stamp."""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

#: The checkout root (the benchmark is run from it).
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
#: Scratch space for stores, ledgers and span files; removed after each run.
WORK_ROOT = ROOT / ".perfbench-work"

#: Seed reserved for confirming a claimed gain; never used while tuning.
HOLDOUT_SEED = 20261017


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts); 0.0 for no values."""
    return float(statistics.median(values)) if values else 0.0


def max_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def make_workdir(tag: str) -> pathlib.Path:
    """A fresh scratch directory inside the checkout."""
    WORK_ROOT.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))


def remove_workdir(path: pathlib.Path) -> None:
    """Delete a scratch directory, and the scratch root once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def child_env() -> Dict[str, str]:
    """The environment for child interpreters: ``src`` and the benchmark on
    the path.  BLAS/OpenMP variables are passed through untouched."""
    env = dict(os.environ)
    paths = [str(SRC_DIR), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_child(args: List[str], **kwargs: Any) -> subprocess.Popen:
    """Start ``python <args>`` in its own process group."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        start_new_session=True,
        **kwargs,
    )


def stop_child(process: subprocess.Popen, grace_s: float = 5.0) -> None:
    """Terminate a child and its process group, then wait for it."""
    if process.poll() is None:
        try:
            os.killpg(process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            process.wait(grace_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def run_child_json(args: List[str], timeout_s: float) -> Dict[str, Any]:
    """Run a child to completion and parse the JSON on its last stdout line."""
    process = start_child(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        stop_child(process)
        raise RuntimeError(f"child {args[0]} timed out after {timeout_s} s")
    finally:
        stop_child(process)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {args[0]} exited {process.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_child_text(args: List[str], timeout_s: float) -> str:
    """Run a child to completion and return its stdout (any exit code)."""
    process = start_child(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        out, _ = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        stop_child(process)
    return out


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas() -> Dict[str, Any]:
    """The OpenBLAS numpy maps and its live thread count, read via ctypes."""
    import ctypes

    import numpy

    package = pathlib.Path(numpy.__file__).resolve().parent
    candidates = sorted(glob.glob(str(package.parent / "numpy.libs" / "libscipy_openblas*")))
    if not candidates:
        return {"library": "unknown", "threads": None}
    library = ctypes.CDLL(candidates[0])
    info: Dict[str, Any] = {"library": pathlib.Path(candidates[0]).name, "threads": None}
    for suffix in ("64_", ""):
        try:
            threads = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
            config = getattr(library, f"scipy_openblas_get_config{suffix}")
        except AttributeError:
            continue
        threads.argtypes, threads.restype = [], ctypes.c_int
        config.argtypes, config.restype = [], ctypes.c_char_p
        info["threads"] = int(threads())
        info["config"] = config().decode("utf-8", "replace")
        break
    return info


def environment_stamp() -> Dict[str, Any]:
    """What a result depends on besides the code: compare runs only when
    their stamps match."""
    import numpy

    stamp: Dict[str, Any] = {
        "cpus": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "blas_env": {
            key: value
            for key, value in sorted(os.environ.items())
            if key.startswith(("OPENBLAS_", "OMP_", "MKL_"))
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "source_digest": _source_digest(),
    }
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=5,
            )
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    stamp["commit"] = commit or "unknown"
    stamp["digest"] = hashlib.sha256(
        json.dumps(
            {k: v for k, v in stamp.items() if k not in ("commit", "source_digest")},
            sort_keys=True,
        ).encode()
    ).hexdigest()[:12]
    return stamp
