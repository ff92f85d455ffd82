"""The benchmark's one command: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {cold-start,sweep-grid,verify-mix} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures with tracing off and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Before the final JSON line the command
prints the environment stamp, every named metric of the workload with its
unit and sample count, and any failed output check.  It exits 1 when an
output check fails, and also when a child crashes or times out; the final
line then says ``"correct": false`` (with no metrics after a crash).  It
exits 2 without printing a result when the source tree is missing.
"""

import argparse
import compileall
import importlib
import json
import pathlib
import signal
import sys
from typing import Any, Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = {
    "cold-start": "cold_start",
    "sweep-grid": "sweep_grid",
    "verify-mix": "verify_mix",
}


def _terminate(signum: int, frame: Any) -> None:
    # Unwind through every ``finally`` so child processes are stopped.
    raise SystemExit(128 + signum)


def _metrics(definitions: list, values: Dict[str, float], default: Any) -> Dict[str, Any]:
    metrics = {}
    for definition in definitions:
        name = definition["name"]
        value = values.get(name, default)
        if value is None:
            raise RuntimeError(f"workload produced no value for metric {name!r}")
        metrics[name] = {"value": float(value), "unit": definition["unit"]}
    return metrics


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no source tree at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import common

    signal.signal(signal.SIGTERM, _terminate)
    # Interpreters start from cached bytecode, as they do after a user's first run.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(ROOT / "perfbench"), quiet=1)

    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = common.make_workdir(args.workload)
    layer_names = [metric["name"] for metric in definition["per_layer"]]
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), workdir)
        summary = module.summarize(result, layer_names)
    except RuntimeError as error:
        # A child that crashed or timed out: nothing was measured.
        result = {"problems": [str(error)], "attempted": 1, "failed": 1}
        summary = None
    finally:
        common.remove_workdir(workdir)

    print("# environment " + json.dumps(common.environment_stamp(), sort_keys=True))
    for name, value, unit, samples in summary["named"] if summary else ():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    correct = not result["problems"] and result["attempted"] > 0
    metrics: Dict[str, Any] = {}
    if summary is not None and args.trace:
        metrics = _metrics(definition["per_layer"], summary["layers"], 0.0)
    elif summary is not None:
        metrics = _metrics(definition["end_to_end"], summary["e2e"], None)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
