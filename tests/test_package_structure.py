"""Package-level guards: import layering, module reachability, runtime
dependencies and runnable docstring examples."""

import ast
import doctest
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _module_name(path: pathlib.Path, root: pathlib.Path) -> str:
    parts = list(path.relative_to(root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: pathlib.Path, root: pathlib.Path = SRC):
    """Every module a file under ``root`` imports, as ``(line, dotted name)`` pairs."""
    module = _module_name(path, root)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _is_experiments(name: str) -> bool:
    return name == "repro.experiments" or name.startswith("repro.experiments.")


def test_nothing_outside_experiments_imports_it():
    offenders = sorted(
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in SRC.rglob("*.py")
        if "experiments" not in path.relative_to(SRC).parts
        for line, name in _imported_names(path)
        if _is_experiments(name)
    )
    assert offenders == []


def test_import_scan_sees_relative_and_from_imports(tmp_path):
    package = tmp_path / "repro" / "pipeline"
    package.mkdir(parents=True)
    probe = package / "probe.py"
    probe.write_text(
        "from ..experiments import common\n"
        "from repro import experiments\n"
        "import repro.experiments.common\n"
        "from repro.core import spec\n"
    )
    names = _imported_names(probe, root=tmp_path / "repro")
    flagged = sorted({line for line, name in names if _is_experiments(name)})
    assert flagged == [1, 2, 3]


#: What a user or a deployment can run: the CLI, the scenario registry, the
#: detection service and its client, repro-lint, and the module the
#: benchmark harness imports.
ENTRY_POINTS = (
    "repro.cli",
    "repro.__main__",
    "repro.pipeline.registry",
    "repro.service.server",
    "repro.service.client",
    "repro.analysis.__main__",
    "repro.experiments.common",
)


def _unreachable(root: pathlib.Path, entry_points) -> list:
    """Non-package modules under ``root`` that no import chain from
    ``entry_points`` reaches.  A package ``__init__`` is reached but its own
    imports are not followed: a re-export does not make a module live."""
    modules = {_module_name(path, root): path for path in root.rglob("*.py")}
    reached, pending = set(), list(entry_points)
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        path = modules[name]
        if path.name != "__init__.py":
            pending.extend(n for _, n in _imported_names(path, root) if n in modules)
    return sorted(
        name
        for name, path in modules.items()
        if path.name != "__init__.py" and name not in reached
    )


def test_every_module_is_reachable_from_an_entry_point():
    # Wire an unreached module into a scenario, the service or the CLI,
    # or delete it.
    assert _unreachable(SRC, ENTRY_POINTS) == []


def test_reachability_ignores_package_reexports(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("from repro.orphan import thing\n")
    (package / "cli.py").write_text("from repro import live\n")
    (package / "live.py").write_text("")
    (package / "orphan.py").write_text("thing = 1\n")
    assert _unreachable(package, ["repro.cli"]) == ["repro.orphan"]


def _run_probe(code: str):
    """Run ``code`` in a fresh interpreter on ``src`` and parse the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    output = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(output.stdout)


def test_entry_points_load_only_numpy():
    # setup.py declares numpy as the only runtime dependency; SciPy, for one,
    # serves only the opt-in detailed acquisition path and would cost every
    # interpreter over a second.  Modules the interpreter loaded before the
    # imports (site hooks) do not count.
    loaded = _run_probe(
        "import importlib, json, sys\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        f"for entry in {list(ENTRY_POINTS)!r}:\n"
        "    importlib.import_module(entry)\n"
        "after = {name.partition('.')[0] for name in sys.modules}\n"
        "new = after - before - set(sys.stdlib_module_names)\n"
        "print(json.dumps(sorted(name for name in new if not name.startswith('__'))))\n"
    )
    assert set(loaded) - {"repro"} <= {"numpy"}


def test_robustness_runs_without_networkx_or_the_linter():
    # The removal attack walks the netlist with the standard library alone,
    # and the pipeline does not load repro-lint's rule packs.
    golden = json.loads((pathlib.Path(__file__).parent / "data" / "pipeline_golden.json").read_text())
    result = _run_probe(
        "import json, sys\n"
        "class RefuseNetworkx:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'networkx':\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, RefuseNetworkx())\n"
        "import repro, repro.pipeline.registry, repro.pipeline.runner\n"
        "lint_loaded = 'repro.analysis.rules' in sys.modules\n"
        "report = repro.pipeline.runner.ExperimentRunner().run('robustness').payload.to_text()\n"
        "print(json.dumps({'lint_loaded': lint_loaded, 'report': report}))\n"
    )
    assert result == {"lint_loaded": False, "report": golden["robustness"]["report"]}


@pytest.mark.parametrize("module", [repro], ids=lambda module: module.__name__)
def test_docstring_examples_run(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
