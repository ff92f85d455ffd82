"""Package-level guards: import layering and runnable docstring examples."""

import ast
import doctest
import pathlib

import pytest

import repro
import repro.rtl.simulator

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


@pytest.mark.parametrize(
    "module", [repro, repro.rtl.simulator], ids=lambda module: module.__name__
)
def test_docstring_examples_run(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
