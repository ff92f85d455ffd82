"""The repro-lint rule set: this repository's invariants, machine-checked.

Each rule codifies one hard-won guarantee (see the engine docstring in
:mod:`repro.analysis.engine`):

========== =====================================================================
RNG001     no global-state randomness; all draws flow through a seeded
           ``np.random.Generator``
DET001     no wall-clock/entropy calls outside the sanctioned provenance clock
HOT001     no per-cycle/per-trial Python loops in hot modules unless pragma'd
           as a golden-reference path
CACHE001   cache-serving compute callables must freeze (``writeable=False``)
           the arrays they hand to a shared cache, and nothing may re-thaw them
EXC001     ``pipeline/`` and ``service/`` must never catch the
           ``BaseException``-derived control-flow exceptions
           (``CellTimeout``/``SweepInterrupted``) by accident
SCHEMA001  ``ScenarioSpec``/``ScenarioResult``/``Provenance`` field sets must
           match the pinned ``schema_manifest.json``; drift requires a schema
           version bump (and a manifest update) in the same change
FROZEN001  config dataclasses in ``core/spec.py``/``core/config.py`` stay
           ``frozen=True`` with no mutable default fields
========== =====================================================================

The rules are pure AST analyses -- no imports of the linted code -- so the
linter runs on any checkout, broken or not.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import LintModule, Rule

__all__ = [
    "ALL_RULES",
    "RULE_INDEX",
    "CacheFreezeRule",
    "DeterminismRule",
    "ExceptionDisciplineRule",
    "FrozenConfigRule",
    "GlobalRandomnessRule",
    "HotLoopRule",
    "SchemaManifestRule",
    "schema_manifest_path",
]

Violations = List[Tuple[int, str]]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _name_words(identifier: str) -> Set[str]:
    """Lower-case underscore-separated words of one identifier."""
    return {word for word in identifier.lower().split("_") if word}


# -- RNG001 ----------------------------------------------------------------------

#: ``np.random`` attributes that *construct* seeded generators (allowed);
#: everything else on ``np.random`` is the legacy global-state API.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "Philox",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
}

#: ``random``-module attributes that are seeded instances, not global state.
_STDLIB_RANDOM_ALLOWED = {"Random"}


class GlobalRandomnessRule(Rule):
    rule_id = "RNG001"
    title = "no global-state randomness"
    rationale = (
        "Global RNG state (np.random.seed/normal/..., random.*) breaks "
        "bit-identical replay across backends and resume; every draw must "
        "flow through a np.random.Generator threaded from a spec seed."
    )

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[0] in ("np", "numpy") and len(parts) >= 3 and parts[1] == "random":
                    if parts[2] not in _NP_RANDOM_ALLOWED:
                        found.append(
                            (
                                node.lineno,
                                f"global-state numpy randomness {dotted}(); draw "
                                "through a seeded np.random.Generator instead",
                            )
                        )
                elif parts[0] == "random" and len(parts) >= 2:
                    if parts[1] not in _STDLIB_RANDOM_ALLOWED:
                        found.append(
                            (
                                node.lineno,
                                f"global-state stdlib randomness {dotted}(); draw "
                                "through a seeded np.random.Generator instead",
                            )
                        )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        found.append(
                            (
                                node.lineno,
                                "import of the global-state stdlib random module",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    banned = [
                        alias.name
                        for alias in node.names
                        if alias.name not in _STDLIB_RANDOM_ALLOWED
                    ]
                    if banned:
                        found.append(
                            (
                                node.lineno,
                                "from random import "
                                f"{', '.join(banned)} pulls in global-state "
                                "randomness",
                            )
                        )
                elif node.module == "numpy.random":
                    banned = [
                        alias.name
                        for alias in node.names
                        if alias.name not in _NP_RANDOM_ALLOWED
                    ]
                    if banned:
                        found.append(
                            (
                                node.lineno,
                                "from numpy.random import "
                                f"{', '.join(banned)} pulls in global-state "
                                "randomness",
                            )
                        )
        return found


# -- DET001 ----------------------------------------------------------------------

#: Dotted-call suffixes that read the wall clock or OS entropy.  Matching
#: is suffix-at-a-dot, so ``datetime.datetime.now`` matches ``datetime.now``.
_CLOCK_ENTROPY_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: ``from <module> import <name>`` pairs that smuggle the same calls in
#: under bare names the call-site scan cannot see.
_CLOCK_ENTROPY_IMPORTS = {
    "time": {"time", "time_ns"},
    "os": {"urandom"},
    "uuid": {"uuid1", "uuid4"},
}


def _matches_suffix(dotted: str, suffix: str) -> bool:
    return dotted == suffix or dotted.endswith("." + suffix)


class DeterminismRule(Rule):
    rule_id = "DET001"
    title = "no wall-clock or entropy calls"
    rationale = (
        "Results must be a pure function of (spec, seed, code version); "
        "time.time/datetime.now/os.urandom/uuid4 belong only in the one "
        "sanctioned provenance-stamping helper."
    )

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[0] == "secrets":
                    found.append(
                        (node.lineno, f"entropy call {dotted}() is nondeterministic")
                    )
                    continue
                for suffix in _CLOCK_ENTROPY_SUFFIXES:
                    if _matches_suffix(dotted, suffix):
                        found.append(
                            (
                                node.lineno,
                                f"wall-clock/entropy call {dotted}(); results "
                                "must be a pure function of the spec and seed "
                                "(provenance stamping goes through "
                                "provenance_clock())",
                            )
                        )
                        break
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "secrets":
                        found.append(
                            (node.lineno, "import of the entropy module secrets")
                        )
            elif isinstance(node, ast.ImportFrom):
                banned_names = _CLOCK_ENTROPY_IMPORTS.get(node.module or "")
                if node.module == "secrets":
                    found.append(
                        (node.lineno, "import from the entropy module secrets")
                    )
                elif banned_names:
                    smuggled = [
                        alias.name for alias in node.names if alias.name in banned_names
                    ]
                    if smuggled:
                        found.append(
                            (
                                node.lineno,
                                f"from {node.module} import "
                                f"{', '.join(smuggled)} smuggles in a "
                                "wall-clock/entropy call under a bare name",
                            )
                        )
        return found


# -- HOT001 ----------------------------------------------------------------------

#: Module keys (or directory prefixes) on the measured hot path.
_HOT_PREFIXES = ("detection/", "power/")
_HOT_MODULES = {
    "soc/chip.py",
    "soc/cpu.py",
    # closed-form periodic watermark activity
    "core/architectures.py",
    "core/clock_modulation.py",
    "core/lfsr.py",
    "core/load_circuit.py",
    "core/wgc.py",
}

#: Identifier words that mark a loop as iterating per cycle/trial.
_HOT_WORDS = {
    "cycle",
    "cycles",
    "trial",
    "trials",
    "repetition",
    "repetitions",
    "period",
    "periods",
    "rotation",
    "rotations",
}


def _identifiers_in(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _hot_words_in(node: ast.AST) -> Set[str]:
    words: Set[str] = set()
    for identifier in _identifiers_in(node):
        words |= _name_words(identifier) & _HOT_WORDS
    return words


def _range_call(node: ast.AST) -> Optional[ast.Call]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    ):
        return node
    return None


class HotLoopRule(Rule):
    rule_id = "HOT001"
    title = "no per-cycle Python loops in hot modules"
    rationale = (
        "The north star is trace synthesis and detection as fast as the "
        "hardware allows; a Python-level loop over cycles/trials in "
        "detection/, power/, soc/chip.py, soc/cpu.py or the closed-form "
        "watermark modules of core/ reintroduces the "
        "O(n) interpreter overhead the batched engines removed.  Golden "
        "reference paths stay, explicitly pragma'd."
    )

    def applies_to(self, module: LintModule) -> bool:
        key = module.module_key
        return key in _HOT_MODULES or any(
            key.startswith(prefix) for prefix in _HOT_PREFIXES
        )

    def check(self, module: LintModule) -> Violations:
        found: Violations = []

        def flag(line: int, construct: str, words: Iterable[str]) -> None:
            found.append(
                (
                    line,
                    f"{construct} iterates per {'/'.join(sorted(words))} in a "
                    "hot module; vectorize it or pragma it as a "
                    "golden-reference path",
                )
            )

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                rng = _range_call(node.iter)
                if rng is None:
                    continue
                words = _hot_words_in(node.target) | set().union(
                    *(_hot_words_in(arg) for arg in rng.args), set()
                )
                if words:
                    flag(node.lineno, "for loop", words)
            elif isinstance(node, ast.While):
                words = _hot_words_in(node.test)
                if words:
                    flag(node.lineno, "while loop", words)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    rng = _range_call(generator.iter)
                    if rng is None:
                        continue
                    words = _hot_words_in(generator.target) | set().union(
                        *(_hot_words_in(arg) for arg in rng.args), set()
                    )
                    if words:
                        flag(node.lineno, "comprehension", words)
                        break
        return found


# -- CACHE001 --------------------------------------------------------------------


def _assign_freezes(node: ast.Assign) -> bool:
    """``x.flags.writeable = False``?"""
    if not (isinstance(node.value, ast.Constant) and node.value.value is False):
        return False
    return any(
        isinstance(target, ast.Attribute)
        and target.attr == "writeable"
        and isinstance(target.value, ast.Attribute)
        and target.value.attr == "flags"
        for target in node.targets
    )


def _assign_thaws(node: ast.Assign) -> bool:
    """``x.flags.writeable = True``?"""
    if not (isinstance(node.value, ast.Constant) and node.value.value is True):
        return False
    return any(
        isinstance(target, ast.Attribute)
        and target.attr == "writeable"
        and isinstance(target.value, ast.Attribute)
        and target.value.attr == "flags"
        for target in node.targets
    )


def _setflags_write(node: ast.Call) -> Optional[bool]:
    """The ``write=`` constant of a ``.setflags(...)`` call, if that's what it is."""
    if not (isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"):
        return None
    for keyword in node.keywords:
        if keyword.arg == "write" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return None


def _function_freezes_directly(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _assign_freezes(node):
            return True
        if isinstance(node, ast.Call) and _setflags_write(node) is False:
            return True
    return False


def _called_local_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names.add(node.func.id)
    return names


class CacheFreezeRule(Rule):
    rule_id = "CACHE001"
    title = "cache-served arrays must be frozen"
    rationale = (
        "Shared caches (LRUCache.get_or_compute) hand the same array to "
        "every caller; a compute callable that does not set "
        "writeable=False lets one caller silently corrupt every other "
        "caller's data -- the class of bug behind PR 3's template cache "
        "design.  Re-marking a served array writeable is equally banned."
    )

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        # All named function defs in the module, any nesting level: the
        # compute callables passed to get_or_compute are typically nested
        # closures over the cache key's inputs.
        functions: Dict[str, ast.AST] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[node.name] = node
        # Fixpoint: a function freezes if it does so directly or delegates
        # to a local function that freezes (one common idiom: a shared
        # ``_frozen_copy`` helper).
        freezers = {
            name for name, func in functions.items() if _function_freezes_directly(func)
        }
        changed = True
        while changed:
            changed = False
            for name, func in functions.items():
                if name in freezers:
                    continue
                if _called_local_names(func) & freezers:
                    freezers.add(name)
                    changed = True

        def compute_violation(call: ast.Call, compute: ast.AST) -> Optional[str]:
            if isinstance(compute, ast.Lambda):
                if isinstance(compute.body, ast.Call) and isinstance(
                    compute.body.func, ast.Name
                ):
                    callee = compute.body.func.id
                    if callee in freezers:
                        return None
                    return (
                        f"compute lambda delegates to {callee}(), which never "
                        "marks its result writeable=False before it is cached"
                    )
                return (
                    "compute lambda passed to a cache does not produce a "
                    "frozen (writeable=False) value"
                )
            if isinstance(compute, ast.Name):
                if compute.id in freezers:
                    return None
                return (
                    f"compute callable {compute.id}() never marks its result "
                    "writeable=False before it is cached"
                )
            return (
                "cannot verify the compute callable freezes "
                "(writeable=False) the value it hands to the cache"
            )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            write = _setflags_write(node)
            if write is True:
                found.append(
                    (
                        node.lineno,
                        "setflags(write=True) re-thaws an array; cache-served "
                        "arrays must stay read-only",
                    )
                )
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "get_or_compute"
            ):
                continue
            compute: Optional[ast.AST] = None
            if len(node.args) >= 2:
                compute = node.args[1]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "compute":
                        compute = keyword.value
            if compute is None:
                continue
            problem = compute_violation(node, compute)
            if problem is not None:
                found.append((node.lineno, problem))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and _assign_thaws(node):
                found.append(
                    (
                        node.lineno,
                        "flags.writeable = True re-thaws an array; "
                        "cache-served arrays must stay read-only",
                    )
                )
        return found


# -- EXC001 ----------------------------------------------------------------------

#: The BaseException-derived control-flow exceptions of the supervision
#: layer.  A handler naming one of these proves the author thought about
#: interrupt/timeout flow, which is what exempts a sibling
#: ``except Exception``.
_CONTROL_FLOW_NAMES = {"CellTimeout", "SweepInterrupted", "KeyboardInterrupt"}


def _exception_names(handler_type: Optional[ast.AST]) -> Set[str]:
    if handler_type is None:
        return set()
    nodes: Sequence[ast.AST]
    if isinstance(handler_type, ast.Tuple):
        nodes = handler_type.elts
    else:
        nodes = [handler_type]
    names: Set[str] = set()
    for node in nodes:
        dotted = _dotted_name(node)
        if dotted is not None:
            names.add(dotted.split(".")[-1])
        else:
            names.add("<dynamic>")
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


#: Module-key prefixes EXC001 polices.  ``service/`` request handlers
#: wrap everything in ``except Exception`` to produce 500 responses --
#: exactly the construct that would silently eat a sweep interrupt.
_EXC_PREFIXES = ("pipeline/", "service/")


class ExceptionDisciplineRule(Rule):
    rule_id = "EXC001"
    title = "pipeline/ and service/ must not swallow control-flow exceptions"
    rationale = (
        "CellTimeout and SweepInterrupted derive from BaseException "
        "precisely so except Exception cannot eat them; a bare except or "
        "except BaseException re-opens that hole, and a broad "
        "except Exception hides the failure taxonomy unless the handler "
        "re-raises or a sibling handler names the control-flow exceptions "
        "explicitly."
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.module_key.startswith(_EXC_PREFIXES)

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            try_names: Set[str] = set()
            for handler in node.handlers:
                try_names |= _exception_names(handler.type)
            control_flow_handled = bool(try_names & _CONTROL_FLOW_NAMES)
            for handler in node.handlers:
                names = _exception_names(handler.type)
                if handler.type is None:
                    found.append(
                        (
                            handler.lineno,
                            "bare except swallows the BaseException-derived "
                            "CellTimeout/SweepInterrupted control flow",
                        )
                    )
                    continue
                if "BaseException" in names:
                    found.append(
                        (
                            handler.lineno,
                            "except BaseException swallows the "
                            "CellTimeout/SweepInterrupted control flow; never "
                            "catch BaseException",
                        )
                    )
                    continue
                if "Exception" in names and not (
                    _reraises(handler) or control_flow_handled
                ):
                    found.append(
                        (
                            handler.lineno,
                            f"broad except Exception in {module.module_key} "
                            "without a re-raise or an explicit sibling "
                            "CellTimeout/SweepInterrupted handler; narrow the "
                            "catch or name the control flow",
                        )
                    )
        return found


# -- SCHEMA001 -------------------------------------------------------------------


def schema_manifest_path() -> Path:
    """Where the pinned schema manifest lives."""
    return Path(__file__).resolve().parent / "schema_manifest.json"


#: (class name, version constant) pairs checked per module key.
_SCHEMA_SCOPE: Dict[str, Tuple[Tuple[str, ...], str, str]] = {
    "core/spec.py": (("ScenarioSpec",), "SPEC_SCHEMA_VERSION", "spec_schema_version"),
    "pipeline/artifacts.py": (
        ("ScenarioResult", "Provenance"),
        "ARTIFACT_SCHEMA_VERSION",
        "artifact_schema_version",
    ),
}


def _dataclass_field_names(cls: ast.ClassDef) -> List[str]:
    return [
        statement.target.id
        for statement in cls.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
    ]


class SchemaManifestRule(Rule):
    rule_id = "SCHEMA001"
    title = "serialized schemas must match the pinned manifest"
    rationale = (
        "ScenarioSpec/ScenarioResult/Provenance field sets are load-bearing "
        "wire formats (artifacts, the result store's code-version salt, the "
        "process backend).  Drifting a field set without bumping "
        "SPEC_SCHEMA_VERSION/ARTIFACT_SCHEMA_VERSION silently serves stale "
        "memoized results; the manifest forces the bump and the field "
        "change into the same reviewed diff."
    )

    def __init__(self, manifest: Optional[Dict[str, object]] = None) -> None:
        self._manifest = manifest

    def manifest(self) -> Dict[str, object]:
        if self._manifest is None:
            self._manifest = json.loads(schema_manifest_path().read_text())
        return self._manifest

    def applies_to(self, module: LintModule) -> bool:
        return module.module_key in _SCHEMA_SCOPE

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        class_names, version_constant, manifest_version_key = _SCHEMA_SCOPE[
            module.module_key
        ]
        manifest = self.manifest()
        classes = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for class_name in class_names:
            cls = classes.get(class_name)
            if cls is None:
                continue
            pinned = list(manifest.get(class_name, []))
            actual = _dataclass_field_names(cls)
            if actual != pinned:
                added = sorted(set(actual) - set(pinned))
                removed = sorted(set(pinned) - set(actual))
                drift = []
                if added:
                    drift.append(f"added {added}")
                if removed:
                    drift.append(f"removed {removed}")
                if not drift:
                    drift.append(f"reordered to {actual}")
                found.append(
                    (
                        cls.lineno,
                        f"{class_name} fields drifted from "
                        f"schema_manifest.json ({'; '.join(drift)}); update "
                        f"the manifest and bump {version_constant} in the "
                        "same change",
                    )
                )
        pinned_version = manifest.get(manifest_version_key)
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == version_constant
                    and isinstance(node.value, ast.Constant)
                    and node.value.value != pinned_version
                ):
                    found.append(
                        (
                            node.lineno,
                            f"{version_constant} is {node.value.value!r} but "
                            f"schema_manifest.json pins {pinned_version!r}; "
                            "bump them together",
                        )
                    )
        return found


# -- FROZEN001 -------------------------------------------------------------------

_MUTABLE_DEFAULT_CALLS = {"list", "dict", "set", "bytearray"}
_MUTABLE_NUMPY_CALLS = {"array", "zeros", "ones", "empty", "full", "arange"}


def _dataclass_decorator(cls: ast.ClassDef) -> Optional[ast.AST]:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = _dotted_name(target)
        if dotted is not None and dotted.split(".")[-1] == "dataclass":
            return decorator
    return None


def _is_frozen(decorator: ast.AST) -> bool:
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass
    return any(
        keyword.arg == "frozen"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in decorator.keywords
    )


def _mutable_default(value: Optional[ast.AST]) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return "a mutable literal"
    if isinstance(value, ast.Call):
        dotted = _dotted_name(value.func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if dotted in _MUTABLE_DEFAULT_CALLS:
            return f"a mutable {dotted}() value"
        if (
            parts[0] in ("np", "numpy")
            and len(parts) == 2
            and parts[1] in _MUTABLE_NUMPY_CALLS
        ):
            return f"a mutable {dotted}() array"
    return None


class FrozenConfigRule(Rule):
    rule_id = "FROZEN001"
    title = "config dataclasses stay frozen with immutable defaults"
    rationale = (
        "Specs and configs are cache keys and spec-hash inputs; a "
        "non-frozen config (or a shared mutable default) lets one scenario "
        "mutate every other scenario's identity in place."
    )

    def applies_to(self, module: LintModule) -> bool:
        return module.module_key in ("core/spec.py", "core/config.py")

    def check(self, module: LintModule) -> Violations:
        found: Violations = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorator = _dataclass_decorator(node)
            if decorator is None:
                continue
            if not _is_frozen(decorator):
                found.append(
                    (
                        node.lineno,
                        f"config dataclass {node.name} must be "
                        "@dataclass(frozen=True)",
                    )
                )
            for statement in node.body:
                if not (
                    isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                ):
                    continue
                problem = _mutable_default(statement.value)
                if problem is not None:
                    found.append(
                        (
                            statement.lineno,
                            f"field {node.name}.{statement.target.id} defaults "
                            f"to {problem}, shared across instances; use "
                            "field(default_factory=...)",
                        )
                    )
        return found


# -- registry --------------------------------------------------------------------

from repro.analysis.rules_concurrency import (  # noqa: E402  (registry import)
    ForkAfterThreadRule,
    LockDisciplineRule,
    SeedStreamCollisionRule,
    SharedCacheRule,
    StalePragmaRule,
)

ALL_RULES: Tuple[Rule, ...] = (
    GlobalRandomnessRule(),
    DeterminismRule(),
    HotLoopRule(),
    CacheFreezeRule(),
    ExceptionDisciplineRule(),
    SchemaManifestRule(),
    FrozenConfigRule(),
    LockDisciplineRule(),
    ForkAfterThreadRule(),
    SharedCacheRule(),
    SeedStreamCollisionRule(),
    StalePragmaRule(),
)

RULE_INDEX: Dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}
