"""Project-wide symbol table, call graph and per-module summaries.

The first-generation repro-lint rules (:mod:`repro.analysis.rules`) are
strictly per-module AST visitors: each rule sees one file at a time.
That is blind to exactly the bug class the concurrent subsystems invite
-- an attribute guarded by a lock in one method but mutated bare in
another, a fork in code reachable from a module that already started
threads, two sweep-cell code paths seeding ``default_rng`` identically.

This module is the cross-module layer those rules need:

``ModuleSummary``
    One digest per module, extracted in a single AST pass: functions
    and the raw dotted names they call, thread-start and fork call sites,
    ``default_rng`` call sites with their seed expression text, per-class
    lock attributes and attribute accesses (with the locks held at each
    access), and dict get-or-create cache idioms.

``LintProject``
    The shared symbol table + call graph over every summary, with
    import-aware call resolution and forward reachability.  Project
    rules (:mod:`repro.analysis.rules_concurrency`) query it instead of
    re-walking ASTs.

Resolution is module-level and deliberately lightweight: bare names via
the defining module and its imports, ``self.method`` via the enclosing
class, ``alias.func`` / ``alias.Class.method`` via the import table, and
otherwise a by-name fallback over project methods (bounded, and skipped
for generic container-protocol names) -- a sound over-approximation for
hazard reachability, not a type inferencer.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import LintModule, Rule

__all__ = [
    "AttrAccess",
    "CacheOp",
    "ClassSummary",
    "FunctionSummary",
    "LintProject",
    "ModuleSummary",
    "ProjectRule",
    "summarize_module",
]

#: Pseudo-function holding module-level (import-time) statements.
MODULE_BODY = "<module>"

#: Resolved dotted call names that start a thread.
_THREAD_STARTERS = {
    "threading.Thread",
    "threading.Timer",
    "_thread.start_new_thread",
    "concurrent.futures.ThreadPoolExecutor",
}

#: Base classes that make every instance spawn handler threads.
_THREADING_BASES = {
    "http.server.ThreadingHTTPServer",
    "socketserver.ThreadingMixIn",
    "socketserver.ThreadingTCPServer",
    "socketserver.ThreadingUDPServer",
}

#: Lock constructors recognised for guard tracking.
_LOCK_FACTORIES = {"threading.Lock", "threading.RLock"}

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = {
    "append",
    "add",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "sort",
    "update",
}

#: Attribute-call names too generic for the by-name fallback (they are
#: overwhelmingly container/stdlib protocol calls, not project methods).
_FALLBACK_BLOCKLIST = {
    "append",
    "add",
    "clear",
    "copy",
    "decode",
    "encode",
    "extend",
    "format",
    "get",
    "items",
    "join",
    "keys",
    "lower",
    "pop",
    "read",
    "remove",
    "setdefault",
    "sort",
    "split",
    "startswith",
    "endswith",
    "strip",
    "update",
    "upper",
    "values",
    "write",
}

#: By-name fallback gives up when a method name has more project
#: definitions than this (the edge set would be noise, not signal).
_FALLBACK_LIMIT = 12


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# -- summary dataclasses ---------------------------------------------------------


@dataclasses.dataclass
class AttrAccess:
    """One access to a shared attribute (``self.X``) or module global."""

    attr: str
    line: int
    #: ``"read"`` | ``"write"`` | ``"rmw"`` (read-modify-write: augmented
    #: assignment, subscript store, in-place mutator call, deletion).
    mode: str
    #: Lock attribute/global names held (innermost-last) at the access.
    locks: List[str]
    function: str
    in_init: bool


@dataclasses.dataclass
class CacheOp:
    """One half of a dict get-or-create idiom on a shared mapping."""

    target: str  # attribute name (``self.X`` -> ``X``) or global name
    scope: str  # owning class name, or ``""`` for module globals
    #: ``"store"`` = subscript store inside a missing-key branch;
    #: ``"guard"`` = the missing-key test itself.
    op: str
    line: int
    function: str
    locks: List[str]


@dataclasses.dataclass
class FunctionSummary:
    """One top-level function or method (nested defs fold into it)."""

    qualname: str
    lineno: int
    calls: List[str]
    starts_thread: bool
    #: ``(line, dotted)`` fork/process-spawn call sites.
    fork_calls: List[Tuple[int, str]]
    #: ``(line, seed_expression_source)`` ``default_rng`` call sites.
    rng_calls: List[Tuple[int, str]]


@dataclasses.dataclass
class ClassSummary:
    """Locks, attribute accesses and bases of one class."""

    name: str
    lineno: int
    bases: List[str]
    #: Lock/RLock attributes assigned in any method -> first line seen.
    lock_attrs: Dict[str, int]
    accesses: List[AttrAccess]


@dataclasses.dataclass
class ModuleSummary:
    """Everything the project rules need to know about one module."""

    logical_path: str
    module_key: str
    module_name: str
    #: Local name -> dotted origin (``{"backends": "repro.pipeline.backends"}``).
    imports: Dict[str, str]
    functions: Dict[str, FunctionSummary]
    classes: Dict[str, ClassSummary]
    #: Module-level names bound to ``threading.Lock()`` / ``RLock()``.
    global_locks: List[str]
    #: Module-level accesses to module globals (function scope ``""``).
    global_accesses: List[AttrAccess]
    cache_ops: List[CacheOp]
    starts_threads: bool


def _module_name_for(module_key: str) -> str:
    """Dotted import name of a module key (``pipeline/backends.py``)."""
    if not module_key:
        return ""
    key = module_key[:-3] if module_key.endswith(".py") else module_key
    parts = [part for part in key.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + parts)


# -- extraction ------------------------------------------------------------------


class _SummaryExtractor:
    """Single-pass extraction of a :class:`ModuleSummary` from one AST."""

    def __init__(self, module: LintModule) -> None:
        self.module = module
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self.global_locks: List[str] = []
        self.global_accesses: List[AttrAccess] = []
        self.cache_ops: List[CacheOp] = []
        self.module_globals: Set[str] = set()
        self.starts_threads = False

    # - imports and name resolution local to this module -

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports[local] = f"{node.module}.{alias.name}"

    def _resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Rewrite the head of ``dotted`` through the import table."""
        if not dotted:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    # - classification helpers -

    def _is_thread_start(self, resolved: Optional[str]) -> bool:
        return resolved in _THREAD_STARTERS

    def _is_lock_factory(self, resolved: Optional[str]) -> bool:
        return resolved in _LOCK_FACTORIES

    def _fork_api(self, resolved: Optional[str], raw: Optional[str]) -> Optional[str]:
        if resolved == "os.fork":
            return "os.fork"
        last = (raw or "").rsplit(".", 1)[-1]
        if last == "Process" and any(
            origin.split(".")[0] == "multiprocessing"
            for origin in self.imports.values()
        ):
            return raw
        return None

    def _rng_seed_src(self, node: ast.Call, resolved: Optional[str]) -> Optional[str]:
        if not resolved or resolved.rsplit(".", 1)[-1] != "default_rng":
            return None
        if not (resolved == "numpy.random.default_rng" or ".random." in resolved
                or resolved == "default_rng"):
            return None
        seed: Optional[ast.expr] = node.args[0] if node.args else None
        if seed is None:
            for keyword in node.keywords:
                if keyword.arg == "seed":
                    seed = keyword.value
        return "" if seed is None else ast.unparse(seed)

    # - module body -

    def run(self) -> ModuleSummary:
        tree = self.module.tree
        self._collect_imports(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_globals.add(target.id)
                        if isinstance(node.value, ast.Call) and self._is_lock_factory(
                            self._resolve(_dotted(node.value.func))
                        ):
                            self.global_locks.append(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.module_globals.add(node.target.id)

        module_body = FunctionSummary(
            qualname=MODULE_BODY, lineno=1, calls=[], starts_thread=False,
            fork_calls=[], rng_calls=[],
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(node, qualname=node.name, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._extract_class(node)
            else:
                self._extract_statements([node], module_body, class_name=None,
                                         self_name=None, locks=[])
        self.functions[MODULE_BODY] = module_body

        starts = self.starts_threads or any(
            f.starts_thread for f in self.functions.values()
        )
        return ModuleSummary(
            logical_path=self.module.logical_path,
            module_key=self.module.module_key,
            module_name=_module_name_for(self.module.module_key),
            imports=self.imports,
            functions=self.functions,
            classes=self.classes,
            global_locks=self.global_locks,
            global_accesses=self.global_accesses,
            cache_ops=self.cache_ops,
            starts_threads=starts,
        )

    # - classes -

    def _extract_class(self, node: ast.ClassDef) -> None:
        bases = [self._resolve(_dotted(base)) or "" for base in node.bases]
        summary = ClassSummary(
            name=node.name, lineno=node.lineno, bases=bases,
            lock_attrs={}, accesses=[],
        )
        self.classes[node.name] = summary
        if any(base in _THREADING_BASES for base in bases):
            self.starts_threads = True
        methods = [
            item for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        # Pass 1: find the lock attributes so pass 2 can track held locks.
        for method in methods:
            self_name = self._self_name(method)
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Assign):
                    continue
                if not (isinstance(sub.value, ast.Call) and self._is_lock_factory(
                    self._resolve(_dotted(sub.value.func))
                )):
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        summary.lock_attrs.setdefault(target.attr, sub.lineno)
        for method in methods:
            self._extract_function(
                method, qualname=f"{node.name}.{method.name}", class_name=node.name
            )

    @staticmethod
    def _self_name(method: ast.AST) -> Optional[str]:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        args = method.args
        if args.posonlyargs:
            return args.posonlyargs[0].arg
        if args.args:
            return args.args[0].arg
        return None

    # - functions / statement walk -

    def _extract_function(
        self,
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        summary = FunctionSummary(
            qualname=qualname, lineno=node.lineno, calls=[],
            starts_thread=False, fork_calls=[], rng_calls=[],
        )
        self.functions[qualname] = summary
        self._extract_statements(
            node.body, summary, class_name=class_name,
            self_name=self._self_name(node), locks=[],
        )

    def _extract_statements(
        self,
        body: Sequence[ast.AST],
        summary: FunctionSummary,
        class_name: Optional[str],
        self_name: Optional[str],
        locks: List[str],
    ) -> None:
        #: ``var -> target`` for ``var = <target>.get(key)`` guard tracking.
        guard_vars: Dict[str, str] = {}
        for statement in body:
            self._walk(statement, summary, class_name, self_name, locks, guard_vars)

    def _held_lock_name(
        self, expr: ast.expr, class_name: Optional[str], self_name: Optional[str]
    ) -> Optional[str]:
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self_name
            and class_name is not None
            and expr.attr in self.classes[class_name].lock_attrs
        ):
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in self.global_locks:
            return expr.id
        return None

    def _shared_target(
        self, expr: ast.AST, class_name: Optional[str], self_name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """``(attr_or_global, scope)`` when ``expr`` names shared state."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == self_name
            and class_name is not None
        ):
            return expr.attr, class_name
        if isinstance(expr, ast.Name) and expr.id in self.module_globals:
            return expr.id, ""
        return None

    def _record_access(
        self,
        target: Tuple[str, str],
        line: int,
        mode: str,
        locks: List[str],
        function: str,
    ) -> None:
        attr, scope = target
        access = AttrAccess(
            attr=attr, line=line, mode=mode, locks=list(locks),
            function=function, in_init=function.endswith("__init__"),
        )
        if scope:
            self.classes[scope].accesses.append(access)
        else:
            self.global_accesses.append(access)

    def _record_cache_op(
        self,
        target: Tuple[str, str],
        op: str,
        line: int,
        locks: List[str],
        function: str,
    ) -> None:
        self.cache_ops.append(
            CacheOp(
                target=target[0], scope=target[1], op=op, line=line,
                function=function, locks=list(locks),
            )
        )

    def _missing_key_target(
        self,
        test: ast.expr,
        guard_vars: Dict[str, str],
        class_name: Optional[str],
        self_name: Optional[str],
    ) -> Optional[Tuple[str, str]]:
        """The shared mapping a ``missing-key`` If test checks, if any."""
        # ``key not in T`` / ``key in T``
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            op = test.ops[0]
            if isinstance(op, (ast.In, ast.NotIn)):
                return self._shared_target(
                    test.comparators[0], class_name, self_name
                )
            # ``T.get(k) is None`` / ``var is None`` where var = T.get(k)
            if isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)):
                for side in (test.left, test.comparators[0]):
                    got = self._get_call_target(side, class_name, self_name)
                    if got is not None:
                        return got
                    if isinstance(side, ast.Name) and side.id in guard_vars:
                        name = guard_vars[side.id]
                        return self._shared_target_by_name(name, class_name)
        # ``if not var`` where var = T.get(k)
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            inner = test.operand
            if isinstance(inner, ast.Name) and inner.id in guard_vars:
                return self._shared_target_by_name(guard_vars[inner.id], class_name)
            got = self._get_call_target(inner, class_name, self_name)
            if got is not None:
                return got
        return None

    def _get_call_target(
        self, expr: ast.AST, class_name: Optional[str], self_name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "get"
        ):
            return self._shared_target(expr.func.value, class_name, self_name)
        return None

    def _shared_target_by_name(
        self, spec: str, class_name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        scope, _, attr = spec.partition("::")
        if scope == "" and class_name is None:
            return attr, ""
        if scope and scope == (class_name or ""):
            return attr, scope
        return attr, scope

    def _walk(
        self,
        node: ast.AST,
        summary: FunctionSummary,
        class_name: Optional[str],
        self_name: Optional[str],
        locks: List[str],
        guard_vars: Dict[str, str],
    ) -> None:
        record = lambda target, line, mode: self._record_access(  # noqa: E731
            target, line, mode, locks, summary.qualname
        )

        if isinstance(node, (ast.With, ast.AsyncWith)):
            held = list(locks)
            for item in node.items:
                lock = self._held_lock_name(item.context_expr, class_name, self_name)
                if lock is not None:
                    held.append(lock)
                self._walk(item.context_expr, summary, class_name, self_name,
                           locks, guard_vars)
            for child in node.body:
                self._walk(child, summary, class_name, self_name, held, guard_vars)
            return

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Nested defs fold into the enclosing summary: their bodies run
            # (at latest) when the closure is invoked by this function's
            # callees, so attributing their calls here keeps reachability
            # sound without modelling closures.
            body = node.body if not isinstance(node, ast.Lambda) else [node.body]
            for child in body:
                self._walk(child, summary, class_name, self_name, locks, guard_vars)
            return

        if isinstance(node, ast.Assign):
            # guard-var tracking: ``var = T.get(key)``
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                got = self._get_call_target(node.value, class_name, self_name)
                if got is not None:
                    guard_vars[node.targets[0].id] = f"{got[1]}::{got[0]}"
            for target in node.targets:
                self._classify_store(target, record, class_name, self_name,
                                     summary, locks, guard_vars, is_aug=False)
            self._walk(node.value, summary, class_name, self_name, locks, guard_vars)
            return

        if isinstance(node, ast.AugAssign):
            self._classify_store(node.target, record, class_name, self_name,
                                 summary, locks, guard_vars, is_aug=True)
            self._walk(node.value, summary, class_name, self_name, locks, guard_vars)
            return

        if isinstance(node, ast.Delete):
            for target in node.targets:
                base = target.value if isinstance(target, ast.Subscript) else target
                shared = self._shared_target(base, class_name, self_name)
                if shared is not None:
                    record(shared, node.lineno, "rmw")
            return

        if isinstance(node, ast.If):
            missing = self._missing_key_target(
                node.test, guard_vars, class_name, self_name
            )
            self._walk(node.test, summary, class_name, self_name, locks, guard_vars)
            if missing is not None:
                self._record_cache_op(
                    missing, "guard", node.lineno, locks, summary.qualname
                )
                for child in node.body:
                    self._mark_stores_in_branch(
                        child, missing, summary, class_name, self_name, locks
                    )
            for child in node.body + node.orelse:
                self._walk(child, summary, class_name, self_name, locks, guard_vars)
            return

        if isinstance(node, ast.Call):
            raw = _dotted(node.func)
            resolved = self._resolve(raw)
            if raw is not None:
                summary.calls.append(raw)
            elif isinstance(node.func, ast.Attribute):
                summary.calls.append(f"?.{node.func.attr}")
            if self._is_thread_start(resolved):
                summary.starts_thread = True
            fork = self._fork_api(resolved, raw)
            if fork is not None:
                summary.fork_calls.append((node.lineno, fork))
            seed_src = self._rng_seed_src(node, resolved)
            if seed_src is not None:
                summary.rng_calls.append((node.lineno, seed_src))
            # a callable handed to Thread(target=...)/Process(target=...)
            # or executor.submit(fn, ...) runs -- that is a call edge
            if self._is_thread_start(resolved) or fork is not None:
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        ref = _dotted(keyword.value)
                        if ref is not None:
                            summary.calls.append(ref)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit"
                and node.args
            ):
                ref = _dotted(node.args[0])
                if ref is not None:
                    summary.calls.append(ref)
            # ``self.X.append(...)`` style in-place mutation
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr in _MUTATING_METHODS
            ):
                shared = self._shared_target(node.func.value, class_name, self_name)
                if shared is not None:
                    record(shared, node.lineno, "rmw")
                    if node.func.attr == "setdefault":
                        # setdefault is the guard and the store in one call
                        self._record_cache_op(
                            shared, "guard", node.lineno, locks, summary.qualname
                        )
                        self._record_cache_op(
                            shared, "store", node.lineno, locks, summary.qualname
                        )
            for child in ast.iter_child_nodes(node):
                self._walk(child, summary, class_name, self_name, locks, guard_vars)
            return

        shared = self._shared_target(node, class_name, self_name)
        if shared is not None and isinstance(getattr(node, "ctx", None), ast.Load):
            record(shared, node.lineno, "read")  # type: ignore[attr-defined]

        for child in ast.iter_child_nodes(node):
            self._walk(child, summary, class_name, self_name, locks, guard_vars)

    def _classify_store(
        self,
        target: ast.AST,
        record,  # type: ignore[no-untyped-def]
        class_name: Optional[str],
        self_name: Optional[str],
        summary: FunctionSummary,
        locks: List[str],
        guard_vars: Dict[str, str],
        is_aug: bool,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._classify_store(element, record, class_name, self_name,
                                     summary, locks, guard_vars, is_aug)
            return
        if isinstance(target, ast.Subscript):
            shared = self._shared_target(target.value, class_name, self_name)
            if shared is not None:
                record(shared, target.lineno, "rmw")
            self._walk(target.slice, summary, class_name, self_name, locks,
                       guard_vars)
            return
        shared = self._shared_target(target, class_name, self_name)
        if shared is not None:
            record(shared, target.lineno, "rmw" if is_aug else "write")
            return
        if isinstance(target, ast.Attribute):
            self._walk(target.value, summary, class_name, self_name, locks,
                       guard_vars)

    def _mark_stores_in_branch(
        self,
        node: ast.AST,
        missing: Tuple[str, str],
        summary: FunctionSummary,
        class_name: Optional[str],
        self_name: Optional[str],
        locks: List[str],
    ) -> None:
        """Record ``T[k] = v`` stores inside a missing-key branch."""
        for sub in ast.walk(node):
            targets: List[ast.AST] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                targets = [sub.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    shared = self._shared_target(
                        target.value, class_name, self_name
                    )
                    if shared == missing:
                        self._record_cache_op(
                            missing, "store", sub.lineno, locks, summary.qualname
                        )


def summarize_module(module: LintModule) -> ModuleSummary:
    """Extract the project-rule digest of one parsed module."""
    return _SummaryExtractor(module).run()


# -- the project -----------------------------------------------------------------


class LintProject:
    """Symbol table + call graph over a set of :class:`ModuleSummary`."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            key = summary.module_key or summary.logical_path
            self.modules[key] = summary
        #: ``module_name`` -> module key, for import resolution.
        self._by_name: Dict[str, str] = {
            summary.module_name: key
            for key, summary in self.modules.items()
            if summary.module_name
        }
        #: function id (``key::qualname``) -> FunctionSummary
        self.functions: Dict[str, FunctionSummary] = {}
        #: method name -> ids of every project function/method with it.
        self._by_method_name: Dict[str, List[str]] = {}
        for key, summary in self.modules.items():
            for qualname, function in summary.functions.items():
                fid = f"{key}::{qualname}"
                self.functions[fid] = function
                short = qualname.rsplit(".", 1)[-1]
                self._by_method_name.setdefault(short, []).append(fid)
        self._edges: Dict[str, List[str]] = {}
        self._build_edges()

    # - resolution -

    def function_id(self, module_key: str, qualname: str) -> str:
        return f"{module_key}::{qualname}"

    def _module_for_name(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Longest project module whose name prefixes ``dotted``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            name = ".".join(parts[:cut])
            if name in self._by_name:
                return self._by_name[name], ".".join(parts[cut:])
        return None

    def resolve_call(
        self, module_key: str, caller_qualname: str, raw: str
    ) -> List[str]:
        """Function ids a raw dotted call name may land on."""
        summary = self.modules.get(module_key)
        if summary is None:
            return []
        parts = raw.split(".")
        head = parts[0]

        # self.method -> method on the enclosing class
        if head in ("self", "cls") and len(parts) == 2 and "." in caller_qualname:
            class_name = caller_qualname.split(".")[0]
            candidate = f"{class_name}.{parts[1]}"
            if candidate in summary.functions:
                return [self.function_id(module_key, candidate)]
            return self._fallback(parts[1])

        # bare name -> same-module function/class, else through imports
        if len(parts) == 1:
            if head in summary.functions:
                return [self.function_id(module_key, head)]
            if head in summary.classes:
                return self._class_targets(module_key, head, "__init__")
            origin = summary.imports.get(head)
            if origin is not None:
                return self._resolve_dotted(origin)
            return []

        # Class.method in this module
        if head in summary.classes:
            candidate = f"{head}.{parts[1]}"
            if candidate in summary.functions:
                return [self.function_id(module_key, candidate)]
            return []

        # imported alias: alias.func / alias.Class.method / package.module.func
        origin = summary.imports.get(head)
        if origin is not None:
            return self._resolve_dotted(".".join([origin] + parts[1:]))

        # unresolvable receiver: by-name fallback on the last segment
        return self._fallback(parts[-1])

    def _class_targets(
        self, module_key: str, class_name: str, method: str
    ) -> List[str]:
        summary = self.modules[module_key]
        candidate = f"{class_name}.{method}"
        if candidate in summary.functions:
            return [self.function_id(module_key, candidate)]
        return []

    def _resolve_dotted(self, dotted: str) -> List[str]:
        located = self._module_for_name(dotted)
        if located is None:
            return []
        key, remainder = located
        summary = self.modules[key]
        if not remainder:
            return [self.function_id(key, MODULE_BODY)]
        parts = remainder.split(".")
        if parts[0] in summary.functions:
            return [self.function_id(key, parts[0])]
        if parts[0] in summary.classes:
            method = parts[1] if len(parts) > 1 else "__init__"
            return self._class_targets(key, parts[0], method)
        return []

    def _fallback(self, name: str) -> List[str]:
        if name.startswith("__") or name in _FALLBACK_BLOCKLIST:
            return []
        candidates = self._by_method_name.get(name, [])
        if not candidates or len(candidates) > _FALLBACK_LIMIT:
            return []
        return list(candidates)

    # - call graph -

    def _build_edges(self) -> None:
        for key, summary in self.modules.items():
            for qualname, function in summary.functions.items():
                fid = self.function_id(key, qualname)
                edges: Set[str] = set()
                for raw in function.calls:
                    if raw.startswith("?."):
                        edges.update(self._fallback(raw[2:]))
                    else:
                        edges.update(self.resolve_call(key, qualname, raw))
                # instantiating a class reaches every method eventually is
                # too coarse; but a module body reaches its own functions'
                # decorators etc. -- leave as resolved.
                self._edges[fid] = sorted(edges)

    def callees(self, function_id: str) -> List[str]:
        return self._edges.get(function_id, [])

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Forward closure over the call graph (module bodies included).

        When any function of a module is reached, the module's import-time
        body is considered reached as well (importing the module ran it).
        """
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            module_key = current.split("::", 1)[0]
            body = self.function_id(module_key, MODULE_BODY)
            if body in self.functions and body not in seen:
                stack.append(body)
            stack.extend(
                callee for callee in self.callees(current) if callee not in seen
            )
        return seen

    def functions_of_module(self, module_key: str) -> List[str]:
        summary = self.modules.get(module_key)
        if summary is None:
            return []
        return [self.function_id(module_key, name) for name in summary.functions]

    def thread_rooted(self) -> Set[str]:
        """Everything reachable from any thread-starting module."""
        roots: List[str] = []
        for key, summary in self.modules.items():
            if summary.starts_threads:
                roots.extend(self.functions_of_module(key))
        return self.reachable_from(roots)


# -- project rules ---------------------------------------------------------------


class ProjectRule(Rule):
    """A rule that needs the whole :class:`LintProject`, not one module.

    Subclasses implement :meth:`check_project`, returning
    ``(logical_path, line, message)`` triples; the engine attaches
    suppression state from the owning module's pragmas.  The per-module
    :meth:`Rule.check` is intentionally inert so a ``ProjectRule`` can sit
    in the same registry as the per-module rules.
    """

    def applies_to(self, module: LintModule) -> bool:  # pragma: no cover
        return False

    def check(self, module: LintModule) -> List[Tuple[int, str]]:
        return []

    def check_project(
        self, project: LintProject
    ) -> List[Tuple[str, int, str]]:
        raise NotImplementedError
