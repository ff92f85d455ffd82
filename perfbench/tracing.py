"""Span recording for the benchmark's traced runs.

The program under test is not modified: :class:`Tracer` replaces public
functions and methods with wrappers at runtime (see :mod:`layers`).  Each
wrapper call records one span -- name, start, end, its own id, its parent's
id (thread-local nesting) and a request id -- into an in-memory list.

* The owning process keeps its spans until the run ends and then writes
  them with :meth:`Tracer.dump`.
* A forked process (a sweep worker) inherits the wrappers; its span list is
  reset at fork, and every time one of its root spans closes (one cell) it
  appends its spans and a snapshot of its cache counters to
  ``spans-<pid>.jsonl`` in the tracer's directory.

:func:`self_times` turns spans into per-name call counts and self time (a
span's duration minus the time its direct children cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Field order of one recorded span.
SPAN_FIELDS = ("name", "start", "end", "id", "parent", "rid", "pid", "tid", "value")

Span = Dict[str, Any]


class Tracer:
    """Runtime span recorder; disabled wrappers cost one attribute test."""

    def __init__(self, out_dir: Optional[pathlib.Path] = None) -> None:
        self.out_dir = out_dir
        self.enabled = False
        #: Called at each worker flush; returns cache counters to record.
        self.snapshot: Optional[Callable[[], Dict[str, Any]]] = None
        self._owner = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: List[Tuple] = []

    def _stack(self) -> List[Tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ----------------------------------------------------------------

    def traced(
        self,
        original: Callable,
        name: str,
        request_id: Optional[Callable[..., Any]] = None,
        value: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """A wrapper recording one ``name`` span per call of ``original``.

        ``request_id(*args, **kwargs)`` names the request the span belongs
        to (children inherit it); ``value(result, *args, **kwargs)`` is an
        optional number stored on the span (e.g. trial counts).
        """

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            stack = self._stack()
            parent, rid = stack[-1] if stack else (0, None)
            if request_id is not None:
                rid = request_id(*args, **kwargs)
            span_id = next(self._ids)
            stack.append((span_id, rid))
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                measured = value(result, *args, **kwargs) if value else None
                record = (name, start, end, span_id, parent, rid,
                          os.getpid(), threading.get_ident(), measured)
                with self._lock:
                    self._spans.append(record)
                if not stack and os.getpid() != self._owner:
                    self.flush()

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str, **kwargs: Any) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) with a traced wrapper."""
        original = cls.__dict__[attr]
        setattr(cls, attr, self.traced(original, name, **kwargs))

    def wrap_function(self, module: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Replace a module function in every loaded module that bound it."""
        original = getattr(module, attr)
        wrapper = self.traced(original, name, **kwargs)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace or not str(namespace.get("__name__", "")).startswith("repro"):
                continue
            for key, bound in list(namespace.items()):
                if bound is original:
                    setattr(loaded, key, wrapper)

    # -- output ------------------------------------------------------------------

    def take(self) -> List[Span]:
        """Return and forget the spans recorded so far."""
        with self._lock:
            records, self._spans = self._spans, []
        return [dict(zip(SPAN_FIELDS, record)) for record in records]

    def flush(self) -> None:
        """Append this process's spans (and cache counters) to its file."""
        if self.out_dir is None:
            return
        spans = self.take()
        lines = [json.dumps({"span": span}) for span in spans]
        if self.snapshot is not None:
            lines.append(json.dumps({"snapshot": self.snapshot(), "pid": os.getpid()}))
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))

    def dump(self, path: pathlib.Path) -> None:
        """Write every span of this process to ``path`` (one JSON per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.take():
                handle.write(json.dumps({"span": span}) + "\n")


def read_span_files(paths: Iterable[pathlib.Path]) -> Tuple[List[Span], List[Dict[str, Any]]]:
    """Spans and snapshot records from span files (missing files are empty)."""
    spans: List[Span] = []
    snapshots: List[Dict[str, Any]] = []
    for path in paths:
        if not path.is_file():
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if "span" in record:
                spans.append(record["span"])
            else:
                snapshots.append(record)
    return spans, snapshots


def self_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``self_s`` and the sum of span ``value``s.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; children nest on the parent's thread, so they never
    overlap one another.
    """
    spans = list(spans)
    child_time: Dict[Tuple[int, int], float] = {}
    for span in spans:
        if span["parent"]:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = table.setdefault(
            span["name"], {"calls": 0, "self_s": 0.0, "value": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += duration - child_time.get((span["pid"], span["id"]), 0.0)
        if span.get("value") is not None:
            row["value"] += span["value"]
    return table


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """``after - before`` for the hit/miss/eviction counters of a cache."""
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("hits", "misses", "evictions")
    }


def hit_ratio(delta: Dict[str, int]) -> float:
    """Hits over lookups of a counter delta (0 when there were no lookups)."""
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    return delta.get("hits", 0) / lookups if lookups else 0.0
