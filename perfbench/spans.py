"""Span recorder for the traced benchmark run.

The program under test carries no tracing of its own, so the traced
run records spans from outside: :data:`LAYER_SPANS` names every public
function or method whose cost the per-layer metrics report, and
:class:`Recorder` replaces each one -- at the name its *caller* looks
up, because the modules import by name -- with a wrapper that opens a
span around the call.  The wrappers are installed only around traced
requests and removed again afterwards, so untraced requests run the
unmodified program.

A span records its name, start and end (``time.perf_counter``), the
index of its parent span, and the request it belongs to.  Spans stay
in memory and are written out once, when the run ends.  A span's self
time is its duration minus the time its direct children cover; the
run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``(module, owner, attribute, span name, kind)`` for every wrapped
#: callable.  ``owner`` is a class name, or ``None`` for a module
#: global; ``kind`` is ``"call"`` or ``"context"`` (a context-manager
#: method, whose span covers entering it -- the lease wait).
LAYER_SPANS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    # api.service: the request boundary.
    ("repro.api.service", "TopKService", "__init__", "service.open", "call"),
    ("repro.api.service", "TopKService", "register", "service.register", "call"),
    ("repro.api.service", "TopKService", "query", "service.query", "call"),
    ("repro.api.service", "TopKService", "quality", "service.quality", "call"),
    ("repro.api.service", "TopKService", "batch", "service.batch", "call"),
    ("repro.api.service", "TopKService", "clean", "service.clean", "call"),
    # api.pool
    ("repro.api.pool", "SessionPool", "lease", "pool.lease", "context"),
    ("repro.api.pool", "SessionPool", "register", "pool.register", "call"),
    ("repro.api.pool", "SessionPool", "sweep_store", "pool.sweep", "call"),
    # queries.engine
    ("repro.queries.engine", "QuerySession", "prefill", "engine.prefill", "call"),
    ("repro.queries.engine", "QuerySession", "derive", "engine.derive", "call"),
    # queries.psr: looked up by the engine and by core.tp.
    ("repro.queries.engine", None, "compute_rank_probabilities", "psr.cold", "call"),
    ("repro.core.tp", None, "compute_rank_probabilities", "psr.cold", "call"),
    ("repro.queries.engine", None, "apply_rank_delta", "psr.delta", "call"),
    # core.tp
    ("repro.queries.engine", None, "compute_quality_tp", "tp.quality", "call"),
    ("repro.queries.engine", None, "patch_quality_tp", "tp.patch", "call"),
    # cleaning
    ("repro.api.service", None, "build_cleaning_problem", "cleaning.problem", "call"),
    ("repro.cleaning.adaptive", None, "build_cleaning_problem", "cleaning.problem", "call"),
    ("repro.cleaning.greedy", "GreedyCleaner", "plan", "cleaning.greedy", "call"),
    ("repro.cleaning.dp", "DPCleaner", "plan", "cleaning.dp", "call"),
    ("repro.api.service", None, "execute_plan", "cleaning.execute", "call"),
    ("repro.cleaning.adaptive", None, "execute_plan", "cleaning.execute", "call"),
    ("repro.api.service", None, "clean_adaptively", "cleaning.execute", "call"),
    # db.database
    ("repro.db.database", "RankedDatabase", "__init__", "db.rank", "call"),
    ("repro.db.database", "RankedDatabase", "with_xtuple_replaced", "db.patch", "call"),
    ("repro.db.database", "RankedDatabase", "with_xtuple_removed", "db.patch", "call"),
    ("repro.db.database", "ProbabilisticDatabase", "with_xtuple_replaced", "db.patch", "call"),
    ("repro.db.database", "ProbabilisticDatabase", "content_hash", "db.hash", "call"),
    # db.io: the store decodes segments with it, the CLI loads JSON.
    ("repro.store.store", None, "database_from_dict", "io.from_dict", "call"),
    ("repro.db.io", None, "database_from_dict", "io.from_dict", "call"),
    # store.store / store.format
    ("repro.store.store", "SnapshotStore", "__init__", "store.open", "call"),
    ("repro.store.store", None, "decode_segment", "store.decode", "call"),
    ("repro.store.store", "SnapshotStore", "persist", "store.persist", "call"),
    ("repro.store.store", None, "encode_segment", "store.encode", "call"),
    ("repro.store.store", None, "encode_journal_record", "store.journal", "call"),
    ("repro.store.store", None, "encode_journal", "store.journal", "call"),
    ("repro.store.store", "SnapshotStore", "journal_clean", "store.journal", "call"),
    ("repro.store.store", "SnapshotStore", "checkpoint", "store.checkpoint", "call"),
    ("repro.store.store", "SnapshotStore", "gc", "store.gc", "call"),
    # store.locks: the bounded flock wait itself.
    ("repro.store.locks", "StoreLock", "_flock_bounded", "store.lock_wait", "call"),
    # The kernel's fsync, called through the os module by the store.
    ("os", None, "fsync", "os.fsync", "call"),
)


class Span:
    """One timed call: name, interval, parent index, request id."""

    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(
        self, name: str, start: float, parent: Optional[int], request: int
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, Any] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            **self.attrs,
        }


def _annotate(
    span: Span, args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any
) -> None:
    """Attach the counts a layer metric needs to a finished span."""
    if span.name == "psr.cold":
        ranked = args[0]
        span.attrs["scan_ratio"] = result.cutoff / max(ranked.num_tuples, 1)
    elif isinstance(result, bytes):
        span.attrs["bytes"] = len(result)
    elif span.name == "store.lock_wait":
        span.attrs["waited"] = bool(result)
    elif span.name == "pool.register":
        pool = args[0]
        durable = kwargs.get("durable", args[3] if len(args) > 3 else None)
        if pool.store is not None and durable is not False:
            from repro.db.database import CANONICAL_COLUMNS

            ranked = pool.ranked(result)
            span.attrs["tuple_bytes"] = sum(
                getattr(ranked, column).nbytes for column in CANONICAL_COLUMNS
            )


class Recorder:
    """Collects spans from the wrappers of :data:`LAYER_SPANS`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request = 0
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        for module_name, owner_name, attr, name, kind in LAYER_SPANS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            make = self._wrap_context if kind == "context" else self._wrap_call
            self._patches.append((owner, attr, original, make(original, name)))

    # -- span bookkeeping ---------------------------------------------
    def _begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.request))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack corrupted: {popped} != {index}")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span opened by the benchmark itself (the request root)."""
        index = self._begin(name)
        try:
            yield self.spans[index]
        finally:
            self._end(index)

    # -- wrappers -----------------------------------------------------
    def _wrap_call(self, original: Callable[..., Any], name: str) -> Any:
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = recorder._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._end(index)
            _annotate(recorder.spans[index], args, kwargs, result)
            return result

        return wrapper

    def _wrap_context(self, original: Callable[..., Any], name: str) -> Any:
        recorder = self

        @contextmanager
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            index = recorder._begin(name)
            entered = False
            try:
                with original(*args, **kwargs) as value:
                    recorder._end(index)
                    entered = True
                    yield value
            finally:
                if not entered:
                    recorder._end(index)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, in seconds, by span index."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return [
            (span.end - span.start) - child_time[i]
            for i, span in enumerate(self.spans)
        ]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += own
        return out

    def write(self, path: str) -> None:
        """Write every span, with its self time, as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span, own in zip(self.spans, self.self_times()):
                record = span.to_dict()
                record["self"] = own
                f.write(json.dumps(record) + "\n")
