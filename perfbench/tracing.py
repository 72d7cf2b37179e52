"""Spans around the calls into each layer, installed from outside ``src/``.

A :class:`Tracer` patches the module and class attributes that callers
actually resolve (``repro.store.collection.compile_mongo_find`` as well
as ``repro.query.compiled.compile_mongo_find``), so the program itself
is unchanged.  Nothing is installed unless a traced run asks for it.

Every span is ``(name, start, end, parent, op, value)``: ``parent`` is
the index of the span that was open when it started (``-1`` at top
level), ``op`` is the benchmark operation it belongs to (``0`` during
set-up) and ``value`` a per-call count (documents built, candidates
returned, ...; ``-1`` when the call has none).  Spans are kept in flat
arrays, so recording one allocates no object the garbage collector
tracks, and written out as JSON lines at exit.

A layer's self time is its span's duration minus the durations of its
direct children.  Generator calls (``documents()``) record one span
from the first item to exhaustion; garbage collections record
``runtime.gc`` spans as children of whatever span they interrupted.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import time
from array import array
from typing import Any, Callable, Iterator

clock = time.perf_counter_ns

NO_VALUE = -1


def layer_of(span_name: str) -> str:
    """``"store.collection.documents"`` -> ``"store.collection"``."""
    return span_name.rsplit(".", 1)[0]


class Tracer:
    """An in-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.values = array("q")
        self.stack: list[int] = [-1]
        self.op = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_start = 0
        self._gc_parent = -1
        # Collections are recorded apart: the callback may fire while a
        # span is half-appended to the arrays above.
        self.gc_spans: list[tuple[int, int, int, int, int]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_of.append(name_id)
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.values.append(NO_VALUE)
        self.ends.append(0)
        self.starts.append(clock())
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = clock()
        self.stack.pop()

    def record(self, name: str, start: int, end: int, value: int = NO_VALUE) -> None:
        """A finished span under the currently open one."""
        self.name_of.append(self._name_id(name))
        self.parents.append(self.stack[-1])
        self.ops.append(self.op)
        self.values.append(value)
        self.starts.append(start)
        self.ends.append(end)

    # -- wrappers ----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        value: Callable[[tuple, Any], int] | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``value(args, result)`` sets
        the span's count."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if value is not None:
                tracer.values[index] = value(args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        """An ``async def`` recorded as one span across its awaits.

        Sound only while one request is in flight at a time (the
        benchmark's single connection): whatever runs during the awaits
        is that request's work and nests under its span.
        """
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                tracer.stack.remove(index)

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function recorded as one span per generator.

        The span runs from the first ``next`` to exhaustion (or close)
        and stays open in between, so what the consumer calls between
        items nests under it and the consumer's own loop body counts as
        the walk's time.  Its value is the number of items yielded.
        Timing each resumption instead would cost two clock reads per
        document on scans of every document.
        """
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._timed_iter(name_id, fn(*args, **kwargs))

        return traced

    def _timed_iter(self, name_id: int, inner: Iterator) -> Iterator:
        index = self._open(name_id)
        yielded = 0
        try:
            for yielded, item in enumerate(inner, 1):
                yield item
        finally:
            inner.close()
            self.ends[index] = clock()
            self.values[index] = yielded
            self.stack.remove(index)

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_parent = self.stack[-1]
            self._gc_start = clock()
            return
        self.gc_spans.append((self._gc_start, clock(), self._gc_parent,
                              self.op, info["generation"]))

    def trace_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    # -- output ------------------------------------------------------------

    def spans(self) -> list[tuple[str, int, int, int, int, int]]:
        """Every span as ``(name, start, end, parent, op, value)``."""
        names = self.names
        spans = [
            (names[self.name_of[i]], self.starts[i], self.ends[i],
             self.parents[i], self.ops[i], self.values[i])
            for i in range(len(self.starts))
        ]
        spans.extend(("runtime.gc", start, end, parent, op, generation)
                     for start, end, parent, op, generation in self.gc_spans)
        return spans


def write_spans(path: str, spans: list[tuple]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"fields": [
            "name", "start_ns", "end_ns", "parent", "op", "value"]}) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        next(handle)
        return [tuple(json.loads(line)) for line in handle]


def self_times(spans: list[tuple]) -> list[int]:
    """Each span's duration minus its direct children's durations."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# ---------------------------------------------------------------------------
# What gets wrapped.
# ---------------------------------------------------------------------------


def _length(args: tuple, result: Any) -> int:
    return len(result)


def _truth(args: tuple, result: Any) -> int:
    return 1 if result else 0


def _candidates(args: tuple, result: Any) -> int:
    if result is not None:
        return len(result)
    return args[1].stats().documents  # None means every indexed document


def _proved(args: tuple, result: Any) -> int:
    return 1 if result is not None and not result.cached else 0


def _replayed(args: tuple, result: Any) -> int:
    return len(args[2])


def install_library(tracer: Tracer) -> "SummaryWatch":
    """Wrap the store, query, model and update layers of ``repro``."""
    # import_module, not ``import a.b as c``: the package attribute
    # ``repro.mongo.aggregate`` is the function, not the module.
    (aggregate, mongo_update, query, compiled, optimizer, planner, collection,
     durable, snapshot) = (importlib.import_module(f"repro.{name}") for name in (
        "mongo.aggregate", "mongo.update", "query", "query.compiled",
        "query.optimizer", "query.planner", "store.collection", "store.durable",
        "store.snapshot"))
    from repro.model.tree import JSONTree
    from repro.store.indexes import DocumentIndexes

    wrap, patch = tracer.wrap, tracer.patch

    patch(JSONTree, "from_values", classmethod(wrap(
        "model.tree.from_values", JSONTree.from_values.__func__, _length)))
    patch(JSONTree, "to_value", wrap("model.tree.to_value", JSONTree.to_value))

    compile_find = wrap("query.compiled.compile", compiled.compile_mongo_find)
    for module in (compiled, query, collection, snapshot, mongo_update, aggregate):
        patch(module, "compile_mongo_find", compile_find)
    patch(aggregate, "compile_pipeline",
          wrap("query.compiled.compile", aggregate.compile_pipeline))
    patch(compiled.CompiledQuery, "matches",
          wrap("query.compiled.matches", compiled.CompiledQuery.matches, _truth))

    patch(optimizer, "semantic_plan",
          wrap("query.optimizer.semantic_plan", optimizer.semantic_plan, _proved))

    patch(planner, "candidate_ids",
          wrap("query.planner.candidate_ids", planner.candidate_ids, _candidates))
    for entry in ("find_documents", "count_matches", "match_ids", "find_trees"):
        patch(planner, entry, wrap("query.planner.execute", getattr(planner, entry)))

    for owner in (collection.Collection, snapshot.CollectionSnapshot):
        patch(owner, "documents",
              tracer.wrap_iter("store.collection.documents", owner.documents))
        for entry in ("find", "count", "aggregate"):
            patch(owner, entry, wrap("store.collection.api", getattr(owner, entry)))
    Collection = collection.Collection
    for entry in ("insert_many", "update_one", "update_many"):
        patch(Collection, entry, wrap("store.collection.api", getattr(Collection, entry)))
    patch(Collection, "snapshot_view",
          wrap("store.collection.snapshot_view", Collection.snapshot_view))
    watch = SummaryWatch(tracer)
    context = Collection.__dict__["semantic_context"]
    patch(Collection, "semantic_context",
          property(watch.wrap(wrap("store.summary.context", context.fget))))

    patch(aggregate.CompiledPipeline, "execute",
          wrap("mongo.aggregate.execute", aggregate.CompiledPipeline.execute))

    for entry in ("update_one", "update_many"):
        patch(mongo_update, entry, wrap("mongo.update.run", getattr(mongo_update, entry)))
    patch(Collection, "apply_update",
          wrap("mongo.update.apply", Collection.apply_update))

    patch(DocumentIndexes, "add", wrap("store.indexes.add", DocumentIndexes.add))
    patch(DocumentIndexes, "load_counts",
          wrap("store.indexes.load", DocumentIndexes.load_counts))
    patch(DocumentIndexes, "apply_entry_delta",
          wrap("store.indexes.delta", DocumentIndexes.apply_entry_delta))

    patch(durable.DurableEngine, "checkpoint",
          wrap("store.durable.checkpoint", durable.DurableEngine.checkpoint))
    patch(durable, "replay_records",
          wrap("store.durable.replay", durable.replay_records, _replayed))
    return watch


class SummaryWatch:
    """Counts changes of ``Collection.semantic_context.fingerprint``."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._last: dict[int, tuple] = {}
        self.revisions: dict[int, int] = {}

    def wrap(self, getter: Callable) -> Callable:
        def watched(collection):
            context = getter(collection)
            if context is not None:
                key = id(collection)
                previous = self._last.get(key)
                if previous is not None and previous != context.fingerprint:
                    op = self._tracer.op
                    self.revisions[op] = self.revisions.get(op, 0) + 1
                self._last[key] = context.fingerprint
            return context

        return watched


def install_client(tracer: Tracer) -> None:
    import repro.client as client

    tracer.patch(client.RemoteDatabase, "request",
                 tracer.wrap("client.request", client.RemoteDatabase.request))


def install_server(tracer: Tracer, pending: Callable[[Any, dict], int]) -> dict:
    """Wrap the serving tier; returns the counter of read-path rebuilds.

    Requests are numbered in arrival order into ``tracer.op``.

    ``pending(server, message)`` reads the pending-update count of the
    collection a read targets; a drop across the read is a rebuild.
    """
    from repro.server.server import ReproServer

    counters = {"rebuilds": 0}
    respond = tracer.wrap_async("server.respond", ReproServer._respond)

    async def numbered(server, line):
        # Spans of the k-th request carry op k, the id the benchmark's
        # one client connection gave that request.
        tracer.op += 1
        return await respond(server, line)

    tracer.patch(ReproServer, "_respond", numbered)
    execute_read = tracer.wrap("server.read", ReproServer._execute_read)

    def read(server, op, message):
        before = pending(server, message)
        result = execute_read(server, op, message)
        counters["rebuilds"] += max(0, before - pending(server, message))
        return result

    tracer.patch(ReproServer, "_execute_read", read)
    tracer.patch(ReproServer, "_commit_group",
                 tracer.wrap("server.commit_group", ReproServer._commit_group))
    return counters


def timing_io(tracer: Tracer):
    """A ``RealIO`` whose every call is a span on the WAL or the
    snapshot side, with the bytes written as the span's value."""
    from repro.store.faults import RealIO

    def layer(handle: Any) -> str:
        name = str(getattr(handle, "name", ""))
        # ``.wal`` and the ``.wal.tmp`` a WAL reset writes first.
        return "store.wal" if ".wal" in os.path.basename(name) else "store.durable"

    class TimingIO(RealIO):
        def write(self, handle, data):
            start = clock()
            super().write(handle, data)
            tracer.record(layer(handle) + ".write", start, clock(), len(data))

        def flush(self, handle):
            start = clock()
            super().flush(handle)
            tracer.record(layer(handle) + ".flush", start, clock())

        def fsync(self, handle):
            start = clock()
            super().fsync(handle)
            tracer.record(layer(handle) + ".fsync", start, clock())

        def truncate(self, handle, size):
            start = clock()
            super().truncate(handle, size)
            tracer.record(layer(handle) + ".truncate", start, clock())

        def replace(self, source, destination):
            start = clock()
            super().replace(source, destination)
            tracer.record("store.durable.replace", start, clock())

        def fsync_dir(self, directory):
            start = clock()
            super().fsync_dir(directory)
            tracer.record("store.durable.fsync_dir", start, clock())

    return TimingIO()
