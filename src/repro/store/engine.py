"""The storage-engine seam: how a :class:`~repro.store.Collection`
persists (or doesn't).

ROADMAP names this refactor explicitly: "a storage-engine interface
behind ``store.Collection`` (memory vs. durable vs. sharded)".  A
:class:`StorageEngine` owns everything below the in-memory document
set -- recovery on open, the commit hook on every mutation, and
compaction -- while the collection keeps owning trees, indexes, schema
enforcement and the planner.  The contract:

* ``bind(collection)`` is called exactly once, from the collection's
  constructor, *before* any documents are ingested.  A durable engine
  replays its snapshot + write-ahead log here and returns a
  :class:`RecoveredState` for the collection to restore; a memory
  engine returns ``None``.
* ``commit_insert`` / ``commit_remove`` / ``commit_update`` are called
  after staging and schema validation but *before* the in-memory
  apply.  A durable engine appends (and syncs) the WAL frame here, so
  the ordering invariant is: **nothing reaches memory that is not on
  disk, and nothing reaches disk that did not validate**.  A raise
  from the hook aborts the whole operation with the collection
  untouched.
* ``checkpoint()`` folds the log into a fresh snapshot (compaction);
  ``close()`` releases file handles.

Engines are single-collection: binding one engine to two collections
is an error.  Three flavours live behind the seam: :class:`MemoryEngine`
is the trivial implementation (all hooks are no-ops);
:class:`~repro.store.durable.DurableEngine` is the WAL + snapshot
implementation; and :class:`~repro.store.sharded.ShardedEngine`
composes N of either into a hash-partitioned fleet -- each shard is an
ordinary engine-backed collection, so the per-shard commit hooks (and
their ordering invariant) are exactly the ones above, while the
coordinator owns id assignment, scatter-gather execution and the
worker pool.

This module also owns the **versioned snapshot codec**: the plain-dict
format :meth:`Collection.snapshot` emits carries ``format`` and
``version`` fields, and :func:`decode_snapshot` refuses payloads it
does not understand -- future engine changes cannot silently misread
old snapshots.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.errors import StorageFormatError, StoreError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.store.collection import Collection

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "EngineHealth",
    "RecoveredState",
    "StorageEngine",
    "MemoryEngine",
    "decode_snapshot",
]

#: The ``format`` tag of a collection snapshot (what the loader keys
#: its "is this mine?" check on).
SNAPSHOT_FORMAT = "repro-collection-snapshot"

#: Current snapshot format version.  Loaders accept exactly the
#: versions they know how to read; anything newer (or unrecognisably
#: older) raises :class:`~repro.errors.StorageFormatError`.
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class EngineHealth:
    """One engine's write-availability status.

    ``ok`` means the engine accepts writes.  ``degraded`` means a
    commit or checkpoint hit an I/O failure and the engine has gone
    read-only to keep memory and disk from diverging: ``reason`` holds
    the human-readable root cause and ``error`` the original
    :class:`~repro.errors.StorageIOError`.  Reads keep working either
    way; reopening the database recovers the acknowledged prefix and
    restores a healthy engine.
    """

    ok: bool
    degraded: bool = False
    reason: str | None = None
    error: Exception | None = None


#: The health every non-degradable (memory) engine reports.
HEALTHY = EngineHealth(ok=True)


@dataclass(frozen=True)
class RecoveredState:
    """A collection's documents as a snapshot or recovery hands them over.

    ``docs`` are ``(doc_id, value)`` pairs in id order; ids are never
    reused, so ``next_id`` keeps the tombstone layout.  ``version``
    seeds the collection's mutation counter so it keeps increasing
    across restarts.  This is all a snapshot holds: index postings are
    a function of each document's tree, so the collection rebuilds
    them on restore.
    """

    next_id: int
    version: int
    extended: bool
    docs: list[tuple[int, Any]]


def decode_snapshot(data: Any) -> RecoveredState:
    """Validate and decode a :meth:`Collection.snapshot` payload.

    The loader-side half of the versioned format: a payload whose
    ``format`` tag or ``version`` is not recognised raises
    :class:`~repro.errors.StorageFormatError` instead of being
    misread.  Version-1 payloads from builds that also stored index
    refcounts carry an ``index_entries`` key; it is ignored, since
    the postings are rebuilt from the documents.
    """
    if not isinstance(data, dict):
        raise StorageFormatError(
            f"a collection snapshot is a JSON object, got {type(data).__name__}"
        )
    found = data.get("format")
    if found != SNAPSHOT_FORMAT:
        raise StorageFormatError(
            f"not a collection snapshot (format={found!r}, "
            f"expected {SNAPSHOT_FORMAT!r})"
        )
    version = data.get("version")
    if version != SNAPSHOT_VERSION:
        raise StorageFormatError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    try:
        next_id = data["next_id"]
        ops = data["ops"]
        extended = data["extended"]
        docs = [(doc_id, value) for doc_id, value in data["docs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageFormatError(f"malformed collection snapshot: {exc}") from exc
    if not isinstance(next_id, int) or not isinstance(ops, int):
        raise StorageFormatError(
            "malformed collection snapshot: next_id/ops must be integers"
        )
    for doc_id, _ in docs:
        if not isinstance(doc_id, int) or not 0 <= doc_id < next_id:
            raise StorageFormatError(
                f"malformed collection snapshot: document id {doc_id!r} "
                f"outside [0, {next_id})"
            )
    return RecoveredState(
        next_id=next_id, version=ops, extended=bool(extended), docs=docs
    )


class StorageEngine:
    """Base class / protocol for collection storage engines.

    Subclasses override the hooks they need; the defaults make this
    class itself a valid (volatile) engine.  ``durable`` tells the
    collection whether commit hooks need plain-value payloads at all --
    the memory engine never pays the ``to_value`` materialisation.
    """

    durable: bool = False

    def __init__(self) -> None:
        self._collection: "Collection | None" = None

    # -- lifecycle ------------------------------------------------------

    def bind(self, collection: "Collection") -> RecoveredState | None:
        """Attach to ``collection`` (once); return state to restore."""
        if self._collection is not None:
            raise StoreError(
                "storage engine is already bound to a collection "
                "(engines are single-collection; create a new one)"
            )
        self._collection = collection
        return self._recover()

    def _recover(self) -> RecoveredState | None:
        """Engine-specific recovery, run from :meth:`bind`."""
        return None

    @property
    def collection(self) -> "Collection | None":
        return self._collection

    @property
    def health(self) -> EngineHealth:
        """Write availability; memory engines are always healthy."""
        return HEALTHY

    # -- commit hooks (called between validate and in-memory apply) ----

    def commit_insert(
        self, doc_ids: Sequence[int], values: Sequence[Any]
    ) -> None:
        """Persist an insert batch (ids are pre-assigned, dense)."""

    def commit_remove(self, doc_id: int) -> None:
        """Persist a removal."""

    def commit_update(self, changes: Iterable[tuple[int, Any]]) -> None:
        """Persist update post-images as ``(doc_id, new_value)`` pairs."""

    def commit_applied(self) -> None:
        """Called after the in-memory apply of a committed mutation.

        The one hook that runs with memory and log in agreement --
        maintenance that snapshots the collection (auto-compaction)
        belongs here, not in the pre-apply commit hooks.
        """

    @contextmanager
    def group(self) -> Iterator[None]:
        """Batch the commits made inside the block into one group commit.

        The serving tier's single writer task wraps each drained batch
        of write requests in one ``group()`` block: a durable engine
        defers every per-record sync inside the block and issues **one**
        WAL fsync when the block exits -- N concurrent writes, one
        platter round-trip.  No write in the group is durable (and none
        must be acknowledged to its client) until the block exits
        cleanly; a failure rolls the whole batch off the log and
        degrades the engine, exactly like a single failed append.

        The base implementation is a no-op: memory engines have nothing
        to sync, and nesting is an error only where it could matter
        (the durable override refuses it).
        """
        yield

    # -- maintenance ----------------------------------------------------

    def checkpoint(self):
        """Fold the log into a fresh snapshot; no-op for memory."""
        return None

    def close(self) -> None:
        """Release any resources; the collection stays readable."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MemoryEngine(StorageEngine):
    """The volatile engine: every hook is a no-op.

    Exists so the collection has exactly one code path -- commits
    always route through an engine -- and so call sites state their
    durability choice explicitly (or go through
    :func:`repro.api.collection` /
    :class:`repro.store.Database`, which state it for them).
    """

    durable = False
