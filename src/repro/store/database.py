"""The database handle: one factory for every collection acquisition.

Before this module, every layer constructed collections its own way --
the CLI parsed JSON-lines into ad-hoc ``Collection(...)`` calls, the
Mongo front-end had its subclass constructor, benchmarks built theirs
inline.  :class:`Database` is the redesigned entry point: it owns named
collections, decides their storage engine (memory when ``path`` is
``None``, WAL + snapshot :class:`~repro.store.durable.DurableEngine`
under ``path`` otherwise), and hands out one cached handle per name.

Quickstart::

    from repro import api

    with api.connect("./mydb") as db:
        people = db.collection("people")
        people.insert_many([{"name": "Sue"}, {"name": "Bob"}])

    # ...process restarts...
    with api.connect("./mydb") as db:
        assert len(db.collection("people")) == 2
        db.compact("people")       # fold the WAL into a snapshot

``Database()`` (no path) is the volatile variant -- same API, memory
engines -- so code can be written against the factory once and flipped
to durable by configuration.
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from repro.errors import StoreError
from repro.store.collection import Collection
from repro.store.durable import CompactionReport, DurableEngine
from repro.store.engine import EngineHealth, MemoryEngine
from repro.store.faults import IOAdapter

__all__ = ["Database"]

_SNAPSHOT_SUFFIX = ".snapshot.json"
_WAL_SUFFIX = ".wal"


class Database:
    """A set of named collections behind one storage root.

    ``path=None`` serves memory-engine collections; a directory path
    serves durable ones (``<path>/<name>.wal`` +
    ``<path>/<name>.snapshot.json``).  ``sync``, ``compact_threshold``
    and the ``io`` adapter are passed through to every durable engine
    the database creates -- ``io`` is the fault-injection seam
    (:class:`~repro.store.faults.FaultyIO`) and defaults to the real
    filesystem.
    """

    def __init__(
        self,
        path: "str | os.PathLike | None" = None,
        *,
        sync: str = "fsync",
        compact_threshold: int | None = None,
        io: IOAdapter | None = None,
        optimize: str = "on",
    ) -> None:
        from repro.query.optimizer import check_optimize_mode

        self._path = None if path is None else os.fspath(path)
        self._sync = sync
        self._threshold = compact_threshold
        self._io = io
        self._optimize = check_optimize_mode(optimize)
        self._collections: dict[str, Collection] = {}
        if self._path is not None:
            os.makedirs(self._path, exist_ok=True)

    # ------------------------------------------------------------------
    # The factory.
    # ------------------------------------------------------------------

    def collection(
        self,
        name: str = "main",
        *,
        documents: Iterable[Any] = (),
        schema: Any | None = None,
        validator: Any | None = None,
        extended: bool = False,
        indexed: bool = True,
        optimize: str | None = None,
    ) -> Collection:
        """The named collection, opened (and recovered) on first use.

        Handles are cached per name: reopening returns the same
        :class:`~repro.store.Collection`, and configuration keywords
        are only honoured when the handle is first created (passing a
        schema to an already-open handle raises instead of silently
        ignoring it).  ``documents`` are inserted -- and, on a durable
        database, logged -- on every call that supplies them.
        """
        existing = self._collections.get(name)
        if existing is not None:
            if schema is not None or validator is not None:
                raise StoreError(
                    f"collection {name!r} is already open; schema/validator "
                    "can only be set when the handle is first created"
                )
            documents = list(documents)
            if documents:
                existing.insert_many(documents)
            return existing
        if self._path is None:
            engine: Any = MemoryEngine()
        else:
            engine = DurableEngine(
                self._path,
                name,
                sync=self._sync,
                compact_threshold=self._threshold,
                io=self._io,
            )
        collection = Collection(
            documents,
            schema=schema,
            validator=validator,
            extended=extended,
            indexed=indexed,
            engine=engine,
            optimize=self._optimize if optimize is None else optimize,
        )
        self._collections[name] = collection
        return collection

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def durable(self) -> bool:
        return self._path is not None

    def health(self) -> dict[str, EngineHealth]:
        """Per-collection write availability, for every *open* handle.

        A degraded entry means that collection's engine hit a storage
        failure and went read-only (see
        :class:`~repro.store.engine.EngineHealth`); reopening the
        database recovers the acknowledged prefix.  Collections on disk
        but not yet opened are not listed -- health is a property of a
        live engine, not of files (use :func:`repro.store.fsck.verify`
        for those).
        """
        return {
            name: collection.health
            for name, collection in sorted(self._collections.items())
        }

    def collection_names(self) -> list[str]:
        """Open handles plus any collections found on disk, sorted."""
        names = set(self._collections)
        if self._path is not None and os.path.isdir(self._path):
            for filename in os.listdir(self._path):
                for suffix in (_SNAPSHOT_SUFFIX, _WAL_SUFFIX):
                    if filename.endswith(suffix):
                        names.add(filename[: -len(suffix)])
        return sorted(names)

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def compact(self, name: str | None = None) -> dict[str, CompactionReport]:
        """Checkpoint one collection (or all of them) and reset WALs.

        Collections present on disk but not yet open are opened (which
        replays their log) so a ``db compact`` sweep covers everything.
        Returns per-collection reports; memory collections compact to
        nothing and are skipped.
        """
        if name is not None:
            targets = [name]
        elif self.durable:
            targets = self.collection_names()
        else:
            targets = list(self._collections)
        reports: dict[str, CompactionReport] = {}
        for target in targets:
            report = self.collection(target).compact()
            if report is not None:
                reports[target] = report
        return reports

    def close(self) -> None:
        """Close every open collection's engine (WAL handles)."""
        for collection in self._collections.values():
            collection.close()
        self._collections.clear()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        where = "memory" if self._path is None else self._path
        return f"Database({where!r}, {len(self._collections)} open)"

