"""The one front door: every backend behind ``connect`` and ``collection``.

This module is the package's surface: **two constructors** that
cover the volatile, durable, partitioned and remote backends,
returning objects that share one uniform collection protocol
(``find``/``count``/``aggregate``/``select``/``get``/``explain``/
``validate``/``insert_many``/``update_*``/``replace_one``/``remove``/
``compact``), so call sites are written once and retargeted by
configuration::

    import repro.api as repro

    db = repro.connect()                  # volatile, in memory
    db = repro.connect("./mydb")          # durable (WAL + snapshots)
    db = repro.connect("./mydb", shards=4)  # durable and hash-partitioned
    db = repro.connect("tcp://10.0.0.5:4321")  # remote, via repro.client

    people = db.collection("people")
    people.insert_many([{"name": "Sue", "age": 35}])
    people.find({"age": {"$gt": 30}})

    scratch = repro.collection([{"n": 1}])     # one-off volatile collection
    big = repro.collection(docs, shards=4)     # volatile and partitioned
"""

from __future__ import annotations

import os
from typing import Any, Iterable

from repro.errors import StoreError
from repro.explain import Explain
from repro.query.optimizer import check_optimize_mode
from repro.store.collection import Collection
from repro.store.database import Database
from repro.store.engine import MemoryEngine
from repro.store.faults import IOAdapter
from repro.store.sharded import ShardedCollection

__all__ = ["connect", "collection", "Explain", "ShardedDatabase"]


def connect(
    path: "str | os.PathLike | None" = None,
    *,
    shards: int = 1,
    io: IOAdapter | None = None,
    sync: str = "fsync",
    compact_threshold: int | None = None,
    parallel: "bool | str" = "auto",
    start_method: str | None = None,
    optimize: str = "on",
):
    """Open a database handle over any backend.

    * ``connect()`` -- volatile in-memory collections;
    * ``connect(path)`` -- durable collections under ``path`` (WAL +
      snapshots, recovered on reopen);
    * ``connect(path, shards=N)`` -- hash-partitioned collections, one
      shard directory per name under ``path`` (``path=None`` keeps the
      shards in memory); ``parallel``/``start_method`` configure the
      worker pool as in :class:`~repro.store.sharded.ShardedCollection`;
    * ``connect("tcp://host:port")`` -- a client to a ``repro serve``
      process (see :mod:`repro.client`); the remote database accepts no
      local storage keywords.

    ``io`` swaps the filesystem adapter on durable backends (fault
    injection; see :mod:`repro.store.faults`).  ``optimize`` sets the
    database-wide semantic-optimizer mode (``"on"``/``"off"``/
    ``"proof-only"``; remote connections accept ``on``/``off`` only).
    Every return value is a context manager whose collections share
    the uniform protocol.
    """
    check_optimize_mode(optimize)
    if isinstance(path, str) and path.startswith("tcp://"):
        if shards != 1 or io is not None:
            raise StoreError(
                "a remote connection takes no shards/io keywords; "
                "configure the server process instead"
            )
        from repro.client import connect as client_connect

        return client_connect(path, optimize=optimize)
    if shards < 1:
        raise StoreError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return Database(
            path,
            sync=sync,
            compact_threshold=compact_threshold,
            io=io,
            optimize=optimize,
        )
    if io is not None:
        raise StoreError(
            "fault injection (io=) is not plumbed through sharded "
            "engines; use shards=1 or inject per shard"
        )
    return ShardedDatabase(
        path,
        shards=shards,
        sync=sync,
        parallel=parallel,
        start_method=start_method,
        optimize=optimize,
    )


def collection(
    documents: Iterable[Any] = (),
    *,
    shards: int = 1,
    schema: Any | None = None,
    validator: Any | None = None,
    extended: bool = False,
    indexed: bool = True,
    parallel: "bool | str" = "auto",
    optimize: str = "on",
) -> "Collection | ShardedCollection":
    """A one-off volatile collection (tests, benchmarks, scripts).

    ``shards=N`` partitions it across N shards.  Anything that
    should survive a restart belongs behind :func:`connect` with a
    path.  ``optimize`` sets the semantic-optimizer mode; per query,
    ``hint={"no_semantic": True}`` opts a single read out.
    """
    if shards < 1:
        raise StoreError(f"shard count must be >= 1, got {shards}")
    if shards == 1:
        return Collection(
            documents,
            schema=schema,
            validator=validator,
            extended=extended,
            indexed=indexed,
            engine=MemoryEngine(),
            optimize=optimize,
        )
    if validator is not None:
        raise StoreError(
            "sharded collections compile their own validators; pass "
            "schema= instead of validator="
        )
    return ShardedCollection(
        documents,
        shards=shards,
        schema=schema,
        extended=extended,
        indexed=indexed,
        parallel=parallel,
        optimize=optimize,
    )


class ShardedDatabase:
    """Named hash-partitioned collections under one root.

    The sharded twin of :class:`~repro.store.database.Database`: each
    named collection is a :class:`~repro.store.sharded.ShardedCollection`
    whose shard files live in ``<path>/<name>/`` (memory shards when
    ``path`` is ``None``).  Handles are cached per name and
    configuration keywords are honoured only at first creation, exactly
    as in the unsharded database.
    """

    def __init__(
        self,
        path: "str | os.PathLike | None" = None,
        *,
        shards: int,
        sync: str = "fsync",
        parallel: "bool | str" = "auto",
        start_method: str | None = None,
        optimize: str = "on",
    ) -> None:
        self._path = None if path is None else os.fspath(path)
        self._shards = shards
        self._sync = sync
        self._parallel = parallel
        self._start_method = start_method
        self._optimize = check_optimize_mode(optimize)
        self._collections: dict[str, ShardedCollection] = {}
        if self._path is not None:
            os.makedirs(self._path, exist_ok=True)

    def collection(
        self,
        name: str = "main",
        *,
        documents: Iterable[Any] = (),
        schema: Any | None = None,
        extended: bool = False,
        indexed: bool = True,
        optimize: str | None = None,
    ) -> ShardedCollection:
        existing = self._collections.get(name)
        if existing is not None:
            if schema is not None:
                raise StoreError(
                    f"collection {name!r} is already open; schema can only "
                    "be set when the handle is first created"
                )
            documents = list(documents)
            if documents:
                existing.insert_many(documents)
            return existing
        shard_path = (
            None if self._path is None else os.path.join(self._path, name)
        )
        handle = ShardedCollection(
            documents,
            shards=self._shards,
            path=shard_path,
            schema=schema,
            extended=extended,
            indexed=indexed,
            sync=self._sync,
            parallel=self._parallel,
            start_method=self._start_method,
            optimize=self._optimize if optimize is None else optimize,
        )
        self._collections[name] = handle
        return handle

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def durable(self) -> bool:
        return self._path is not None

    @property
    def shards(self) -> int:
        return self._shards

    def collection_names(self) -> list[str]:
        """Open handles plus shard directories found on disk, sorted."""
        names = set(self._collections)
        if self._path is not None and os.path.isdir(self._path):
            for entry in os.listdir(self._path):
                if os.path.isdir(os.path.join(self._path, entry)):
                    names.add(entry)
        return sorted(names)

    def health(self):
        """Per-collection, per-shard engine health for open handles."""
        return {
            name: handle.health
            for name, handle in sorted(self._collections.items())
        }

    def compact(self, name: str | None = None) -> dict[str, list]:
        targets = [name] if name is not None else self.collection_names()
        return {target: self.collection(target).compact() for target in targets}

    def close(self) -> None:
        for handle in self._collections.values():
            handle.close()
        self._collections.clear()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        where = "memory" if self._path is None else self._path
        return (
            f"ShardedDatabase({where!r}, {self._shards} shards, "
            f"{len(self._collections)} open)"
        )
