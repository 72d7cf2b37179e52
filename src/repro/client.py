"""Clients for the JSON-lines serving tier (sync and async).

:func:`connect` opens a blocking socket client; :func:`aconnect` the
asyncio counterpart.  Both speak the protocol of
:mod:`repro.server.protocol` and expose remote collections through the
same uniform surface as local ones (``find``/``count``/``aggregate``/
``select``/``get``/``validate``/``explain``/``insert``/``update_one``/
``update_many``/``replace_one``/``remove``), so code written against
:func:`repro.api.connect` works unchanged against a server::

    import repro.client

    with repro.client.connect("127.0.0.1:4321") as db:
        people = db.collection("people")
        people.insert_many([{"name": "Sue", "age": 35}])
        rows = people.find({"age": {"$gt": 30}})

Server-side failures rehydrate to the *same* exception classes local
code raises -- a write against a degraded engine raises
:class:`~repro.errors.CollectionReadOnlyError` here exactly as it
would in-process -- via the stable wire ``code`` taxonomy of
:mod:`repro.errors`.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any

from repro.errors import StoreError, WireProtocolError, from_wire
from repro.explain import Explain
from repro.mongo.update import UpdateResult
from repro.server import protocol

__all__ = [
    "connect",
    "aconnect",
    "RemoteDatabase",
    "RemoteCollection",
    "AsyncRemoteDatabase",
    "AsyncRemoteCollection",
    "parse_address",
]


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """``"host:port"``, ``"tcp://host:port"`` or ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return host, int(port)
    if not isinstance(address, str):
        raise StoreError(f"unsupported server address {address!r}")
    text = address.strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://") :]
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise StoreError(
            f"server address {address!r} is not of the form 'host:port'"
        )
    return host or "127.0.0.1", int(port)


def _check_optimize(optimize: str) -> str:
    """The remote spelling of the semantic-optimizer knob.

    ``"proof-only"`` is a collection-side mode (prove, report, never
    enforce); a client cannot impose it on a server's collections, so
    asking for it here is an error rather than a silent downgrade.
    """
    if optimize not in ("on", "off"):
        raise StoreError(
            f"remote optimize mode must be 'on' or 'off', got {optimize!r}"
        )
    return optimize


def _merge_hint(
    optimize: str, hint: "dict[str, Any] | None"
) -> "dict[str, Any] | None":
    """The per-request hint, folding in a client-wide ``optimize="off"``."""
    if optimize == "off":
        merged = dict(hint or {})
        merged["no_semantic"] = True
        return merged
    return hint


def _update_result(reply: dict[str, Any]) -> UpdateResult:
    """An update reply's wire document as the local ``UpdateResult``."""
    return UpdateResult(
        reply["matched"], reply["modified"], reply["upserted_id"]
    )


def _check_greeting(greeting: dict[str, Any]) -> None:
    if greeting.get("server") != "repro":
        raise WireProtocolError(
            f"remote end is not a repro server (greeting {greeting!r})"
        )
    version = greeting.get("protocol")
    if version != protocol.PROTOCOL_VERSION:
        raise WireProtocolError(
            f"server speaks protocol {version!r}; this client speaks "
            f"{protocol.PROTOCOL_VERSION}"
        )


def _unwrap(request_id: int, response: dict[str, Any]) -> Any:
    """Check the envelope, rehydrate errors, return the result."""
    got = response.get("id")
    if got is not None and got != request_id:
        raise WireProtocolError(
            f"response id {got!r} does not match request id {request_id!r}"
        )
    if response.get("ok"):
        return response.get("result")
    error = response.get("error")
    if not isinstance(error, dict):
        raise WireProtocolError(f"malformed error response: {response!r}")
    raise from_wire(error)


# ---------------------------------------------------------------------------
# Blocking client.
# ---------------------------------------------------------------------------


class RemoteDatabase:
    """One connection to a server; collection handles multiplex it.

    Not thread-safe: requests run strictly in sequence on the one
    socket (open one client per thread, as with any connection handle).
    """

    def __init__(
        self,
        address: "str | tuple[str, int]",
        *,
        optimize: str = "on",
    ) -> None:
        self._optimize = _check_optimize(optimize)
        host, port = parse_address(address)
        self._address = (host, port)
        self._socket = socket.create_connection((host, port))
        self._file = self._socket.makefile("rwb")
        self._next_id = 0
        self._closed = False
        _check_greeting(protocol.decode(self._readline()))

    def _readline(self) -> bytes:
        line = self._file.readline(protocol.MAX_LINE_BYTES + 2)
        if not line:
            raise WireProtocolError("server closed the connection")
        return line

    def request(self, op: str, **fields: Any) -> Any:
        """One raw protocol round-trip (the escape hatch)."""
        if self._closed:
            raise StoreError("client is closed")
        self._next_id += 1
        request_id = self._next_id
        message = {"id": request_id, "op": op, **fields}
        self._file.write(protocol.encode(message))
        self._file.flush()
        return _unwrap(request_id, protocol.decode(self._readline()))

    # -- database surface --------------------------------------------------

    def collection(self, name: str = "main") -> "RemoteCollection":
        return RemoteCollection(self, name, optimize=self._optimize)

    @property
    def optimize(self) -> str:
        """The client-wide semantic-optimizer knob (``on``/``off``)."""
        return self._optimize

    def collection_names(self) -> list[str]:
        return self.request("collections")

    def ping(self) -> bool:
        return self.request("ping") == "pong"

    def stats(self) -> dict[str, Any]:
        return self.request("stats")

    def compact(self, name: str = "main") -> Any:
        return self.request("compact", collection=name)

    def shutdown(self) -> None:
        """Ask the server to stop serving (acknowledged, then closed)."""
        self.request("shutdown")

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def durable(self) -> bool:
        return bool(self.stats()["durable"])

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        host, port = self._address
        state = "closed" if self._closed else "open"
        return f"RemoteDatabase({host}:{port}, {state})"


class RemoteCollection:
    """The uniform collection surface, proxied over the wire."""

    def __init__(
        self,
        database: RemoteDatabase,
        name: str,
        *,
        optimize: str = "on",
    ) -> None:
        self._database = database
        self.name = name
        self._optimize = _check_optimize(optimize)

    def _request(self, op: str, **fields: Any) -> Any:
        return self._database.request(op, collection=self.name, **fields)

    def _read_fields(
        self, hint: "dict[str, Any] | None", **fields: Any
    ) -> dict[str, Any]:
        merged = _merge_hint(self._optimize, hint)
        if merged is not None:
            fields["hint"] = merged
        return fields

    @property
    def optimize(self) -> str:
        return self._optimize

    # -- reads -------------------------------------------------------------

    def find(
        self,
        filter_doc: dict[str, Any],
        projection: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[Any]:
        fields = self._read_fields(hint, filter=filter_doc)
        if projection is not None:
            fields["projection"] = projection
        return self._request("find", **fields)

    def count(
        self,
        filter_doc: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> int:
        return self._request(
            "count", **self._read_fields(hint, filter=filter_doc or {})
        )

    def aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ) -> list[Any]:
        return self._request(
            "aggregate", **self._read_fields(hint, pipeline=pipeline)
        )

    def select(
        self, query: str, dialect: str = "jsonpath"
    ) -> list[tuple[int, list[Any]]]:
        rows = self._request("select", query=query, dialect=dialect)
        return [(doc_id, values) for doc_id, values in rows]

    def get(self, doc_id: int) -> Any:
        return self._request("get", doc_id=doc_id)

    def validate(self, document: Any, schema: Any | None = None) -> bool:
        fields: dict[str, Any] = {"document": document}
        if schema is not None:
            fields["schema"] = schema
        return self._request("validate", **fields)

    def explain(
        self,
        filter_doc: dict[str, Any] | None = None,
        *,
        pipeline: list | None = None,
        update: dict[str, Any] | None = None,
        first_only: bool = False,
        hint: dict[str, Any] | None = None,
    ) -> Explain:
        """The server's :class:`~repro.explain.Explain`, rehydrated.

        Pass ``pipeline=`` for an aggregation explain, ``update=`` for
        an update dry run, or a bare filter for a find explain --
        exactly the local collection surface.
        """
        fields = self._read_fields(hint, filter=filter_doc or {})
        if pipeline is not None:
            fields["pipeline"] = pipeline
        elif update is not None:
            fields["update"] = update
            if first_only:
                fields["first_only"] = True
        return Explain.from_json(self._request("explain", **fields))

    def __len__(self) -> int:
        return self.count({})

    # -- writes ------------------------------------------------------------

    def insert(self, document: Any) -> int:
        return self._request("insert", documents=[document])[0]

    def insert_many(self, documents: list[Any]) -> list[int]:
        return self._request("insert", documents=list(documents))

    def update_one(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return _update_result(
            self._request(
                "update",
                filter=filter_doc,
                update=update_doc,
                one=True,
                upsert=upsert,
            )
        )

    def update_many(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return _update_result(
            self._request(
                "update", filter=filter_doc, update=update_doc, upsert=upsert
            )
        )

    def replace_one(
        self,
        filter_doc: dict[str, Any],
        replacement: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return _update_result(
            self._request(
                "replace",
                filter=filter_doc,
                replacement=replacement,
                upsert=upsert,
            )
        )

    def remove(self, doc_id: int) -> Any:
        return self._request("remove", doc_id=doc_id)

    def compact(self) -> Any:
        return self._request("compact")

    def __repr__(self) -> str:
        return f"RemoteCollection({self.name!r}, {self._database!r})"


def connect(
    address: "str | tuple[str, int]", *, optimize: str = "on"
) -> RemoteDatabase:
    """Open a blocking client to a ``repro serve`` address.

    ``optimize="off"`` makes every read from this client carry a
    ``{"no_semantic": true}`` hint, disabling the server's semantic
    optimizer for exactly this connection's queries.
    """
    return RemoteDatabase(address, optimize=optimize)


# ---------------------------------------------------------------------------
# Asyncio client (the differential tests' concurrent readers).
# ---------------------------------------------------------------------------


class AsyncRemoteDatabase:
    """The asyncio twin of :class:`RemoteDatabase`.

    One connection, strictly sequential request/response -- concurrency
    comes from opening many clients (as the differential suite and the
    benchmark's reader fleets do), matching how separate processes
    would connect.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        optimize: str = "on",
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._closed = False
        self._lock = asyncio.Lock()
        self._optimize = _check_optimize(optimize)

    @classmethod
    async def open(
        cls,
        address: "str | tuple[str, int]",
        *,
        optimize: str = "on",
    ) -> "AsyncRemoteDatabase":
        host, port = parse_address(address)
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        client = cls(reader, writer, optimize=optimize)
        greeting = await reader.readline()
        if not greeting:
            raise WireProtocolError("server closed the connection")
        _check_greeting(protocol.decode(greeting))
        return client

    async def request(self, op: str, **fields: Any) -> Any:
        if self._closed:
            raise StoreError("client is closed")
        async with self._lock:  # one in-flight request per connection
            self._next_id += 1
            request_id = self._next_id
            self._writer.write(
                protocol.encode({"id": request_id, "op": op, **fields})
            )
            await self._writer.drain()
            line = await self._reader.readline()
        if not line:
            raise WireProtocolError("server closed the connection")
        return _unwrap(request_id, protocol.decode(line))

    def collection(self, name: str = "main") -> "AsyncRemoteCollection":
        return AsyncRemoteCollection(self, name, optimize=self._optimize)

    @property
    def optimize(self) -> str:
        return self._optimize

    async def collection_names(self) -> list[str]:
        return await self.request("collections")

    async def ping(self) -> bool:
        return await self.request("ping") == "pong"

    async def stats(self) -> dict[str, Any]:
        return await self.request("stats")

    async def shutdown(self) -> None:
        await self.request("shutdown")

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    async def __aenter__(self) -> "AsyncRemoteDatabase":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()


class AsyncRemoteCollection:
    """Awaitable twin of :class:`RemoteCollection`."""

    def __init__(
        self,
        database: AsyncRemoteDatabase,
        name: str,
        *,
        optimize: str = "on",
    ) -> None:
        self._database = database
        self.name = name
        self._optimize = _check_optimize(optimize)

    def _request(self, op: str, **fields: Any) -> Any:
        return self._database.request(op, collection=self.name, **fields)

    def _read_fields(
        self, hint: "dict[str, Any] | None", **fields: Any
    ) -> dict[str, Any]:
        merged = _merge_hint(self._optimize, hint)
        if merged is not None:
            fields["hint"] = merged
        return fields

    async def find(
        self,
        filter_doc: dict[str, Any],
        projection: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[Any]:
        fields = self._read_fields(hint, filter=filter_doc)
        if projection is not None:
            fields["projection"] = projection
        return await self._request("find", **fields)

    async def count(
        self,
        filter_doc: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> int:
        return await self._request(
            "count", **self._read_fields(hint, filter=filter_doc or {})
        )

    async def aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ) -> list[Any]:
        return await self._request(
            "aggregate", **self._read_fields(hint, pipeline=pipeline)
        )

    async def select(
        self, query: str, dialect: str = "jsonpath"
    ) -> list[tuple[int, list[Any]]]:
        rows = await self._request("select", query=query, dialect=dialect)
        return [(doc_id, values) for doc_id, values in rows]

    async def get(self, doc_id: int) -> Any:
        return await self._request("get", doc_id=doc_id)

    async def validate(
        self, document: Any, schema: Any | None = None
    ) -> bool:
        fields: dict[str, Any] = {"document": document}
        if schema is not None:
            fields["schema"] = schema
        return await self._request("validate", **fields)

    async def explain(
        self,
        filter_doc: dict[str, Any] | None = None,
        *,
        pipeline: list | None = None,
        update: dict[str, Any] | None = None,
        first_only: bool = False,
        hint: dict[str, Any] | None = None,
    ) -> Explain:
        fields = self._read_fields(hint, filter=filter_doc or {})
        if pipeline is not None:
            fields["pipeline"] = pipeline
        elif update is not None:
            fields["update"] = update
            if first_only:
                fields["first_only"] = True
        return Explain.from_json(await self._request("explain", **fields))

    async def insert(self, document: Any) -> int:
        return (await self._request("insert", documents=[document]))[0]

    async def insert_many(self, documents: list[Any]) -> list[int]:
        return await self._request("insert", documents=list(documents))

    async def update_one(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return _update_result(
            await self._request(
                "update",
                filter=filter_doc,
                update=update_doc,
                one=True,
                upsert=upsert,
            )
        )

    async def update_many(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return _update_result(
            await self._request(
                "update", filter=filter_doc, update=update_doc, upsert=upsert
            )
        )

    async def replace_one(
        self,
        filter_doc: dict[str, Any],
        replacement: dict[str, Any],
        *,
        upsert: bool = False,
    ) -> UpdateResult:
        return _update_result(
            await self._request(
                "replace",
                filter=filter_doc,
                replacement=replacement,
                upsert=upsert,
            )
        )

    async def remove(self, doc_id: int) -> Any:
        return await self._request("remove", doc_id=doc_id)


async def aconnect(
    address: "str | tuple[str, int]", *, optimize: str = "on"
) -> AsyncRemoteDatabase:
    """Open an asyncio client to a ``repro serve`` address."""
    return await AsyncRemoteDatabase.open(address, optimize=optimize)
