"""The ``repro.api`` facade: one ``connect`` / ``collection`` surface
over memory, durable, sharded and remote backends.

The satellite contract: every backend a collection handle can come
from answers the *same* operation battery with the *same* results --
the execution strategy (volatile dict, WAL-backed engine, hash
partitions, TCP round-trips) is invisible to the caller.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import api
from repro.client import RemoteDatabase
from repro.errors import DocumentRejectedError, StoreError
from repro.mongo.update import UpdateResult
from repro.server import ReproServer
from repro.store import Collection, Database, MemoryEngine, ShardedCollection
from repro.workloads import people_collection

PEOPLE = people_collection(40, seed=11)


class ServedDatabase:
    """A volatile database served over TCP on a background loop."""

    def __init__(self, documents) -> None:
        self.database = api.connect()
        self.database.collection(documents=documents)
        self.server = ReproServer(self.database)
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def runner() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_until_complete(self.server.start())
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        started.wait()
        host, port = self.server.address
        self.url = f"tcp://{host}:{port}"

    def stop(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self._loop
        )
        future.result(timeout=10)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()


# ---------------------------------------------------------------------------
# connect(): one entry point, four backends.
# ---------------------------------------------------------------------------


class TestConnect:
    def test_no_path_is_a_volatile_database(self):
        with api.connect() as database:
            assert isinstance(database, Database)
            assert database.durable is False
            database.collection(documents=[{"a": 1}])
            assert database.collection().find({}) == [{"a": 1}]

    def test_path_is_a_durable_database(self, tmp_path):
        with api.connect(str(tmp_path)) as database:
            assert database.durable is True
            database.collection(documents=[{"a": 1}])
        with api.connect(str(tmp_path)) as database:
            assert database.collection().find({}) == [{"a": 1}]

    def test_shards_is_a_sharded_database(self, tmp_path):
        with api.connect(str(tmp_path), shards=3) as database:
            assert database.shards == 3 and database.durable is True
            collection = database.collection(documents=PEOPLE)
            assert isinstance(collection, ShardedCollection)
            assert sorted(
                collection.find({}), key=lambda d: d["name"]["first"]
            ) == sorted(PEOPLE, key=lambda d: d["name"]["first"])
        with api.connect(str(tmp_path), shards=3) as database:
            assert len(database.collection()) == len(PEOPLE)
            assert "main" in database.collection_names()

    def test_tcp_address_is_a_remote_database(self):
        served = ServedDatabase([{"a": 1}])
        try:
            with api.connect(served.url) as remote:
                assert isinstance(remote, RemoteDatabase)
                assert remote.collection().find({}) == [{"a": 1}]
        finally:
            served.stop()

    def test_tcp_rejects_local_only_options(self):
        with pytest.raises(StoreError):
            api.connect("tcp://localhost:1", shards=2)

    def test_sharded_rejects_fault_injection(self, tmp_path):
        from repro.store.faults import FaultyIO

        with pytest.raises(StoreError):
            api.connect(str(tmp_path), shards=2, io=FaultyIO())


# ---------------------------------------------------------------------------
# collection(): the volatile constructor.
# ---------------------------------------------------------------------------


class TestCollectionConstructor:
    def test_default_is_a_memory_engine_collection(self):
        collection = api.collection([{"a": 1}])
        assert isinstance(collection, Collection)
        assert isinstance(collection.engine, MemoryEngine)
        assert collection.find({}) == [{"a": 1}]

    def test_shards_builds_a_sharded_collection(self):
        collection = api.collection(PEOPLE, shards=3, parallel=False)
        assert isinstance(collection, ShardedCollection)
        assert collection.shard_count == 3
        assert len(collection) == len(PEOPLE)
        collection.close()

    def test_schema_is_enforced(self):
        collection = api.collection(
            schema={"type": "object", "required": ["name"]}
        )
        collection.insert({"name": "ok"})
        with pytest.raises(DocumentRejectedError):
            collection.insert({"nope": 1})


# ---------------------------------------------------------------------------
# The uniform Collection protocol, backend by backend.
# ---------------------------------------------------------------------------

PIPELINE = [
    {"$match": {"age": {"$gt": 30}}},
    {"$group": {"_id": "$address.city", "n": {"$sum": 1}}},
    {"$sort": {"n": -1, "_id": 1}},
]


@pytest.fixture(
    params=["memory", "durable", "sharded", "remote"], scope="module"
)
def backend(request, tmp_path_factory):
    """The same documents behind each backend's collection handle."""
    kind = request.param
    if kind == "memory":
        yield api.collection(PEOPLE)
    elif kind == "durable":
        with api.connect(
            str(tmp_path_factory.mktemp("durable"))
        ) as database:
            yield database.collection(documents=PEOPLE)
    elif kind == "sharded":
        collection = api.collection(PEOPLE, shards=3, parallel=False)
        yield collection
        collection.close()
    else:
        served = ServedDatabase(PEOPLE)
        remote = api.connect(served.url)
        yield remote.collection()
        remote.close()
        served.stop()


REFERENCE = api.collection(PEOPLE)


class TestUniformProtocol:
    def test_find_and_count(self, backend):
        for filter_doc in [{}, {"age": {"$gt": 40}}, {"address.city": "Talca"}]:
            assert sorted(
                map(repr, backend.find(filter_doc))
            ) == sorted(map(repr, REFERENCE.find(filter_doc)))
            assert backend.count(filter_doc) == REFERENCE.count(filter_doc)
        assert len(backend) == len(REFERENCE)

    def test_aggregate(self, backend):
        assert backend.aggregate(PIPELINE) == REFERENCE.aggregate(PIPELINE)

    def test_write_then_read_back(self, backend):
        doc = {"name": {"first": "Api", "last": "Probe"}, "age": 33}
        doc_id = backend.insert(doc)
        try:
            assert backend.count({"name.first": "Api"}) == 1
            backend.update_one(
                {"name.first": "Api"}, {"$inc": {"age": 1}}
            )
            [read_back] = backend.find({"name.first": "Api"})
            assert read_back["age"] == 34
        finally:
            backend.remove(doc_id)
        assert backend.count({"name.first": "Api"}) == 0

    def test_writes_return_update_results(self, backend):
        doc_id = backend.insert({"probe": "upd", "n": 1})
        upserted = None
        try:
            results = [
                backend.update_one({"probe": "upd"}, {"$inc": {"n": 1}}),
                backend.update_many({"probe": "upd"}, {"$set": {"n": 2}}),
                backend.update_many({"probe": "none"}, {"$set": {"n": 0}}),
                backend.replace_one({"probe": "upd"}, {"probe": "upd"}),
            ]
            assert all(type(result) is UpdateResult for result in results)
            assert results == [
                UpdateResult(1, 1, None),
                UpdateResult(1, 0, None),
                UpdateResult(0, 0, None),
                UpdateResult(1, 1, None),
            ]
            result = backend.update_one(
                {"probe": "new"}, {"$set": {"n": 5}}, upsert=True
            )
            upserted = result.upserted_id
            assert type(result) is UpdateResult
            assert (result.matched_count, result.modified_count) == (0, 0)
            assert backend.find({"probe": "new"}) == [{"probe": "new", "n": 5}]
        finally:
            backend.remove(doc_id)
            if upserted is not None:
                backend.remove(upserted)
