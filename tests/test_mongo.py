"""The MongoDB find-filter front-end (Section 4.1, Example 1).

``TestRandomisedDifferential`` pins the one-kernel contract: a filter
gives one answer (or one typed error ``code``) from ``find``,
``count``, ``aggregate([{"$match": ...}])``, ``update_many`` and
``explain``, on the memory, durable, sharded and remote backends.
Scaled by ``REPRO_DIFF_SCALE`` (the nightly CI job sweeps it at 20x).
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
from contextlib import contextmanager

import pytest

from repro.errors import ParseError, ReproError
from repro.jnl import ast
from repro.mongo import Collection, compile_filter, match_value
from repro.workloads import people_collection
from repro import api

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))


@pytest.fixture
def people() -> Collection:
    return api.collection(
        [
            {"name": "Sue", "age": 35, "tags": ["admin", "dev"],
             "address": {"city": "Santiago"}},
            {"name": "Bob", "age": 28, "tags": ["dev"]},
            {"name": "Eve", "age": 41, "tags": []},
        ]
    )


def names(results):
    return [doc["name"] for doc in results]


class TestExample1:
    def test_paper_query(self, people):
        # db.collection.find({name: {$eq: "Sue"}}, {})
        assert names(people.find({"name": {"$eq": "Sue"}})) == ["Sue"]

    def test_filter_compiles_to_deterministic_jnl(self):
        formula = compile_filter({"name": {"$eq": "Sue"}})
        assert isinstance(formula, ast.Unary)


class TestOperators:
    def test_implicit_equality(self, people):
        assert names(people.find({"name": "Bob"})) == ["Bob"]

    def test_comparisons(self, people):
        assert names(people.find({"age": {"$gt": 35}})) == ["Eve"]
        assert names(people.find({"age": {"$gte": 35}})) == ["Sue", "Eve"]
        assert names(people.find({"age": {"$lt": 35}})) == ["Bob"]
        assert names(people.find({"age": {"$lte": 35}})) == ["Sue", "Bob"]

    def test_range_conjunction(self, people):
        assert names(people.find({"age": {"$gte": 30, "$lt": 40}})) == ["Sue"]

    def test_ne(self, people):
        assert names(people.find({"name": {"$ne": "Sue"}})) == ["Bob", "Eve"]

    def test_in_nin(self, people):
        assert names(people.find({"age": {"$in": [28, 41]}})) == ["Bob", "Eve"]
        assert names(people.find({"age": {"$nin": [28, 41]}})) == ["Sue"]

    def test_exists(self, people):
        assert names(people.find({"address": {"$exists": True}})) == ["Sue"]
        assert names(people.find({"address": {"$exists": False}})) == [
            "Bob", "Eve",
        ]

    def test_type(self, people):
        assert names(people.find({"tags": {"$type": "array"}})) == [
            "Sue", "Bob", "Eve",
        ]
        assert names(people.find({"age": {"$type": "string"}})) == []

    def test_size(self, people):
        assert names(people.find({"tags": {"$size": 0}})) == ["Eve"]
        assert names(people.find({"tags": {"$size": 2}})) == ["Sue"]

    def test_regex(self, people):
        assert names(people.find({"name": {"$regex": "^S"}})) == ["Sue"]
        assert names(people.find({"name": {"$regex": "e$"}})) == ["Sue", "Eve"]
        assert names(people.find({"name": {"$regex": "o"}})) == ["Bob"]

    def test_array_containment(self, people):
        # MongoDB: equality on an array field matches elements too.
        assert names(people.find({"tags": "dev"})) == ["Sue", "Bob"]
        assert names(people.find({"tags": ["dev"]})) == ["Bob"]  # exact

    def test_elem_match(self, people):
        assert names(
            people.find({"tags": {"$elemMatch": {"$eq": "admin"}}})
        ) == ["Sue"]

    def test_dotted_paths(self, people):
        assert names(people.find({"address.city": "Santiago"})) == ["Sue"]
        assert names(people.find({"tags.0": "dev"})) == ["Bob"]

    def test_boolean_operators(self, people):
        assert names(
            people.find({"$or": [{"name": "Bob"}, {"age": {"$gt": 40}}]})
        ) == ["Bob", "Eve"]
        assert names(
            people.find({"$and": [{"age": {"$gt": 30}}, {"age": {"$lt": 40}}]})
        ) == ["Sue"]
        assert names(
            people.find({"$nor": [{"name": "Sue"}, {"name": "Bob"}]})
        ) == ["Eve"]
        assert names(people.find({"age": {"$not": {"$gt": 30}}})) == ["Bob"]

    def test_count(self, people):
        assert people.count({"age": {"$gt": 0}}) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            {"$unknown": []},
            {"a": {"$gt": "x"}},
            {"a": {"$in": 5}},
            {"a": {"$type": "wibble"}},
            {"": 1},
        ],
    )
    def test_malformed_filters(self, bad):
        with pytest.raises(ParseError):
            compile_filter(bad)


class TestLargerCollection:
    def test_generated_people(self):
        collection = api.collection(people_collection(200, seed=5))
        adults = collection.find({"age": {"$gte": 18}})
        assert len(adults) == 200
        some_city = collection.find({"address.city": "Santiago"})
        for doc in some_city:
            assert doc["address"]["city"] == "Santiago"
        with_hobby = collection.find(
            {"hobbies": {"$elemMatch": {"$eq": "yoga"}}}
        )
        for doc in with_hobby:
            assert "yoga" in doc["hobbies"]


# ---------------------------------------------------------------------------
# One filter, one answer: every entry point on every backend.
# ---------------------------------------------------------------------------

PROBE = [
    {"s": "ab", "x": 2, "t": "xb"},
    {"s": "a", "x": 1, "t": "b"},
    {"s": "ba", "x": 3},
]

DIFF_DOCS = PROBE + [
    {"s": "Ab\n", "x": 0, "tags": ["ba", "x"]},
    {"s": "a.b", "x": 10, "tags": [], "n": {"x": 5}},
    {"s": "x\ny", "t": "zz", "n": {"x": 1}},
    {"s": "b", "x": 4, "tags": ["b"]},
    {"x": 2, "t": "a1", "tags": ["a", "b"]},
]

REGEXES = [
    "^a|b$", "(?i)^a", "a.b", "b$", "^(a|b)", "\\d", "x|^y|z$", "a+?",
    "^$", "[^a]b",
]
VALUES = [0, 1, 2, 3, 1.5, 2.0, "a", "b", "ab", [], ["a", "b"], {"x": 5},
          True, None]
BOUNDS = [-1, 0, 1, 1.5, 2, 2.5, 3.0, 10]
INVALID = [
    {"x": {"$gt": "s"}},
    {"x": {"$in": 3}},
    {"s": {"$regex": "("}},
    {"s": {"$regex": 5}},
    {"$bogus": []},
    {"x": {"$type": "wibble"}},
    {"x": {"$type": []}},
    {"tags": {"$size": 1.5}},
    {"": 1},
    {"x..y": 1},
    {"tags": {"$elemMatch": 3}},
    {"x": {"$not": 3}},
    {"$or": {}},
    {"$and": [3]},
    {"x": {"$unknown": 1}},
]


def _random_condition(rng: random.Random) -> dict:
    field = rng.choice(["s", "t", "x", "tags", "n.x", "tags.0", "nope"])
    kind = rng.randrange(9)
    if kind == 0:
        bound = rng.choice(["$gt", "$gte", "$lt", "$lte"])
        return {rng.choice(["x", "n.x", "tags"]): {bound: rng.choice(BOUNDS)}}
    if kind == 1:
        return {rng.choice(["s", "t", "tags.0"]): {"$regex": rng.choice(REGEXES)}}
    if kind == 2:
        return {field: rng.choice(VALUES)}
    if kind == 3:
        return {field: {rng.choice(["$in", "$nin"]): rng.sample(VALUES, 2)}}
    if kind == 4:
        return {field: {"$exists": rng.choice([True, False])}}
    if kind == 5:
        kinds = ["string", "number", "array", "object", "int"]
        return {field: {"$type": rng.choice(kinds)}}
    if kind == 6:
        return {"tags": {"$size": rng.choice([0, 1, 2])}}
    if kind == 7:
        element = rng.choice(
            [{"$regex": rng.choice(REGEXES)}, {"$eq": "b"}, {"$gt": 0.5}]
        )
        return {"tags": {"$elemMatch": element}}
    bound = rng.choice(["$gt", "$lt"])
    return {field: {"$not": {bound: rng.choice(BOUNDS)}}}


def _random_filter(rng: random.Random) -> dict:
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(INVALID)
    parts = [_random_condition(rng) for _ in range(rng.randint(1, 2))]
    if roll < 0.3:
        return {rng.choice(["$or", "$nor", "$and"]): parts}
    merged: dict = {}
    for part in parts:
        merged.update(part)
    return merged


def _outcome(call):
    """A result, or the wire ``code`` of the typed error it raised."""
    try:
        return ("ok", call())
    except ReproError as exc:
        return ("error", exc.code)


def _matched(report) -> int:
    """Explain ``matched``; sharded backends report one per shard."""
    if isinstance(report, list):
        return sum(part.matched for part in report)
    return report.matched


def _entry_points(collection, filter_doc) -> dict:
    """The filter through every entry point (the update last: it
    bumps a field no filter reads, on every backend alike)."""
    return {
        "find": _outcome(lambda: collection.find(filter_doc)),
        "count": _outcome(lambda: collection.count(filter_doc)),
        "aggregate": _outcome(
            lambda: collection.aggregate([{"$match": filter_doc}])
        ),
        "explain": _outcome(lambda: _matched(collection.explain(filter_doc))),
        "update": _outcome(
            lambda: _matched_count(
                collection.update_many(filter_doc, {"$inc": {"hits": 1}})
            )
        ),
    }


def _matched_count(result) -> int:
    """``UpdateResult.matched_count``; the remote client returns the
    wire document."""
    if isinstance(result, dict):
        return result["matched"]
    return result.matched_count


def _check_one_answer(outcomes: dict, filter_doc) -> None:
    kind, found = outcomes["find"]
    if kind == "error":
        assert all(
            outcome == ("error", found) for outcome in outcomes.values()
        ), (filter_doc, outcomes)
        return
    assert outcomes["aggregate"] == ("ok", found), filter_doc
    for entry in ("count", "explain", "update"):
        assert outcomes[entry] == ("ok", len(found)), (filter_doc, entry)


@contextmanager
def _served(database):
    """``database`` behind a :class:`ReproServer` on its own loop
    thread, yielding a connected client."""
    from repro.client import connect
    from repro.server import ReproServer

    server = ReproServer(database)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    started.wait()
    try:
        with connect(server.address) as client:
            yield client
    finally:
        asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


@contextmanager
def _backends(path):
    """The same documents on the memory, durable, sharded and remote
    backends, plus a schema-enforced memory collection (the prover's
    verdicts must not change an answer either)."""
    schema = {
        "type": "object",
        "properties": {"x": {"type": "number", "minimum": 0}},
    }
    with api.connect(path / "db") as durable, api.collection(
        DIFF_DOCS, shards=3, parallel=False
    ) as sharded:
        served = api.connect()
        served.collection(documents=DIFF_DOCS)
        with _served(served) as client:
            yield {
                "memory": api.collection(DIFF_DOCS),
                "schema": api.collection(DIFF_DOCS, schema=schema),
                "durable": durable.collection(documents=DIFF_DOCS),
                "sharded": sharded,
                "remote": client.collection(),
            }


class TestRandomisedDifferential:
    def test_probe_gives_one_answer_everywhere(self, tmp_path):
        with _backends(tmp_path) as backends:
            for filter_doc in (
                {"s": {"$regex": "^a|b$"}},
                {"x": {"$gt": 1.5}},
            ):
                for name, collection in backends.items():
                    probe = api.collection(PROBE)
                    for target in (probe, collection):
                        outcomes = _entry_points(target, filter_doc)
                        _check_one_answer(outcomes, filter_doc)
                    assert _entry_points(probe, filter_doc)["count"] == (
                        "ok",
                        2,
                    ), (name, filter_doc)

    def test_entry_points_and_backends_agree(self, tmp_path):
        rng = random.Random(20170515)
        with _backends(tmp_path) as backends:
            for _ in range(40 * _SCALE):
                filter_doc = _random_filter(rng)
                answers = {}
                for name, collection in backends.items():
                    outcomes = _entry_points(collection, filter_doc)
                    _check_one_answer(outcomes, filter_doc)
                    answers[name] = outcomes["find"]
                reference = answers["memory"]
                assert all(
                    answer == reference for answer in answers.values()
                ), (filter_doc, answers)
                if reference[0] == "ok":
                    documents = backends["memory"].find({})
                    # The update has run since find: compare on the
                    # reference interpreter's reading of the same docs.
                    expected = [
                        doc for doc in documents if match_value(filter_doc, doc)
                    ]
                    assert len(expected) == len(reference[1]), filter_doc
