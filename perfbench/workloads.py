"""Seeded inputs, operation mixes and the reference model.

Everything the store is asked and everything it should answer is
derived here from the seed, without importing ``repro``: documents have
the shape of ``repro.workloads.families.person_record`` (strings and
integers only), and :class:`Reference` keeps its own id -> document
dict, updated with the same inserts and updates that are sent, so no
change under ``src/`` can move the inputs or the expected answers.
"""

from __future__ import annotations

import copy
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Iterator

FIRST_NAMES = ("John", "Sue", "Ana", "Li", "Omar", "Mia")
LAST_NAMES = ("Doe", "Reyes", "Chen", "Novak", "Diaz")
HOBBIES = ("fishing", "yoga", "chess", "running", "painting")
CITIES = ("Santiago", "Lille", "Oxford", "Talca")
MIN_AGE, MAX_AGE = 18, 90
UPDATE_MANY_SPAN = 50
RANGE_WIDTH = 5  # ages per range count: every pooled count costs about the same
INSERT_BATCH = 10

READS = ("find_point", "find_select", "count_range", "aggregate")
WRITES = ("insert", "update_one", "update_many")


def person(index: int, rng: random.Random) -> dict:
    """A Figure-1-style person document with ``id == index``."""
    return {
        "id": index,
        "name": {"first": rng.choice(FIRST_NAMES), "last": rng.choice(LAST_NAMES)},
        "age": rng.randint(MIN_AGE, MAX_AGE),
        "hobbies": rng.sample(HOBBIES, k=rng.randrange(0, 4)),
        "address": {
            "city": rng.choice(CITIES),
            "zip": str(rng.randint(10000, 99999)),
        },
    }


def corpus(seed: int, count: int) -> list[dict]:
    """The initial documents; the same seed gives the same list."""
    rng = random.Random(f"{seed}:corpus")
    return [person(i, rng) for i in range(count)]


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request: its kind, the parameters the reference model
    understands, and the collection call that asks it."""

    kind: str
    params: tuple

    @property
    def is_read(self) -> bool:
        return self.kind in READS

    def call(self) -> tuple[str, tuple]:
        """``(method, args)`` of the collection protocol."""
        kind, p = self.kind, self.params
        if kind == "find_point":
            return "find", ({"id": p[0]},)
        if kind == "find_select":
            return "find", ({"address.city": p[0], "age": p[1]},)
        if kind == "count_range":
            return "count", ({"age": {"$gte": p[0], "$lt": p[1]}},)
        if kind == "aggregate":
            return "aggregate", ([
                {"$match": {"address.city": p[0], "name.first": p[1]}},
                {"$group": {"_id": "$name.last", "n": {"$sum": 1},
                            "age_sum": {"$sum": "$age"}}},
            ],)
        if kind == "insert":
            return "insert_many", (copy.deepcopy(list(p)),)
        if kind == "update_one":
            return "update_one", ({"id": p[0]}, {"$inc": {"age": 1}})
        if kind == "update_many":
            return "update_many", (
                {"id": {"$gte": p[0], "$lt": p[0] + UPDATE_MANY_SPAN}},
                {"$set": {"address.zip": p[1]}},
            )
        raise ValueError(f"unknown op kind {kind!r}")


def run_op(collection: Any, call: tuple[str, tuple]) -> Any:
    """Send a prepared :meth:`Op.call` (prepared first, so that copying
    its arguments is not timed as the store's work)."""
    method, args = call
    return getattr(collection, method)(*args)


class AnswerMismatch(AssertionError):
    """The store answered differently from the reference model."""


def _write_counts(result: Any) -> tuple[int, int]:
    """``(matched, modified)`` of a local ``UpdateResult`` or a remote
    update response."""
    if isinstance(result, dict):
        return result["matched"], result["modified"]
    return result.matched_count, result.modified_count


class Reference:
    """The benchmark's own model of what the collection holds."""

    def __init__(self, documents: list[dict]) -> None:
        self.docs: dict[int, dict] = {}
        self._by_city_age: dict[tuple[str, int], set[int]] = defaultdict(set)
        self._ages: Counter = Counter()
        self.insert(documents)

    @property
    def next_id(self) -> int:
        return max(self.docs) + 1 if self.docs else 0

    def insert(self, documents: list[dict]) -> None:
        for doc in documents:
            doc = copy.deepcopy(doc)
            self.docs[doc["id"]] = doc
            self._by_city_age[doc["address"]["city"], doc["age"]].add(doc["id"])
            self._ages[doc["age"]] += 1

    def _inc_age(self, doc_id: int) -> None:
        doc = self.docs[doc_id]
        key = doc["address"]["city"], doc["age"]
        self._by_city_age[key].discard(doc_id)
        self._ages[doc["age"]] -= 1
        doc["age"] += 1
        self._by_city_age[doc["address"]["city"], doc["age"]].add(doc_id)
        self._ages[doc["age"]] += 1

    # -- expected answers --------------------------------------------------

    def answer(self, op: Op) -> Any:
        """What a read must return (computed before it runs)."""
        kind, p = op.kind, op.params
        if kind == "find_point":
            doc = self.docs.get(p[0])
            return [] if doc is None else [doc]
        if kind == "find_select":
            return [self.docs[i] for i in sorted(self._by_city_age.get(tuple(p), ()))]
        if kind == "count_range":
            return sum(self._ages[age] for age in range(p[0], p[1]))
        if kind == "aggregate":
            groups: dict[str, list[int]] = {}
            for doc in self.docs.values():
                if doc["address"]["city"] == p[0] and doc["name"]["first"] == p[1]:
                    group = groups.setdefault(doc["name"]["last"], [0, 0])
                    group[0] += 1
                    group[1] += doc["age"]
            return sorted(
                ({"_id": last, "n": n, "age_sum": total}
                 for last, (n, total) in groups.items()),
                key=lambda row: row["_id"],
            )
        raise ValueError(f"{kind!r} is not a read")

    def apply(self, op: Op) -> Any:
        """Apply a write; returns what the store must report for it."""
        kind, p = op.kind, op.params
        if kind == "insert":
            self.insert(list(p))
            return len(p)
        if kind == "update_one":
            if p[0] not in self.docs:
                return 0, 0
            self._inc_age(p[0])
            return 1, 1
        if kind == "update_many":
            matched = modified = 0
            for doc_id in range(p[0], p[0] + UPDATE_MANY_SPAN):
                doc = self.docs.get(doc_id)
                if doc is None:
                    continue
                matched += 1
                if doc["address"]["zip"] != p[1]:
                    doc["address"]["zip"] = p[1]
                    modified += 1
            return matched, modified
        raise ValueError(f"{kind!r} is not a write")

    def check(self, op: Op, got: Any, expected: Any) -> int:
        """Raise :class:`AnswerMismatch` unless ``got`` is right; returns
        the number of documents the op's filter matched."""
        kind = op.kind
        if kind == "aggregate":
            got = sorted(got, key=lambda row: row["_id"])
        elif kind == "insert":
            got = len(got)
        elif kind in ("update_one", "update_many"):
            got = _write_counts(got)
        if got != expected:
            raise AnswerMismatch(
                f"{kind} {op.params!r}: expected {_short(expected)}, "
                f"got {_short(got)}"
            )
        if kind in ("find_point", "find_select"):
            return len(got)
        if kind == "count_range":
            return got
        if kind == "aggregate":
            return sum(row["n"] for row in got)
        if kind == "insert":
            return 0
        return got[0]

    def check_contents(self, documents: list[dict]) -> None:
        """The whole collection, doc for doc (the reopen check)."""
        expected = [self.docs[i] for i in sorted(self.docs)]
        if documents != expected:
            raise AnswerMismatch(
                f"reopened collection differs: {len(documents)} documents, "
                f"expected {len(expected)}"
            )


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 300 else text[:300] + "..."


# ---------------------------------------------------------------------------
# Operation streams.
# ---------------------------------------------------------------------------


class Mix:
    """A seeded, endless stream of ops in fixed proportions.

    Ops come in shuffled blocks holding exactly ``weights[kind]`` ops of
    each kind, so every run of a few blocks has the stated mix rather
    than a sample of it.  ``pools`` lists the read ops a workload
    repeats (its hot query texts, small enough to stay in the artifact
    cache); kinds without a pool draw fresh parameters per op.
    """

    def __init__(
        self,
        seed: int,
        name: str,
        weights: dict[str, int],
        reference: Reference,
        pools: dict[str, list[Op]] | None = None,
        update_pool: list[int] | None = None,
    ) -> None:
        self._rng = random.Random(f"{seed}:ops:{name}")
        self._block = [kind for kind, count in weights.items() for _ in range(count)]
        self._pending: list[str] = []
        self._reference = reference
        self.pools = pools or {}
        self._update_pool = update_pool
        self._next_id = reference.next_id

    def warmup(self) -> list[Op]:
        """Every pooled op once, so the timed phase starts warm."""
        return [op for pool in self.pools.values() for op in pool]

    def __iter__(self) -> Iterator[Op]:
        return self

    def __next__(self) -> Op:
        rng = self._rng
        if not self._pending:
            self._pending = list(self._block)
            rng.shuffle(self._pending)
        kind = self._pending.pop()
        pool = self.pools.get(kind)
        if pool is not None:
            return rng.choice(pool)
        if kind == "find_point":
            return Op(kind, (rng.randrange(self._next_id),))
        if kind == "insert":
            docs = tuple(person(self._next_id + i, rng) for i in range(INSERT_BATCH))
            self._next_id += INSERT_BATCH
            return Op(kind, docs)
        if kind == "update_one":
            if self._update_pool is not None:
                return Op(kind, (rng.choice(self._update_pool),))
            return Op(kind, (rng.randrange(self._next_id),))
        if kind == "update_many":
            low = rng.randrange(self._next_id - UPDATE_MANY_SPAN + 1)
            return Op(kind, (low, str(rng.randint(10000, 99999))))
        raise ValueError(f"no generator for {kind!r}")


def hot_pools(
    seed: int,
    reference: Reference,
    *,
    points: int,
    selects: int,
    ranges: int = 0,
    aggregates: int = 0,
) -> dict[str, list[Op]]:
    """Small pools of read parameters drawn from the seed."""
    rng = random.Random(f"{seed}:pools")
    ids = sorted(reference.docs)
    pools = {
        "find_point": [Op("find_point", (i,)) for i in rng.sample(ids, points)],
        "find_select": [
            Op("find_select", (rng.choice(CITIES), rng.randint(MIN_AGE, MAX_AGE)))
            for _ in range(selects)
        ],
    }
    if ranges:
        lows = rng.sample(range(MIN_AGE, MAX_AGE - RANGE_WIDTH + 2), ranges)
        pools["count_range"] = [
            Op("count_range", (low, low + RANGE_WIDTH)) for low in lows
        ]
    if aggregates:
        pairs = [(city, first) for city in CITIES for first in FIRST_NAMES]
        pools["aggregate"] = [
            Op("aggregate", pair) for pair in rng.sample(pairs, aggregates)
        ]
    return pools
