"""Sharded collections: hash routing, mergeable accumulator states,
scatter-gather differentials, and per-shard durable recovery.

``TestRandomisedDifferential`` is scaled by ``REPRO_DIFF_SCALE`` (the
nightly CI job sweeps it at 20x) and pins the central claim: a
:class:`~repro.store.ShardedCollection` is an *execution strategy* --
find/aggregate/update results are identical to the single-collection
planner path, document for document and row for row.
"""

from __future__ import annotations

import os
import random
import signal

import pytest

from repro.errors import DocumentRejectedError, StorageFormatError, StoreError
from repro.mongo.aggregate import compile_pipeline
from repro.query.stages import ACCUMULATORS
from repro.store import (
    ShardedCollection,
    shard_name,
    shard_of,
)
from repro.store.fsck import repair, verify
from repro.workloads import people_collection
from repro import api

_SCALE = int(os.environ.get("REPRO_DIFF_SCALE", "1"))

PEOPLE = people_collection(240, seed=41)


@pytest.fixture(scope="module")
def single():
    return api.collection(people_collection(240, seed=41))


@pytest.fixture(scope="module")
def sharded():
    collection = api.collection(PEOPLE, shards=3, parallel=False)
    yield collection
    collection.close()


# ---------------------------------------------------------------------------
# Accumulator merge contract: merge(partials) == accumulate(whole).
# ---------------------------------------------------------------------------


class TestAccumulatorMerge:
    @pytest.mark.parametrize("name", sorted(ACCUMULATORS))
    def test_merge_of_random_splits_equals_whole(self, name):
        """Any interleaved split of a ranked stream folds back to the
        undivided fold (integer streams: merge reassociates sums)."""
        factory = ACCUMULATORS[name]
        rng = random.Random(f"merge-{name}")
        for _ in range(25 * _SCALE):
            ranked = [
                (rank, rng.randrange(-50, 50))
                for rank in range(rng.randrange(0, 30))
            ]
            whole = factory()
            for rank, value in ranked:
                whole.add_ranked(value, rank)
            shuffled = ranked[:]
            rng.shuffle(shuffled)
            pieces = rng.randrange(1, 5)
            partials = []
            for index in range(pieces):
                part = factory()
                for rank, value in shuffled[index::pieces]:
                    part.add_ranked(value, rank)
                partials.append(part.partial())
            assert factory.merge(partials).result() == whole.result(), name
            # A single partial round-trips unchanged.
            merged = factory.merge([whole.partial()])
            assert merged.result() == whole.result(), name

    def test_avg_partial_is_the_sum_count_pair(self):
        """Averages of averages are wrong on uneven splits; the
        partial must be the (sum, count) pair."""
        avg = ACCUMULATORS["$avg"]
        acc = avg()
        for value in (10, 20, 40):
            acc.add(value)
        assert acc.partial() == (70, 3)
        assert avg.merge([(70, 3), (30, 1)]).result() == 25

    def test_push_merge_restores_global_rank_order(self):
        """$push merges by rank, not by partial concatenation order."""
        push = ACCUMULATORS["$push"]
        left, right = push(), push()
        left.add_ranked("r0", (0, 0))
        left.add_ranked("r3", (3, 0))
        right.add_ranked("r1", (1, 0))
        right.add_ranked("r2", (2, 0))
        merged = push.merge([right.partial(), left.partial()])
        assert merged.result() == ["r0", "r1", "r2", "r3"]

    def test_min_max_encode_missing_without_the_sentinel(self):
        """An empty fold exports (), not the MISSING singleton (whose
        identity does not survive pickling across the pool)."""
        for name in ("$min", "$max"):
            factory = ACCUMULATORS[name]
            assert factory().partial() == ()
            seen = factory()
            seen.add(4)
            assert factory.merge([(), seen.partial(), ()]).result() == 4
            assert factory.merge([(), ()]).result() is None


# ---------------------------------------------------------------------------
# Routing invariants.
# ---------------------------------------------------------------------------


class TestShardRouting:
    def test_every_id_maps_to_exactly_one_shard(self):
        for count in (1, 2, 3, 4, 7):
            for doc_id in range(500):
                owners = [
                    index
                    for index in range(count)
                    if shard_of(doc_id, count) == index
                ]
                assert len(owners) == 1
                assert 0 <= owners[0] < count

    def test_shards_partition_the_collection(self, sharded):
        """Per-shard id sets are disjoint and union to the globals."""
        shards = sharded.engine.shards
        assert shards is not None  # serial mode exposes them
        per_shard = [set(shard.doc_ids()) for shard in shards]
        for index, ids in enumerate(per_shard):
            assert all(shard_of(i, sharded.shard_count) == index for i in ids)
        union = set().union(*per_shard)
        assert sorted(union) == sharded.doc_ids()
        assert sum(len(ids) for ids in per_shard) == len(union)

    def test_routed_point_ops_hit_the_owner(self, sharded):
        for doc_id in (0, 1, 2, 5, 100):
            assert doc_id in sharded
            assert sharded.get_value(doc_id) == PEOPLE[doc_id]
        assert -1 not in sharded
        assert len(PEOPLE) + 10 not in sharded

    def test_insert_ids_are_global_and_dense(self):
        with api.collection(shards=4, parallel=False) as fleet:
            ids = fleet.insert_many([{"n": index} for index in range(10)])
            assert ids == list(range(10))
            assert fleet.insert({"n": 10}) == 10
            removed = fleet.remove(3)
            assert removed == {"n": 3}
            # Ids are never reused, matching Collection semantics.
            assert fleet.insert({"n": 11}) == 11
            assert fleet.doc_ids() == [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11]

    def test_schema_rejection_leaves_every_shard_untouched(self):
        schema = {
            "type": "object",
            "required": ["n"],
            "properties": {"n": {"type": "number"}},
        }
        fleet = ShardedCollection(shards=3, schema=schema, parallel=False)
        try:
            with pytest.raises(DocumentRejectedError):
                fleet.insert_many([{"n": 1}, {"n": 2}, {"bad": "doc"}])
            assert len(fleet) == 0
            assert fleet.doc_ids() == []
        finally:
            fleet.close()


# ---------------------------------------------------------------------------
# Scatter-gather differentials (nightly: REPRO_DIFF_SCALE=20).
# ---------------------------------------------------------------------------

FILTERS = [
    {},
    {"age": {"$gt": 50}},
    {"address.city": "Talca"},
    {"name.first": "Sue"},
    {"age": {"$gte": 30, "$lt": 70}},
    {"hobbies": "chess"},
    {"$or": [{"age": {"$lt": 25}}, {"age": {"$gt": 80}}]},
    {"$and": [{"age": {"$gt": 25}}, {"name.last": "Chen"}]},
    {"name.middle": {"$exists": False}},
    {"age": {"$in": [30, 40, 50]}},
]


def _random_pipeline(rng: random.Random) -> list:
    stages = []
    if rng.random() < 0.8:
        stages.append({"$match": rng.choice(FILTERS)})
    stages.extend(
        rng.sample(
            [
                {"$unwind": "$hobbies"},
                {"$project": {"name.first": 1, "age": 1, "hobbies": 1}},
                {"$sort": {"age": -1, "id": 1}},
                {
                    "$group": {
                        "_id": "$name.first",
                        "n": {"$sum": 1},
                        "avg": {"$avg": "$age"},
                        "oldest": {"$max": "$age"},
                        "youngest": {"$min": "$age"},
                        "ages": {"$push": "$age"},
                    }
                },
                {"$skip": rng.randrange(0, 5)},
                {"$limit": rng.randrange(1, 40)},
            ],
            k=rng.randrange(1, 4),
        )
    )
    if rng.random() < 0.2:
        stages.append({"$count": "rows"})
    return stages


class TestRandomisedDifferential:
    def test_sharded_aggregate_equals_single(self, single, sharded):
        rng = random.Random(4242)
        for _ in range(60 * _SCALE):
            pipeline = _random_pipeline(rng)
            compiled = compile_pipeline(pipeline)
            assert compiled.execute(sharded) == compiled.execute(single), pipeline

    def test_sharded_find_equals_single(self, single, sharded):
        from repro.query import compile_mongo_find, planner

        for filter_doc in FILTERS:
            query = compile_mongo_find(filter_doc)
            expected_ids = planner.match_ids(single, query)
            assert sharded.match_ids(filter_doc) == expected_ids, filter_doc
            assert sharded.count(filter_doc) == len(expected_ids)
            assert sharded.find(filter_doc) == [
                single.get(doc_id).to_value() for doc_id in expected_ids
            ], filter_doc

    def test_sharded_updates_equal_single(self):
        updates = [
            ({"age": {"$gt": 60}}, {"$inc": {"age": 1}}),
            ({"name.first": "Sue"}, {"$set": {"vip": 1}}),
            ({"address.city": "Talca"}, {"$unset": {"hobbies": ""}}),
            ({"age": {"$lt": 25}}, {"$mul": {"age": 2}}),
            ({"hobbies": "chess"}, {"$push": {"hobbies": "go"}}),
            ({"name.last": "Chen"}, {"$rename": {"age": "years"}}),
        ]
        reference = api.collection(PEOPLE)
        with api.collection(PEOPLE, shards=3, parallel=False) as fleet:
            for filter_doc, update_doc in updates:
                mine = fleet.update_many(filter_doc, update_doc)
                theirs = reference.update_many(filter_doc, update_doc)
                assert mine.matched_count == theirs.matched_count
                assert mine.modified_count == theirs.modified_count
            assert [value for _, value in fleet.values()] == [
                tree.to_value() for _, tree in reference.documents()
            ]

    def test_sharded_update_one_routes_to_global_first_match(self):
        reference = api.collection(PEOPLE)
        with api.collection(PEOPLE, shards=4, parallel=False) as fleet:
            for filter_doc in ({"age": {"$gt": 40}}, {"name.first": "Sue"}):
                mine = fleet.update_one(filter_doc, {"$inc": {"age": 1}})
                theirs = reference.update_one(filter_doc, {"$inc": {"age": 1}})
                assert (mine.matched_count, mine.modified_count) == (
                    theirs.matched_count,
                    theirs.modified_count,
                )
            assert [value for _, value in fleet.values()] == [
                tree.to_value() for _, tree in reference.documents()
            ]

    def test_sharded_upsert_assigns_the_same_global_id(self):
        reference = api.collection(PEOPLE[:10])
        with api.collection(PEOPLE[:10], shards=3, parallel=False) as fleet:
            mine = fleet.update_many(
                {"name.first": "Nobody"}, {"$set": {"age": 1}}, upsert=True
            )
            theirs = reference.update_many(
                {"name.first": "Nobody"}, {"$set": {"age": 1}}, upsert=True
            )
            assert mine.upserted_id == theirs.upserted_id == 10
            assert fleet.get_value(10) == reference.get(10).to_value()

    def test_replace_one_matches_single_semantics(self):
        reference = api.collection(PEOPLE[:30])
        with api.collection(PEOPLE[:30], shards=3, parallel=False) as fleet:
            replacement = {"name": {"first": "New"}, "age": 1}
            mine = fleet.replace_one({"age": {"$gt": 30}}, replacement)
            theirs = reference.replace_one({"age": {"$gt": 30}}, replacement)
            assert mine.matched_count == theirs.matched_count == 1
            assert [value for _, value in fleet.values()] == [
                tree.to_value() for _, tree in reference.documents()
            ]


# ---------------------------------------------------------------------------
# Explain: per-shard pruning stats and merge strategies.
# ---------------------------------------------------------------------------


class TestShardedExplain:
    def test_group_pipeline_reports_per_shard_stats(self, single, sharded):
        pipeline = [
            {"$match": {"address.city": "Talca"}},
            {"$group": {"_id": "$name.first", "n": {"$count": {}}}},
        ]
        report = sharded.explain_aggregate(pipeline)
        assert report.merge == "group-merge"
        assert len(report.shards) == 3
        assert report.total == len(PEOPLE)
        assert sum(shard.total for shard in report.shards) == report.total
        assert sum(shard.scanned for shard in report.shards) == report.scanned
        assert all(shard.used_indexes for shard in report.shards)
        assert all(
            shard.pruned == shard.total - shard.scanned
            for shard in report.shards
        )
        flat = compile_pipeline(pipeline).explain(single)
        assert report.results == flat.results

    def test_merge_strategies_by_boundary_stage(self, sharded):
        cases = [
            ([{"$sort": {"age": 1, "id": 1}}, {"$limit": 5}], "sort-merge"),
            ([{"$count": "rows"}], "count-sum"),
            ([{"$project": {"age": 1}}, {"$limit": 3}], "stream"),
            ([{"$group": {"_id": "$age"}}], "group-merge"),
        ]
        for pipeline, strategy in cases:
            assert sharded.explain_aggregate(pipeline).merge == strategy

    def test_unsharded_explain_has_no_shard_section(self, single):
        report = compile_pipeline([{"$limit": 3}]).explain(single)
        assert report.shards == ()
        assert report.merge is None


# ---------------------------------------------------------------------------
# Durable shards: independent recovery, fsck coverage, fixed layout.
# ---------------------------------------------------------------------------


class TestDurableSharded:
    def _open(self, path, **kwargs):
        kwargs.setdefault("parallel", False)
        return ShardedCollection(PEOPLE[:60], shards=4, path=path, **kwargs)

    def test_reopen_recovers_every_shard_independently(self, tmp_path):
        path = str(tmp_path / "fleet")
        fleet = self._open(path)
        fleet.update_many({"age": {"$gt": 50}}, {"$inc": {"age": 1}})
        expected = list(fleet.values())
        fleet.close()
        for index in range(4):
            assert (tmp_path / "fleet" / f"{shard_name(index)}.wal").exists()
        reopened = ShardedCollection(path=path, parallel=False)
        try:
            assert reopened.shard_count == 4  # adopted from sharding.json
            assert list(reopened.values()) == expected
        finally:
            reopened.close()

    def test_fsck_verifies_and_repairs_all_shards(self, tmp_path):
        path = str(tmp_path / "fleet")
        self._open(path).close()
        report = verify(path)
        assert report.ok
        names = {check.name for check in report.collections}
        assert names == {shard_name(index) for index in range(4)}
        repaired = repair(path)
        assert repaired.ok
        assert not repaired.actions  # nothing to fix on a clean fleet

    def test_compact_checkpoints_every_shard(self, tmp_path):
        path = str(tmp_path / "fleet")
        fleet = self._open(path)
        try:
            reports = fleet.compact()
            assert len(reports) == 4
            assert all(report is not None for report in reports)
        finally:
            fleet.close()
        for index in range(4):
            snapshot = tmp_path / "fleet" / f"{shard_name(index)}.snapshot.json"
            assert snapshot.exists()

    def test_rebalance_is_refused(self, tmp_path):
        path = str(tmp_path / "fleet")
        self._open(path).close()
        with pytest.raises(StorageFormatError, match="rebalancing"):
            ShardedCollection(path=path, shards=8, parallel=False)

    def test_unrecognised_meta_is_refused(self, tmp_path):
        path = tmp_path / "fleet"
        self._open(str(path)).close()
        meta = path / "sharding.json"
        meta.write_text('{"format": "someone-elses", "version": 1, "shards": 4}')
        with pytest.raises(StorageFormatError):
            ShardedCollection(path=str(path), parallel=False)


# ---------------------------------------------------------------------------
# The worker pool: parallel execution must be invisible.
# ---------------------------------------------------------------------------


class TestWorkerPool:
    PIPELINES = [
        [
            {"$match": {"age": {"$gt": 40}}},
            {"$group": {"_id": "$address.city", "n": {"$count": {}}}},
            {"$sort": {"n": -1, "_id": 1}},
        ],
        [{"$sort": {"age": 1, "id": 1}}, {"$skip": 3}, {"$limit": 7}],
        [{"$unwind": "$hobbies"}, {"$count": "rows"}],
    ]

    def _assert_equivalent(self, start_method):
        fleet = ShardedCollection(
            PEOPLE[:120],
            shards=2,
            parallel=True,
            start_method=start_method,
        )
        try:
            if not fleet.parallel:
                pytest.skip(f"no usable {start_method or 'default'} pool")
            reference = api.collection(PEOPLE[:120])
            for pipeline in self.PIPELINES:
                compiled = compile_pipeline(pipeline)
                assert compiled.execute(fleet) == compiled.execute(reference)
            result = fleet.update_many({"age": {"$gt": 40}}, {"$inc": {"age": 1}})
            assert result.matched_count > 0
            assert all(health.ok for health in fleet.health)
        finally:
            fleet.close()

    def test_parallel_matches_serial_results(self):
        self._assert_equivalent(None)

    def test_spawn_start_method_is_supported(self):
        self._assert_equivalent("spawn")

    def test_worker_errors_propagate(self):
        fleet = ShardedCollection(PEOPLE[:20], shards=2, parallel=True)
        try:
            with pytest.raises(StoreError):
                fleet.remove(999)  # no such document on the owning shard
            # The pool survives a raised per-shard error.
            assert len(fleet) == 20
        finally:
            fleet.close()

    def test_dead_worker_raises_store_error(self):
        fleet = ShardedCollection(PEOPLE[:20], shards=2, parallel=True)
        try:
            if not fleet.parallel:
                pytest.skip("no usable worker pool")
            victim = fleet.engine._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5)
            assert not victim.is_alive()
            with pytest.raises(StoreError, match="shard worker died"):
                fleet.count({})
            with pytest.raises(StoreError, match="shard worker died"):
                fleet.insert_many([{"name": "late"}, {"name": "later"}])
            # The live shard's pipe stays in lock-step: it answers its
            # own request, not a reply left over from the scatters.
            survivor = next(i for i in range(20) if shard_of(i, 2) == 0)
            assert fleet.get_value(survivor) == PEOPLE[survivor]
        finally:
            fleet.close()

    def test_single_shard_defaults_to_serial(self):
        with ShardedCollection(PEOPLE[:10], shards=1) as fleet:
            assert not fleet.parallel
            assert fleet.shard_count == 1
            assert fleet.aggregate([{"$count": "n"}]) == [{"n": 10}]
