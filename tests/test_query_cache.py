"""Cache behaviour of the compiled-query subsystem.

Covers the satellite requirements explicitly: hit/miss counters,
eviction at capacity, and that batch evaluation never serves stale
results for trees that changed after a plan was cached (the cache holds
only tree-independent compilation artifacts).
"""

from __future__ import annotations

import pytest

from repro.cache import (
    DEFAULT_CAPACITY,
    LRUCache,
    artifact_cache,
    artifact_cache_stats,
    clear_artifact_cache,
    configure_artifact_cache,
)
from repro.model.tree import JSONTree
from repro.query import compile_mongo_find, compile_query, evaluate_many


@pytest.fixture
def clean_global_cache():
    """An empty global cache, restored to defaults afterwards."""
    clear_artifact_cache()
    configure_artifact_cache(DEFAULT_CAPACITY)
    yield artifact_cache()
    clear_artifact_cache()
    configure_artifact_cache(DEFAULT_CAPACITY)


class TestLRUCache:
    def test_hit_and_miss_counters(self):
        cache = LRUCache(capacity=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("a") == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_get_or_compute_counts_once_per_key(self):
        cache = LRUCache(capacity=4)
        calls = []
        for _ in range(3):
            value = cache.get_or_compute("k", lambda: calls.append(1) or 42)
            assert value == 42
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)

    def test_eviction_at_capacity(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a", the least recently used
        assert len(cache) == 2
        assert cache.stats().evictions == 1
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_recency_refresh_changes_eviction_victim(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # now evicts "b"
        assert "a" in cache and "b" not in cache

    def test_resize_shrinks_and_evicts(self):
        cache = LRUCache(capacity=4)
        for key in "abcd":
            cache.put(key, key)
        cache.resize(2)
        assert len(cache) == 2
        assert cache.stats().capacity == 2
        assert cache.stats().evictions == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)
        with pytest.raises(ValueError):
            LRUCache(capacity=4).resize(-1)

    def test_clear_resets_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)


class TestGlobalCompileCache:
    def test_repeat_compilation_hits(self, clean_global_cache):
        first = compile_query("$.a.b", "jsonpath")
        second = compile_query("$.a.b", "jsonpath")
        assert first is second
        stats = artifact_cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_dialect_is_part_of_the_key(self, clean_global_cache):
        jnl_plan = compile_query("has(.a)", "jnl")
        # Same text under a different dialect must not collide.
        with pytest.raises(Exception):
            compile_query("has(.a)", "jsonpath")
        assert compile_query("has(.a)", "jnl") is jnl_plan

    def test_mongo_key_is_canonical(self, clean_global_cache):
        first = compile_mongo_find({"a": 1, "b": 2})
        second = compile_mongo_find({"b": 2, "a": 1})  # same filter, reordered
        assert first is second
        assert artifact_cache_stats().hits == 1

    def test_mongo_projection_distinguishes_plans(self, clean_global_cache):
        bare = compile_mongo_find({"a": 1})
        projected = compile_mongo_find({"a": 1}, {"a": 1})
        assert bare is not projected
        assert projected.projection is not None

    def test_capacity_eviction_recompiles(self, clean_global_cache):
        configure_artifact_cache(2)
        plan_a = compile_query("$.a", "jsonpath")
        compile_query("$.b", "jsonpath")
        compile_query("$.c", "jsonpath")  # evicts $.a
        stats = artifact_cache_stats()
        assert stats.evictions == 1 and stats.size == 2
        assert compile_query("$.a", "jsonpath") is not plan_a  # recompiled

    def test_cache_none_bypasses(self, clean_global_cache):
        first = compile_query("$.a", "jsonpath", cache=None)
        second = compile_query("$.a", "jsonpath", cache=None)
        assert first is not second
        stats = artifact_cache_stats()
        assert stats.hits == 0 and stats.misses == 0

    def test_private_cache_instance(self, clean_global_cache):
        private = LRUCache(capacity=8)
        compile_query("$.a", "jsonpath", cache=private)
        compile_query("$.a", "jsonpath", cache=private)
        assert private.stats().hits == 1
        assert artifact_cache_stats().misses == 0  # global untouched


class TestNoStaleResults:
    """Cached plans hold no per-tree state, so results always reflect
    the trees passed in -- even after in-place mutation or rebuilds."""

    def test_mutated_tree_not_stale_in_batch(self, clean_global_cache):
        tree = JSONTree.from_value({"a": {"b": "old"}, "c": 1})
        query = compile_query("$.a.b", "jsonpath")
        assert evaluate_many(query, [tree]) == [["old"]]
        # Mutate the leaf in place (bypassing the immutable facade, as
        # a stale per-tree cache would be fooled by exactly this).
        leaf = query.select(tree)[0]
        tree._values[leaf] = "new"
        assert evaluate_many(query, [tree]) == [["new"]]

    def test_mutated_value_changes_cached_filter_verdict(self, clean_global_cache):
        tree = JSONTree.from_value({"age": 50})
        query = compile_mongo_find({"age": {"$gte": 40}})
        assert query.matches(tree)
        (age_leaf,) = [n for n in tree.nodes() if tree.is_number(n)]
        tree._values[age_leaf] = 12
        assert compile_mongo_find({"age": {"$gte": 40}}) is query  # cache hit
        assert not query.matches(tree)

    def test_rebuilt_tree_evaluated_fresh(self, clean_global_cache):
        query = compile_query("$.items[*]", "jsonpath")
        assert query.values(JSONTree.from_value({"items": [1, 2]})) == [1, 2]
        assert query.values(JSONTree.from_value({"items": [9]})) == [9]

    def test_batch_over_growing_collection(self, clean_global_cache):
        query = compile_mongo_find({"x": {"$gte": 1}})
        trees = [JSONTree.from_value({"x": 0})]
        from repro.query import match_many

        assert match_many(query, trees) == [False]
        trees.append(JSONTree.from_value({"x": 5}))
        assert match_many(query, trees) == [False, True]

