"""The shared logical-plan IR: lowering, predicates, cache registration."""

from __future__ import annotations

import pytest

from repro.cache import artifact_cache, clear_artifact_cache
from repro.model.tree import Kind
from repro.query import compile_mongo_find, compile_query
from repro.query import ir


def match_pred(query):
    return query.plan.match_predicate


def conjuncts(pred) -> set:
    if isinstance(pred, ir.AndPred):
        return set(pred.parts)
    return {pred}


def leaves(pred) -> set:
    """All leaf predicates anywhere in the tree."""
    if isinstance(pred, (ir.AndPred, ir.OrPred)):
        return {leaf for part in pred.parts for leaf in leaves(part)}
    return {pred}


class TestFrontendsLowerToIR:
    """All three front-ends produce a LogicalPlan via the shared IR."""

    def test_jsonpath_lowers(self):
        plan = compile_query("$.a.b", "jsonpath").plan
        assert isinstance(plan, ir.LogicalPlan)
        assert plan.mode == ir.MODE_SELECT
        assert plan.path is not None

    def test_mongo_lowers(self):
        plan = compile_mongo_find({"a": 1}).plan
        assert isinstance(plan, ir.LogicalPlan)
        assert plan.mode == ir.MODE_FILTER
        assert plan.formula is not None

    def test_jnl_lowers(self):
        plan = compile_query("has(.a)", "jnl").plan
        assert isinstance(plan, ir.LogicalPlan)
        assert plan.mode == ir.MODE_FILTER

    def test_jnl_path_lowers(self):
        plan = compile_query(".a.b", "jnl-path").plan
        assert plan.mode == ir.MODE_SELECT

    def test_payload_is_the_frontend_ast(self):
        # The IR carries the front-end's AST verbatim: execution through
        # the plan is bit-for-bit the pre-IR engine.
        query = compile_query("has(.a)", "jnl")
        assert query.plan.payload is query.formula


class TestSargableExtraction:
    def test_mongo_equality(self):
        pred = match_pred(compile_mongo_find({"name.first": "Sue"}))
        assert ir.PathEq(("name", "first"), "Sue") in leaves(pred)

    def test_mongo_dotted_index_path_is_stripped(self):
        pred = match_pred(compile_mongo_find({"tags.0": "x"}))
        assert ir.PathEq(("tags",), "x") in leaves(pred)

    def test_mongo_range(self):
        pred = match_pred(
            compile_mongo_find({"age": {"$gte": 30, "$lt": 60}})
        )
        parts = conjuncts(pred)
        assert ir.PathRange(("age",), 29, None) in parts
        assert ir.PathRange(("age",), None, 60) in parts

    def test_mongo_in_becomes_disjunction(self):
        pred = match_pred(compile_mongo_find({"c": {"$in": ["x", "y"]}}))
        ors = [p for p in conjuncts(pred) if isinstance(p, ir.OrPred)]
        assert ors and leaves(ors[0]) >= {
            ir.PathEq(("c",), "x"),
            ir.PathEq(("c",), "y"),
        }

    def test_mongo_exists(self):
        pred = match_pred(compile_mongo_find({"a.b": {"$exists": True}}))
        assert ir.PathExists(("a", "b")) in conjuncts(pred)

    def test_mongo_negations_do_not_prune(self):
        assert match_pred(
            compile_mongo_find({"a": {"$exists": False}})
        ) == ir.TRUE
        assert match_pred(compile_mongo_find({})) == ir.TRUE

    def test_mongo_type(self):
        pred = match_pred(compile_mongo_find({"a": {"$type": "string"}}))
        assert ir.PathKind(("a",), Kind.STRING) in conjuncts(pred)

    def test_jsonpath_key_chain(self):
        pred = match_pred(compile_query("$.store.book[0].title", "jsonpath"))
        assert ir.PathExists(("store", "book", "title")) in conjuncts(pred)
        assert ir.PathKind(("store", "book"), Kind.ARRAY) in conjuncts(pred)

    def test_jsonpath_descendant_uses_key_presence(self):
        pred = match_pred(compile_query("$..author", "jsonpath"))
        assert pred == ir.OrPred(
            (ir.PathExists(("author",)), ir.HasKey("author"))
        )

    def test_jsonpath_wildcard_filter_splits_on_kind(self):
        pred = match_pred(
            compile_query('$.hobbies[?(@ == "chess")]', "jsonpath")
        )
        assert isinstance(pred, ir.OrPred)
        array_branch = [
            branch for branch in pred.parts
            if ir.PathEq(("hobbies",), "chess") in conjuncts(branch)
        ]
        assert array_branch, pred

    def test_jnl_filter_anchored_and_floating(self):
        plan = compile_query("has(.name.first)", "jnl").plan
        assert plan.match_predicate == ir.PathExists(("name", "first"))
        assert conjuncts(plan.node_predicate) == {
            ir.HasKey("name"),
            ir.HasKey("first"),
        }

    def test_true_is_absorbing(self):
        assert ir.and_([ir.TRUE, ir.TRUE]) == ir.TRUE
        assert ir.or_([ir.PathExists(("a",)), ir.TRUE]) == ir.TRUE
        assert ir.and_([ir.PathExists(("a",)), ir.TRUE]) == ir.PathExists(("a",))


class TestPlanCacheRegistration:
    def test_plans_register_in_artifact_cache(self):
        clear_artifact_cache()
        try:
            query = compile_query("$.cached.plan.probe", "jsonpath")
            _ = query.plan
            assert ("ir-plan", ir.MODE_SELECT, query.path) in artifact_cache()
        finally:
            clear_artifact_cache()

    def test_structurally_equal_payloads_share_one_plan(self):
        from repro.jnl.parser import parse_jnl

        clear_artifact_cache()
        try:
            formula = parse_jnl("has(.shared.plan)")
            twin = parse_jnl("has(.shared.plan)")
            assert formula == twin
            first = ir.plan_for(formula=formula)
            second = ir.plan_for(formula=twin)
            assert first is second
        finally:
            clear_artifact_cache()

    def test_cache_none_bypasses(self):
        from repro.jnl.parser import parse_jnl

        formula = parse_jnl("has(.uncached)")
        assert ir.plan_for(formula=formula, cache=None) is not ir.plan_for(
            formula=formula, cache=None
        )

    def test_exactly_one_payload(self):
        with pytest.raises(ValueError):
            ir.plan_for()

