"""Compiled query plans with cross-call caching and batch evaluation.

The compile-once / run-many subsystem behind every front-end:

* :mod:`~repro.query.ir` -- the shared logical-plan IR the JSONPath,
  Mongo-find and JNL front-ends all lower into;
* :class:`~repro.query.compiled.CompiledQuery` -- a reusable plan
  holding the parsed AST (or, for Mongo filters, the compiled value
  tests and their JNL lowering) and its logical plan;
* :func:`~repro.query.compiled.compile_query` /
  :func:`~repro.query.compiled.compile_mongo_find` -- cached compilers
  for the JNL, JSONPath and Mongo-find dialects;
* :mod:`~repro.query.planner` -- index-backed pruning of collection
  queries down to the documents that can possibly match;
* :mod:`~repro.query.batch` -- one plan over many trees (or an indexed
  collection), or many plans over one tree with a shared traversal;
* :mod:`~repro.query.stages` -- the physical stage executors behind
  Mongo aggregation pipelines (:mod:`repro.mongo.aggregate`), whose
  leading ``$match`` runs prune through the planner like any find.

The compile cache lives in :mod:`repro.cache` (the process-wide
artifact cache).
"""

from repro.query.batch import (
    aggregate_many,
    evaluate_many,
    evaluate_queries,
    filter_many,
    match_many,
    select_many,
    select_queries,
)
from repro.query.compiled import (
    DIALECTS,
    CompiledQuery,
    compile_formula,
    compile_mongo_find,
    compile_path_query,
    compile_query,
)
from repro.query.ir import LogicalPlan

__all__ = [
    "CompiledQuery",
    "LogicalPlan",
    "DIALECTS",
    "compile_query",
    "compile_formula",
    "compile_path_query",
    "compile_mongo_find",
    "select_many",
    "evaluate_many",
    "match_many",
    "filter_many",
    "aggregate_many",
    "select_queries",
    "evaluate_queries",
]
