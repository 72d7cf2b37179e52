"""The collection query planner: prune via indexes, verify survivors.

The execution model for a query over an indexed collection
(:class:`repro.store.Collection`) has three stages:

1. **Plan** -- the front-end's compiled query carries a
   :class:`~repro.query.ir.LogicalPlan` whose predicates are necessary
   conditions for a match (sargable path/value/kind/key facts); for a
   Mongo filter they come from the exact JNL lowerings of its
   conjuncts;
2. **Prune** -- :func:`candidate_ids` folds the predicate tree over
   the collection's secondary indexes: leaves look up postings,
   conjunctions intersect (smallest first), disjunctions union, and
   anything unindexable dissolves to "all documents";
3. **Verify** -- :class:`Scan`, the one candidate-and-verify loop,
   materialises each candidate once, in document-id order, and asks
   the query's own matcher: the compiled value tests for a Mongo
   filter (on the value), the Proposition-1 evaluator for the JNL and
   JSONPath text dialects (on the tree).  The value it verified is the
   one it returns, so results are *identical* to a full scan -- the
   indexes never decide a match, they only skip documents that
   provably cannot match.

Every Mongo entry point -- ``find``/``count``/``explain`` here, the
leading ``$match`` of :mod:`repro.mongo.aggregate`, the target
selection of :mod:`repro.mongo.update` -- runs through :class:`Scan`.

Candidates are recomputed from the live indexes on every call (plans
are tree-independent and cached process-wide; candidate sets never
are), so a mutated collection can never serve stale answers.

Before stages 2 and 3 the planner consults the schema-aware semantic
optimizer (:mod:`repro.query.optimizer`): an enforced ``"empty"``
verdict answers without touching an index, ``"all"`` streams every
live document verify-free, and ``"residual"`` verifies only the
conjuncts the schema could not discharge.  Collections opt in by
exposing a ``semantic_context`` (an ``optimize="off"`` collection
exposes ``None``); everything else takes the classic prune-and-verify
path.

The module is deliberately ignorant of :mod:`repro.store` internals:
anything with ``indexes``/``documents()``/``get()`` duck-types as a
collection, which keeps the import graph acyclic (store builds on the
planner, not vice versa).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.explain import Explain
from repro.model.tree import JSONTree, JSONValue
from repro.query import ir, optimizer
from repro.query.compiled import CompiledQuery

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from repro.store.collection import Collection
    from repro.store.indexes import DocumentIndexes

__all__ = [
    "Scan",
    "candidate_ids",
    "match_ids",
    "match_flags",
    "count_matches",
    "find_documents",
    "find_rows",
    "select_nodes",
    "select_values",
    "explain",
]


# ---------------------------------------------------------------------------
# Stage 2: predicate -> candidate document ids.
# ---------------------------------------------------------------------------


def candidate_ids(
    predicate: ir.Pred, indexes: "DocumentIndexes"
) -> set[int] | None:
    """Documents possibly satisfying ``predicate``; ``None`` = all.

    Sound by construction: the returned set is a superset of the
    documents where the predicate holds, hence (the predicate being a
    necessary condition) of the documents the query matches.  The
    returned set is the caller's to keep (never an index internal).
    """
    result, owned = _fold_candidates(predicate, indexes)
    if result is None or owned:
        return result
    return set(result)


def _fold_candidates(
    predicate: ir.Pred, indexes: "DocumentIndexes"
) -> tuple[set[int] | None, bool]:
    """The candidate fold proper, returning ``(candidates, owned)``.

    Leaves return the live (read-only) index postings without copying
    (``owned=False``); connectives copy only when they genuinely
    combine -- a conjunction copies just its smallest operand, a
    disjunction with one non-empty branch passes it through.  So a
    selective query never materialises the big ``PathExists``-style
    postings it intersects against.
    """
    if isinstance(predicate, ir.TruePred):
        return None, True
    if isinstance(predicate, ir.AndPred):
        narrowed = [
            folded
            for part in predicate.parts
            if (folded := _fold_candidates(part, indexes))[0] is not None
        ]
        if not narrowed:
            return None, True
        narrowed.sort(key=lambda folded: len(folded[0]))
        smallest, owned = narrowed[0]
        if len(narrowed) == 1:
            return smallest, owned
        result = set(smallest)
        for other, _ in narrowed[1:]:
            result &= other
            if not result:
                break
        return result, True
    if isinstance(predicate, ir.OrPred):
        parts: list[tuple[set[int], bool]] = []
        for part in predicate.parts:
            folded = _fold_candidates(part, indexes)
            if folded[0] is None:
                return None, True
            if folded[0]:
                parts.append(folded)
        if not parts:
            return set(), True
        if len(parts) == 1:
            return parts[0]
        result = set(parts[0][0])
        for other, _ in parts[1:]:
            result |= other
        return result, True
    if isinstance(predicate, ir.PathExists):
        return indexes.docs_with_path(predicate.path), False
    if isinstance(predicate, ir.PathEq):
        return indexes.docs_with_value(predicate.path, predicate.value), False
    if isinstance(predicate, ir.PathKind):
        return indexes.docs_with_kind(predicate.path, predicate.kind), False
    if isinstance(predicate, ir.PathRange):
        return (
            indexes.docs_in_range(predicate.path, predicate.low, predicate.high),
            True,
        )
    if isinstance(predicate, ir.HasKey):
        return indexes.docs_with_key(predicate.key), False
    if isinstance(predicate, ir.TailEq):
        return (
            indexes.docs_with_tail_value(predicate.key, predicate.value),
            False,
        )
    if isinstance(predicate, ir.AnyEq):
        return indexes.docs_with_any_value(predicate.value), False
    return None, True  # Unknown predicate: never prune on it.


# ---------------------------------------------------------------------------
# Stage 3: the one candidate-and-verify loop.
# ---------------------------------------------------------------------------


class Scan:
    """One candidate-and-verify pass of a filter plan over a collection.

    The semantic verdict comes first (``kind``): ``"empty"`` yields
    nothing and ``"all"`` every live document, verify-free.  Otherwise
    the plan's match predicate folds over the secondary indexes
    (``candidates`` counts what survives, ``None`` for a full scan) and
    each candidate is materialised once -- a plain value for a Mongo
    plan, the tree for a JNL text plan -- verified, and on a match
    yielded as that same object, as ``(doc_id, document)`` in id order.
    ``scanned`` (documents read without a covering verdict) and
    ``matched`` grow as the scan is consumed.

    ``query=None`` keeps every document (a pipeline without a leading
    ``$match``).  ``verdict`` replaces the local proof with an inherited
    one (a shard taking its coordinator's ``"empty"``/``"all"``).
    ``peek`` reads pending update values without forcing a rebuild;
    they must stay unmodified (update target selection).
    """

    __slots__ = ("collection", "query", "decision", "kind", "total",
                 "candidates", "scanned", "matched", "_ids", "_peek")

    def __init__(
        self,
        collection: "Collection",
        query: CompiledQuery | None,
        *,
        verdict: str | None = None,
        peek: bool = False,
    ) -> None:
        decision = None
        if verdict is None:
            decision = optimizer.semantic_plan(collection, query)
            verdict = "none" if decision is None else decision.verdict.kind
        self.decision = decision
        self.kind = verdict
        self.collection = collection
        self.query = query
        self.total = len(collection)
        self.scanned = 0
        self.matched = 0
        self._peek = peek
        self._ids: set[int] | None = None
        indexes = collection.indexes
        if (
            query is not None
            and indexes is not None
            and self.kind not in ("empty", "all")
        ):
            self._ids = candidate_ids(query.plan.match_predicate, indexes)
        self.candidates = None if self._ids is None else len(self._ids)

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        if self.kind == "empty":
            return
        if self.kind == "all":
            for pair in self._documents():
                self.matched += 1
                yield pair
            return
        verify = None
        if self.query is not None:
            query = self.query
            if self.kind == "residual":
                query = query.narrow(self.decision.verdict.residual_positions)
            verify = query.matches
        count = optimizer.count_verify
        for doc_id, document in self._documents():
            self.scanned += 1
            if verify is not None:
                count()
                if not verify(document):
                    continue
            self.matched += 1
            yield doc_id, document

    def _documents(self) -> Iterator[tuple[int, Any]]:
        collection, ids = self.collection, self._ids
        if self._peek:
            order = collection.doc_ids() if ids is None else sorted(ids)
            return (
                (doc_id, collection._peek_value(doc_id)) for doc_id in order
            )
        if ids is None:
            pairs = collection.documents()
        else:
            pairs = ((doc_id, collection.get(doc_id)) for doc_id in sorted(ids))
        if self.query is not None and self.query.conjuncts is None:
            return pairs  # a JNL text plan verifies the tree
        return ((doc_id, tree.to_value()) for doc_id, tree in pairs)

    def semantics(self):
        """The explain section of the semantic decision, if any."""
        return None if self.decision is None else self.decision.semantics_explain()


def _row(query: CompiledQuery, document: Any) -> JSONValue:
    value = document.to_value() if isinstance(document, JSONTree) else document
    return query.projection.apply_value(value) if query.projection else value


def match_ids(collection: "Collection", query: CompiledQuery) -> list[int]:
    """Ids of the documents the query matches (root match / non-empty
    selection), in document-id order."""
    return [doc_id for doc_id, _ in Scan(collection, query)]


def match_flags(collection: "Collection", query: CompiledQuery) -> list[bool]:
    """One verdict per live document, aligned with ``documents()`` order.

    Pruned documents are reported ``False`` without being evaluated --
    the planner's equivalent of :func:`repro.query.batch.match_many`.
    """
    matched = set(match_ids(collection, query))
    return [doc_id in matched for doc_id, _ in collection.documents()]


def count_matches(collection: "Collection", query: CompiledQuery) -> int:
    scan = Scan(collection, query)
    if scan.kind == "all":
        return scan.total
    return sum(1 for _ in scan)


def find_documents(
    collection: "Collection", query: CompiledQuery
) -> list[JSONValue]:
    """Mongo ``find`` over a collection: (projected) matching documents."""
    return [_row(query, document) for _, document in Scan(collection, query)]


def find_rows(
    collection: "Collection", query: CompiledQuery
) -> list[tuple[int, JSONValue]]:
    """``(doc_id, projected value)`` pairs for the matching documents.

    The id-carrying twin of :func:`find_documents`: scatter-gather
    execution fans this out per shard and k-way merges the returned
    rows by the globally unique doc-id, which reproduces the single
    collection's document-id answer order exactly.
    """
    return [
        (doc_id, _row(query, document))
        for doc_id, document in Scan(collection, query)
    ]


def find_trees(
    collection: "Collection", query: CompiledQuery
) -> list[JSONTree]:
    """The matching documents as trees (no projection applied)."""
    return [collection.get(doc_id) for doc_id, _ in Scan(collection, query)]


def select_nodes(
    collection: "Collection", query: CompiledQuery
) -> list[tuple[int, list[int]]]:
    """Per-document selected node ids, one row per live document.

    Pruning uses the plan's *node* predicate for filter plans (a nested
    node can satisfy a formula whose root-anchored condition fails) and
    the root-anchored predicate for selector plans.  Pruned documents
    get an empty selection without being evaluated.
    """
    predicate = (
        query.plan.node_predicate
        if query.plan.mode == ir.MODE_FILTER
        else query.plan.match_predicate
    )
    indexes = collection.indexes
    candidates = None if indexes is None else candidate_ids(predicate, indexes)
    return [
        (
            doc_id,
            query.select(tree)
            if candidates is None or doc_id in candidates
            else [],
        )
        for doc_id, tree in collection.documents()
    ]


def select_values(
    collection: "Collection", query: CompiledQuery
) -> list[tuple[int, list[JSONValue]]]:
    """Like :func:`select_nodes` but materialising the subdocuments."""
    rows: list[tuple[int, list[JSONValue]]] = []
    for doc_id, nodes in select_nodes(collection, query):
        if not nodes:
            rows.append((doc_id, []))
            continue
        tree = collection.get(doc_id)
        rows.append((doc_id, [tree.to_value(node) for node in nodes]))
    return rows


def explain(collection: "Collection", query: CompiledQuery) -> Explain:
    """Run the match pipeline, reporting pruning effectiveness."""
    scan = Scan(collection, query)
    matched = scan.total if scan.kind == "all" else sum(1 for _ in scan)
    return Explain(
        kind="find",
        dialect=query.dialect,
        source=query.source,
        total=scan.total,
        candidates=scan.candidates,
        scanned=scan.scanned,
        matched=matched,
        semantics=scan.semantics(),
    )
