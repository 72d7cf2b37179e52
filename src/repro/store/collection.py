"""An indexed collection of JSON trees: the document-store layer.

A :class:`Collection` owns a set of documents (as
:class:`~repro.model.tree.JSONTree` arenas built through one shared
key/atom intern table), keeps the secondary indexes of
:mod:`repro.store.indexes` consistent under insert/remove, optionally
enforces a schema through the PR-2 compiled-validation pipeline
(reject-on-insert), and answers queries from any front-end through the
planner of :mod:`repro.query.planner`:

>>> from repro import api
>>> people = api.collection([
...     {"name": "Sue", "age": 35},
...     {"name": "Bob", "age": 28},
... ])
>>> people.find({"name": "Sue"})
[{'name': 'Sue', 'age': 35}]
>>> [value for _, values in people.select("$.name") for value in values]
['Sue', 'Bob']

Documents get dense integer ids in insertion order; ids are never
reused, so removed slots stay tombstoned and every query answers in
id (= insertion) order.  Mutations bump :attr:`version` -- and because
cached plans are tree-independent while candidates are recomputed from
the live indexes per call, a mutated collection can never serve stale
answers.
"""

from __future__ import annotations

import json as _json
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import DocumentRejectedError, StoreError
from repro.explain import Explain
from repro.model.tree import JSONTree, JSONValue
from repro.query import planner
from repro.query.compiled import (
    CompiledQuery,
    compile_mongo_find,
    compile_query,
)
from repro.query.optimizer import SemanticContext, check_optimize_mode
from repro.store.engine import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    MemoryEngine,
    RecoveredState,
    StorageEngine,
    decode_snapshot,
)
from repro.store.indexes import DeltaOps, DocumentIndexes, IndexStats
from repro.store.summary import StructuralSummary
from repro.store.update import CompiledUpdate, mutation_delta
from repro.validate.bulk import validate_corpus
from repro.validate.compiled import CompiledValidator, compile_schema_validator

__all__ = ["Collection"]


def _compile_schema(schema: Any):
    """``(validator, parsed document, canonical text)`` for a schema.

    The parsed document and its canonical rendering feed the semantic
    optimizer: the document translates to the JSL proof premise
    (Theorem 1), the text is the premise's cache fingerprint -- shared
    across collections enforcing an identical schema.
    """
    from repro.schema.parser import parse_schema

    document = parse_schema(schema)
    canonical = _json.dumps(
        _json.loads(schema) if isinstance(schema, str) else schema,
        sort_keys=True,
        separators=(",", ":"),
    )
    return compile_schema_validator(document), document, canonical


def _no_semantic(hint: "dict[str, Any] | None") -> bool:
    """Whether a per-query ``hint`` opts out of semantic optimization."""
    return bool(hint) and bool(hint.get("no_semantic"))


class Collection:
    """A queryable, indexed, optionally schema-enforced document set.

    ``documents`` may mix Python values and prebuilt trees.  ``schema``
    (a JSON Schema as dict/text) or ``validator`` (a prebuilt
    :class:`~repro.validate.compiled.CompiledValidator`) switches on
    ingestion-time validation: invalid documents raise
    :class:`~repro.errors.DocumentRejectedError` and nothing of the
    offending batch is inserted.  ``indexed=False`` keeps the same API
    but skips index maintenance -- every query falls back to the
    compiled full scan.

    Commits route through the ``engine``, a
    :class:`~repro.store.engine.StorageEngine` (memory vs. durable WAL
    + snapshots); :func:`repro.api.collection` and
    :func:`repro.api.connect` choose one for the caller.
    """

    __slots__ = ("_trees", "_alive", "_interned", "_indexes", "_validator",
                 "_extended", "_version", "_dirty", "_engine", "_optimize",
                 "_schema_ast", "_schema_source", "_schema_formula",
                 "_summary")

    def __init__(
        self,
        documents: Iterable["JSONTree | JSONValue"] = (),
        *,
        schema: Any | None = None,
        validator: CompiledValidator | None = None,
        extended: bool = False,
        indexed: bool = True,
        optimize: str = "on",
        engine: StorageEngine,
    ) -> None:
        if schema is not None and validator is not None:
            raise StoreError("pass either schema or validator, not both")
        self._trees: list[JSONTree | None] = []
        self._alive = 0
        self._interned: dict[str, str] = {}
        self._indexes: DocumentIndexes | None = (
            DocumentIndexes() if indexed else None
        )
        self._schema_ast = None
        self._schema_source: str | None = None
        if schema is not None:
            self._validator, self._schema_ast, self._schema_source = (
                _compile_schema(schema)
            )
        else:
            self._validator = validator
        self._extended = extended
        self._optimize = check_optimize_mode(optimize)
        # Lazy semantic-optimizer state: the schema's JSL translation,
        # or (schemaless) the inferred structural summary.
        self._schema_formula = None
        self._summary: StructuralSummary | None = None
        self._version = 0
        # Updated documents live here as plain values until next read:
        # delta index maintenance keeps the postings exact immediately,
        # while the tree rebuild is paid lazily (and only once) however
        # many updates hit the document in between.
        self._dirty: dict[int, JSONValue] = {}
        self._engine = engine
        recovered = engine.bind(self)
        if recovered is not None:
            self._restore(recovered)
        self.insert_many(documents)

    # ------------------------------------------------------------------
    # Ingestion and removal.
    # ------------------------------------------------------------------

    def _materialise(
        self, documents: Iterable["JSONTree | JSONValue"]
    ) -> list[JSONTree]:
        """Values -> trees through the collection's shared intern table."""
        items = list(documents)
        built = iter(
            JSONTree.from_values(
                [doc for doc in items if not isinstance(doc, JSONTree)],
                extended=self._extended,
                interned=self._interned,
            )
        )
        return [doc if isinstance(doc, JSONTree) else next(built)
                for doc in items]

    def insert_many(
        self,
        documents: Iterable["JSONTree | JSONValue"],
        *,
        ids: Sequence[int] | None = None,
    ) -> list[int]:
        """Ingest a batch atomically; returns the new document ids.

        With schema enforcement on, the whole batch is validated
        through the bulk pipeline (early exit on the first offender)
        *before* anything is inserted, so a rejection leaves the
        collection and its indexes untouched.  On a durable engine the
        WAL append (and sync) happens after validation and before the
        in-memory apply, so a rejection leaves no trace on disk either.

        ``ids`` pre-assigns document ids: strictly increasing, each at
        least the next free id.  Gaps become tombstone slots, exactly
        as a removal would leave them.  A sharded collection uses this
        to give each shard the global ids of the documents it owns, so
        doc-ids stay meaningful across the whole fleet (and survive a
        durable shard's WAL replay unchanged).
        """
        items = list(documents)
        trees = self._materialise(items)
        if ids is not None:
            if len(ids) != len(trees):
                raise StoreError(
                    f"got {len(ids)} explicit ids for {len(trees)} documents"
                )
            floor = len(self._trees)
            for doc_id in ids:
                if doc_id < floor:
                    raise StoreError(
                        f"explicit id {doc_id} is not free (next free id "
                        f"is {floor})"
                    )
                floor = doc_id + 1
            ids = list(ids)
        if self._validator is not None and trees:
            report = validate_corpus(self._validator, trees, early_exit=True)
            if not report.all_valid:
                assert report.first_invalid is not None
                raise DocumentRejectedError(report.first_invalid)
        if ids is None:
            base = len(self._trees)
            ids = list(range(base, base + len(trees)))
        if trees and self._engine.durable:
            self._engine.commit_insert(
                ids,
                [
                    item.to_value() if isinstance(item, JSONTree) else item
                    for item in items
                ],
            )
        summary = self._summary
        for doc_id, tree in zip(ids, trees):
            if doc_id > len(self._trees):
                self._trees.extend([None] * (doc_id - len(self._trees)))
            self._trees.append(tree)
            self._alive += 1
            if self._indexes is not None:
                self._indexes.add(doc_id, tree)
            if summary is not None:
                summary.observe_tree(tree)
        if trees:
            self._version += 1
            if self._engine.durable:
                self._engine.commit_applied()
        return ids

    def insert(self, document: "JSONTree | JSONValue") -> int:
        """Ingest one document (validated when the collection has a
        schema); returns its id."""
        return self.insert_many([document])[0]

    def remove(self, doc_id: int) -> JSONTree:
        """Remove a document by id, unwinding its index postings."""
        tree = self.get(doc_id)
        if self._engine.durable:
            self._engine.commit_remove(doc_id)
        self._trees[doc_id] = None
        self._alive -= 1
        if self._indexes is not None:
            self._indexes.remove(doc_id, tree)
        self._version += 1
        if self._engine.durable:
            self._engine.commit_applied()
        return tree

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._alive

    def __contains__(self, doc_id: int) -> bool:
        return 0 <= doc_id < len(self._trees) and self._trees[doc_id] is not None

    def get(self, doc_id: int) -> JSONTree:
        if not isinstance(doc_id, int) or not 0 <= doc_id < len(self._trees):
            raise StoreError(f"unknown document id {doc_id}")
        tree = self._trees[doc_id]
        if tree is None:
            raise StoreError(f"document {doc_id} was removed")
        if doc_id in self._dirty:
            return self._rebuild(doc_id)
        return tree

    def doc_ids(self) -> list[int]:
        return [i for i, tree in enumerate(self._trees) if tree is not None]

    def documents(self) -> Iterator[tuple[int, JSONTree]]:
        """Live ``(doc_id, tree)`` pairs in id (= insertion) order.

        Documents with a pending update are rebuilt (once) on the way
        out, so readers always see post-update trees.
        """
        dirty = self._dirty
        for doc_id, tree in enumerate(self._trees):
            if tree is not None:
                if dirty and doc_id in dirty:
                    tree = self._rebuild(doc_id)
                yield doc_id, tree

    @property
    def trees(self) -> list[JSONTree]:
        """The live trees in id order (the PR-1 batch-API view)."""
        return [tree for _, tree in self.documents()]

    def flush_pending(self) -> None:
        """Materialise every pending updated value back into a tree.

        After this, the internal slot list is the complete truth --
        the precondition for pinning a snapshot view of it.
        """
        for doc_id in list(self._dirty):
            self._rebuild(doc_id)

    def all_slots(self) -> "list[JSONTree | None]":
        """The raw id->tree slot list (tombstones as ``None``).

        Read-only by convention; :class:`~repro.store.snapshot.
        CollectionSnapshot` shallow-copies it to pin a view.  Callers
        must :meth:`flush_pending` first if they need post-update trees.
        """
        return self._trees

    def snapshot_view(self):
        """Pin an immutable, queryable view at the current generation.

        Returns a :class:`~repro.store.snapshot.CollectionSnapshot`:
        structural sharing makes the pin O(slots) pointer copies, reads
        through it are isolated from every later write, and it stays
        index-accelerated while the collection remains at this
        generation (full-scan fallback once it moves on).  This is the
        read side of the server's multi-reader/single-writer model.
        """
        from repro.store.snapshot import CollectionSnapshot

        return CollectionSnapshot(self)

    @property
    def indexes(self) -> DocumentIndexes | None:
        return self._indexes

    @property
    def engine(self) -> StorageEngine:
        """The storage engine commits route through."""
        return self._engine

    @property
    def health(self):
        """The engine's write availability (see ``EngineHealth``).

        ``health.degraded`` means a storage failure put the engine in
        read-only mode: reads and queries keep answering from memory,
        writes raise :class:`~repro.errors.CollectionReadOnlyError`.
        """
        return self._engine.health

    @property
    def version(self) -> int:
        """Bumped on every mutation (insert batch / remove)."""
        return self._version

    @property
    def generation(self) -> int:
        """The mutation generation (alias of :attr:`version`).

        The serving tier's snapshot currency check: a
        :class:`~repro.store.snapshot.CollectionSnapshot` pins this
        value and keeps index-accelerated routing only while the
        collection is still at the pinned generation.
        """
        return self._version

    @property
    def optimize(self) -> str:
        """The semantic-optimizer knob (``on``/``off``/``proof-only``)."""
        return self._optimize

    @property
    def semantic_context(self) -> SemanticContext | None:
        """What the semantic optimizer may assume about every document.

        ``None`` -- and hence no optimization -- when the knob is
        ``"off"``, when the collection holds ``extended`` values (the
        solver's model class is the paper's 4-kind universe), or when
        no sound premise exists.  Schema-enforced collections return
        the schema's JSL translation (Theorem 1), fingerprinted by the
        canonical schema text so identical schemas share cached
        verdicts; schemaless collections return the inferred
        widen-only structural summary (:mod:`repro.store.summary`),
        fingerprinted by its revision.
        """
        if self._optimize == "off" or self._extended:
            return None
        if self._schema_ast is not None:
            formula = self._schema_formula
            if formula is None:
                from repro.errors import SchemaError
                from repro.schema.to_jsl import schema_to_jsl

                try:
                    formula = schema_to_jsl(self._schema_ast)
                except SchemaError:
                    formula = False  # untranslatable: remember, skip
                self._schema_formula = formula
            if formula is False:
                return None
            return SemanticContext(
                mode=self._optimize,
                source="schema",
                fingerprint=("schema", self._schema_source),
                formula=formula,
            )
        if self._validator is not None:
            # A prebuilt validator carries no schema AST to translate;
            # the summary's invariant (every live doc was observed)
            # would still hold, but enforcement may rely on exotic
            # validator features, so stay conservative.
            return None
        summary = self._summary
        if summary is None:
            summary = StructuralSummary()
            summary.observe_all(tree for _, tree in self.documents())
            self._summary = summary
        if summary.disabled:
            return None
        return SemanticContext(
            mode=self._optimize,
            source="summary",
            fingerprint=summary.fingerprint,
            formula=summary.formula(),
        )

    @property
    def schema_enforced(self) -> bool:
        return self._validator is not None

    @property
    def validator(self) -> CompiledValidator | None:
        """The compiled ingestion validator (``None`` when schemaless)."""
        return self._validator

    @property
    def extended(self) -> bool:
        """Whether ingestion coerces ``true``/``false``/``null``."""
        return self._extended

    @property
    def pending_updates(self) -> int:
        """Updated documents whose tree rebuild is still pending."""
        return len(self._dirty)

    def index_stats(self) -> IndexStats | None:
        return self._indexes.stats() if self._indexes is not None else None

    def interned_strings(self) -> int:
        """Distinct keys/atoms in the shared intern table."""
        return len(self._interned)

    # ------------------------------------------------------------------
    # Updating (the write path; Mongo syntax lives in repro.mongo.update).
    # ------------------------------------------------------------------

    def _rebuild(self, doc_id: int) -> JSONTree:
        """Materialise a pending updated value back into a tree."""
        value = self._dirty.pop(doc_id)
        tree = JSONTree.from_values(
            [value], extended=self._extended, interned=self._interned
        )[0]
        self._trees[doc_id] = tree
        return tree

    def _peek_value(self, doc_id: int) -> JSONValue:
        """The document as a plain value, without forcing a rebuild.

        Returns the live pending value for dirty documents (callers
        must treat it as read-only -- update application spine-copies,
        never mutates in place) and a fresh materialisation otherwise.
        """
        pending = self._dirty.get(doc_id)
        if pending is not None:
            return pending
        return self.get(doc_id).to_value()

    def apply_update(
        self,
        doc_ids: Iterable[int],
        compiled: CompiledUpdate,
        *,
        maintenance: str = "delta",
        values: "dict[int, JSONValue] | None" = None,
    ) -> tuple[list[int], DeltaOps]:
        """Apply a compiled update program to the given documents.

        The engine under ``update_one``/``update_many``: documents are
        staged first (value application, index-entry deltas, model
        checks), validated against the collection schema if one is
        enforced -- a rejection raises
        :class:`~repro.errors.DocumentRejectedError` and leaves *every*
        document and index untouched -- and only then committed.

        ``maintenance`` selects the index strategy: ``"delta"`` (the
        default) retires/re-adds only the postings whose entry refcount
        crosses zero and defers the tree rebuild to the next read;
        ``"rebuild"`` drops and re-inserts the document's full posting
        set eagerly (the reference strategy the benchmark and the
        differential tests compare against).

        ``values`` optionally supplies already-materialised current
        values per document id (target selection just computed them),
        so no document is walked to a value twice in one write call.

        Returns the modified document ids (documents whose value
        actually changed) and the aggregated index
        :class:`~repro.store.indexes.DeltaOps`.
        """
        if maintenance not in ("delta", "rebuild"):
            raise StoreError(
                f"unknown maintenance strategy {maintenance!r} "
                "(expected 'delta' or 'rebuild')"
            )
        delta_mode = maintenance == "delta"
        staged: list[tuple[int, JSONValue, dict, JSONTree | None]] = []
        for doc_id in doc_ids:
            old_value = (
                values.get(doc_id) if values is not None else None
            )
            if old_value is None:
                old_value = self._peek_value(doc_id)
            new_value, mutations = compiled.apply(old_value)
            if not mutations:
                continue
            # The delta doubles as model validation of the replacement
            # subtrees (floats, bad keys), so staging fails before any
            # commit; in rebuild mode the eager tree build does both.
            if delta_mode:
                delta = mutation_delta(mutations, extended=self._extended)
                new_tree = None
            else:
                delta = {}
                new_tree = JSONTree.from_values(
                    [new_value],
                    extended=self._extended,
                    interned=self._interned,
                )[0]
            staged.append((doc_id, new_value, delta, new_tree))
        if self._validator is not None:
            for doc_id, new_value, _, _ in staged:
                if not self._validator.validate_value(
                    new_value, extended=self._extended
                ):
                    raise DocumentRejectedError(
                        doc_id,
                        f"update rejected: document {doc_id} would no "
                        "longer validate against the collection schema",
                    )
        if staged and self._engine.durable:
            # The WAL frame lands between validate and the in-memory
            # apply: post-images only, already schema-approved.
            self._engine.commit_update(
                [(doc_id, new_value) for doc_id, new_value, _, _ in staged]
            )
        ops = DeltaOps()
        summary = self._summary
        if summary is not None:
            for _, new_value, _, _ in staged:
                summary.observe_value(new_value)
        for doc_id, new_value, delta, new_tree in staged:
            if delta_mode:
                if self._indexes is not None:
                    self._indexes.apply_entry_delta(doc_id, delta, into=ops)
                self._dirty[doc_id] = new_value
            else:
                old_tree = self.get(doc_id)  # flushes any pending value
                if self._indexes is not None:
                    self._indexes.remove(doc_id, old_tree)
                    self._indexes.add(doc_id, new_tree)
                    counts = self._indexes.entry_counts(doc_id)
                    ops.merge(
                        DeltaOps(
                            entries_added=len(counts),
                            entries_removed=len(counts),
                            postings={"full-reinsert": 2 * len(counts)},
                        )
                    )
                self._trees[doc_id] = new_tree
        if staged:
            self._version += 1
            if self._engine.durable:
                self._engine.commit_applied()
        return [doc_id for doc_id, _, _, _ in staged], ops

    def update_one(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
    ):
        """MongoDB's ``db.collection.updateOne(filter, update)``."""
        from repro.mongo.update import update_one

        return update_one(self, filter_doc, update_doc, upsert=upsert)

    def update_many(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        upsert: bool = False,
        maintenance: str = "delta",
    ):
        """MongoDB's ``db.collection.updateMany(filter, update)``."""
        from repro.mongo.update import update_many

        return update_many(
            self,
            filter_doc,
            update_doc,
            upsert=upsert,
            maintenance=maintenance,
        )

    def replace_one(
        self,
        filter_doc: dict[str, Any],
        replacement: dict[str, Any],
        *,
        upsert: bool = False,
    ):
        """MongoDB's ``db.collection.replaceOne(filter, replacement)``."""
        from repro.mongo.update import replace_one

        return replace_one(self, filter_doc, replacement, upsert=upsert)

    def explain_update(
        self,
        filter_doc: dict[str, Any],
        update_doc: dict[str, Any],
        *,
        first_only: bool = False,
        hint: dict[str, Any] | None = None,
    ):
        """Dry-run report for :meth:`update_many` (or, with
        ``first_only``, :meth:`update_one`): pruned-vs-scanned targets
        and the index postings the delta would touch -- an
        :class:`~repro.explain.Explain` of ``kind="update"``.  Nothing
        is modified."""
        from repro.mongo.update import explain_update

        return explain_update(
            self,
            filter_doc,
            update_doc,
            first_only=first_only,
            no_semantic=_no_semantic(hint),
        )

    # ------------------------------------------------------------------
    # Querying (all routes go through the planner).
    # ------------------------------------------------------------------

    def find(
        self,
        filter_doc: dict[str, Any],
        projection: dict[str, Any] | None = None,
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[JSONValue]:
        """MongoDB's ``db.collection.find(filter, projection)``.

        ``hint={"no_semantic": True}`` skips the semantic optimizer for
        this one query (every read method accepts it).
        """
        return planner.find_documents(
            self,
            compile_mongo_find(filter_doc, projection),
            no_semantic=_no_semantic(hint),
        )

    def find_trees(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[JSONTree]:
        return planner.find_trees(
            self, compile_mongo_find(filter_doc), no_semantic=_no_semantic(hint)
        )

    def count(
        self,
        filter_doc: dict[str, Any],
        *,
        hint: dict[str, Any] | None = None,
    ) -> int:
        return planner.count_matches(
            self, compile_mongo_find(filter_doc), no_semantic=_no_semantic(hint)
        )

    def match_ids(
        self,
        query: "CompiledQuery | str",
        dialect: str = "jnl",
        *,
        hint: dict[str, Any] | None = None,
    ) -> list[int]:
        """Ids of documents matched by a compiled or textual query."""
        return planner.match_ids(
            self,
            self._as_query(query, dialect),
            no_semantic=_no_semantic(hint),
        )

    def select(
        self, query: "CompiledQuery | str", dialect: str = "jsonpath"
    ) -> list[tuple[int, list[JSONValue]]]:
        """Per-document selected values (one row per live document)."""
        return planner.select_values(self, self._as_query(query, dialect))

    def explain(
        self,
        query: "CompiledQuery | str | dict",
        dialect: str = "jsonpath",
        *,
        hint: dict[str, Any] | None = None,
    ) -> Explain:
        """Pruning report for a query (dicts compile as Mongo filters)."""
        if isinstance(query, dict):
            return planner.explain(
                self, compile_mongo_find(query), no_semantic=_no_semantic(hint)
            )
        return planner.explain(
            self,
            self._as_query(query, dialect),
            no_semantic=_no_semantic(hint),
        )

    def aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ) -> list[JSONValue]:
        """MongoDB's ``db.collection.aggregate(pipeline)``.

        The pipeline compiles once (cached process-wide); its leading
        ``$match`` run lowers into the logical-plan IR so the planner
        prunes candidates via the secondary indexes, and the downstream
        stages stream over the survivors.
        """
        # Lazy import: the Mongo front-end builds on the store.
        from repro.mongo.aggregate import compile_pipeline

        return compile_pipeline(pipeline).execute(
            self, no_semantic=_no_semantic(hint)
        )

    def explain_aggregate(
        self, pipeline: list, *, hint: dict[str, Any] | None = None
    ):
        """Stage-by-stage report (index-pruned vs streamed) for
        :meth:`aggregate` -- an :class:`~repro.explain.Explain` of
        ``kind="aggregate"``."""
        from repro.mongo.aggregate import compile_pipeline

        return compile_pipeline(pipeline).explain(
            self, no_semantic=_no_semantic(hint)
        )

    @staticmethod
    def _as_query(query: "CompiledQuery | str", dialect: str) -> CompiledQuery:
        if isinstance(query, CompiledQuery):
            return query
        return compile_query(query, dialect)

    def __repr__(self) -> str:
        enforced = ", schema-enforced" if self.schema_enforced else ""
        indexed = "indexed" if self._indexes is not None else "unindexed"
        return (
            f"Collection({self._alive} documents, {indexed}{enforced}, "
            f"v{self._version})"
        )

    # ------------------------------------------------------------------
    # Persistence (snapshots and the engine's maintenance surface).
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The collection as a versioned, JSON-able snapshot payload.

        Serialises every live document (pending updates flushed),
        preserving document ids and tombstones -- the durable engine's
        checkpoint format.  Snapshots hold documents only: index
        postings are a function of each tree, so every restore rebuilds
        them.  The payload carries ``format`` and ``version`` fields;
        :meth:`from_snapshot` (and the durable loader) refuse payloads
        they do not understand instead of misreading them.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "extended": self._extended,
            "next_id": len(self._trees),
            "ops": self._version,
            "docs": [
                [doc_id, tree.to_value()] for doc_id, tree in self.documents()
            ],
        }

    @classmethod
    def from_snapshot(
        cls,
        data: dict,
        *,
        engine: StorageEngine | None = None,
        validator: CompiledValidator | None = None,
        indexed: bool = True,
    ) -> "Collection":
        """Restore a collection from a :meth:`snapshot` payload.

        Validates the payload's format tag and version first (raising
        :class:`~repro.errors.StorageFormatError` on anything this
        build does not read), then materialises documents through a
        fresh intern table and rebuilds the index postings from the
        trees.  ``engine`` must be fresh (defaults to a new
        :class:`~repro.store.engine.MemoryEngine`).
        """
        snapshot = decode_snapshot(data)
        collection = cls(
            engine=engine if engine is not None else MemoryEngine(),
            validator=validator,
            extended=snapshot.extended,
            indexed=indexed,
        )
        collection._restore(snapshot)
        return collection

    def _restore(self, state: RecoveredState) -> None:
        """Load recovered state (engine bind / snapshot restore).

        Only valid on an empty collection; documents keep their ids
        (tombstoned slots stay ``None``), and every document's index
        postings are rebuilt from its tree.
        """
        if self._trees or self._dirty:
            raise StoreError(
                "cannot restore recovered state into a non-empty collection"
            )
        if state.extended != self._extended:
            raise StoreError(
                f"recovered state was written with extended="
                f"{state.extended}, collection opened with "
                f"extended={self._extended}"
            )
        values = [value for _, value in state.docs]
        trees = JSONTree.from_values(
            values, extended=self._extended, interned=self._interned
        )
        self._trees = [None] * state.next_id
        for (doc_id, _), tree in zip(state.docs, trees):
            self._trees[doc_id] = tree
            self._alive += 1
            if self._indexes is not None:
                self._indexes.add(doc_id, tree)
        self._version = state.version

    def compact(self):
        """Fold the engine's log into a fresh snapshot (checkpoint).

        Returns the engine's report (``None`` on a memory engine,
        a :class:`~repro.store.durable.CompactionReport` on a durable
        one).
        """
        return self._engine.checkpoint()

    def close(self) -> None:
        """Release the engine's resources; the collection stays
        readable (and writable, on a memory engine)."""
        self._engine.close()

    # ------------------------------------------------------------------
    # Serialisation helpers (the CLI's JSON-lines corpus format).
    # ------------------------------------------------------------------

    @classmethod
    def from_json_lines(
        cls, text: str, *, strict: bool = True, **kwargs: Any
    ) -> "Collection":
        """Build a collection from JSON-lines text (one doc per line).

        ``strict`` (the default) parses lines through
        :meth:`JSONTree.value_from_json` -- duplicate keys and floats
        rejected, like every other ingestion path; ``strict=False``
        falls back to plain ``json.loads``.  Either way the documents
        are materialised through the collection's shared intern table.
        """
        loads = JSONTree.value_from_json if strict else _json.loads
        documents = [
            loads(line)
            for line in text.splitlines()
            if line.strip()
        ]
        kwargs.setdefault("engine", MemoryEngine())
        return cls(documents, **kwargs)

