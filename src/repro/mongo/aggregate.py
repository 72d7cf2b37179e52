"""MongoDB-style aggregation pipelines, compiled and index-pruned.

The paper's MongoDB treatment stops at ``find``-style navigation;
production document-database traffic is dominated by multi-stage
*aggregation*, a composable stage algebra over whole collections.  This
module implements its practical core -- ``$match``, ``$project``,
``$unwind``, ``$group`` (with ``$sum``/``$count``/``$min``/``$max``/
``$avg``/``$push`` accumulators), ``$sort``, ``$skip``/``$limit`` and
``$count`` -- on top of the existing store/IR/planner stack:

* a pipeline compiles **once** into a :class:`CompiledPipeline`
  (registered in the process-wide artifact cache of :mod:`repro.cache`
  under the ``"mongo-aggregate"`` namespace, keyed on the canonical
  JSON text of the pipeline);
* the **leading run of ``$match`` stages** is merged into one find
  filter compiled through :func:`repro.query.compiled.
  compile_mongo_find`, and over a collection it runs through the
  planner's one candidate-and-verify loop
  (:class:`repro.query.planner.Scan`), exactly like ``find``: index
  pruning from the exact JNL lowerings, the semantic verdict, and the
  compiled value tests deciding every candidate;
* every **downstream stage** runs as a streaming generator
  (:mod:`repro.query.stages`) over the surviving documents -- nothing
  is materialised between stages except where ``$sort``/``$group``/
  ``$count`` inherently must.  A later ``$match`` is a filter stage
  over the same compiled value tests.

So every ``$match`` has one semantics (Botoeva et al.), whatever its
stage position: a filter with no exact lowering (a float bound, a
``$regex`` such as ``(?i)...``) compiles and runs identically -- a
leading one just scans instead of pruning, which the explain report
surfaces as ``"streamed"``.  :func:`naive_aggregate` is the reference
evaluator -- eager, list-at-a-time, no compilation, no pruning, its
``$match`` the per-call interpreter :func:`match_value` -- that the
differential tests pit the staged executor against.
"""

from __future__ import annotations

import heapq
import json
import re
from itertools import islice
from typing import Any, Iterable, Iterator

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.errors import ParseError
from repro.explain import Explain, ShardExplain, StageExplain
from repro.model.tree import JSONTree
from repro.mongo.find import (
    _TYPE_CHECKS,
    _eq_mongo,
    _is_number,
    _is_operator_doc,
    _require_int,
    _require_list,
    _require_number,
)
from repro.mongo.projection import Projection
from repro.query import optimizer, planner
from repro.query.compiled import CompiledQuery, compile_mongo_find
from repro.query.stages import (
    MISSING,
    ACCUMULATORS,
    CountStage,
    FilterStage,
    GroupStage,
    LimitStage,
    ProjectStage,
    SkipStage,
    SortStage,
    Stage,
    UnwindStage,
    compile_expr,
    canonical_group_key,
    composite_sort_key,
    resolve_path,
    run_stages,
    run_stages_ranked,
    set_path,
    sort_key,
    split_field_path,
)

__all__ = [
    "STAGE_OPS",
    "StageExplain",
    "ShardExplain",
    "CompiledPipeline",
    "compile_pipeline",
    "pipeline_cache_key",
    "parse_pipeline",
    "aggregate",
    "explain_pipeline",
    "partial_aggregate",
    "match_value",
    "naive_aggregate",
]

STAGE_OPS = (
    "$match",
    "$project",
    "$unwind",
    "$group",
    "$sort",
    "$skip",
    "$limit",
    "$count",
)

_DIALECT = "mongo-aggregate"


# ---------------------------------------------------------------------------
# The reference filter interpreter (naive evaluator and test oracle).
#
# Re-reads the filter document on every call and shares only the
# operand checks with repro.mongo.find, whose compiled value tests are
# what every execution path runs.
# ---------------------------------------------------------------------------


def _op_holds(operator: str, operand: Any, node: Any) -> bool:
    if operator == "$eq":
        return _eq_mongo(node, operand)
    if operator == "$ne":
        return not _eq_mongo(node, operand)
    if operator == "$gt":
        _require_number(operator, operand)
        return _is_number(node) and node > operand
    if operator == "$gte":
        _require_number(operator, operand)
        return _is_number(node) and node >= operand
    if operator == "$lt":
        _require_number(operator, operand)
        return _is_number(node) and node < operand
    if operator == "$lte":
        _require_number(operator, operand)
        return _is_number(node) and node <= operand
    if operator == "$in":
        _require_list(operator, operand)
        return any(_eq_mongo(node, item) for item in operand)
    if operator == "$nin":
        _require_list(operator, operand)
        return not any(_eq_mongo(node, item) for item in operand)
    if operator == "$type":
        entry = _TYPE_CHECKS.get(operand) if isinstance(operand, str) else None
        if entry is None:
            raise ParseError(f"unsupported $type operand {operand!r}")
        return entry[0](node)
    if operator == "$size":
        _require_int(operator, operand)
        return isinstance(node, list) and len(node) == operand
    if operator == "$regex":
        if not isinstance(operand, str):
            raise ParseError("$regex takes a string")
        return isinstance(node, str) and re.search(operand, node) is not None
    if operator == "$elemMatch":
        if not isinstance(operand, dict):
            raise ParseError("$elemMatch takes a filter document")
        if not isinstance(node, list):
            return False
        if _is_operator_doc(operand):
            return any(
                all(_op_holds(op, arg, element) for op, arg in operand.items())
                for element in node
            )
        return any(match_value(operand, element) for element in node)
    if operator == "$not":
        if not isinstance(operand, dict):
            raise ParseError("$not takes an operator document")
        return not all(
            _op_holds(op, arg, node) for op, arg in operand.items()
        )
    raise ParseError(f"unsupported operator {operator!r}")


def _match_field(value: Any, path: str, spec: dict[str, Any]) -> bool:
    node = resolve_path(value, split_field_path(path))
    exists_flag = spec.get("$exists")
    rest = {op: arg for op, arg in spec.items() if op != "$exists"}
    if exists_flag is not None and bool(exists_flag) != (node is not MISSING):
        return False
    if rest:
        if node is MISSING:
            return False
        return all(_op_holds(op, arg, node) for op, arg in rest.items())
    return True


def match_value(filter_doc: dict[str, Any], value: Any) -> bool:
    """Evaluate a ``find`` filter directly on a Python JSON value.

    The per-call reference interpreter of the filter semantics that
    :func:`repro.mongo.find.compile_conjuncts` compiles (same operator
    subset, same one-node path semantics), used by the naive reference
    evaluator the differential tests compare against.
    """
    if not isinstance(filter_doc, dict):
        raise ParseError("a find filter is a JSON object")
    for key, spec in filter_doc.items():
        if key == "$and":
            _require_list(key, spec)
            if not all(match_value(sub, value) for sub in spec):
                return False
        elif key == "$or":
            _require_list(key, spec)
            if not any(match_value(sub, value) for sub in spec):
                return False
        elif key == "$nor":
            _require_list(key, spec)
            if any(match_value(sub, value) for sub in spec):
                return False
        elif key.startswith("$"):
            raise ParseError(f"unsupported top-level operator {key!r}")
        elif _is_operator_doc(spec):
            if not _match_field(value, key, spec):
                return False
        else:
            node = resolve_path(value, split_field_path(key))
            if not _eq_mongo(node, spec):
                return False
    return True


# ---------------------------------------------------------------------------
# Pipeline parsing and stage construction.
# ---------------------------------------------------------------------------


def parse_pipeline(pipeline: Any) -> tuple[tuple[str, Any], ...]:
    """Normalise a pipeline into ``(op, spec)`` pairs, shape-checked."""
    if not isinstance(pipeline, list):
        raise ParseError("a pipeline is a JSON array of stage documents")
    parsed: list[tuple[str, Any]] = []
    for position, stage in enumerate(pipeline):
        if not isinstance(stage, dict) or len(stage) != 1:
            raise ParseError(
                f"stage {position} must be a single-operator document, "
                f"got {stage!r}"
            )
        ((op, spec),) = stage.items()
        if op not in STAGE_OPS:
            raise ParseError(
                f"unsupported pipeline stage {op!r} "
                f"(supported: {', '.join(STAGE_OPS)})"
            )
        parsed.append((op, spec))
    return tuple(parsed)


def _group_field_name(name: Any) -> str:
    if (
        not isinstance(name, str)
        or not name
        or name.startswith("$")
        or "." in name
    ):
        raise ParseError(f"invalid $group output field {name!r}")
    return name


def _build_group(spec: Any) -> GroupStage:
    if not isinstance(spec, dict) or "_id" not in spec:
        raise ParseError("$group takes a document with an _id expression")
    fields = []
    for name, accumulator_spec in spec.items():
        if name == "_id":
            continue
        _group_field_name(name)
        if not isinstance(accumulator_spec, dict) or len(accumulator_spec) != 1:
            raise ParseError(
                f"$group field {name!r} takes one accumulator, "
                f"got {accumulator_spec!r}"
            )
        ((accumulator, operand),) = accumulator_spec.items()
        factory = ACCUMULATORS.get(accumulator)
        if factory is None:
            raise ParseError(
                f"unsupported accumulator {accumulator!r} "
                f"(supported: {', '.join(sorted(ACCUMULATORS))})"
            )
        if accumulator == "$count":
            if operand != {}:
                raise ParseError("$count (accumulator) takes {}")
            expr = compile_expr(None)
        else:
            expr = compile_expr(operand)
        fields.append((name, factory, expr))
    return GroupStage(compile_expr(spec["_id"]), tuple(fields))


def _sort_spec_keys(spec: Any) -> list[tuple[tuple[str, ...], int]]:
    """Validated ``(path segments, 1|-1)`` pairs of a ``$sort`` spec
    (shared by the staged executor and the naive reference, so both
    reject invalid specs identically)."""
    if not isinstance(spec, dict) or not spec:
        raise ParseError("$sort takes a non-empty document of path: 1|-1")
    keys = []
    for path, direction in spec.items():
        if direction not in (1, -1) or isinstance(direction, bool):
            raise ParseError(
                f"$sort direction for {path!r} must be 1 or -1, "
                f"got {direction!r}"
            )
        keys.append((split_field_path(path), direction))
    return keys


def _skip_count(spec: Any) -> int:
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 0:
        raise ParseError(f"$skip takes a non-negative integer, got {spec!r}")
    return spec


def _limit_count(spec: Any) -> int:
    if isinstance(spec, bool) or not isinstance(spec, int) or spec < 1:
        raise ParseError(f"$limit takes a positive integer, got {spec!r}")
    return spec


def _count_field(spec: Any) -> str:
    if not isinstance(spec, str) or not spec or spec.startswith("$") or "." in spec:
        raise ParseError(f"$count takes an output field name, got {spec!r}")
    return spec


def _unwind_segments(spec: Any) -> tuple[str, ...]:
    if isinstance(spec, dict):
        spec = spec.get("path")
    if not isinstance(spec, str) or not spec.startswith("$"):
        raise ParseError(
            f'$unwind takes a "$path" string (or {{"path": "$path"}}), '
            f"got {spec!r}"
        )
    return split_field_path(spec[1:])


def _build_stage(op: str, spec: Any) -> Stage:
    """Validate one non-leading stage spec and build its executor."""
    if op == "$match":
        return FilterStage(compile_mongo_find(spec).matches)
    if op == "$project":
        return ProjectStage(Projection(spec).apply_value)
    if op == "$unwind":
        return UnwindStage(_unwind_segments(spec))
    if op == "$group":
        return _build_group(spec)
    if op == "$sort":
        return SortStage(
            tuple(
                (segments, direction == -1)
                for segments, direction in _sort_spec_keys(spec)
            )
        )
    if op == "$skip":
        return SkipStage(_skip_count(spec))
    if op == "$limit":
        return LimitStage(_limit_count(spec))
    if op == "$count":
        return CountStage(_count_field(spec))
    raise ParseError(f"unsupported pipeline stage {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# The compiled pipeline.
# ---------------------------------------------------------------------------


def _window_bound(stages: tuple[Stage, ...]) -> int | None:
    """How many input rows the leading ``$skip``/``$limit`` run of
    ``stages`` can consume, or ``None`` when unbounded.

    The composed window over input-stream indices: sound as a per-shard
    truncation bound because the global first ``bound`` rows are always
    a subset of the union of each shard's local first ``bound`` rows.
    """
    start = 0
    stop: int | None = None
    for stage in stages:
        if isinstance(stage, SkipStage):
            start += stage.count
        elif isinstance(stage, LimitStage):
            bound = start + stage.count
            stop = bound if stop is None else min(stop, bound)
        else:
            break
    return stop


class CompiledPipeline:
    """An executable aggregation plan, reusable across collections.

    ``lead_query`` is the merged leading-``$match`` run compiled as a
    Mongo find filter (``None`` when the pipeline does not start with a
    match): over a collection it runs through the planner's
    :class:`~repro.query.planner.Scan` exactly like ``find`` -- index
    pruning, semantic verdict, compiled value tests.  ``stages`` are
    the downstream physical stages, run as a generator chain over the
    survivors.  No evaluation state lives on the compiled object, so
    one pipeline can be shared freely across collections and
    mutations.

    Compilation also fixes the pipeline's **shard decomposition** (the
    commuting-stages split of the Botoeva et al. formalisation): the
    maximal prefix of per-row stages after the leading match commutes
    with any partition of the input and runs map-side
    (``shard_map_count``), and the first blocking stage picks the
    coordinator's ``merge_strategy`` -- ``$group`` ships mergeable
    partial accumulator states (``"group-merge"``), ``$sort`` ships
    locally sorted runs for a k-way heap merge (``"sort-merge"``,
    truncated per shard to ``local_limit`` rows when a following
    ``$skip``/``$limit`` window bounds what the merge can consume),
    ``$count`` ships plain counts (``"count-sum"``), and anything else
    streams rank-ordered rows (``"stream"``).
    """

    __slots__ = (
        "source",
        "pipeline",
        "lead_filter",
        "lead_count",
        "lead_query",
        "stages",
        "shard_map_count",
        "merge_strategy",
        "local_limit",
    )

    def __init__(self, pipeline: list[Any]) -> None:
        self.source = pipeline_cache_key(pipeline)
        self.pipeline = pipeline
        parsed = parse_pipeline(pipeline)
        lead: list[dict[str, Any]] = []
        split = 0
        for op, spec in parsed:
            if op != "$match":
                break
            if not isinstance(spec, dict):
                raise ParseError("$match takes a filter document")
            lead.append(spec)
            split += 1
        self.lead_count = split
        self.lead_filter: dict[str, Any] | None = None
        self.lead_query: CompiledQuery | None = None
        if lead:
            self.lead_filter = lead[0] if len(lead) == 1 else {"$and": lead}
            self.lead_query = compile_mongo_find(self.lead_filter)
        self.stages: tuple[Stage, ...] = tuple(
            _build_stage(op, spec) for op, spec in parsed[split:]
        )
        count = 0
        while count < len(self.stages) and isinstance(
            self.stages[count], (FilterStage, ProjectStage, UnwindStage)
        ):
            count += 1
        self.shard_map_count = count
        self.local_limit: int | None = None
        boundary = self.stages[count] if count < len(self.stages) else None
        if isinstance(boundary, GroupStage):
            self.merge_strategy = "group-merge"
        elif isinstance(boundary, SortStage):
            self.merge_strategy = "sort-merge"
            self.local_limit = _window_bound(self.stages[count + 1 :])
        elif isinstance(boundary, CountStage):
            self.merge_strategy = "count-sum"
        else:
            self.merge_strategy = "stream"
            self.local_limit = _window_bound(self.stages[count:])

    # ------------------------------------------------------------------

    def _scan(
        self, collection: Any, *, verdict: "str | None" = None
    ) -> planner.Scan:
        """The leading match over a store collection: the planner's one
        candidate-and-verify loop (see :class:`~repro.query.planner.Scan`
        for ``verdict``)."""
        return planner.Scan(collection, self.lead_query, verdict=verdict)

    def _rows(self, source: Any) -> tuple[Iterator[Any], tuple[Stage, ...]]:
        """The input rows and the stages to run over them.

        A store collection feeds the leading match's survivors.  Bare
        trees/values have no indexes: they materialise first and the
        leading match runs as a plain filter stage, with the same value
        tests as every other path.
        """
        if hasattr(source, "documents") and hasattr(source, "indexes"):
            scan = self._scan(source)
            return (value for _, value in scan), self.stages
        rows = (
            item.to_value() if isinstance(item, JSONTree) else item
            for item in source
        )
        if self.lead_query is None:
            return rows, self.stages
        return rows, (FilterStage(self.lead_query.matches),) + self.stages

    def _scatter_payload(
        self, source: Any
    ) -> "tuple[optimizer.SemanticDecision | None, dict[str, Any]]":
        """The coordinator's decision and the scatter envelope.

        The coordinator proves once (against the fleet-wide schema, when
        there is one) and the shards inherit: ``"semantic"`` carries an
        enforced ``"empty"``/``"all"`` verdict, or ``None`` to let each
        shard consult its own summary (an ``optimize="off"`` shard has
        none).
        """
        decision = optimizer.semantic_plan(source, self.lead_query)
        kind = "none" if decision is None else decision.verdict.kind
        semantic = kind if kind in ("empty", "all") else None
        return decision, {"pipeline": self.pipeline, "semantic": semantic}

    def execute(self, source: Any) -> list[Any]:
        """Run the pipeline over a collection (index-pruned), a sharded
        collection (scatter-gather) or an iterable of trees/values
        (streamed), returning the result rows."""
        scatter = getattr(source, "scatter_partial_aggregate", None)
        if scatter is not None:
            _, payload = self._scatter_payload(source)
            if payload["semantic"] == "empty":  # proved: no scatter
                return self.merge_partials([])
            return self.merge_partials(scatter(payload))
        return list(self.stream(source))

    def stream(self, source: Any) -> Iterator[Any]:
        """Lazy variant of :meth:`execute` (one generator per stage)."""
        rows, stages = self._rows(source)
        return run_stages(stages, rows)

    # ------------------------------------------------------------------
    # Scatter-gather execution (one partial per shard, merged here).
    # ------------------------------------------------------------------

    def execute_partial(
        self, collection: Any, *, verdict: "str | None" = None
    ) -> dict[str, Any]:
        """The map-side share of this pipeline over one shard.

        Runs the leading match (index-pruned as usual) plus the per-row
        stage prefix, then folds into the merge strategy's partial form.
        Everything in the returned dict is picklable -- rows are plain
        JSON values tagged with ``(doc_id, seq)`` ranks, group tables
        carry exported accumulator partials -- so it can cross a worker
        process boundary to :meth:`merge_partials` unchanged.

        ``verdict`` is the coordinator's inherited semantic verdict
        (``"empty"``/``"all"``: enforce without re-proving; ``None``:
        decide locally against this shard's own context).
        """
        scan = self._scan(collection, verdict=verdict)
        if scan.kind in ("empty", "all"):
            scanned = 0
        else:
            scanned = scan.total if scan.candidates is None else scan.candidates
        ranked = run_stages_ranked(
            self.stages[: self.shard_map_count], iter(scan)
        )
        strategy = self.merge_strategy
        data: Any
        if strategy == "group-merge":
            group = self.stages[self.shard_map_count]
            data = group.fold_partial(ranked)
            returned = len(data)
        elif strategy == "sort-merge":
            sort = self.stages[self.shard_map_count]
            run = sorted(ranked, key=composite_sort_key(sort.keys))
            if self.local_limit is not None:
                del run[self.local_limit :]
            data = run
            returned = len(run)
        elif strategy == "count-sum":
            data = sum(1 for _ in ranked)
            returned = 1 if data else 0
        else:  # "stream"
            if self.local_limit is not None:
                ranked = islice(ranked, self.local_limit)
            data = list(ranked)
            returned = len(data)
        return {
            "strategy": strategy,
            "total": scan.total,
            "candidates": scan.candidates,
            "scanned": scanned,
            "matched": scan.matched,
            "returned": returned,
            "data": data,
        }

    def merge_partials(self, partials: list[dict[str, Any]]) -> list[Any]:
        """The reduce-side share: merge per-shard partials, finalise,
        and run the coordinator's stage suffix."""
        split = self.shard_map_count
        strategy = self.merge_strategy
        rows: Iterator[Any]
        if strategy == "group-merge":
            group = self.stages[split]
            rows = group.merge_partial(part["data"] for part in partials)
            rest = self.stages[split + 1 :]
        elif strategy == "sort-merge":
            sort = self.stages[split]
            merged = heapq.merge(
                *(part["data"] for part in partials),
                key=composite_sort_key(sort.keys),
            )
            rows = (row for _, row in merged)
            rest = self.stages[split + 1 :]
        elif strategy == "count-sum":
            count_stage = self.stages[split]
            count = sum(part["data"] for part in partials)
            rows = iter([{count_stage.field: count}] if count else [])
            rest = self.stages[split + 1 :]
        else:  # "stream": ranks are globally unique, so plain tuple
            # comparison on (rank, row) pairs never reaches the rows.
            merged = heapq.merge(*(part["data"] for part in partials))
            rows = (row for _, row in merged)
            rest = self.stages[split:]
        return list(run_stages(rest, rows))

    def explain(self, collection: Any) -> Explain:
        """Run over an indexed collection, reporting what was pruned
        by indexes versus streamed (the find explain's aggregation
        sibling), including the semantic optimizer's verdict."""
        scatter = getattr(collection, "scatter_partial_aggregate", None)
        if scatter is not None:
            decision, payload = self._scatter_payload(collection)
            return self._explain_sharded(
                scatter(payload),
                None if decision is None else decision.semantics_explain(),
            )
        scan = self._scan(collection)
        survivors = (value for _, value in scan)
        results = sum(1 for _ in run_stages(self.stages, survivors))
        # An early-exiting stage ($limit) stops pulling; finish the
        # matched count over the untouched survivors.
        for _ in survivors:
            pass
        lead_mode = "index-pruned" if scan.candidates is not None else "streamed"
        reports = [StageExplain("$match", lead_mode)] * self.lead_count
        reports.extend(
            StageExplain(stage.op, "materialised" if stage.blocking else "streamed")
            for stage in self.stages
        )
        return Explain(
            kind="aggregate",
            dialect=_DIALECT,
            source=self.source,
            total=scan.total,
            candidates=scan.candidates,
            scanned=scan.scanned,
            matched=scan.matched,
            results=results,
            stages=tuple(reports),
            semantics=scan.semantics(),
        )

    def _explain_sharded(
        self,
        partials: list[dict[str, Any]],
        semantics: Any = None,
    ) -> Explain:
        """Fold per-shard partial reports into one fleet explain."""
        results = len(self.merge_partials(partials))
        shard_reports = tuple(
            ShardExplain(
                shard=index,
                total=part["total"],
                candidates=part["candidates"],
                scanned=part["scanned"],
                matched=part["matched"],
                returned=part["returned"],
            )
            for index, part in enumerate(partials)
        )
        pruning = [part["candidates"] for part in partials]
        candidates = (
            None if any(c is None for c in pruning) else sum(pruning)
        )
        split = self.shard_map_count
        lead_mode = "index-pruned" if candidates is not None else "streamed"
        reports = [StageExplain("$match", lead_mode)] * self.lead_count
        reports.extend(
            StageExplain(stage.op, "map-side") for stage in self.stages[:split]
        )
        rest = split
        if self.merge_strategy != "stream":
            reports.append(StageExplain(self.stages[split].op, "merged"))
            rest = split + 1
        reports.extend(
            StageExplain(
                stage.op, "materialised" if stage.blocking else "streamed"
            )
            for stage in self.stages[rest:]
        )
        return Explain(
            kind="aggregate",
            dialect=_DIALECT,
            source=self.source,
            total=sum(part["total"] for part in partials),
            candidates=candidates,
            scanned=sum(part["scanned"] for part in partials),
            matched=sum(part["matched"] for part in partials),
            results=results,
            stages=tuple(reports),
            shards=shard_reports,
            merge=self.merge_strategy,
            semantics=semantics,
        )

    def __repr__(self) -> str:
        source = self.source if len(self.source) <= 40 else self.source[:37] + "..."
        return f"CompiledPipeline({source!r})"


# ---------------------------------------------------------------------------
# Cached entry points.
# ---------------------------------------------------------------------------


def pipeline_cache_key(pipeline: Any) -> str:
    """Canonical JSON text of a pipeline, the compile-cache key.

    Key order is **not** canonicalised away: it is semantically
    significant in ``$sort`` (precedence) and fixes the output field
    order of ``$project``/``$group``, and Python dicts preserve JSON
    document order -- so the plain dump is already canonical
    per-pipeline, while sorting keys would collide e.g.
    ``{"$sort": {"a": 1, "b": 1}}`` with ``{"$sort": {"b": 1, "a": 1}}``
    and serve one pipeline the other's plan.
    """
    return json.dumps(pipeline, separators=(",", ":"), default=repr)


def compile_pipeline(
    pipeline: list[Any], *, cache: object = USE_DEFAULT_CACHE
) -> CompiledPipeline:
    """Compile an aggregation pipeline, through the artifact cache.

    Keyed on the canonical JSON text in the ``"mongo-aggregate"``
    namespace of the process-wide artifact cache, alongside query plans
    and validators.  Pass ``cache=None`` to force a fresh compilation.
    """
    resolved = resolve_cache(cache)
    if resolved is None:
        return CompiledPipeline(pipeline)
    key = (_DIALECT, pipeline_cache_key(pipeline))
    return resolved.get_or_compute(key, lambda: CompiledPipeline(pipeline))


def aggregate(source: Any, pipeline: list[Any]) -> list[Any]:
    """Run an aggregation pipeline over a collection or tree/value
    iterable (the module-level convenience entry point)."""
    return compile_pipeline(pipeline).execute(source)


def explain_pipeline(collection: Any, pipeline: list[Any]) -> Explain:
    """The staged executor's report for ``pipeline`` over ``collection``."""
    return compile_pipeline(pipeline).explain(collection)


def partial_aggregate(
    collection: Any, payload: "list[Any] | dict[str, Any]"
) -> dict[str, Any]:
    """One shard's picklable partial result for an aggregation.

    The map-side entry point sharded execution fans out (in a worker
    process or in-line): compiles through the process-wide artifact
    cache -- each worker pays compilation once per distinct pipeline --
    and returns what :meth:`CompiledPipeline.merge_partials` consumes.

    ``payload`` is either a bare pipeline (each shard makes its own
    semantic decision) or the coordinator's scatter envelope
    ``{"pipeline": [...], "semantic": verdict}`` (see
    :meth:`CompiledPipeline.execute_partial`).
    """
    if isinstance(payload, dict):
        pipeline = payload["pipeline"]
        verdict = payload.get("semantic")
    else:
        pipeline = payload
        verdict = None
    return compile_pipeline(pipeline).execute_partial(
        collection, verdict=verdict
    )


# ---------------------------------------------------------------------------
# The naive reference evaluator (differential-test oracle).
# ---------------------------------------------------------------------------


def _naive_group(spec: dict[str, Any], rows: list[Any]) -> list[Any]:
    """Independent $group semantics: collect per-group value lists,
    then apply each accumulator to the list (no streaming fold)."""
    id_expr = compile_expr(spec["_id"])
    names = [name for name in spec if name != "_id"]
    table: dict[Any, tuple[Any, list[list[Any]]]] = {}
    order: list[Any] = []
    for row in rows:
        id_value = id_expr(row)
        if id_value is MISSING:
            id_value = None
        key = canonical_group_key(id_value)
        if key not in table:
            table[key] = (id_value, [[] for _ in names])
            order.append(key)
        collected = table[key][1]
        for slot, name in enumerate(names):
            ((accumulator, operand),) = spec[name].items()
            value = None if accumulator == "$count" else compile_expr(operand)(row)
            collected[slot].append(value)
    results = []
    for key in order:
        id_value, collected = table[key]
        out = {"_id": id_value}
        for slot, name in enumerate(names):
            ((accumulator, _),) = spec[name].items()
            out[name] = _naive_accumulate(accumulator, collected[slot])
        results.append(out)
    return results


def _naive_accumulate(accumulator: str, values: list[Any]) -> Any:
    present = [value for value in values if value is not MISSING]
    numbers = [value for value in present if _is_number(value)]
    if accumulator == "$sum":
        return sum(numbers)
    if accumulator == "$avg":
        return sum(numbers) / len(numbers) if numbers else None
    if accumulator == "$min":
        return min(present, key=sort_key) if present else None
    if accumulator == "$max":
        return max(present, key=sort_key) if present else None
    if accumulator == "$push":
        return present
    if accumulator == "$count":
        return len(values)
    raise ParseError(f"unsupported accumulator {accumulator!r}")


def _naive_sort(spec: dict[str, Any], rows: list[Any]) -> list[Any]:
    """Independent $sort semantics: one comparator over all keys."""
    import functools

    keys = _sort_spec_keys(spec)

    def compare(left: Any, right: Any) -> int:
        for segments, direction in keys:
            left_key = sort_key(resolve_path(left, segments))
            right_key = sort_key(resolve_path(right, segments))
            if left_key < right_key:
                return -direction
            if left_key > right_key:
                return direction
        return 0

    return sorted(rows, key=functools.cmp_to_key(compare))


def _naive_unwind(spec: Any, rows: list[Any]) -> list[Any]:
    segments = _unwind_segments(spec)
    out: list[Any] = []
    for row in rows:
        value = resolve_path(row, segments)
        if value is MISSING or value is None:
            continue
        if not isinstance(value, list):
            out.append(row)
        else:
            out.extend(set_path(row, segments, element) for element in value)
    return out


def naive_aggregate(documents: Iterable[Any], pipeline: list[Any]) -> list[Any]:
    """Reference pipeline evaluation: eager, per-document, no indexes.

    Accepts trees or plain values; every ``$match`` -- leading or not --
    runs through the value-space :func:`match_value`, every stage
    materialises a full list.  Deliberately shares only the *semantic*
    kernels (path resolution, expressions, the sort order) with the
    staged executor, so the differential tests exercise the compiled
    leading-match path, the index pruning and the streaming machinery
    against an independent implementation.
    """
    rows = [
        doc.to_value() if isinstance(doc, JSONTree) else doc
        for doc in documents
    ]
    for op, spec in parse_pipeline(pipeline):
        if op == "$match":
            rows = [row for row in rows if match_value(spec, row)]
        elif op == "$project":
            projection = Projection(spec)
            rows = [projection.apply_value(row) for row in rows]
        elif op == "$unwind":
            rows = _naive_unwind(spec, rows)
        elif op == "$group":
            if not isinstance(spec, dict) or "_id" not in spec:
                raise ParseError("$group takes a document with an _id expression")
            rows = _naive_group(spec, rows)
        elif op == "$sort":
            rows = _naive_sort(spec, rows)
        elif op == "$skip":
            rows = rows[_skip_count(spec) :]
        elif op == "$limit":
            rows = rows[: _limit_count(spec)]
        else:  # $count
            field = _count_field(spec)
            rows = [{field: len(rows)}] if rows else []
    return rows
