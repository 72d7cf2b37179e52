"""The schema-aware semantic optimizer: satisfiability-driven pruning.

The pass sits between IR extraction and physical planning.  A filter
query carries JNL conjuncts (a JNL text filter's own formula, split at
its top-level ``And``s; a Mongo filter's exact lowerings, ``None`` where
the fragment cannot express a conjunct); a collection that enforces a
schema -- or, schemaless, maintains an inferred structural summary
(:mod:`repro.store.summary`) -- exposes a :class:`SemanticContext` whose
``formula`` is a JSL premise every live document satisfies (Theorem 1
for schemas).  Translating the lowered conjuncts into JSL (Theorem 2,
:mod:`repro.translate.jnl_to_jsl`) turns planning questions into
satisfiability questions for the bounded solver of
:mod:`repro.jsl.satisfiability`:

* ``premise ^ lowered`` unsatisfiable  ==>  verdict ``"empty"``: no
  admissible document can match; answer ``[]``/``0`` without touching
  an index or materialising a document.  Sound with conjuncts missing,
  since the lowered conjunction is implied by the whole filter;
* ``premise ^ ~lowered`` unsatisfiable, every conjunct lowered  ==>
  verdict ``"all"``: every admissible document matches; skip index
  probing *and* per-document verification;
* otherwise, try each lowered conjunct: the entailed ones are
  discharged and only the **residual** -- the rest, unlowered ones
  included, recorded as conjunct positions -- is verified on index
  survivors (verdict ``"residual"``), by the query's own matcher
  narrowed to those positions (:meth:`CompiledQuery.narrow`);
* anything else -- including payloads outside Theorem 2's fragment,
  prover timeouts and plain unprovable queries -- is verdict
  ``"none"``: execution proceeds exactly as without this module.

Every verdict is memoised in the process-wide artifact cache under the
``"semantic-verdict"`` namespace, keyed on the context fingerprint
(schema text, or summary identity + revision) and the query's dialect +
source, so a hot query pays the prover once per schema generation.  A
per-query wall-clock budget plus the solver's own resource bounds make
the pass safe on adversarial schemas: an unfinished proof is recorded
as ``"none"`` with ``timed_out=True`` and execution falls through.

Soundness note: verdicts are only ever produced for collections whose
documents live in the non-``extended`` value universe (objects, arrays,
strings, naturals) -- exactly the model class of the JSL solver -- and
only from exact lowerings, never from the lossy sargable-predicate
layer, whose predicates are necessary but not sufficient conditions.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field
from time import perf_counter
from typing import Any

from repro.cache import USE_DEFAULT_CACHE, resolve_cache
from repro.errors import UnsupportedFragmentError
from repro.jnl import ast as jnl
from repro.jnl import builder as q
from repro.jsl.entailment import conjoin, negate, unsat
from repro.jsl.satisfiability import SolverConfig
from repro.query import ir
from repro.query.compiled import CompiledQuery, conjuncts_of
from repro.translate.jnl_to_jsl import jnl_to_jsl

__all__ = [
    "OPTIMIZE_MODES",
    "OptimizerConfig",
    "SemanticContext",
    "SemanticVerdict",
    "SemanticDecision",
    "semantic_plan",
    "describe_formula",
    "check_optimize_mode",
    "count_verify",
    "reset_verify_calls",
    "verify_calls",
]

OPTIMIZE_MODES = ("on", "off")


def check_optimize_mode(mode: str) -> str:
    """Validate an ``optimize=`` knob value (shared by every facade)."""
    if mode not in OPTIMIZE_MODES:
        from repro.errors import StoreError

        raise StoreError(
            f"optimize must be one of {', '.join(OPTIMIZE_MODES)}, "
            f"got {mode!r}"
        )
    return mode


# ---------------------------------------------------------------------------
# The verification-call counter (benchmark instrumentation).
#
# Incremented by the planner's candidate-and-verify loop at every
# per-document verification of a filter -- the work an
# ``"all"``/``"residual"`` verdict exists to eliminate.
# ---------------------------------------------------------------------------

VERIFY_CALLS = 0


def count_verify() -> None:
    global VERIFY_CALLS
    VERIFY_CALLS += 1


def reset_verify_calls() -> None:
    global VERIFY_CALLS
    VERIFY_CALLS = 0


def verify_calls() -> int:
    return VERIFY_CALLS


# ---------------------------------------------------------------------------
# Configuration and the context collections expose.
# ---------------------------------------------------------------------------


def _proof_solver() -> SolverConfig:
    """Solver bounds for optimizer proofs: tighter than the default
    satisfiability entry point, so a single obligation stays well under
    the per-query budget even on adversarial ``not``-heavy schemas."""
    return SolverConfig(
        max_rounds=48,
        dnf_limit=512,
        goal_limit=6000,
        int_scan_limit=2048,
        key_samples=16,
        max_children=10,
        max_demand=48,
    )


@dataclass(frozen=True)
class OptimizerConfig:
    """Resource bounds for one query's worth of proof obligations.

    ``budget_ms`` is a wall-clock deadline checked **between**
    obligations (each obligation is itself bounded by ``solver``): once
    exceeded, the remaining obligations are skipped and the verdict
    falls through as ``"none"``/partial-``"residual"`` with
    ``timed_out=True``.
    """

    budget_ms: float = 25.0
    solver: SolverConfig = field(default_factory=_proof_solver)


DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class SemanticContext:
    """What a collection tells the optimizer about its documents.

    ``formula`` is a JSL premise satisfied by **every live document**
    (and every document a snapshot of the collection can pin);
    ``source`` names where it came from (``"schema"``/``"summary"``);
    ``fingerprint`` is a hashable identity that changes whenever the
    premise does -- the verdict-cache key component.  A collection
    with ``optimize="off"`` never builds a context.
    """

    source: str
    fingerprint: tuple
    formula: Any


@dataclass(frozen=True)
class SemanticVerdict:
    """The (cacheable) outcome of the proof obligations for one query."""

    kind: str  # "empty" | "all" | "residual" | "none"
    source: str
    discharged: tuple[str, ...] = ()
    residual: str | None = None
    residual_positions: tuple[int, ...] = ()
    proof_ms: float = 0.0
    timed_out: bool = False


@dataclass(frozen=True)
class SemanticDecision:
    """A verdict for one query over one collection, always enforced:
    execution acts on ``verdict.kind``.  ``cached`` says whether the
    verdict came from the artifact cache rather than a fresh proof.
    """

    verdict: SemanticVerdict
    cached: bool

    def semantics_explain(self):
        from repro.explain import SemanticsExplain

        return SemanticsExplain(
            mode="on",
            verdict=self.verdict.kind,
            source=self.verdict.source,
            discharged=self.verdict.discharged,
            residual=self.verdict.residual,
            proof_ms=self.verdict.proof_ms,
            timed_out=self.verdict.timed_out,
            cached=self.cached,
        )


# ---------------------------------------------------------------------------
# Rendering JNL formulas for explain output.
# ---------------------------------------------------------------------------


def describe_formula(formula: jnl.Unary | jnl.Binary) -> str:
    """A compact, stable rendering of a JNL payload (paper notation)."""
    if isinstance(formula, jnl.Top):
        return "T"
    if isinstance(formula, jnl.Not):
        return f"~{describe_formula(formula.operand)}"
    if isinstance(formula, jnl.And):
        return (
            f"({describe_formula(formula.left)} ^ "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Or):
        return (
            f"({describe_formula(formula.left)} v "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Exists):
        return f"[{describe_formula(formula.path)}]"
    if isinstance(formula, jnl.EqDoc):
        return (
            f"EQ({describe_formula(formula.path)}, "
            f"{json.dumps(formula.doc.to_value(), separators=(',', ':'))})"
        )
    if isinstance(formula, jnl.EqPath):
        return (
            f"EQ({describe_formula(formula.left)}, "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Atom):
        return formula.test.describe()
    if isinstance(formula, jnl.Eps):
        return "eps"
    if isinstance(formula, jnl.Test):
        return f"<{describe_formula(formula.condition)}>"
    if isinstance(formula, jnl.Key):
        return f"X_{formula.word}"
    if isinstance(formula, jnl.Index):
        return f"X_{formula.position}"
    if isinstance(formula, jnl.KeyRegex):
        return f"X_{formula.lang.describe()}"
    if isinstance(formula, jnl.IndexRange):
        high = "inf" if formula.high is None else formula.high
        return f"X_{{{formula.low}:{high}}}"
    if isinstance(formula, jnl.Compose):
        return f"{describe_formula(formula.left)}.{describe_formula(formula.right)}"
    if isinstance(formula, jnl.Union):
        return (
            f"({describe_formula(formula.left)} u "
            f"{describe_formula(formula.right)})"
        )
    if isinstance(formula, jnl.Star):
        return f"({describe_formula(formula.inner)})*"
    return repr(formula)


# ---------------------------------------------------------------------------
# The proof obligations.
# ---------------------------------------------------------------------------


def _render_conjunction(texts: list[str]) -> str:
    """``describe_formula`` of the left-folded ``And`` of the parts."""
    rendered = texts[0]
    for text in texts[1:]:
        rendered = f"({rendered} ^ {text})"
    return rendered


def _prove(
    context: SemanticContext,
    parts: list[tuple[jnl.Unary | None, str | None]],
    config: OptimizerConfig,
) -> SemanticVerdict:
    """Run the obligation ladder for one query against one premise.

    ``parts`` are the query's top-level conjuncts as ``(exact JNL
    lowering or None, rendering of an unlowered one)``.
    """
    started = perf_counter()
    deadline = started + config.budget_ms / 1000.0

    def elapsed_ms() -> float:
        return (perf_counter() - started) * 1000.0

    def out_of_budget() -> bool:
        return perf_counter() >= deadline

    def nothing(timed_out: bool = False) -> SemanticVerdict:
        return SemanticVerdict(
            kind="none",
            source=context.source,
            proof_ms=elapsed_ms(),
            timed_out=timed_out,
        )

    lowered = [formula for formula, _ in parts if formula is not None]
    exact = len(lowered) == len(parts)
    if not lowered and not exact:
        return nothing()
    payload = q.conj(lowered)
    try:
        payload_jsl = jnl_to_jsl(payload)
    except UnsupportedFragmentError:
        return nothing()
    premise = context.formula
    timed_out = False

    # (a) unsat => empty (the lowered conjunction is implied by the query).
    proved, complete = unsat(conjoin(premise, payload_jsl), config.solver)
    timed_out = timed_out or not complete
    if proved:
        return SemanticVerdict(
            kind="empty",
            source=context.source,
            discharged=(describe_formula(payload),),
            proof_ms=elapsed_ms(),
        )
    if out_of_budget():
        return nothing(timed_out=True)

    # (b) implied => verify-free, only if the lowering is the whole query.
    if exact:
        proved, complete = unsat(
            conjoin(premise, negate(payload_jsl)), config.solver
        )
        timed_out = timed_out or not complete
        if proved:
            return SemanticVerdict(
                kind="all",
                source=context.source,
                discharged=(describe_formula(payload),),
                proof_ms=elapsed_ms(),
            )

    # (c) conjunct-wise: discharge the entailed parts, verify the rest.
    if len(parts) > 1:
        discharged: list[jnl.Unary] = []
        residual: list[int] = []
        for position, (conjunct, _) in enumerate(parts):
            if conjunct is None:
                residual.append(position)
                continue
            if out_of_budget():
                timed_out = True
                residual.extend(range(position, len(parts)))
                break
            try:
                conjunct_jsl = jnl_to_jsl(conjunct)
            except UnsupportedFragmentError:
                residual.append(position)
                continue
            proved, complete = unsat(
                conjoin(premise, negate(conjunct_jsl)), config.solver
            )
            timed_out = timed_out or not complete
            if proved:
                discharged.append(conjunct)
            else:
                residual.append(position)
        if discharged:
            names = tuple(describe_formula(part) for part in discharged)
            if not residual:
                return SemanticVerdict(
                    kind="all",
                    source=context.source,
                    discharged=names,
                    proof_ms=elapsed_ms(),
                    timed_out=timed_out,
                )
            texts = [
                text if formula is None else describe_formula(formula)
                for formula, text in (parts[position] for position in residual)
            ]
            return SemanticVerdict(
                kind="residual",
                source=context.source,
                discharged=names,
                residual=_render_conjunction(texts),
                residual_positions=tuple(residual),
                proof_ms=elapsed_ms(),
                timed_out=timed_out,
            )
    return nothing(timed_out)


# ---------------------------------------------------------------------------
# The entry point execution paths consult.
# ---------------------------------------------------------------------------


def semantic_plan(
    collection: Any,
    query: CompiledQuery | None,
    *,
    config: OptimizerConfig | None = None,
    cache: object = USE_DEFAULT_CACHE,
) -> SemanticDecision | None:
    """The semantic decision for one query over one collection.

    Returns ``None`` -- proceed exactly as before -- when the
    collection exposes no :class:`SemanticContext` (no schema/summary,
    ``optimize="off"``, extended values, a duck-typed source) or when
    the payload is not a filter formula.  Verdicts are memoised on
    ``(context fingerprint, dialect, source)`` in the process-wide
    artifact cache; ``cache=None`` forces a fresh proof.
    """
    if query is None:
        return None
    context = getattr(collection, "semantic_context", None)
    if context is None:
        return None
    plan = query.plan
    if plan.mode != ir.MODE_FILTER or plan.formula is None:
        return None
    config = config or DEFAULT_CONFIG
    resolved = resolve_cache(cache)
    computed = False

    def build() -> SemanticVerdict:
        nonlocal computed
        computed = True
        if query.conjuncts is not None:
            parts = [(part.formula, part.text) for part in query.conjuncts]
        else:
            parts = [(part, None) for part in conjuncts_of(plan.formula)]
        return _prove(context, parts, config)

    if resolved is None:
        verdict = build()
    else:
        key = (
            "semantic-verdict",
            context.fingerprint,
            query.dialect,
            query.source,
            config.budget_ms,
            astuple(config.solver),
        )
        verdict = resolved.get_or_compute(key, build)
    return SemanticDecision(verdict=verdict, cached=not computed)
