"""MongoDB ``find`` filters: one compiler, a kernel and a lowering.

The paper reads MongoDB's filter parameter (Section 4.1) as navigation
conditions ``P ~ J`` combined with booleans, and proposes JNL as the
logic capturing them.  That makes JNL the language to *reason* about a
filter in -- the sargable predicates of the logical plan and the premise
of the semantic prover -- but not the way to *evaluate* one.
:func:`compile_conjuncts` walks a filter document once and returns its
top-level conjuncts (``$and`` flattened), each carrying

* ``test`` -- a value-space closure.  The kernel: the only thing that
  decides whether a document matches, for ``find``, ``count``,
  ``explain``, every ``$match``, update targets, shards, the server and
  the CLI alike;
* ``formula`` -- its unary JNL lowering, emitted only when it is exact
  on the store's values and ``None`` otherwise (a float bound, a
  ``$regex`` outside the syntax KeyLang and Python's ``re`` read alike,
  a literal the J-tree model cannot hold).

:func:`compile_filter` is the paper's reading of a whole filter as one
JNL formula.  An invalid filter raises the same
:class:`~repro.errors.ParseError` from every entry point.

Supported operators: implicit equality, ``$eq``, ``$ne``, ``$gt``,
``$gte``, ``$lt``, ``$lte``, ``$in``, ``$nin``, ``$exists``, ``$type``,
``$size``, ``$regex`` (Python ``re.search`` semantics), ``$elemMatch``,
``$and``, ``$or``, ``$nor``, ``$not``.  Comparisons beyond equality
lower to the NodeTest-atom extension of JNL (Theorem 2's "atomic
predicates" point).  As in MongoDB, an equality against a scalar also
matches arrays *containing* the value.

Dotted paths navigate keys; an all-digit segment is an array index
(MongoDB would try both readings).  A navigated condition requires the
node to exist.
"""

from __future__ import annotations

import json
import operator
import re
from typing import Any, Callable, NamedTuple

from repro.automata.keylang import KeyLang
from repro.errors import ParseError, ReproError, UnsupportedFragmentError
from repro.jnl import ast as jnl
from repro.jnl import builder as q
from repro.logic import nodetests as nt
from repro.model.tree import JSONTree, JSONValue
from repro.query.stages import (
    MISSING,
    resolve_path,
    split_field_path,
    values_equal,
)
from repro.store.collection import Collection as _StoreCollection

__all__ = [
    "Conjunct",
    "compile_conjuncts",
    "compile_filter",
    "compile_operators",
    "Collection",
]

Test = Callable[[Any], bool]


class Conjunct(NamedTuple):
    """One top-level conjunct of a filter.

    ``test`` decides it on a document value; ``formula`` is its exact
    JNL lowering, or ``None``; ``text`` is its canonical JSON, which
    explain output shows where no formula exists.
    """

    test: Test
    formula: jnl.Unary | None
    text: str


# ---------------------------------------------------------------------------
# Operand checks and value-space semantics.
# ---------------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(operator: str, operand: Any) -> None:
    if not _is_number(operand):
        raise ParseError(f"{operator} takes a number, got {operand!r}")


def _require_int(operator: str, operand: Any) -> None:
    if isinstance(operand, bool) or not isinstance(operand, int):
        raise ParseError(f"{operator} takes an integer, got {operand!r}")


def _require_list(operator: str, operand: Any) -> list:
    if not isinstance(operand, list):
        raise ParseError(f"{operator} takes an array, got {operand!r}")
    return operand


def _is_operator_doc(value: Any) -> bool:
    return isinstance(value, dict) and value and all(
        isinstance(key, str) and key.startswith("$") for key in value
    )


def _eq_mongo(node: Any, operand: Any) -> bool:
    """MongoDB equality at a node: exact, or array-containment for
    scalar operands."""
    if values_equal(node, operand):
        return True
    if isinstance(operand, (dict, list)):
        return False
    return isinstance(node, list) and any(
        values_equal(element, operand) for element in node
    )


# ``$type`` operand -> (value check, NodeTest).
_TYPE_CHECKS: dict[str, tuple[Test, nt.NodeTest]] = {
    "object": (lambda node: isinstance(node, dict), nt.IsObject()),
    "array": (lambda node: isinstance(node, list), nt.IsArray()),
    "string": (lambda node: isinstance(node, str), nt.IsString()),
    "number": (_is_number, nt.IsNumber()),
    "int": (_is_number, nt.IsNumber()),
}

# Comparison operator -> (value comparison, NodeTest of an integer bound;
# the +-1 of the inclusive forms is exact on integers only).
_BOUNDS: dict[str, tuple[Callable, Callable[[int], nt.NodeTest]]] = {
    "$gt": (operator.gt, lambda bound: nt.MinVal(bound)),
    "$gte": (operator.ge, lambda bound: nt.MinVal(bound - 1)),
    "$lt": (operator.lt, lambda bound: nt.MaxVal(bound)),
    "$lte": (operator.le, lambda bound: nt.MaxVal(bound + 1)),
}


# ---------------------------------------------------------------------------
# The JNL lowering.
# ---------------------------------------------------------------------------


def _lower(build: Callable[[], jnl.Unary]) -> jnl.Unary | None:
    """``build()``, or ``None`` when the lowering fails (a float or
    boolean literal has no J-tree, a pattern no KeyLang form)."""
    try:
        return build()
    except (ReproError, TypeError, ValueError):
        return None


def _steps(segments: tuple[str, ...]) -> list[jnl.Binary]:
    return [
        jnl.Index(int(segment)) if segment.isdigit() else jnl.Key(segment)
        for segment in segments
    ]


def _scalar_eq(value: JSONValue) -> jnl.Unary:
    """Equality at the reached node, MongoDB-style.

    Matching a scalar also matches arrays containing it; matching an
    array/object is exact.
    """
    doc = JSONTree.from_value(value)
    exact = q.eq_doc(q.eps(), doc)
    if isinstance(value, (dict, list)):
        return exact
    contains = q.eq_doc(q.any_index_axis(), doc)
    return q.disj([exact, contains])


def _search_language(pattern: str) -> str | None:
    """A KeyLang regex whose full matches are exactly the strings in
    which ``re.search(pattern, ...)`` finds a match, or ``None``.

    Only syntax both engines read alike passes: literals, escaped
    punctuation, classes, groups, alternation and quantifiers.  ``.``
    becomes ``[^\\n]`` (Python's dot skips newlines); each top-level
    branch may carry its own anchors (``^a|b$`` means ``(^a)|(b$)``),
    and ``$`` also admits one trailing newline, as in Python.
    Alphanumeric escapes (``\\d``, ``\\b``, backreferences), inline
    flags such as ``(?i)``, lazy or possessive quantifiers and anchors
    anywhere else give ``None``.
    """
    branches: list[tuple[str, bool, bool]] = []
    body: list[str] = []
    start = end = False
    depth = 0
    position = 0
    size = len(pattern)
    while position <= size:
        char = pattern[position] if position < size else "|"
        if end and not (depth == 0 and char == "|"):
            return None  # a '$' that does not close its branch
        if char == "|" and depth == 0:
            branches.append(("".join(body), start, end))
            body, start, end = [], False, False
            position += 1
            continue
        token, step = char, 1
        if char == "\\":
            if position + 1 == size or pattern[position + 1].isalnum():
                return None
            token = pattern[position : position + 2]
            step = 2
        elif char == "[":
            close = position + 1
            close += pattern.startswith("^", close)
            close += pattern.startswith("]", close)
            while close < size and pattern[close] != "]":
                if pattern[close] == "\\":
                    if close + 1 == size or pattern[close + 1].isalnum():
                        return None
                    close += 1
                close += 1
            if close >= size:
                return None
            token = pattern[position : close + 1]
            step = len(token)
        elif char == "(":
            if pattern.startswith("?", position + 1):
                if not pattern.startswith("?:", position + 1):
                    return None
                token, step = "(?:", 3
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "^":
            if body or start or depth:
                return None
            start, token = True, ""
        elif char == "$":
            end, token = True, ""
        elif char == ".":
            token = "[^\\n]"
        elif char in "*+?{" and body and body[-1] in ("*", "+", "?", "}"):
            return None  # lazy or possessive: KeyLang reads a plain repeat
        body.append(token)
        position += step
    if depth:
        return None
    if not any(start or end for _, start, end in branches):
        return ".*(?:" + "|".join(text for text, _, _ in branches) + ").*"
    rendered = [
        ("" if start else ".*") + f"(?:{text})" + ("\\n?" if end else ".*")
        for text, start, end in branches
    ]
    if len(rendered) == 1:
        return rendered[0]
    return "|".join(f"(?:{text})" for text in rendered)


# ---------------------------------------------------------------------------
# The one compiler: every node yields (value test, lowering or None).
# ---------------------------------------------------------------------------

# A compiled node: ``(value test, exact lowering or None)``.
_Part = tuple


def _all(parts: list) -> _Part:
    """The conjunction of ``(test, formula, ...)`` parts."""
    tests = tuple(part[0] for part in parts)
    formulas = [part[1] for part in parts]
    formula = (
        None if any(f is None for f in formulas) else q.conj(formulas)
    )
    if len(tests) == 1:
        return tests[0], formula
    return (lambda value: all(test(value) for test in tests)), formula


def _any(parts: list) -> _Part:
    """The disjunction of ``(test, formula)`` parts."""
    tests = tuple(test for test, _ in parts)
    formulas = [formula for _, formula in parts]
    formula = (
        None if any(f is None for f in formulas) else q.disj(formulas)
    )
    return (lambda value: any(test(value) for test in tests)), formula


def _negate(part: _Part) -> _Part:
    test, formula = part
    return (lambda value: not test(value)), (
        None if formula is None else ~formula
    )


def _equality(operand: Any) -> _Part:
    return (lambda node: _eq_mongo(node, operand)), _lower(
        lambda: _scalar_eq(operand)
    )


def _regex(operand: Any) -> _Part:
    if not isinstance(operand, str):
        raise ParseError("$regex takes a string")
    try:
        search = re.compile(operand).search
    except re.error as exc:
        raise ParseError(f"invalid $regex pattern {operand!r}: {exc}") from exc
    language = _search_language(operand)
    formula = None if language is None else _lower(
        lambda: q.atom(nt.Pattern(KeyLang.regex(language)))
    )
    return (lambda node: isinstance(node, str) and search(node) is not None), formula


def _operator(op: str, operand: Any) -> _Part:
    """One node-level operator, e.g. ``("$gt", 3)``."""
    if op == "$eq":
        return _equality(operand)
    if op == "$ne":
        return _negate(_equality(operand))
    if op in _BOUNDS:
        _require_number(op, operand)
        compare, node_test = _BOUNDS[op]
        formula = q.atom(node_test(operand)) if isinstance(operand, int) else None
        return (
            lambda node: _is_number(node) and compare(node, operand)
        ), formula
    if op == "$in":
        return _any([_equality(item) for item in _require_list(op, operand)])
    if op == "$nin":
        return _negate(
            _any([_equality(item) for item in _require_list(op, operand)])
        )
    if op == "$type":
        entry = _TYPE_CHECKS.get(operand) if isinstance(operand, str) else None
        if entry is None:
            raise ParseError(f"unsupported $type operand {operand!r}")
        check, node_test = entry
        return check, q.atom(node_test)
    if op == "$size":
        _require_int(op, operand)
        formula = q.conj(
            [
                q.atom(nt.IsArray()),
                q.atom(nt.MinCh(operand)),
                q.atom(nt.MaxCh(operand)),
            ]
        )
        return (
            lambda node: isinstance(node, list) and len(node) == operand
        ), formula
    if op == "$regex":
        return _regex(operand)
    if op == "$elemMatch":
        if not isinstance(operand, dict):
            raise ParseError("$elemMatch takes a filter document")
        test, condition = (
            _operators(operand)
            if _is_operator_doc(operand)
            else _all(_filter_parts(operand))
        )
        formula = None if condition is None else q.has(
            q.compose(q.any_index_axis(), q.test(condition))
        )
        return (
            lambda node: isinstance(node, list)
            and any(test(element) for element in node)
        ), formula
    if op == "$not":
        if not isinstance(operand, dict):
            raise ParseError("$not takes an operator document")
        return _negate(_operators(operand))
    raise ParseError(f"unsupported operator {op!r}")


def _operators(spec: dict[str, Any]) -> _Part:
    """The conjunction of an operator document, at one node."""
    return _all([_operator(op, operand) for op, operand in spec.items()])


def _at(segments: tuple[str, ...], part: _Part) -> _Part:
    """A node-level condition at a dotted path, which must exist."""
    test, condition = part

    def at_path(value: Any) -> bool:
        node = resolve_path(value, segments)
        return node is not MISSING and test(node)

    formula = None if condition is None else q.has(
        q.compose(*_steps(segments), q.test(condition))
    )
    return at_path, formula


def _field_parts(key: str, spec: dict[str, Any]) -> list[tuple]:
    """A field's operator document: ``$exists`` and the rest are two
    conjuncts."""
    segments = split_field_path(key)
    parts = []
    exists = spec.get("$exists")
    if exists is not None:
        present = bool(exists)
        presence = q.has(q.compose(*_steps(segments)))
        parts.append(
            (
                lambda value: (resolve_path(value, segments) is not MISSING)
                == present,
                presence if present else ~presence,
                {key: {"$exists": exists}},
            )
        )
    rest = {op: operand for op, operand in spec.items() if op != "$exists"}
    if rest:
        parts.append(_at(segments, _operators(rest)) + ({key: rest},))
    return parts


def _filter_parts(filter_doc: Any) -> list[tuple]:
    """``(test, formula, filter fragment)`` per top-level conjunct.

    Keys are visited in sorted order: the compile cache keys a filter
    on its sorted JSON text, so a conjunct's position (what a residual
    verdict records) must not depend on key order.
    """
    if not isinstance(filter_doc, dict):
        raise ParseError("a find filter is a JSON object")
    parts: list[tuple] = []
    for key in sorted(filter_doc):
        spec = filter_doc[key]
        if key == "$and":
            for sub in _require_list(key, spec):
                parts.extend(_filter_parts(sub))
        elif key in ("$or", "$nor"):
            branches = _any(
                [_all(_filter_parts(sub)) for sub in _require_list(key, spec)]
            )
            if key == "$nor":
                branches = _negate(branches)
            parts.append(branches + ({key: spec},))
        elif key.startswith("$"):
            raise ParseError(f"unsupported top-level operator {key!r}")
        elif _is_operator_doc(spec):
            parts.extend(_field_parts(key, spec))
        else:
            parts.append(
                _at(split_field_path(key), _equality(spec)) + ({key: spec},)
            )
    return parts


def compile_conjuncts(filter_doc: Any) -> tuple[Conjunct, ...]:
    """A filter's top-level conjuncts: value test plus exact lowering."""
    return tuple(
        Conjunct(
            test,
            formula,
            json.dumps(
                fragment, sort_keys=True, separators=(",", ":"), default=repr
            ),
        )
        for test, formula, fragment in _filter_parts(filter_doc)
    )


def compile_operators(spec: dict[str, Any]) -> Test:
    """The value test of an operator document applied at one node (how
    ``$pull`` reads a condition such as ``{"$gte": 3}``)."""
    return _operators(spec)[0]


def compile_filter(filter_doc: dict[str, Any]) -> jnl.Unary:
    """A MongoDB ``find`` filter as one unary JNL formula.

    Raises :class:`~repro.errors.ParseError` for an invalid filter and
    :class:`~repro.errors.UnsupportedFragmentError` when some conjunct
    has no exact lowering.
    """
    formulas = []
    for conjunct in compile_conjuncts(filter_doc):
        if conjunct.formula is None:
            raise UnsupportedFragmentError(
                f"filter conjunct {conjunct.text} has no exact JNL lowering"
            )
        formulas.append(conjunct.formula)
    return q.conj(formulas)


class Collection(_StoreCollection):
    """A queryable collection of JSON documents (the Mongo-facing view).

    A thin alias of the indexed :class:`repro.store.Collection`, so
    Mongo-flavoured call sites read naturally: filters compile once
    (cached process-wide), the planner prunes candidates through the
    secondary indexes, and the compiled value tests decide each one.

    Acquire collections through :func:`repro.api.connect` or
    :func:`repro.api.collection`.

    >>> from repro import api
    >>> people = api.collection([{"name": "Sue"}, {"name": "Bob"}])
    >>> people.find({"name": {"$eq": "Sue"}})
    [{'name': 'Sue'}]
    """
