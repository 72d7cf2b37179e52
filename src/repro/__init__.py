"""repro: a reproduction of "JSON: data model, query languages and schema
specification" (Bourhis, Reutter, Suarez, Vrgoc; PODS 2017).

The package implements the paper's three formalisms and everything they
depend on:

* :mod:`repro.model` -- JSON trees, the formal data model (Section 3);
* :mod:`repro.jnl` -- JSON Navigational Logic: deterministic core plus
  non-determinism and recursion (Section 4);
* :mod:`repro.jsl` -- JSON Schema Logic with node tests, modalities and
  recursive definitions (Section 5);
* :mod:`repro.schema` -- the JSON Schema core fragment of Table 1, with
  Theorem-1 translations to and from JSL;
* :mod:`repro.translate` -- the Theorem-2 translations between JNL and JSL;
* :mod:`repro.automata` -- regex engine, key languages, J-automata;
* :mod:`repro.reductions` -- executable hardness reductions (Props 2/4/7/9);
* :mod:`repro.mongo`, :mod:`repro.jsonpath` -- the surveyed front-ends
  compiled onto JNL;
* :mod:`repro.query`, :mod:`repro.store` -- the compiled-query
  subsystem (shared logical-plan IR, planner) and the indexed document
  collections it serves;
* :mod:`repro.streaming` -- streaming validation (Section 6 outlook);
* :mod:`repro.workloads`, :mod:`repro.bench` -- generators and the
  benchmark harness.

Quickstart::

    from repro import JSONTree, Navigator, parse_jnl, evaluate_jnl

    doc = JSONTree.from_value({"name": {"first": "John"}, "age": 32})
    assert Navigator(doc)["name"]["first"].value() == "John"
    nodes = evaluate_jnl(doc, parse_jnl('has(.name/.first)'))
    assert doc.root in nodes
"""

from repro.errors import (
    DuplicateKeyError,
    ModelError,
    NavigationError,
    ParseError,
    ReproError,
    SchemaError,
    SolverLimitError,
    TranslationError,
    UnsupportedFragmentError,
    WellFormednessError,
)
from repro.model import (
    JSONTree,
    Kind,
    Navigator,
    TreeBuilder,
    fetch,
    navigate,
    subtree_equal,
    try_navigate,
)

__version__ = "1.10.0"

__all__ = [
    "JSONTree",
    "Kind",
    "Navigator",
    "TreeBuilder",
    "navigate",
    "try_navigate",
    "fetch",
    "subtree_equal",
    "ReproError",
    "ModelError",
    "DuplicateKeyError",
    "NavigationError",
    "ParseError",
    "SchemaError",
    "TranslationError",
    "UnsupportedFragmentError",
    "WellFormednessError",
    "SolverLimitError",
    "__version__",
    # Populated lazily below once the logic packages import cleanly.
    "parse_jnl",
    "evaluate_jnl",
    "parse_jsl",
    "evaluate_jsl",
    "CompiledQuery",
    "compile_query",
    "Collection",
    "Database",
    "connect",
    "CompiledValidator",
    "compile_schema_validator",
    "compile_jsl_validator",
    "validate_corpus",
]


def __getattr__(name: str):  # pragma: no cover - thin convenience shim
    """Lazily re-export the most used logic entry points.

    Importing them eagerly would make ``import repro`` pull in every
    subsystem; the lazy hook keeps startup light while preserving the
    convenient flat namespace used in the README examples.
    """
    if name == "parse_jnl":
        from repro.jnl.parser import parse_jnl

        return parse_jnl
    if name == "evaluate_jnl":
        from repro.jnl.efficient import evaluate_unary as evaluate_jnl

        return evaluate_jnl
    if name == "CompiledQuery":
        from repro.query import CompiledQuery

        return CompiledQuery
    if name == "compile_query":
        from repro.query import compile_query

        return compile_query
    if name == "Collection":
        from repro.store import Collection

        return Collection
    if name == "connect":
        from repro.api import connect

        return connect
    if name == "Database":
        from repro.store import Database

        return Database
    if name in (
        "CompiledValidator",
        "compile_schema_validator",
        "compile_jsl_validator",
        "validate_corpus",
    ):
        import repro.validate as _validate

        return getattr(_validate, name)
    if name == "parse_jsl":
        from repro.jsl.parser import parse_jsl

        return parse_jsl
    if name == "evaluate_jsl":
        from repro.jsl.evaluator import satisfies as evaluate_jsl

        return evaluate_jsl
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
