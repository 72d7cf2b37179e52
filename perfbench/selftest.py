"""Self-test of the benchmark at a tiny size.

Checks that

* every end-to-end metric is printed with its unit on each workload it
  applies to, and the JSON result carries exactly the metrics
  ``BENCHMARK.json`` lists, with their units;
* the reference model rejects a deliberately altered answer of every
  op kind and a reopened collection that lost a document;
* a traced run reports exactly the per-layer metrics of
  ``BENCHMARK.json`` and its spans name only the layers of
  ``metrics.json``.

Units come from ``BENCHMARK.json`` for the gated and per-layer metrics
and from ``metrics.json`` for the rest (see ``run.metrics``).

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout
(about a minute).  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

from run import metrics
from tracing import layer_of, read_spans
from workloads import AnswerMismatch, Op, Reference, corpus, hot_pools, person

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--docs", "300", "--seconds", "1.5"]


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return bench, metrics()


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_end_to_end(workload: str, bench: dict, spec: dict) -> None:
    lines, result = run(workload, 0)
    if not result["correct"] or result["attempted"] < 1 or result["failed"]:
        fail(f"{workload}: unexpected result header {result}")
    printed = {line.split()[0]: line.split()[2] for line in lines[1:]}
    for name, entry in spec["end_to_end"].items():
        applies = workload in entry["workloads"]
        if applies and printed.get(name) != entry["unit"]:
            fail(f"{workload}: {name} not printed with unit {entry['unit']}")
        if not applies and name in printed:
            fail(f"{workload}: {name} printed but does not apply")
    for line in lines[1:]:
        if "(" not in line:
            fail(f"{workload}: no sample count on line {line!r}")
    expected = {entry["name"]: entry["unit"] for entry in bench["end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        fail(f"{workload}: JSON metrics {got} != BENCHMARK.json {expected}")
    for name, metric in result["metrics"].items():
        if not metric["value"] > 0:
            fail(f"{workload}: {name} = {metric['value']} is not positive")


def check_traced(workload: str, bench: dict, spec: dict) -> None:
    _, result = run(workload, 1)
    expected = {entry["name"]: entry["unit"] for entry in bench["per_layer"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        fail(f"{workload}: traced metrics differ from BENCHMARK.json: "
             f"{set(got) ^ set(expected)}")
    spans = read_spans(str(ROOT / ".bench_build" / "perfbench"
                           / f"trace-{workload}-7.jsonl"))
    layers = {layer_of(span[0]) for span in spans}
    unknown = layers - set(spec["layers"])
    if unknown:
        fail(f"{workload}: spans name layers missing from metrics.json: {unknown}")
    for name in expected:
        if name.endswith(".self_ms") and name[:-len(".self_ms")] not in spec["layers"]:
            fail(f"{name} is not the self time of a layer in metrics.json")


def altered(op: Op, answer):
    """A wrong answer of the same shape as ``answer``."""
    if op.kind in ("find_point", "find_select"):
        wrong = copy.deepcopy(answer)
        wrong[0]["age"] += 1
        return wrong
    if op.kind == "count_range":
        return answer + 1
    if op.kind == "aggregate":
        wrong = copy.deepcopy(answer)
        wrong[0]["age_sum"] += 1
        return wrong
    raise ValueError(op.kind)


def check_reference() -> None:
    documents = corpus(3, 200)
    reference = Reference(documents)
    pools = hot_pools(3, reference, points=4, selects=40, ranges=4, aggregates=4)
    for kind, pool in pools.items():
        op = next((op for op in pool if reference.answer(op)), None)
        if op is None:
            fail(f"no {kind} op with a non-empty answer to alter")
        answer = reference.answer(op)
        reference.check(op, copy.deepcopy(answer), answer)
        try:
            reference.check(op, altered(op, answer), answer)
        except AnswerMismatch:
            continue
        fail(f"reference accepted an altered {kind} answer")
    rng = random.Random(4)
    writes = [
        (Op("update_one", (5,)), {"matched": 1, "modified": 0}),
        (Op("update_many", (10, "00000")), {"matched": 49, "modified": 50}),
        (Op("insert", tuple(person(reference.next_id + i, rng) for i in range(2))),
         [0]),
    ]
    for op, wrong in writes:
        expected = reference.apply(op)
        try:
            reference.check(op, wrong, expected)
        except AnswerMismatch:
            continue
        fail(f"reference accepted an altered {op.kind} result")
    contents = [copy.deepcopy(reference.docs[i]) for i in sorted(reference.docs)]
    reference.check_contents(copy.deepcopy(contents))
    try:
        reference.check_contents(contents[1:])
    except AnswerMismatch:
        return
    fail("reference accepted a reopened collection missing a document")


def main() -> int:
    bench, spec = load()
    check_reference()
    for entry in bench["workloads"]:
        workload = entry["name"]
        check_end_to_end(workload, bench, spec)
        check_traced(workload, bench, spec)
        print(f"selftest: {workload} ok", flush=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
