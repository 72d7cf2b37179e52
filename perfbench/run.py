"""The repo benchmark: three closed-loop workloads over ``repro.api``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

Each workload is one client with zero think time running a seeded op
sequence (``workloads.Mix``); every answer is checked against the
benchmark's own reference model and a mismatch exits with status 1.
Human-readable lines give every end-to-end metric that applies to the
workload with its unit and sample count; the last line is one JSON
object (``correct``/``attempted``/``failed``/``metrics``).

``--trace 0`` reports the end-to-end metrics and installs nothing.
``--trace 1`` runs the workload twice from the same seed, for half the
time each: untraced, then with the wrappers of ``tracing.py`` installed,
and reports the per-layer metrics plus ``trace_overhead`` (1 - traced
over untraced ``ops_per_s``).  Spans are written to
``.bench_build/perfbench/``.  ``metrics.json`` defines every metric.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tracing import (
    Tracer,
    install_client,
    install_library,
    layer_of,
    self_times,
    write_spans,
)
from workloads import (
    AnswerMismatch,
    Mix,
    Op,
    READS,
    WRITES,
    Reference,
    corpus,
    hot_pools,
    run_op,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"

SETUPS = 5  # set-ups per untraced run; setup_s is their median
LOAD_BATCH = 1000
clock = time.perf_counter_ns


@functools.cache
def metrics() -> dict:
    """``metrics.json`` completed from ``BENCHMARK.json``.

    ``BENCHMARK.json`` declares the gated end-to-end metrics and the
    per-layer metrics (name, unit, better); ``metrics.json`` adds what
    it cannot hold: meanings, workloads, predictions and the end-to-end
    metrics that are printed but not gated.  The result maps
    ``end_to_end`` and ``per_layer`` names to one dict each, in
    declaration order, with ``gated`` set on the end-to-end ones.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    gated = {entry["name"]: entry for entry in bench["end_to_end"]}
    spec["end_to_end"] = {
        name: {**entry, **gated.get(name, {}), "gated": name in gated}
        for name, entry in spec["end_to_end"].items()
    }
    spec["per_layer"] = {
        entry["name"]: {**spec["per_layer"][entry["name"]], **entry}
        for entry in bench["per_layer"]
    }
    return spec


def canonical_bytes(value: Any) -> int:
    return len(json.dumps(value, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False).encode("utf-8"))


@dataclass
class Sample:
    kind: str
    latency_ns: int
    results: int
    ok: bool


@dataclass
class Phase:
    """What one set-up plus measured phase produced."""

    setup_s: list[float]
    samples: list[Sample] = field(default_factory=list)
    before: dict[str, float] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)
    user_bytes: int = 0
    rebuilds: int = 0
    window_s: float = 0.0

    @property
    def ops_per_s(self) -> float:
        """Ops completed per second of the measured phase.

        The phase ends when the op running at the deadline completes.
        A fixed window would make write_durable's throughput step by a
        whole checkpoint cycle (about 200 ops) with whether the deadline
        fell inside a multi-second checkpoint stall.
        """
        return sum(s.ok for s in self.samples) / self.window_s


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Workload:
    """One workload's corpus, mix and target lifecycle."""

    name = ""
    docs = 0
    weights: dict[str, int] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer: Tracer | None = None
        self.watch = None  # the tracer's SummaryWatch, in a traced phase

    def pools(self, reference: Reference) -> dict[str, list[Op]]:
        raise NotImplementedError

    def mix(self, reference: Reference, pools: dict[str, list[Op]]) -> Mix:
        return Mix(self.seed, self.name, self.weights, reference, pools)

    def open(self, documents: list[dict]) -> Any:
        """Load ``documents`` into a fresh target (timed as set-up)."""
        raise NotImplementedError

    def counters(self, target: Any) -> dict[str, float]:
        """Process-side counters read around the measured phase."""
        from repro.cache import artifact_cache_stats
        from repro.query import optimizer

        cache = artifact_cache_stats()
        return {
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "verify_calls": optimizer.verify_calls(),
        }

    def finish(self, phase: Phase, reference: Reference, first: Op) -> None:
        """After the measured phase (recovery, space, memory)."""
        phase.extras["peak_rss_mb"] = own_peak_rss_mb()

    def close(self) -> None:
        """Release the target (and everything it holds on disk)."""


class ReadHot(Workload):
    name = "read_hot"
    docs = 20_000
    weights = {"find_point": 11, "find_select": 4, "count_range": 3,
               "aggregate": 2}

    def pools(self, reference):
        return hot_pools(self.seed, reference, points=32, selects=24,
                         ranges=12, aggregates=12)

    def open(self, documents):
        from repro import api

        return api.collection(documents)


class WriteDurable(Workload):
    name = "write_durable"
    docs = 3_000
    weights = {"insert": 3, "update_one": 3, "update_many": 1, "find_point": 7}
    compact_threshold = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.path = OUT / f"{self.name}-{os.getpid()}"
        self.db = None

    def pools(self, reference):
        # Only the set-up query is pooled: in the measured phase every
        # find and update names a uniformly random id, so almost every
        # query text is new.
        return {"find_point": hot_pools(self.seed, reference, points=1,
                                        selects=0)["find_point"]}

    def mix(self, reference, pools):
        return Mix(self.seed, self.name, self.weights, reference)

    def _connect(self):
        from repro import api

        io = None
        if self.tracer is not None:
            from tracing import timing_io

            io = timing_io(self.tracer)
        self.db = api.connect(str(self.path), sync="fsync",
                              compact_threshold=self.compact_threshold, io=io)
        return self.db.collection("people")

    def open(self, documents):
        shutil.rmtree(self.path, ignore_errors=True)
        collection = self._connect()
        for start in range(0, len(documents), LOAD_BATCH):
            collection.insert_many(documents[start:start + LOAD_BATCH])
        return collection

    def finish(self, phase, reference, first):
        on_disk = sum(entry.stat().st_size for entry in self.path.iterdir()
                      if entry.is_file())
        live = sum(canonical_bytes(doc) for doc in reference.docs.values())
        phase.extras["space_amp"] = on_disk / live
        self.db.close()
        self.db = None
        gc.collect()
        call = first.call()
        started = time.perf_counter()
        collection = self._connect()
        got = run_op(collection, call)
        phase.extras["recovery_s"] = time.perf_counter() - started
        reference.check(first, got, reference.answer(first))
        reference.check_contents(collection.find({}))
        super().finish(phase, reference, first)

    def close(self):
        if self.db is not None:
            self.db.close()
            self.db = None
        shutil.rmtree(self.path, ignore_errors=True)


class RemoteMix(Workload):
    name = "remote_mix"
    docs = 10_000
    weights = {"find_point": 8, "find_select": 5, "insert": 4,
               "update_one": 3}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server: ServerProcess | None = None
        self.client = None
        self.server_spans: list[tuple] = []
        self.marks: list[dict] = []

    def pools(self, reference):
        return hot_pools(self.seed, reference, points=64, selects=24)

    def mix(self, reference, pools):
        ids = [op.params[0] for op in pools["find_point"]]
        return Mix(self.seed, self.name, self.weights, reference, pools,
                   update_pool=ids)

    def open(self, documents):
        from repro import api

        trace = self.tracer is not None
        self.server = ServerProcess(trace, OUT / f"server-{os.getpid()}.json")
        host, port = self.server.address
        self.client = api.connect(f"tcp://{host}:{port}")
        collection = self.client.collection("people")
        for start in range(0, len(documents), LOAD_BATCH):
            collection.insert_many(documents[start:start + LOAD_BATCH])
        return collection

    def counters(self, target):
        stats = self.client.stats()["metrics"]
        return {
            "snapshot_pins": stats["snapshot_pins"],
            "reads": stats["reads"],
            "group_commits": stats["group_commits"],
            "batched_writes": stats["batched_writes"],
        }

    def finish(self, phase, reference, first):
        phase.extras["peak_rss_mb"] = self.server.peak_rss_mb()

    def close(self):
        if self.server is None:
            return
        try:
            if self.client is not None:
                self.client.shutdown()
                self.client.close()
        finally:
            self.client = None
            data = self.server.stop()
            self.server = None
        if data is not None:
            self.server_spans = [tuple(span) for span in data["spans"]]
            self.marks = data["marks"]


WORKLOADS = {cls.name: cls for cls in (ReadHot, WriteDurable, RemoteMix)}


class ServerProcess:
    """A ``repro serve`` subprocess over memory on an ephemeral port.

    Untraced it is the command itself (``python -m repro serve``);
    traced it is ``serve.py``, which installs the wrappers and then runs
    the same command in-process.
    """

    def __init__(self, trace: bool, out: Path) -> None:
        self.out = out
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.exists():
            out.unlink()
        if trace:
            argv = [sys.executable, str(HERE / "serve.py"), "--out", str(out)]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE)
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.proc.stdout, selectors.EVENT_READ)
                if not selector.select(timeout=60):
                    raise RuntimeError("server did not announce its address")
            line = self.proc.stdout.readline().decode()
            match = re.search(r" on (\S+):(\d+)$", line.strip())
            if match is None:
                raise RuntimeError(f"unexpected server banner {line!r}")
        except BaseException:
            self.kill()
            raise
        self.address = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> dict | None:
        """Wait for the server to exit; its trace file, if it wrote one."""
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        if self.out.exists():
            data = json.loads(self.out.read_text(encoding="utf-8"))
            self.out.unlink()
            return data
        return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# One phase: set-up(s), warm-up, measured loop, finish.
# ---------------------------------------------------------------------------


def run_phase(workload: Workload, seconds: float, setups: int) -> Phase:
    from repro.cache import clear_artifact_cache

    phase = Phase(setup_s=[])
    reference = Reference(corpus(workload.seed, workload.docs))
    pools = workload.pools(reference)
    first = pools["find_point"][0]
    expected = reference.answer(first)
    first_call = first.call()
    try:
        for _ in range(setups):
            workload.close()
            documents = corpus(workload.seed, workload.docs)
            target = None
            clear_artifact_cache()
            gc.collect()
            started = time.perf_counter()
            target = workload.open(documents)
            got = run_op(target, first_call)
            phase.setup_s.append(time.perf_counter() - started)
            reference.check(first, got, expected)
            del documents
        mix = workload.mix(reference, pools)
        for op in mix.warmup():
            reference.check(op, run_op(target, op.call()), reference.answer(op))
        phase.before = workload.counters(target)
        measure(phase, workload, target, mix, reference, seconds)
        phase.after = workload.counters(target)
        tracer = workload.tracer
        if tracer is not None:
            tracer.op = len(phase.samples) + 1
        target = None
        workload.finish(phase, reference, first)
    finally:
        workload.close()
    return phase


def measure(phase: Phase, workload: Workload, target: Any, mix: Mix,
            reference: Reference, seconds: float) -> None:
    tracer = workload.tracer
    pending = getattr(target, "pending_updates", None) is not None
    static = not any(kind in WRITES for kind in workload.weights)
    memo: dict[Op, Any] = {}
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    ended = begin
    samples = phase.samples
    while clock() < deadline:
        op = next(mix)
        expected = None
        if op.is_read:
            expected = memo.get(op) if static else None
            if expected is None:
                expected = reference.answer(op)
                if static:
                    memo[op] = expected
        call = op.call()
        if tracer is not None:
            tracer.op = len(samples) + 1
            if pending and op.is_read:
                before = target.pending_updates
            if not op.is_read:
                phase.user_bytes += canonical_bytes(call[1])
        started = clock()
        try:
            got = run_op(target, call)
        except Exception:  # noqa: BLE001 - a raised op is a failed op
            ended = clock()
            samples.append(Sample(op.kind, ended - started, 0, False))
            continue
        ended = clock()
        elapsed = ended - started
        if tracer is not None and pending and op.is_read:
            phase.rebuilds += max(0, before - target.pending_updates)
        if not op.is_read:
            expected = reference.apply(op)
        results = reference.check(op, got, expected)
        samples.append(Sample(op.kind, elapsed, results, True))
    phase.window_s = (ended - begin) / 1e9


# ---------------------------------------------------------------------------
# End-to-end metrics.
# ---------------------------------------------------------------------------


def percentile(values: list[float], share: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload: Workload, phase: Phase) -> tuple[dict, list[str]]:
    """Every end-to-end metric of the workload, and a line per metric."""
    applies = metrics()["end_to_end"]
    values: dict[str, float] = {}
    notes: dict[str, str] = {}

    def latencies(kinds) -> list[float]:
        return [s.latency_ns / 1e6 for s in phase.samples if s.ok and s.kind in kinds]

    values["setup_s"] = statistics.median(phase.setup_s)
    notes["setup_s"] = f"median of {len(phase.setup_s)} set-ups"
    values["ops_per_s"] = phase.ops_per_s
    notes["ops_per_s"] = (f"n={sum(s.ok for s in phase.samples)} ops in "
                          f"{phase.window_s:.2f} s, "
                          f"{workload.docs} docs at start")
    failed = sum(not s.ok for s in phase.samples)
    values["failed_frac"] = failed / len(phase.samples)
    notes["failed_frac"] = f"{failed}/{len(phase.samples)}"
    for kind in ("find_point", "find_select", "count_range", "aggregate",
                 "insert", "update_one", "update_many"):
        name = f"{kind}_p50_ms"
        if workload.name in applies[name]["workloads"]:
            sample = latencies((kind,))
            values[name] = statistics.median(sample)
            notes[name] = f"n={len(sample)}"
    for name, share, kinds in (
        ("read_p95_ms", 0.95, READS),
        ("read_p99_ms", 0.99, READS),
        ("write_p99_ms", 0.99, WRITES),
    ):
        if workload.name in applies[name]["workloads"]:
            sample = latencies(kinds)
            values[name], beyond = percentile(sample, share)
            notes[name] = f"n={len(sample)}, {beyond} beyond"
    if "recovery_s" in phase.extras:
        values["recovery_s"] = phase.extras["recovery_s"]
        notes["recovery_s"] = "one reopen"
        values["space_amp"] = phase.extras["space_amp"]
        notes["space_amp"] = "WAL + snapshot bytes / canonical JSON bytes"
    values["peak_rss_mb"] = phase.extras["peak_rss_mb"]
    notes["peak_rss_mb"] = ("server process" if workload.name == "remote_mix"
                            else "benchmark process")
    lines = [
        f"{name:<20} {values[name]:>12.4f} {applies[name]['unit']:<6} ({notes[name]})"
        for name in applies if name in values
    ]
    return values, lines


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------


def merge_server_spans(client: list[tuple], server: list[tuple]) -> list[tuple]:
    """One span list: server spans nest under the client request that
    caused them and take its benchmark op id.

    The benchmark uses one connection, so the server's k-th request is
    the client's k-th ``client.request`` span.
    """
    requests = [i for i, span in enumerate(client) if span[0] == "client.request"]
    offset = len(client)
    merged = list(client)
    for name, start, end, parent, request, value in server:
        caller = requests[request - 1] if 1 <= request <= len(requests) else -1
        op = client[caller][4] if caller >= 0 else -1
        parent = parent + offset if parent >= 0 else caller
        merged.append((name, start, end, parent, op, value))
    return merged


def layer_metrics(workload: Workload, phase: Phase, untraced_ops_per_s: float,
                  spans: list[tuple]) -> tuple[dict, list[str]]:
    measured = range(1, len(phase.samples) + 1)
    ops = len(phase.samples)
    own = self_times(spans)
    by_name: dict[str, dict[str, float]] = {}
    by_layer: dict[str, float] = {}
    top_level_ns = 0
    every = {"model.tree.from_values": [0, 0], "store.indexes.add": [0, 0]}
    replayed = []
    for index, (name, start, end, parent, op, value) in enumerate(spans):
        if name in every:
            every[name][0] += own[index]
            every[name][1] += value if value >= 0 else 1
        if name == "store.durable.replay" and op > ops:
            replayed.append(value)
        if op not in measured:
            continue
        entry = by_name.setdefault(name, {"self": 0, "total": 0, "calls": 0,
                                          "value": 0})
        entry["self"] += own[index]
        entry["total"] += end - start
        entry["calls"] += 1
        entry["value"] += max(value, 0)
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0) + own[index]
        if parent < 0:
            top_level_ns += end - start

    def get(name: str, key: str) -> float:
        return by_name.get(name, {}).get(key, 0)

    def per_op_ms(*names: str) -> float:
        return sum(get(name, "self") for name in names) / ops / 1e6

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def delta(key: str) -> float:
        return phase.after.get(key, 0) - phase.before.get(key, 0)

    results = sum(s.results for s in phase.samples)
    writes = sum(1 for s in phase.samples if s.kind in WRITES)
    fsync_count = get("store.wal.fsync", "calls")
    hits, misses = delta("cache_hits"), delta("cache_misses")
    latency_ns = sum(s.latency_ns for s in phase.samples)
    values = {
        "model.tree.build_us_per_doc": ratio(*every["model.tree.from_values"]) / 1e3,
        "model.tree.to_value_ms": per_op_ms("model.tree.to_value"),
        "query.compiled.compile_ms": per_op_ms("query.compiled.compile"),
        "cache.hit_rate": ratio(hits, hits + misses),
        "cache.evictions": delta("cache_evictions") / ops,
        "query.optimizer.prove_ms": per_op_ms("query.optimizer.semantic_plan"),
        "query.optimizer.proofs": get("query.optimizer.semantic_plan", "value") / ops,
        "query.optimizer.verify_calls": delta("verify_calls") / ops,
        "store.summary.revisions": phase.extras.get("revisions", 0) / ops,
        "query.planner.fold_ms": per_op_ms("query.planner.candidate_ids"),
        "query.planner.candidates_per_result": ratio(
            get("query.planner.candidate_ids", "value"), results),
        "store.collection.scan_ms": per_op_ms("store.collection.documents"),
        "store.collection.docs_walked_per_result": ratio(
            get("store.collection.documents", "value"), results),
        "store.collection.rebuilds": phase.rebuilds / ops,
        "query.compiled.matches_ms": per_op_ms("query.compiled.matches"),
        "query.compiled.match_yield": ratio(get("query.compiled.matches", "value"),
                                            get("query.compiled.matches", "calls")),
        "mongo.aggregate.execute_self_ms": per_op_ms("mongo.aggregate.execute"),
        "mongo.update.apply_ms": per_op_ms("mongo.update.apply"),
        "store.indexes.add_us_per_doc": ratio(*every["store.indexes.add"]) / 1e3,
        "store.indexes.delta_ms": per_op_ms("store.indexes.delta"),
        "store.wal.fsyncs_per_write": ratio(fsync_count, writes),
        "store.wal.fsync_ms": ratio(get("store.wal.fsync", "total"),
                                    fsync_count) / 1e6,
        "store.wal.bytes_per_user_byte": ratio(get("store.wal.write", "value"),
                                               phase.user_bytes),
        "store.durable.checkpoints": get("store.durable.checkpoint", "calls") / ops,
        "store.durable.checkpoint_ms": ratio(
            get("store.durable.checkpoint", "total"),
            get("store.durable.checkpoint", "calls")) / 1e6,
        "store.durable.replay_records": statistics.mean(replayed) if replayed else 0,
        "client.request_ms": get("client.request", "total") / ops / 1e6,
        "client.wire_ms": per_op_ms("client.request"),
        "server.snapshot_pins_per_read": ratio(delta("snapshot_pins"), delta("reads")),
        "server.group_commit_size": ratio(delta("batched_writes"),
                                          delta("group_commits")),
        "runtime.gc_ms": per_op_ms("runtime.gc"),
        "runtime.gc_gen2_count": sum(
            1 for name, _, _, _, op, value in spans
            if name == "runtime.gc" and value == 2 and op in measured) / ops,
    }
    for layer in metrics()["layers"]:
        values[f"{layer}.self_ms"] = by_layer.get(layer, 0) / ops / 1e6
    values["unattributed_ms"] = (latency_ns - top_level_ns) / ops / 1e6
    values["trace_overhead"] = 1 - phase.ops_per_s / untraced_ops_per_s
    units = {name: entry["unit"] for name, entry in metrics()["per_layer"].items()}
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with BENCHMARK.json: {missing}")
    lines = [f"{name:<42} {values[name]:>12.4f} {units[name]}" for name in units]
    lines.append(f"(n={ops} traced ops in {phase.window_s:.2f} s, "
                 f"{phase.ops_per_s:.2f} ops/s traced vs "
                 f"{untraced_ops_per_s:.2f} untraced)")
    return values, lines


def traced_spans(workload: Workload, phase: Phase) -> list[tuple]:
    """The spans of the traced phase, server spans merged in."""
    client = workload.tracer.spans()
    if not isinstance(workload, RemoteMix):
        phase.extras["revisions"] = sum(
            count for op, count in workload.watch.revisions.items()
            if 1 <= op <= len(phase.samples))
        return client
    before, after = workload.marks[-2], workload.marks[-1]
    requests = [span[4] for span in client if span[0] == "client.request"]
    measured = {k + 1 for k, op in enumerate(requests)
                if 1 <= op <= len(phase.samples)}
    for key in ("cache_hits", "cache_misses", "cache_evictions",
                "verify_calls", "rebuilds"):
        phase.before[key], phase.after[key] = before[key], after[key]
    phase.rebuilds = after["rebuilds"] - before["rebuilds"]
    phase.extras["revisions"] = sum(
        count for request, count in after["revisions"].items()
        if int(request) in measured)
    return merge_server_spans(client, workload.server_spans)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", type=int, default=None,
                        help="initial corpus size (default: the workload's)")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload](args.seed)
    if args.docs is not None:
        workload.docs = args.docs
    print(f"workload={workload.name} seed={args.seed} docs={workload.docs} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    if not args.trace:
        phase = run_phase(workload, args.seconds, SETUPS)
        values, lines = end_to_end(workload, phase)
        specs = metrics()["end_to_end"]
        gated = [name for name, spec in specs.items() if spec["gated"]]
        units = {name: specs[name]["unit"] for name in gated}
    else:
        untraced = run_phase(workload, args.seconds / 2, 1)
        tracer = workload.tracer = Tracer()
        workload.watch = install_library(tracer)
        if isinstance(workload, RemoteMix):
            install_client(tracer)
        tracer.trace_gc()
        phase = run_phase(workload, args.seconds / 2, 1)
        tracer.unpatch()
        spans = traced_spans(workload, phase)
        write_spans(str(OUT / f"trace-{workload.name}-{args.seed}.jsonl"), spans)
        values, lines = layer_metrics(workload, phase, untraced.ops_per_s, spans)
        gated = list(values)
        units = {name: entry["unit"] for name, entry in metrics()["per_layer"].items()}
    for line in lines:
        print(line)
    return {
        "correct": True,
        "attempted": len(phase.samples),
        "failed": sum(not s.ok for s in phase.samples),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in gated},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args)
    except AnswerMismatch as exc:
        print(f"perfbench: answer mismatch: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
