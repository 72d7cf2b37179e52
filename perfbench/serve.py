"""``repro serve`` with the benchmark's wrappers installed.

Traced ``remote_mix`` runs start this instead of ``python -m repro
serve``: it installs the same wrappers as a traced client, and at every
``stats`` request records the process-side counters the wire does not
carry (artifact-cache hits, verify calls, read-path rebuilds, summary
revisions).  It then runs the command itself, ``repro.cli.main(["serve"])``
(a memory database on an ephemeral port, announced on stdout), and when
the server shuts down writes the spans and those marks to ``--out``.

Usage: ``PYTHONPATH=src python3 perfbench/serve.py --out PATH``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="spans and marks (JSON)")
    args = parser.parse_args(argv)

    from repro.cli import main as repro_main

    marks: list[dict] = []
    tracer = install_tracing(marks)
    status = repro_main(["serve"])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans(), "marks": marks}, handle)
    return status


def install_tracing(marks: list[dict]):
    """Wrap the library and the serving tier; record a mark per ``stats``."""
    from repro.cache import artifact_cache_stats
    from repro.query import optimizer
    from repro.server.server import ReproServer
    from tracing import Tracer, install_library, install_server

    tracer = Tracer()
    watch = install_library(tracer)

    def pending(server, message) -> int:
        return server._collection(message).pending_updates

    counters = install_server(tracer, pending)
    admin = ReproServer._execute_admin

    async def execute_admin(server, op, message):
        if op == "stats":
            cache = artifact_cache_stats()
            marks.append({
                "request": tracer.op,
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
                "cache_evictions": cache.evictions,
                "verify_calls": optimizer.verify_calls(),
                "rebuilds": counters["rebuilds"],
                "revisions": dict(watch.revisions),
            })
        return await admin(server, op, message)

    tracer.patch(ReproServer, "_execute_admin", execute_admin)
    tracer.trace_gc()
    return tracer


if __name__ == "__main__":
    sys.exit(main())
