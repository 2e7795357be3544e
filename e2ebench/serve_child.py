"""The socket server under test, run as its own process.

Usage: ``python3 serve_child.py --src SRC --stats OUT.json [--trace]``.
Starts a :class:`repro.serve.PVPServer` on an ephemeral localhost port,
prints ``PORT <n>`` on stdout, serves until its stdin closes, then drains
and writes its counters (and, traced, its spans) to ``--stats``.  Each
``collect`` line on stdin runs a full garbage collection, answered by a
``COLLECTED`` line on stdout once it is done.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import io
import json
import os
import resource
import sys

#: Dispatch pool width: the machine's two cores, as the load itself is one
#: process with two connections.
WORKERS = 2

#: Admission caps above anything the ladder can queue: a denied request
#: would make the later requests of its script that depend on it fail,
#: so overload shows as latency and backlog, not as refusals.
MAX_PENDING = 100_000
MAX_SESSION_QUEUE = 50_000


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import repro.converters  # noqa: F401  (registers every format)
    from repro.obs import get_registry
    from repro.serve.server import PVPServer, ServeConfig

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    async def serve() -> dict:
        server = PVPServer(ServeConfig(workers=WORKERS,
                                       max_pending=MAX_PENDING,
                                       max_session_queue=MAX_SESSION_QUEUE),
                           log=io.StringIO())
        await server.start()
        loop = asyncio.get_running_loop()
        closed = asyncio.Event()
        pending = bytearray()

        def on_stdin() -> None:
            data = os.read(sys.stdin.fileno(), 4096)
            if not data:
                loop.remove_reader(sys.stdin.fileno())
                closed.set()
                return
            pending.extend(data)
            while b"\n" in pending:
                line, _, rest = bytes(pending).partition(b"\n")
                pending[:] = rest
                if line.strip() == b"collect":
                    gc.collect()
                    sys.stdout.write("COLLECTED\n")
                    sys.stdout.flush()
        loop.add_reader(sys.stdin.fileno(), on_stdin)
        sys.stdout.write("PORT %d\n" % server.port)
        sys.stdout.flush()
        await closed.wait()
        await server.stop()
        return server.stats()

    stats = asyncio.run(serve())
    queue = get_registry().histogram("serve.queue_seconds").to_dict()
    report = {
        "stats": stats,
        "queue_seconds": queue,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans if recorder is not None else [],
    }
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
