"""Fresh-process reference: replay recorded wire lines through StdioServer.

Usage: ``python3 replay.py --src SRC IN.jsonl OUT.jsonl [IN OUT ...]``.
Each input file holds one connection's request lines in the order they
were sent; each gets its own :class:`repro.ide.server.StdioServer`, run
from the current directory, and every line it writes (responses and
``ide/*`` notifications) goes to the paired output file.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    if len(args.files) % 2:
        parser.error("expected IN OUT pairs")
    sys.path.insert(0, args.src)
    from repro.ide.server import StdioServer

    # Only the responses matter here, not how fast they come: collect
    # cycles rarely, so a long replay does not rescan its growing heap.
    gc.freeze()
    gc.set_threshold(200_000, 50, 1000)

    for index in range(0, len(args.files), 2):
        with open(args.files[index], encoding="utf-8") as handle:
            lines = handle.read()
        out = io.StringIO()
        StdioServer(stdin=io.StringIO(lines), stdout=out,
                    log=io.StringIO()).serve_forever()
        with open(args.files[index + 1], "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
