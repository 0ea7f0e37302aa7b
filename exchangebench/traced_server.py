"""The exchange server with the benchmark's spans installed.

Usage::

    python exchangebench/traced_server.py --dump SPANS.jsonl -- SERVER-ARGS

wraps the layers listed in ``layers.TARGETS`` (see ``spans.install``),
turns ``repro.obs`` tracing on with an in-memory buffer large enough for
the whole run, then runs ``repro.service.server.main(SERVER-ARGS)``
unchanged.  When the server has shut down, ``SPANS.jsonl`` gets a header
line (the store's catalog totals and whether the buffer overflowed), then
every span record with its request's wire id.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

import layers
import spans
from repro.obs import trace as obs_trace

#: Span records the tracer keeps; a run that fills it is refused.
BUFFER_SPANS = 2_000_000


def _store_path(server_args: List[str]) -> Optional[str]:
    if "--store" in server_args:
        return server_args[server_args.index("--store") + 1]
    return None


def write_dump(path: str, store: Optional[str]) -> None:
    records = obs_trace.records()
    wire_of: Dict[str, Any] = {}
    for record in records:
        wire = record.get("attrs", {}).get("wire")
        if wire is not None:
            wire_of[record["trace"]] = wire
    header: Dict[str, Any] = {"overflowed": len(records) >= BUFFER_SPANS,
                              "store": None}
    if store is not None:
        from repro.storage import CorpusStore
        catalog = CorpusStore(store, read_only=True)
        try:
            header["store"] = catalog.summary()
        finally:
            catalog.close()
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps(header) + "\n")
        for record in records:
            record["wire"] = wire_of.get(record["trace"])
            out.write(json.dumps(record) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True,
                        help="where to write the span dump (JSON lines)")
    parser.add_argument("server_args", nargs=argparse.REMAINDER,
                        help="arguments for repro.service.server after --")
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args and server_args[0] == "--":
        server_args = server_args[1:]
    spans.install(layers.TARGETS)
    obs_trace.configure(buffer_size=BUFFER_SPANS, observe_metrics=False)
    from repro.service import server
    try:
        return server.main(server_args)
    finally:
        write_dump(args.dump, _store_path(server_args))


if __name__ == "__main__":
    sys.exit(main())
