"""The traced-run report: where each workload's request time goes.

Run from the root of a checkout::

    python3 exchangebench/report.py [--seed 1] [--out .exchangebench_out]

For each workload this runs ``run.py --trace 1``'s measurement for
``BENCHMARK.json``'s ``run_seconds`` (windows alternated between an
untraced and a traced server), writes the span dump
to ``OUT/<workload>.spans.jsonl``, and prints every per-layer metric: a
self-ms / calls table per span with the end-to-end metric each layer should
move, the set-up table, the counts, the coverage line and the tracing
overhead against the untraced windows.  Exits non-zero when any reply was
wrong or a shape guard failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import List, Optional

import layers
import run
from harness import BenchError, pin_client


def render(workload: str, result: run.Result) -> List[str]:
    phase = result.details["phase"]
    setup = result.details["setup"]
    requests = max(result.details["requests"], 1)
    server_ms = phase.root_s * 1000 / requests
    metrics = {name: value for name, (value, _) in result.metrics.items()}
    lines = [f"## {workload}", ""]
    lines.append(f"{'span':24s} {'calls/req':>10s} {'self ms/req':>12s} "
                 f"{'share':>7s}  should move")
    for span in layers.SPANS:
        calls = phase.calls.get(span, 0) / requests
        self_ms = metrics[f"{span}.self_ms"]
        share = self_ms / server_ms if server_ms else 0.0
        lines.append(f"{span:24s} {calls:10.2f} {self_ms:12.4f} "
                     f"{share:7.1%}  {layers.MOVES[span]}")
    named = sum(metrics[f"{span}.self_ms"] for span in layers.SPANS
                if span != layers.ROOT)
    lines.append(
        f"coverage: {layers.ROOT} {server_ms:.4f} ms/req covers "
        f"{metrics['trace.coverage']:.1%} of client-observed latency; named "
        f"layers cover {named / server_ms if server_ms else 0.0:.1%} of "
        f"server time over {requests} requests, "
        f"{result.details['orphans']} orphan span(s)")
    lines.append(f"tracing overhead: {metrics['trace.overhead']:+.1%} "
                 f"req/s (median over alternated window pairs of "
                 f"untraced / traced - 1)")
    lines.append("")
    lines.append(f"{'set-up span':24s} {'calls':>10s} {'self ms':>12s}")
    for span in layers.SETUP_SPANS:
        lines.append(f"{span:24s} {setup.calls.get(span, 0):10d} "
                     f"{metrics[f'{span}.setup_ms']:12.4f}")
    lines.append("")
    for name, (unit, meaning) in layers.COUNTS.items():
        lines.append(f"{name:30s} {metrics[name]:14.4f} {unit:6s} {meaning}")
    lines.extend(["", *result.lines])
    for failure in result.guard_failures:
        lines.append(f"SHAPE GUARD FAILED: {failure}")
    lines.append("")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=".exchangebench_out")
    args = parser.parse_args(argv)
    try:
        root = run.checkout_root()
    except BenchError as error:
        print(f"exchangebench: {error}", file=sys.stderr)
        return 2
    seconds = json.loads((root / "BENCHMARK.json").read_text())[
        "run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    server_cpus = pin_client()
    ok = True
    for workload in run.WORKLOADS:
        workdir = root / ".exchangebench_tmp" / f"report-{workload}"
        dump = out / f"{workload}.spans.jsonl"
        try:
            bench = run.Bench(root, run.prepare(workload, args.seed),
                              workdir, server_cpus)
            result = run.run_traced(bench, seconds, dump)
        except BenchError as error:
            print(f"exchangebench: {workload}: {error}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("\n".join(render(workload, result)), flush=True)
        print(f"span dump: {dump}\n", flush=True)
        ok = ok and result.correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
