"""ExchangeBench: the exchange server measured over the wire.

Run from the root of a checkout::

    python3 exchangebench/run.py --workload clio_cold --seed 1 \\
        --seconds 25 --trace 0

Each run boots the real JSON-lines server (``python -m
repro.service.server --port 0 --store DIR``, thread executor) from
``src/``, sets it up (register, consistency and classify for each setting,
plus corpus ingest where the workload has one), then drives it with two
closed-loop client connections from this process over a seeded request
list.  Every reply is checked against answers derived from the generated
inputs (``checks``), and the workload's shape guard must hold.

``--trace 0`` reports the peak RSS of a server that serves a fixed prefix
of the request list, then boots the server nine more times; each boot is
set up and measured over a ninth of ``--seconds``.  Set-up time and
throughput are medians over the boots, and the latency percentiles pool
every boot's requests.  ``--trace 1`` alternates short windows between an
untraced server and one started through ``traced_server.py``, and reports
the per-layer metrics of ``layers``.  The client runs on one CPU and the
server on the others.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits 0
only when every reply was correct and the shape guard held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import checks
import inputs as inputs_mod
import layers
from harness import BenchError, Conn, Load, Server, drive, encode, pin_client

WORKLOADS = ("clio_cold", "library_corpus", "materialize")
#: Servers booted per untraced run, each measured over an equal share of
#: the run's time: set-up time and throughput are medians over them.
BOOTS = 9
#: Alternated (untraced, traced) window pairs of a traced run.
TRACE_PAIRS = 4
#: Fewest completed requests an untraced run may report percentiles for.
MIN_SAMPLES = 100
#: Requests served, untimed, by the server whose peak RSS is reported: a
#: fixed amount of work, so that memory does not track throughput (the
#: library result cache grows with every new pair served).  Each prefix
#: takes a few seconds and fills the caches that plateau (materialize's
#: thawed-tree cache holds 64 documents).
RSS_PREFIX = {"clio_cold": 40, "library_corpus": 3000, "materialize": 80}
#: Longest a fixed-count window may take.
PREFIX_CAP_S = 60.0
E2E_UNITS = {"setup_s": "s", "req_per_s": "req/s", "lat_p50_ms": "ms",
             "lat_p90_ms": "ms", "server_rss_mb": "MB"}


@dataclass
class Window:
    """One measured closed-loop window on one server."""

    load: Load
    stats_delta: Dict[str, float]
    failed: int = 0
    no_solution: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def latencies_ms(self) -> List[float]:
        return [outcome.latency_s * 1000 for outcome in self.load.outcomes
                if outcome.error is None]


def _stats_counters(conn: Conn) -> Dict[str, float]:
    stats = conn.request({"op": "stats"})["stats"]
    shards = stats.get("shards", {}).values()
    return {
        "result_cache_hits": sum(s.get("result_cache_hits", 0)
                                 for s in shards),
        "result_cache_misses": sum(s.get("result_cache_misses", 0)
                                   for s in shards),
        "store_bytes": stats.get("registry", {}).get("store_bytes", 0),
    }


class Bench:
    """One workload's inputs against servers booted from ``root``."""

    def __init__(self, root: Path, inputs: inputs_mod.Inputs,
                 workdir: Path,
                 server_cpus: Optional[Set[int]] = None) -> None:
        self.root = root
        self.inputs = inputs
        self.workdir = workdir
        self.server_cpus = server_cpus
        self.setting_fps: Optional[Dict[str, str]] = None
        self.doc_fps: Optional[List[str]] = None
        self.lines: List[bytes] = []
        self._ingest = [encode({"op": "put_tree", "id": f"s.put.{k}",
                                "tree": doc.wire})
                        for k, doc in enumerate(inputs.corpus)]
        self._boots = 0

    # -- set-up ------------------------------------------------------- #

    def _set_up(self, server: Server, conn: Conn) -> float:
        """Register, check and classify each setting, ingest the corpus;
        returns the seconds from spawn to ready."""
        fps: Dict[str, str] = {}
        for name in self.inputs.settings:
            fp = conn.request({"op": "register", "id": f"s.register.{name}",
                               "setting": inputs_mod.SETTINGS[name]}
                              )["fingerprint"]
            if not conn.request({"op": "consistency", "fingerprint": fp,
                                 "id": f"s.consistency.{name}"}
                                )["consistent"]:
                raise BenchError(f"setting {name} reported inconsistent")
            if not conn.request({"op": "classify", "fingerprint": fp,
                                 "id": f"s.classify.{name}"})["tractable"]:
                raise BenchError(f"setting {name} reported intractable")
            fps[name] = fp
        doc_fps = []
        for line in self._ingest:
            reply = json.loads(conn.call(line))
            if not reply.get("ok"):
                raise BenchError(f"put_tree failed: {reply.get('message')}")
            doc_fps.append(reply["fingerprint"])
        ready = time.perf_counter() - server.spawned_at
        if self.setting_fps is None:
            self.setting_fps, self.doc_fps = fps, doc_fps
            self._encode_requests()
        elif (fps, doc_fps) != (self.setting_fps, self.doc_fps):
            raise BenchError("fingerprints differ between server boots")
        return ready

    def _encode_requests(self) -> None:
        assert self.setting_fps is not None and self.doc_fps is not None
        with collector_off():
            self.lines = [self._encode(index, request) for index, request
                          in enumerate(self.inputs.requests)]

    def _encode(self, index: int, request: inputs_mod.Request) -> bytes:
        message = dict(request.message)
        message["id"] = self.wire_ids(index)[0]
        if request.doc is not None:
            message["tree"] = request.doc.wire
        if "setting" in message:
            message["fingerprint"] = self.setting_fps[message.pop("setting")]
        if "doc" in message:
            message["tree_fp"] = self.doc_fps[message.pop("doc")]
        return encode(message)

    def wire_ids(self, index: int) -> List[str]:
        if self.inputs.requests[index].kind == "materialize":
            return [f"m{index}.put", f"m{index}.solve"]
        return [f"m{index}"]

    # -- measurement -------------------------------------------------- #

    def _send(self, conn: Conn, index: int) -> List[bytes]:
        first = conn.call(self.lines[index])
        if self.inputs.requests[index].kind != "materialize":
            return [first]
        fingerprint = json.loads(first).get("fingerprint")
        if fingerprint is None:
            return [first]
        solve = encode({"op": "solve", "id": f"m{index}.solve",
                        "fingerprint": self.setting_fps["library"],
                        "tree_fp": fingerprint})
        return [first, conn.call(solve)]

    def window(self, booted: "Booted", seconds: Optional[float] = None,
               count: Optional[int] = None) -> Window:
        """Continue ``booted``'s request list with two closed-loop clients,
        for ``seconds`` or for ``count`` requests; check every reply."""
        stop = len(self.lines)
        if count is not None:
            stop = min(booted.next_index + count, stop)
        clients = [booted.server.connect(), booted.server.connect()]
        try:
            before = _stats_counters(booted.conn)
            load = drive(clients, booted.next_index, stop,
                         seconds if seconds is not None else PREFIX_CAP_S,
                         self._send)
            after = _stats_counters(booted.conn)
        finally:
            for client in clients:
                client.close()
        booted.next_index = load.next_index
        window = Window(load, {key: after[key] - before[key]
                               for key in after})
        for outcome in load.outcomes:
            if outcome.error is not None:
                window.failed += 1
                window.errors.append(f"m{outcome.index}: {outcome.error}")
                continue
            error, no_solution = checks.check_reply(
                self.inputs.requests[outcome.index], outcome.replies,
                self.wire_ids(outcome.index))
            window.no_solution += int(no_solution)
            if error is not None:
                window.failed += 1
                window.errors.append(f"m{outcome.index}: {error}")
        return window

    @contextmanager
    def boot(self, dump: Optional[Path] = None,
             server: Optional[Server] = None) -> Iterator["Booted"]:
        """A set-up server: a new one, or ``server`` (started or not).
        It is shut down, and its peak RSS recorded, when the block ends."""
        if server is None:
            self._boots += 1
            server = Server(self.root, self.workdir / f"boot{self._boots}",
                            dump, self.server_cpus)
        conn: Optional[Conn] = None
        try:
            if server.proc is None:
                server.start()
            conn = server.connect()
            yield Booted(server, conn, self._set_up(server, conn))
        finally:
            server.stop(conn)


@dataclass
class Booted:
    """A server that is set up, with the connection that set it up."""

    server: Server
    conn: Conn
    setup_s: float
    #: The next request of the list a window on this server takes.
    next_index: int = 0


# --------------------------------------------------------------------- #
# The two kinds of run
# --------------------------------------------------------------------- #

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    lines: List[str]
    guard_failures: List[str]
    details: Dict[str, Any] = field(default_factory=dict)

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()}})


def _pooled(windows: List[Window]) -> Window:
    """The windows' requests and counter movements taken together."""
    pooled = Window(Load(started=0.0), {})
    for window in windows:
        pooled.load.outcomes.extend(window.load.outcomes)
        for key, value in window.stats_delta.items():
            pooled.stats_delta[key] = pooled.stats_delta.get(key, 0) + value
        pooled.failed += window.failed
        pooled.no_solution += window.no_solution
        pooled.errors.extend(window.errors)
    return pooled


def _describe(windows: List[Window], label: str) -> List[str]:
    pooled = _pooled(windows)
    lat = pooled.latencies_ms
    attempted = len(pooled.load.outcomes)
    lines = [f"{label}: {attempted} requests in {len(windows)} window(s), "
             f"req/s per window "
             + ", ".join(f"{w.load.req_per_s:.2f}" for w in windows)
             + f"; {pooled.failed} failed (error_rate "
             f"{pooled.failed / max(attempted, 1):.4f})"]
    if len(lat) >= 10:
        cuts = statistics.quantiles(lat, n=10)
        beyond = sum(1 for value in lat if value > cuts[8])
        lines.append(f"{label}: latency p50 {cuts[4]:.3f} ms, p90 "
                     f"{cuts[8]:.3f} ms over {len(lat)} samples "
                     f"({beyond} beyond p90)")
    delta = pooled.stats_delta
    lookups = delta["result_cache_hits"] + delta["result_cache_misses"]
    if lookups:
        lines.append(f"{label}: result-cache hit share "
                     f"{delta['result_cache_hits'] / lookups:.4f} of "
                     f"{int(lookups)} lookups")
    lines.extend(f"{label}: FAILED {error}" for error in pooled.errors[:5])
    return lines


def _shape(windows: List[Window],
           chases: Optional[List[Dict[str, Any]]] = None) -> checks.Shape:
    pooled = _pooled(windows)
    return checks.Shape(
        requests=pooled.load.completed, no_solution=pooled.no_solution,
        result_cache_hits=int(pooled.stats_delta["result_cache_hits"]),
        result_cache_misses=int(pooled.stats_delta["result_cache_misses"]),
        chases=chases)


def run_untraced(bench: Bench, seconds: float, rss_server: Server,
                 boots: int = BOOTS) -> Result:
    """Peak RSS from ``rss_server``, which serves a fixed prefix of the
    request list; then ``boots`` further servers, each set up and measured
    over an equal share of ``seconds``.  Set-up time and throughput are
    medians over the boots; latency percentiles pool every window."""
    prefix = RSS_PREFIX[bench.inputs.workload]
    with bench.boot(server=rss_server) as booted:
        fixed = bench.window(booted, count=prefix)
    rss_mb = rss_server.rss_mb
    setups: List[float] = []
    windows: List[Window] = []
    for _ in range(boots):
        with bench.boot() as booted:
            setups.append(booted.setup_s)
            windows.append(bench.window(booted, seconds / boots))
    lat = _pooled(windows).latencies_ms
    if len(lat) < MIN_SAMPLES:
        raise BenchError(f"only {len(lat)} requests completed; the 90th "
                         f"percentile needs {MIN_SAMPLES} (ten beyond it)")
    cuts = statistics.quantiles(lat, n=10)
    values = {"setup_s": statistics.median(setups),
              "req_per_s": statistics.median(window.load.req_per_s
                                             for window in windows),
              "lat_p50_ms": cuts[4], "lat_p90_ms": cuts[8],
              "server_rss_mb": rss_mb}
    metrics = {name: (values[name], unit)
               for name, unit in E2E_UNITS.items()}
    failures = checks.guard(bench.inputs.workload, _shape(windows))
    lines = _describe(windows, "untraced")
    lines.append(f"peak RSS {rss_mb:.2f} MB after serving the first "
                 f"{fixed.load.completed} requests")
    lines.extend(f"rss prefix: FAILED {error}" for error in fixed.errors[:5])
    lines.append("set-up seconds per boot: "
                 + ", ".join(f"{value:.4f}" for value in setups))
    everything = _pooled(windows + [fixed])
    if fixed.load.completed < prefix:
        failures.append(f"the RSS server completed {fixed.load.completed} "
                        f"of {prefix} requests")
    return Result(not failures and everything.failed == 0,
                  len(everything.load.outcomes), everything.failed, metrics,
                  lines, failures)


def run_traced(bench: Bench, seconds: float, dump: Path,
               pairs: int = TRACE_PAIRS) -> Result:
    """An untraced and a traced server, set up once each, serve ``pairs``
    alternated windows (untraced, traced, untraced, ...) that share
    ``seconds``; the per-layer metrics come from the traced windows."""
    share = seconds / (2 * pairs)
    plain: List[Window] = []
    traced: List[Window] = []
    with bench.boot() as untraced_boot, bench.boot(dump=dump) as traced_boot:
        for _ in range(pairs):
            plain.append(bench.window(untraced_boot, share))
            traced.append(bench.window(traced_boot, share))
    header, records = layers.read_dump(str(dump))
    pooled = _pooled(traced)
    measured = [wire for outcome in pooled.load.outcomes
                if outcome.error is None
                for wire in bench.wire_ids(outcome.index)]
    client_s = sum(outcome.latency_s for outcome in pooled.load.outcomes
                   if outcome.error is None)
    overhead = statistics.median(
        a.load.req_per_s / b.load.req_per_s - 1.0
        for a, b in zip(plain, traced) if b.load.req_per_s)
    values, phase, setup, orphans = layers.per_layer(
        header, records, measured, client_s, pooled.load.completed,
        pooled.stats_delta, overhead)
    units = dict(layers.metric_names())
    metrics = {name: (values[name], units[name]) for name in units}
    failures = checks.guard(bench.inputs.workload, _shape(plain))
    failures += checks.guard(bench.inputs.workload,
                             _shape(traced, phase.chases))
    if orphans:
        failures.append(f"{orphans} span(s) outside any {layers.ROOT}")
    if header.get("overflowed"):
        failures.append("the traced server's span buffer overflowed")
    lines = _describe(plain, "untraced") + _describe(traced, "traced")
    everything = _pooled(plain + traced)
    return Result(not failures and everything.failed == 0,
                  len(everything.load.outcomes), everything.failed, metrics,
                  lines, failures,
                  details={"phase": phase, "setup": setup,
                           "orphans": orphans,
                           "requests": pooled.load.completed})


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def checkout_root() -> Path:
    """The checkout the benchmark runs from (the current directory), which
    must hold the program's sources.  Its ``src`` goes on the import path:
    the span analysis reads dumps with ``repro.obs.report``."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "service" / "server.py").is_file():
        raise BenchError(f"no src/repro/service/server.py under {root}; run "
                         f"from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    return root


@contextmanager
def collector_off() -> Iterator[None]:
    """Build large inputs without collections (they only add garbage-free
    objects), then freeze them so that the client's collections never scan
    them during measurement."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()
        gc.freeze()


def prepare(workload: str, seed: int) -> inputs_mod.Inputs:
    with collector_off():
        return inputs_mod.generate(workload, seed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        root = checkout_root()
    except BenchError as error:
        print(f"exchangebench: {error}", file=sys.stderr)
        return 2
    workdir = root / ".exchangebench_tmp" / f"run-{os.getpid()}"
    server_cpus = pin_client()
    rss_server: Optional[Server] = None
    try:
        if not args.trace:
            # Spawned before the inputs exist: a child's peak RSS starts
            # from its parent's peak at spawn time.
            rss_server = Server(root, workdir / "rss", cpus=server_cpus)
            rss_server.start()
        generated = prepare(args.workload, args.seed)
        bench = Bench(root, generated, workdir, server_cpus)
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(generated.requests)} requests listed, digest "
              f"{inputs_mod.digest(generated)[:16]}", flush=True)
        if rss_server is None:  # --trace 1
            result = run_traced(bench, args.seconds, workdir / "spans.jsonl")
        else:
            result = run_untraced(bench, args.seconds, rss_server)
    except BenchError as error:
        print(f"exchangebench: {error}", file=sys.stderr)
        return 1
    finally:
        if rss_server is not None:
            rss_server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for line in result.lines:
        print(line)
    for failure in result.guard_failures:
        print(f"SHAPE GUARD FAILED: {failure}")
        print(f"exchangebench: shape guard failed: {failure}",
              file=sys.stderr)
    print(result.json_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
