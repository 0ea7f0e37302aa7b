"""The layers the benchmark traces, and how their spans become metrics.

:data:`TARGETS` names the public functions wrapped in the traced server;
:data:`MOVES` records, per layer, which end-to-end metric an improvement
there should move and on which workload.  :func:`per_layer` turns one span
dump plus the client's view of the same run into the ``per_layer`` metrics
of ``BENCHMARK.json``.

Every ``<span>.self_ms`` is the mean self time per measured request: the
span's duration minus the part its child spans cover, summed over the
request's spans and averaged over requests.  Self times come from
``repro.obs.report.collapsed_stacks``; the self time of a span the program
opens itself (``server.request``, ``service.queue``, ``engine.solve``, ...)
counts towards the nearest enclosing span named here, so that the named
layers partition the root's time.  ``<span>.setup_ms`` is the
same self time summed over the set-up of one server (register,
consistency, classify, corpus ingest).  Counts are means per request unless
they are ratios.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, qualname, annotator) — see spans.install.
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("server.line", "repro.service.server",
     "ExchangeServer._serve_line", None),
    ("protocol.decode", "repro.service.protocol", "decode_line",
     "tag_wire_id"),
    ("protocol.decode", "repro.service.protocol", "tree_from_wire", None),
    ("protocol.decode", "repro.service.protocol", "query_from_wire", None),
    ("protocol.encode", "repro.service.protocol", "encode_line", None),
    ("protocol.encode", "repro.service.protocol", "tree_to_wire", None),
    ("protocol.encode", "repro.service.protocol", "answers_to_wire", None),
    ("service.submit", "repro.service.service",
     "AsyncExchangeService.submit", None),
    ("service.submit", "repro.service.service",
     "AsyncExchangeService.put_tree", None),
    ("engine.request", "repro.engine.engine",
     "ExchangeEngine.certain_answers", None),
    ("engine.request", "repro.engine.engine", "ExchangeEngine.solve", None),
    ("engine.resolve", "repro.engine.engine",
     "ExchangeEngine.resolve_tree", None),
    ("engine.compile", "repro.engine.compiled", "compile_setting", None),
    ("exchange.consistency", "repro.exchange.consistency",
     "check_consistency", None),
    ("exchange.presolution", "repro.exchange.presolution",
     "canonical_pre_solution", "count_nodes"),
    ("exchange.chase", "repro.exchange.chase", "chase", "count_chase"),
    ("regexlang.repair", "repro.regexlang.univocal",
     "RegexAnalysis.repairs", "count_candidates"),
    ("regexlang.repair", "repro.regexlang.univocal",
     "RegexAnalysis.maximum_repair", None),
    ("regexlang.repair", "repro.regexlang.univocal",
     "RegexAnalysis.max_repairs", None),
    ("xmlmodel.freeze", "repro.xmlmodel.tree", "XMLTree.freeze", None),
    ("xmlmodel.fingerprint", "repro.xmlmodel.tree", "XMLTree.fingerprint",
     None),
    ("xmlmodel.conformance", "repro.xmlmodel.dtd",
     "DTD.conformance_violations_frozen", None),
    ("patterns.plan", "repro.patterns.plan", "QueryPlan.answers", None),
    ("patterns.plan", "repro.patterns.plan", "PatternPlan.matches",
     "count_rows"),
    ("storage.read", "repro.storage.store", "CorpusStore.load_tree", None),
    ("storage.read", "repro.storage.store", "CorpusStore.get_frozen", None),
    ("storage.write", "repro.storage.store", "CorpusStore.put_tree", None),
)

ROOT = "server.line"

#: Span names in report order (the root last: its self time is the part of
#: the server's request time no named layer accounts for).
SPANS: Tuple[str, ...] = tuple(dict.fromkeys(
    [name for name, *_ in TARGETS if name != ROOT] + [ROOT]))

#: Spans whose work happens in set-up rather than per request.
SETUP_SPANS: Tuple[str, ...] = ("engine.compile", "exchange.consistency",
                                "storage.write", "protocol.decode")

#: layer -> (end-to-end metric it should move, on which workload).
MOVES: Dict[str, str] = {
    "regexlang.repair": "req_per_s and lat_p90_ms on clio_cold; "
                        "zero on the other two",
    "exchange.chase": "lat_p90_ms on library_corpus, req_per_s on "
                      "materialize",
    "exchange.presolution": "lat_p90_ms on library_corpus, req_per_s on "
                            "materialize",
    "xmlmodel.freeze": "lat_p90_ms on library_corpus, req_per_s on "
                       "materialize",
    "xmlmodel.conformance": "lat_p90_ms on library_corpus, req_per_s on "
                            "materialize",
    "engine.resolve": "lat_p90_ms on library_corpus",
    "storage.read": "lat_p90_ms on library_corpus",
    "engine.request": "lat_p50_ms on library_corpus",
    "xmlmodel.fingerprint": "lat_p50_ms on library_corpus",
    "service.submit": "lat_p50_ms on library_corpus",
    "patterns.plan": "lat_p90_ms on library_corpus; within noise "
                     "elsewhere",
    "protocol.decode": "req_per_s on materialize, setup_s on "
                       "library_corpus",
    "protocol.encode": "req_per_s on materialize",
    "storage.write": "req_per_s on materialize, setup_s on "
                     "library_corpus",
    "engine.compile": "setup_s on all workloads",
    "exchange.consistency": "setup_s on all workloads",
    "server.line": "unattributed server time (event loop, dispatch, "
                   "write)",
}

#: Count metrics: name -> (unit, meaning).
COUNTS: Dict[str, Tuple[str, str]] = {
    "regexlang.repair_candidates": ("count", "repairs enumerated by "
                                    "RegexAnalysis.repairs per request"),
    "regexlang.repair_yield": ("share", "ChangeReg repairs applied / "
                               "candidates enumerated"),
    "exchange.chase_steps": ("count", "ChangeAtt + ChangeReg steps per "
                             "request"),
    "exchange.presolution_nodes": ("count", "cps(T) nodes per request"),
    "exchange.solution_nodes": ("count", "canonical-solution nodes per "
                                "request"),
    "storage.bytes_read": ("bytes", "store heap bytes read per request"),
    "storage.bytes_per_node": ("bytes", "store heap bytes per stored node"),
    "engine.result_cache_hit_rate": ("share", "result-cache hits / lookups "
                                     "(stats op)"),
    "patterns.rows": ("count", "rows produced by PatternPlan.matches per "
                      "request"),
    "trace.coverage": ("share", "server.line time / client-observed "
                       "latency"),
    "trace.overhead": ("share", "median over alternated window pairs of "
                       "untraced req_per_s / traced req_per_s - 1"),
}


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(f"{span}.self_ms", "ms") for span in SPANS]
    names += [(f"{span}.setup_ms", "ms") for span in SETUP_SPANS]
    names += [(name, unit) for name, (unit, _) in COUNTS.items()]
    return names


# --------------------------------------------------------------------- #
# Span dump analysis
# --------------------------------------------------------------------- #

def read_dump(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """(header, span records) of a ``traced_server`` dump."""
    with open(path, encoding="utf-8") as source:
        header = json.loads(source.readline())
        records = [json.loads(line) for line in source if line.strip()]
    return header, records


class Phase:
    """Totals of one group of requests (the measured ones, or set-up)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self.chases: List[Dict[str, Any]] = []
        self.candidates = 0
        self.presolution_nodes = 0
        self.rows = 0

    def add(self, trace: Sequence[Dict[str, Any]], root: Dict[str, Any],
            stacks: Dict[str, int]) -> None:
        """Count one request's span records, rooted at ``root``, whose
        collapsed stacks (self time in microseconds) are ``stacks``."""
        named = set(SPANS)
        for stack, micros in stacks.items():
            layer = next(name for name in reversed(stack.split(";"))
                         if name in named)
            self.self_s[layer] += micros / 1e6
        self.root_s += root["dur"]
        for record in trace:
            name = record["name"]
            if name in named:
                self.calls[name] += 1
            attrs = record.get("attrs") or {}
            if name == "exchange.chase":
                self.chases.append(attrs)
            self.candidates += attrs.get("candidates", 0)
            self.presolution_nodes += attrs.get("nodes", 0)
            self.rows += attrs.get("rows", 0)


def analyse(records: Sequence[Dict[str, Any]], measured: Iterable[str]
            ) -> Tuple[Phase, Phase, int]:
    """Split a span dump into measured-request and set-up totals.

    ``measured`` holds the wire ids of the measured requests; requests
    with other ids are set-up.  Returns ``(measured, setup, orphans)``,
    where orphans are named spans in a trace not rooted at one ``ROOT``
    span."""
    from repro.obs.report import collapsed_stacks

    named = set(SPANS)
    wanted = set(measured)
    traces: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in records:
        traces[record["trace"]].append(record)
    measured_phase, setup_phase = Phase(), Phase()
    orphans = 0
    for trace in traces.values():
        roots = [record for record in trace if record["parent"] is None]
        if len(roots) != 1 or roots[0]["name"] != ROOT:
            # The program's own traces outside requests (restoring the
            # store at boot) hold no named span; any named one is lost.
            orphans += sum(1 for record in trace
                           if record["name"] in named)
            continue
        phase = measured_phase if roots[0]["wire"] in wanted else setup_phase
        phase.add(trace, roots[0], collapsed_stacks(trace))
    return measured_phase, setup_phase, orphans


def per_layer(header: Dict[str, Any], records: Sequence[Dict[str, Any]],
              measured: Iterable[str], client_s: float, requests: int,
              stats_delta: Dict[str, float], overhead: float,
              ) -> Tuple[Dict[str, float], Phase, Phase, int]:
    """The per-layer metrics of one traced run.

    ``measured`` holds the wire ids of the measured requests, ``client_s``
    their summed client-observed latency, ``requests`` the number of
    measured client requests (one may send two wire messages),
    ``stats_delta`` the server's counter movement over the measured
    windows and ``overhead`` the tracing overhead.  The traced server was
    set up once, so ``<span>.setup_ms`` is its set-up self time."""
    phase, setup, orphans = analyse(records, measured)
    n = max(requests, 1)
    values: Dict[str, float] = {}
    for span in SPANS:
        values[f"{span}.self_ms"] = phase.self_s.get(span, 0.0) * 1000 / n
    for span in SETUP_SPANS:
        values[f"{span}.setup_ms"] = setup.self_s.get(span, 0.0) * 1000
    changereg = sum(chase.get("changereg", 0) for chase in phase.chases)
    values["regexlang.repair_candidates"] = phase.candidates / n
    values["regexlang.repair_yield"] = (changereg / phase.candidates
                                        if phase.candidates else 0.0)
    values["exchange.chase_steps"] = sum(
        chase.get("steps", 0) for chase in phase.chases) / n
    values["exchange.presolution_nodes"] = phase.presolution_nodes / n
    values["exchange.solution_nodes"] = sum(
        chase.get("solution_nodes", 0) for chase in phase.chases) / n
    values["storage.bytes_read"] = stats_delta.get("store_bytes", 0) / n
    store = header.get("store") or {}
    nodes = store.get("store_nodes", 0)
    values["storage.bytes_per_node"] = (
        store.get("store_data_bytes", 0) / nodes if nodes else 0.0)
    lookups = (stats_delta.get("result_cache_hits", 0)
               + stats_delta.get("result_cache_misses", 0))
    values["engine.result_cache_hit_rate"] = (
        stats_delta.get("result_cache_hits", 0) / lookups if lookups
        else 0.0)
    values["patterns.rows"] = phase.rows / n
    values["trace.coverage"] = phase.root_s / client_s if client_s else 0.0
    values["trace.overhead"] = overhead
    return values, phase, setup, orphans
