"""Tests of the benchmark's own parts.

Run from the root of the repository::

    python3 -m pytest exchangebench -q
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _certain_reply(request: inputs.Request, answers, wire_id: str) -> bytes:
    return json.dumps({
        "ok": True, "op": "certain_answers", "id": wire_id,
        "result_ok": True, "answers": [list(a) for a in sorted(answers)],
        "variables": request.message["variable_order"]}).encode()


def _solution_wire(doc: inputs.LibraryDoc):
    """The canonical solution of ``doc``, built by hand: one writer with
    one work per (author, book) pair, each year a fresh null."""
    writers = []
    null = 0
    for title, authors in doc.books:
        for author in authors:
            null += 1
            writers.append(["writer", {"name": author}, [
                ["work", {"title": title, "year": {"null": null}}, []]]])
    return ["bib", {}, writers]


def _materialize_replies(doc: inputs.LibraryDoc, solution) -> list:
    return [json.dumps({"ok": True, "op": "put_tree", "id": "m0.put",
                        "fingerprint": "ab" * 32}).encode(),
            json.dumps({"ok": True, "op": "solve", "id": "m0.solve",
                        "result_ok": True, "solution": solution}).encode()]


# --------------------------------------------------------------------- #
# The checker
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("workload", ["clio_cold", "library_corpus"])
def test_checker_accepts_right_answers_and_rejects_corrupted(workload):
    generated = inputs.generate(workload, 3)
    for index, request in enumerate(generated.requests[:50]):
        right = _certain_reply(request, request.expect, f"m{index}")
        assert checks.check_reply(request, [right], [f"m{index}"]) \
            == (None, False)
        if request.expect:
            dropped = sorted(request.expect)[1:]
            error, _ = checks.check_reply(
                request, [_certain_reply(request, dropped, f"m{index}")],
                [f"m{index}"])
            assert error is not None and "missing" in error
        width = len(request.message["variable_order"])
        if width:
            wrong = set(request.expect) | {("intruder",) * width}
        else:  # a Boolean query: flip its truth value
            wrong = set() if request.expect else {()}
        error, _ = checks.check_reply(
            request, [_certain_reply(request, wrong, f"m{index}")],
            [f"m{index}"])
        assert error is not None and "differ" in error


def test_checker_rejects_bad_envelopes():
    request = inputs.generate("clio_cold", 1).requests[0]
    right = _certain_reply(request, request.expect, "m0")
    assert checks.check_reply(request, [right], ["m7"])[0] is not None
    error_reply = json.dumps({"ok": False, "id": "m0", "error": "ChaseError",
                              "message": "boom"}).encode()
    assert "ChaseError" in checks.check_reply(request, [error_reply],
                                              ["m0"])[0]
    no_solution = json.loads(right)
    no_solution["result_ok"] = False
    error, flagged = checks.check_reply(
        request, [json.dumps(no_solution).encode()], ["m0"])
    assert error is not None and flagged
    wrong_order = json.loads(right)
    wrong_order["variables"] = list(reversed(wrong_order["variables"])) + ["x"]
    assert checks.check_reply(request, [json.dumps(wrong_order).encode()],
                              ["m0"])[0] is not None
    assert checks.check_reply(request, [b"not json"], ["m0"])[0] is not None


def test_solution_checker_rejects_each_corruption():
    request = inputs.materialize_requests(5, count=1)[0]
    doc = request.doc
    ids = ["m0.put", "m0.solve"]
    good = _solution_wire(doc)
    assert checks.check_reply(request, _materialize_replies(doc, good),
                              ids) == (None, False)

    def corrupted(mutate):
        solution = json.loads(json.dumps(good))
        mutate(solution)
        return checks.check_reply(request,
                                  _materialize_replies(doc, solution), ids)[0]

    def year_constant(s):
        s[2][0][2][0][1]["year"] = "1999"

    def drop_writer(s):
        del s[2][-1]

    def rename_writer(s):
        s[2][0][1]["name"] = "Nobody"

    def duplicate_writer(s):
        s[2].append(s[2][0])

    def extra_attribute(s):
        s[2][0][1]["aff"] = "x"

    def wrong_root(s):
        s[0] = "db"

    def child_under_work(s):
        s[2][0][2][0][2].append(["work", {}, []])

    def truncated_writer(s):
        s[2][0] = ["writer", {"name": "x"}]

    for mutate in (year_constant, drop_writer, rename_writer,
                   duplicate_writer, extra_attribute, wrong_root,
                   child_under_work, truncated_writer):
        assert corrupted(mutate) is not None, mutate.__name__


# --------------------------------------------------------------------- #
# Seed discipline
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_request_list(workload):
    first = inputs.digest(inputs.generate(workload, 11))
    assert first == inputs.digest(inputs.generate(workload, 11))
    assert first != inputs.digest(inputs.generate(workload, 12))


def test_seed_keeps_workload_shape():
    for seed in (1, 2):
        clio = inputs.clio_requests(seed, 30)
        sizes = sorted(len(r.doc.departments) for r in clio[:15])
        assert sizes == list(inputs.CLIO_DEPARTMENTS)
        docs = inputs.corpus_documents(seed)
        assert {sum(len(a) for _, a in doc.books) for doc in docs} == {100}


def _simulated_hit_share(requests, prefix):
    seen = set()
    hits = 0
    for request in requests[:prefix]:
        key = (request.message["doc"], request.message["query"])
        hits += key in seen
        seen.add(key)
    return hits / prefix


def test_corpus_hit_share_is_inside_the_band():
    low, high = checks.HIT_SHARE_BAND
    for seed in (1, 2, 3):
        generated = inputs.generate("library_corpus", seed)
        for prefix in (500, 2000, 8000):
            share = _simulated_hit_share(generated.requests, prefix)
            assert low <= share <= high, (seed, prefix, share)


# --------------------------------------------------------------------- #
# Shape guards
# --------------------------------------------------------------------- #

def _repro():
    from repro.exchange.chase import canonical_solution
    from repro.service.protocol import setting_from_wire, tree_from_wire
    return canonical_solution, setting_from_wire, tree_from_wire


class _Attrs:
    """Stands in for a span: keeps what is annotated on it."""

    def __init__(self):
        self.attrs = {}

    def annotate(self, **attrs):
        self.attrs.update(attrs)
        return self


def _chase_record(setting_wire, tree_wire):
    """Chase ``tree_wire`` under ``setting_wire`` and count it the way the
    traced server does."""
    import spans
    canonical_solution, setting_from_wire, tree_from_wire = _repro()
    chase_module = importlib.import_module("repro.exchange.chase")
    records = []
    original = chase_module.chase

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        span = _Attrs()
        spans.ANNOTATORS["count_chase"](span, args, result)
        records.append(span.attrs)
        return result

    chase_module.chase = counted
    try:
        canonical_solution(setting_from_wire(setting_wire),
                           tree_from_wire(tree_wire))
    finally:
        chase_module.chase = original
    return records


def test_clio_guard_fires_without_root_changereg():
    import random
    good = inputs.company_doc(random.Random(0), "t", 3)
    records = _chase_record(inputs.COMPANY_SETTING, good.wire)
    assert records[0]["root_changereg"] >= 1
    shape = checks.Shape(requests=1, no_solution=0, result_cache_hits=0,
                         result_cache_misses=1, chases=records)
    assert checks.guard("clio_cold", shape) == []
    # One department with one project: a single registry node, so the
    # chase has nothing to merge at the root.
    lone = ["company", {}, [["dept", {"dname": "Dept-x.0"}, [
        ["employee", {"ename": "Employee-x.0-0", "role": "analyst"}, []],
        ["project", {"budget": "1000", "pname": "Project-x.0-0"}, []]]]]]
    records = _chase_record(inputs.COMPANY_SETTING, lone)
    shape = checks.Shape(requests=1, no_solution=0, result_cache_hits=0,
                         result_cache_misses=1, chases=records)
    assert any("root ChangeReg" in f for f in checks.guard("clio_cold",
                                                           shape))
    cached = checks.Shape(requests=2, no_solution=0, result_cache_hits=1,
                          result_cache_misses=1)
    assert any("hit" in f for f in checks.guard("clio_cold", cached))


def test_library_guard_fires_when_the_chase_repairs():
    doc = inputs.corpus_documents(1)[0]
    records = _chase_record(inputs.LIBRARY_SETTING, doc.wire)
    assert records[0]["steps"] == 0
    shape = checks.Shape(requests=10, no_solution=0, result_cache_hits=8,
                         result_cache_misses=2, chases=records)
    assert checks.guard("library_corpus", shape) == []
    # A mis-built target schema that requires an index element under bib:
    # every chase must now add one (a ChangeReg repair).
    misbuilt = json.loads(json.dumps(inputs.LIBRARY_SETTING))
    misbuilt["target_dtd"]["rules"].update({"bib": "writer* index",
                                            "index": ""})
    misbuilt["target_dtd"]["attributes"]["index"] = []
    records = _chase_record(misbuilt, doc.wire)
    shape.chases = records
    assert any("repair" in f for f in checks.guard("library_corpus", shape))


def test_library_guard_fires_outside_the_hit_band(monkeypatch):
    # A mis-built request list in which every request asks a new pair.
    monkeypatch.setattr(inputs, "NEW_EVERY", 1)
    requests = inputs.corpus_requests(1, inputs.corpus_documents(1), 500)
    hits = round(_simulated_hit_share(requests, 500) * 500)
    shape = checks.Shape(requests=500, no_solution=0,
                         result_cache_hits=hits,
                         result_cache_misses=500 - hits)
    assert any("hit share" in f for f in checks.guard("library_corpus",
                                                      shape))
    all_hits = checks.Shape(requests=100, no_solution=0,
                            result_cache_hits=100, result_cache_misses=0)
    assert checks.guard("library_corpus", all_hits)


def test_materialize_guard_fires_on_no_solution():
    request = inputs.materialize_requests(2, count=1)[0]
    replies = _materialize_replies(request.doc, None)
    solve = json.loads(replies[1])
    solve["result_ok"] = False
    replies[1] = json.dumps(solve).encode()
    error, no_solution = checks.check_reply(request, replies,
                                            ["m0.put", "m0.solve"])
    assert error is not None and no_solution
    shape = checks.Shape(requests=1, no_solution=int(no_solution),
                         result_cache_hits=0, result_cache_misses=0)
    assert checks.guard("materialize", shape)


# --------------------------------------------------------------------- #
# Span analysis and the benchmark contract
# --------------------------------------------------------------------- #

def _record(trace, span, parent, name, start, end, wire):
    return {"trace": trace, "span": span, "parent": parent, "name": name,
            "start": start, "dur": end - start, "wire": wire}


def test_self_time_folds_unnamed_spans_into_named_layers():
    records = [
        _record("t1", "1", None, "server.line", 0.0, 10.0, "m0"),
        _record("t1", "2", "1", "server.request", 0.5, 9.5, "m0"),
        _record("t1", "3", "2", "engine.request", 1.0, 6.0, "m0"),
        _record("t1", "4", "3", "engine.cache_lookup", 1.0, 2.0, "m0"),
        _record("t1", "5", "3", "exchange.chase", 2.0, 5.0, "m0"),
        # Set-up: a request with another wire id.
        _record("t2", "6", None, "server.line", 20.0, 21.0, "s.put.0"),
        _record("t2", "7", "6", "storage.write", 20.0, 20.5, "s.put.0"),
        # The program's own boot trace: no named span, not an orphan.
        _record("t3", "8", None, "storage.restore", 0.0, 1.0, None),
        # A named span that lost its request.
        _record("t4", "9", None, "storage.write", 30.0, 31.0, None),
    ]
    measured, setup, orphans = layers.analyse(records, {"m0"})
    assert measured.self_s == pytest.approx(
        {"server.line": 5.0, "engine.request": 2.0, "exchange.chase": 3.0})
    assert measured.root_s == 10.0
    assert dict(measured.calls) == {"server.line": 1, "engine.request": 1,
                                    "exchange.chase": 1}
    assert setup.self_s == pytest.approx({"server.line": 0.5,
                                          "storage.write": 0.5})
    assert orphans == 1


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.metric_names()


def test_run_fails_without_the_program(tmp_path):
    for name in ("BENCHMARK.json",):
        (tmp_path / name).write_text((ROOT / name).read_text())
    bench_dir = tmp_path / "exchangebench"
    bench_dir.mkdir()
    for path in HERE.glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    completed = subprocess.run(
        [sys.executable, "exchangebench/run.py", "--workload", "clio_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
