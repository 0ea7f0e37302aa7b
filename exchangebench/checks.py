"""Independent checks of the server's replies, and the workload shape guards.

The reply checks compare against answers derived from the generated
documents (see ``inputs``), never against the program under test:

* a certain-answers reply must carry exactly the expected answer set;
* a solution of the library setting must conform to the target DTD
  ``bib[writer(@name)[work(@title, @year)*]*]``, its (writer, work) pairs
  must equal the source's (author, book) pairs, one writer node per pair,
  and every ``@year`` must be a null.

The shape guards assert the property that makes each workload measure its
layer; a workload that silently degenerates fails the run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from inputs import Answers, LibraryDoc, Request

#: library_corpus: the result-cache hit share must fall in this band.  The
#: request list makes it about 0.87 on a full run (one request in eight
#: asks a new pair, after an all-new opening of REPEAT_LAG requests), so
#: the median request is a hit and the 90th percentile a miss.
HIT_SHARE_BAND = (0.78, 0.93)


def _is_null(value: Any) -> bool:
    return isinstance(value, dict) and set(value) == {"null"} \
        and isinstance(value["null"], int)


def check_answers(reply: Dict[str, Any], expect: Answers,
                  order: Sequence[str]) -> Optional[str]:
    """``None`` when a certain-answers reply is right, else why not."""
    if not reply.get("result_ok"):
        return f"no solution reported: {reply.get('detail')!r}"
    if list(reply.get("variables") or []) != list(order):
        return f"variables {reply.get('variables')} != {list(order)}"
    answers = reply.get("answers")
    if not isinstance(answers, list):
        return f"answers missing: {answers!r}"
    got = frozenset(tuple(answer) for answer in answers)
    if len(got) != len(answers):
        return "duplicate answers"
    if got != expect:
        missing = sorted(expect - got)[:3]
        extra = sorted(got - expect)[:3]
        return f"answers differ: missing {missing}, unexpected {extra}"
    return None


def check_solution(solution: Any, doc: LibraryDoc) -> Optional[str]:
    """``None`` when ``solution`` is the canonical solution's shape for
    ``doc`` under the library setting, else why not."""
    if not (isinstance(solution, list) and len(solution) == 3):
        return "solution is not a nested wire tree"
    label, attrs, writers = solution
    if label != "bib" or attrs:
        return f"root is {label!r} with {sorted(attrs)}, expected bare bib"
    pairs: List[Tuple[str, str]] = []
    for writer in writers:
        label, attrs, works = writer
        if label != "writer" or set(attrs) != {"name"}:
            return f"bib child {label!r} with attributes {sorted(attrs)}"
        name = attrs["name"]
        if not isinstance(name, str):
            return f"writer @name is not a constant: {name!r}"
        for work in works:
            label, attrs, children = work
            if label != "work" or set(attrs) != {"title", "year"}:
                return f"writer child {label!r} with {sorted(attrs)}"
            if children:
                return "work node has children"
            if not isinstance(attrs["title"], str):
                return f"work @title is not a constant: {attrs['title']!r}"
            if not _is_null(attrs["year"]):
                return f"work @year is not a null: {attrs['year']!r}"
            pairs.append((name, attrs["title"]))
    expected = doc.pairs()
    if frozenset(pairs) != expected:
        missing = sorted(expected - frozenset(pairs))[:3]
        extra = sorted(frozenset(pairs) - expected)[:3]
        return f"(writer, work) pairs differ: missing {missing}, " \
               f"unexpected {extra}"
    if len(writers) != len(expected) or len(pairs) != len(expected):
        return (f"{len(writers)} writers / {len(pairs)} works for "
                f"{len(expected)} (author, book) pairs")
    return None


def check_reply(request: Request, replies: Sequence[bytes],
                wire_ids: Sequence[str]) -> Tuple[Optional[str], bool]:
    """Check one request's raw reply lines.

    Returns ``(error, no_solution)``: ``error`` is ``None`` for a correct
    reply; ``no_solution`` tells whether the server reported that the
    source has no solution."""
    try:
        decoded = [json.loads(reply) for reply in replies]
    except ValueError as error:
        return f"reply is not JSON: {error}", False
    if len(decoded) != len(wire_ids):
        return f"{len(decoded)} replies for {len(wire_ids)} messages", False
    for reply, wire_id in zip(decoded, wire_ids):
        if reply.get("id") != wire_id:
            return f"reply id {reply.get('id')!r} != {wire_id!r}", False
        if not reply.get("ok"):
            return (f"error reply {reply.get('error')}: "
                    f"{reply.get('message')}", False)
    final = decoded[-1]
    no_solution = not final.get("result_ok")
    try:
        if request.kind == "certain_answers" and request.expect is not None:
            return (check_answers(final, request.expect,
                                  request.message["variable_order"]),
                    no_solution)
        if request.kind == "materialize" and request.doc is not None:
            if no_solution:
                return f"no solution: {final.get('detail')!r}", True
            return check_solution(final.get("solution"), request.doc), False
    except (TypeError, ValueError, KeyError, AttributeError) as error:
        return f"malformed reply: {type(error).__name__}: {error}", \
            no_solution
    return f"unknown request kind {request.kind!r}", False


# --------------------------------------------------------------------- #
# Shape guards
# --------------------------------------------------------------------- #

@dataclass
class Shape:
    """What one measured window showed about the workload's shape.

    ``chases`` holds one record per traced chase (``success``, ``steps``,
    ``root_changereg``), or ``None`` when the run was not traced."""

    requests: int
    no_solution: int
    result_cache_hits: int
    result_cache_misses: int
    chases: Optional[List[Dict[str, Any]]] = None


def guard(workload: str, shape: Shape) -> List[str]:
    """The violated shape properties of ``workload`` (empty when it held)."""
    failures: List[str] = []
    if shape.requests < 1:
        failures.append("no request completed")
    if workload == "clio_cold":
        if shape.no_solution:
            failures.append(f"{shape.no_solution} request(s) had no "
                            f"solution; every clio chase must succeed")
        if shape.result_cache_hits:
            failures.append(f"{shape.result_cache_hits} result-cache hit(s); "
                            f"every clio document must be new")
        if shape.chases is not None:
            if len(shape.chases) < shape.requests:
                failures.append(f"{len(shape.chases)} chase(s) for "
                                f"{shape.requests} request(s)")
            bad = [chase for chase in shape.chases
                   if not chase.get("success")
                   or chase.get("root_changereg", 0) < 1]
            if bad:
                failures.append(f"{len(bad)} chase(s) failed or had no "
                                f"root ChangeReg")
    elif workload == "library_corpus":
        if shape.no_solution:
            failures.append(f"{shape.no_solution} request(s) had no "
                            f"solution")
        lookups = shape.result_cache_hits + shape.result_cache_misses
        share = shape.result_cache_hits / lookups if lookups else 0.0
        low, high = HIT_SHARE_BAND
        if not low <= share <= high:
            failures.append(f"result-cache hit share {share:.3f} outside "
                            f"[{low}, {high}]")
        if shape.chases is not None:
            if not shape.chases:
                failures.append("no chase ran: every request hit the cache")
            steps = sum(chase.get("steps", 0) for chase in shape.chases)
            if steps:
                failures.append(f"{steps} chase repair step(s); the library "
                                f"corpus must chase without repairs")
    elif workload == "materialize":
        if shape.no_solution:
            failures.append(f"{shape.no_solution} solve(s) returned no "
                            f"solution")
    else:
        failures.append(f"unknown workload {workload!r}")
    return failures
