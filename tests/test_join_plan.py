"""The structural-join evaluator: adversarial order and parity, bind
caching and the accounting/plumbing around it.

The generated property sweep (tests/test_properties_generated.py) checks
interpreter parity across hundreds of scenarios, but its queries are
linear root-down paths — no ``//``, no wildcard.  This file attacks
exactly the shapes the sweep cannot reach: nested descendant chains,
descendant arms under branching nodes, wildcard ops seeded from attribute
tables, empty ``nodes_by_label`` seeds, and union arms of mixed
selectivity — each checked for its *ordered* rows against the golden
digests in ``tests/golden/plan_order.json`` (downstream null allocation
depends on row order, not only the row set) plus interpreter agreement.
"""

import hashlib
import json
import pickle
import random
from pathlib import Path

import pytest

from repro import ExchangeEngine, XMLTree
from repro.engine.stats import CacheStats
from repro.exchange import canonical_solution
from repro.generators import generate_scenario
from repro.patterns import (assignment_key, compile_pattern, compile_query,
                            descendant, match_anywhere, node, pattern_query,
                            union_query, wildcard)
from repro.storage.encoding import (decode_document, decode_intervals,
                                    encode_document)
from repro.workloads import library, nested_relational


def _random_tree(seed: int, size: int = 60) -> XMLTree:
    """A skewed random tree: 'row' is everywhere, 'book'/'author' are rare
    (selective seeds), 'shelf' sits mid-frequency, some nodes carry
    attributes shared across labels (wildcard-seed fodder)."""
    rng = random.Random(seed)
    tree = XMLTree("db", ordered=False)
    nodes = [tree.root]
    for _ in range(size):
        parent = rng.choice(nodes)
        label = rng.choices(["row", "shelf", "book", "author", "misc"],
                            weights=[10, 4, 2, 2, 3])[0]
        child = tree.add_child(parent, label)
        if rng.random() < 0.5:
            tree.set_attribute(child, "name",
                               rng.choice(["A", "B", "C"]))
        if rng.random() < 0.3:
            tree.set_attribute(child, "aff", rng.choice(["U", "V"]))
        nodes.append(child)
    return tree


#: The shapes the generated sweep cannot produce.
ADVERSARIAL_PATTERNS = [
    # Nested // chain (collapses to one staircase with a depth floor).
    descendant(descendant(node("author", {"name": "$n"}))),
    # // chain as the child of a selective node.
    node("db", None, descendant(node("author", {"name": "$n"}))),
    node("shelf", None, descendant(node("book", None,
                                        node("author", {"name": "$n"})))),
    # Wildcard with tests: seeded from the smallest attribute table.
    wildcard({"name": "$n", "aff": "$a"}),
    # Wildcard root whose // child shares a variable (join across arms).
    wildcard({"name": "$n"}, descendant(wildcard({"name": "$n"}))),
    # Bare wildcard with a child-span merge join below it.
    wildcard(None, node("author", {"name": "$n"})),
    # Empty nodes_by_label seed: the label occurs nowhere.
    node("zz", {"name": "$n"}),
    descendant(node("zz")),
    # Mixed-selectivity branching: rare arm + ubiquitous arm at one node.
    node("db", None, descendant(node("book")), descendant(node("row"))),
    # Many matches inside one child span: row order follows the span.
    wildcard(None, node("row", {"name": "$n"})),
]


GOLDEN = json.loads((Path(__file__).parent / "golden" / "plan_order.json")
                    .read_text(encoding="utf-8"))


def _row_digest(rows) -> str:
    """sha256 of a stable rendering of an *ordered* row tuple."""
    return hashlib.sha256(repr(tuple(rows)).encode("utf-8")).hexdigest()


class TestAdversarialParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_join_equals_recurrence_rowwise(self, seed):
        """Ordered rows equal the golden digests, which were recorded with
        the join and the former bottom-up recurrence evaluator each forced
        and asserted equal; row sets equal the interpreter's."""
        tree = _random_tree(seed)
        frozen = tree.freeze()
        expected = GOLDEN["adversarial_rows"][str(seed)]
        assert len(expected) == len(ADVERSARIAL_PATTERNS)
        for pattern, digest in zip(ADVERSARIAL_PATTERNS, expected):
            plan = compile_pattern(pattern)
            # Bit-identical rows in bit-identical order.
            assert _row_digest(plan.matches(frozen)) == digest, \
                f"seed={seed} pattern={pattern}"
            interpreted = sorted(map(assignment_key,
                                     match_anywhere(tree, pattern)))
            planned = sorted(map(assignment_key, plan.assignments(frozen)))
            assert planned == interpreted, f"seed={seed} pattern={pattern}"

    def test_every_entry_is_a_node(self):
        """``//`` chains collapse while lowering: the program holds one
        ``node`` entry per pattern node and nothing else."""
        for pattern in ADVERSARIAL_PATTERNS:
            plan = compile_pattern(pattern)
            assert {op[0] for op in plan.ops} == {"node"}, pattern
        nested = compile_pattern(ADVERSARIAL_PATTERNS[0])
        assert len(nested.ops) == 1 and nested.root_hops == 2

    def test_union_arms_of_mixed_selectivity(self):
        tree = _random_tree(99, size=120)
        frozen = tree.freeze()
        query = union_query(
            pattern_query(descendant(node("author", {"name": "$n"}))),
            pattern_query(descendant(node("row", {"name": "$n"}))),
        )
        plan = compile_query(query)
        stats = CacheStats()
        rows = plan.rows(frozen, stats=stats)
        assert _row_digest(rows) == GOLDEN["union_rows"]
        assert stats.counts("plan_join_runs") == 2  # one per arm
        planned = sorted(map(assignment_key, plan.evaluate(frozen)))
        interpreted = sorted(map(assignment_key, query.evaluate(tree)))
        assert planned == interpreted

    @pytest.mark.parametrize("name", ["library", "company"])
    def test_workload_solutions_match_golden(self, name):
        """End to end: STD source-plan rows feed null allocation, so their
        order decides the canonical solution's nulls and fingerprint."""
        setting, tree = {
            "library": (library.library_setting(),
                        library.figure_1_source()),
            "company": (nested_relational.company_setting(),
                        nested_relational.generate_company_source(
                            3, employees_per_dept=2, projects_per_dept=2)),
        }[name]
        expected = GOLDEN["workloads"][name]
        frozen = tree.freeze()
        rows = [compile_pattern(dependency.source).matches(frozen)
                for dependency in setting.stds]
        assert _row_digest(rows) == expected["std_rows"]
        solved = canonical_solution(setting, tree)
        assert solved.success
        assert solved.tree.fingerprint() == expected["fingerprint"]

    def test_rare_label_on_wide_tree_routes_to_join(self):
        tree = XMLTree("db", ordered=False)
        for _ in range(400):
            tree.add_child(tree.root, "row")
        shelf = tree.add_child(tree.root, "shelf")
        book = tree.add_child(shelf, "book")
        tree.set_attribute(tree.add_child(book, "author"), "name", "A")
        frozen = tree.freeze()
        plan = compile_pattern(
            node("shelf", None, node("book", None,
                                     node("author", {"name": "$n"}))))
        stats = CacheStats()
        rows = plan.matches(frozen, stats=stats)
        assert stats.counts("plan_join_runs") == 1
        assert [row[plan.slot_of("n")] for row in rows] == ["A"]


class TestBindCache:
    def test_resolution_cached_per_snapshot(self):
        plan = compile_pattern(node("db", None, node("book", {"title": "$t"})))
        frozen = _random_tree(1).freeze()
        first = plan._bound_ops(frozen)
        assert plan._bound_ops(frozen) is first  # cached, not re-resolved
        other = _random_tree(2).freeze()
        assert plan._bound_ops(other) is not first
        assert len(plan._bind_cache) == 2

    def test_bind_cache_entries_die_with_the_snapshot(self):
        plan = compile_pattern(node("db"))
        frozen = _random_tree(1).freeze()
        plan._bound_ops(frozen)
        assert len(plan._bind_cache) == 1
        del frozen
        assert len(plan._bind_cache) == 0  # weakly keyed

    def test_pickle_drops_bind_cache_keeps_ops(self):
        plan = compile_pattern(
            node("db", None, descendant(node("author", {"name": "$n"}))))
        tree = _random_tree(4)
        frozen = tree.freeze()
        before = plan.matches(frozen)
        clone = pickle.loads(pickle.dumps(plan))
        assert len(clone._bind_cache) == 0
        # Re-lowered on load against the saved slots: the same program.
        assert clone.ops == plan.ops
        assert clone.root_hops == plan.root_hops
        assert clone.matches(frozen) == before


class TestEngineAccounting:
    def test_engine_result_cache_carries_strategy_counters(self):
        engine = ExchangeEngine(library.library_setting())
        tree = library.figure_1_source()
        query = library.query_writer_of("Computational Complexity")
        result = engine.certain_answers(tree, query)
        assert result.ok
        # STD source plans + the query's atoms all counted.
        assert result.cache["plan_join_runs"] > 0
        summary = engine.stats_summary()
        assert summary.plan_join_runs == result.cache["plan_join_runs"]

    def test_generated_scenario_counters_accumulate(self):
        scenario = generate_scenario(7)
        engine = ExchangeEngine(scenario.setting)
        for tree in scenario.source_trees:
            for query in scenario.queries:
                engine.certain_answers(tree, query)
        assert engine.stats["plan_join_runs"] > 0


class TestPrePostPlane:
    def test_pre_post_cached_and_characterises_ancestry(self):
        tree = _random_tree(11)
        frozen = tree.freeze()
        pre, post = frozen.pre_post()
        assert frozen.pre_post() is frozen._pre_post  # computed once
        assert sorted(pre) == list(range(frozen.n))
        assert sorted(post) == list(range(frozen.n))
        depths = frozen.depths()
        sizes = frozen.subtree_sizes()
        assert sizes[0] == frozen.n and depths[0] == 0
        # pre/post plane vs the parent chain, exhaustively.
        def ancestors(pos):
            chain = set()
            while frozen.parent(pos) is not None:
                pos = frozen.parent(pos)
                chain.add(pos)
            return chain
        for w in range(frozen.n):
            plane = {v for v in range(frozen.n)
                     if pre[v] < pre[w] and post[v] > post[w]}
            assert plane == ancestors(w), f"node {w}"
        # Descendant intervals: exactly size[v]-1 proper descendants.
        for v in range(frozen.n):
            in_interval = sum(1 for w in range(frozen.n)
                              if pre[v] < pre[w] < pre[v] + sizes[v])
            assert in_interval == sizes[v] - 1

    def test_storage_roundtrip_seeds_the_plane(self):
        frozen = _random_tree(12).freeze()
        record = memoryview(encode_document(frozen))
        decoded = decode_document(record)
        assert decoded._pre_post is not None  # seeded, not lazily re-derived
        assert decoded._pre_post == frozen.pre_post()
        assert decode_intervals(record) == frozen.pre_post()


class TestFrozenConformance:
    def test_matches_tree_walk_on_conforming_and_violating_trees(self):
        dtd = library.target_dtd()
        solved = canonical_solution(library.library_setting(),
                                    library.figure_1_source())
        assert solved.success
        good = solved.tree
        assert dtd.conformance_violations_frozen(good.freeze(),
                                                 ordered=False) == []
        assert dtd.conformance_violations(good, ordered=False) == []
        # Break it two ways: an alien attribute and an alien child.
        bad = good.copy()
        some_node = next(iter(bad.nodes()))
        bad.set_attribute(some_node, "alien", "x")
        bad.add_child(bad.root, "martian")
        tree_walk = dtd.conformance_violations(bad, ordered=False)
        frozen_walk = dtd.conformance_violations_frozen(bad.freeze(),
                                                        ordered=False)
        # Same violations (message order groups by label in the frozen walk).
        assert sorted(tree_walk) == sorted(frozen_walk)
        assert frozen_walk  # actually caught something

    def test_chase_result_carries_frozen_and_pickle_drops_it(self):
        solved = canonical_solution(library.library_setting(),
                                    library.figure_1_source())
        assert solved.success
        assert solved.frozen is not None
        assert solved.frozen.fingerprint() == solved.tree.fingerprint()
        clone = pickle.loads(pickle.dumps(solved))
        assert clone.frozen is None  # a cache, not part of the identity
        assert clone.tree.fingerprint() == solved.tree.fingerprint()
