"""Pool parity: an inline engine and a worker-pool engine agree exactly.

``ExchangeEngine(setting)`` computes inline; ``ExchangeEngine(setting,
workers=N)`` computes cache misses on its own process pool.  The two differ
only in *where* the per-tree work runs; the observable results — success
flags, answer sets, strategies, details, order, counters — must be
identical on the same generated batch.  Fresh engines are used per side so
no result cache blurs the comparison, plus shared-engine passes proving the
parent's cache makes repeated pool batches converge with everything else.
"""

import pytest

from repro import ExchangeEngine, compile_setting
from repro.generators import generate_scenario
from repro.workloads import library

#: (scenario seed, profile) pairs for the sweep; small but structurally
#: diverse (general profiles route consistency differently and produce
#: different chase shapes).
SWEEP = [(101, "nested_relational"), (202, "general"), (303, "mixed")]


def _payload_view(result):
    return (result.ok, result.payload, result.strategy, result.detail)


def _pooled(setting, workers=2):
    return ExchangeEngine(setting, workers=workers)


@pytest.mark.parametrize("seed,profile", SWEEP)
def test_certain_answers_batch_parity(seed, profile):
    scenario = generate_scenario(seed, profile=profile, n_trees=4)
    query = scenario.queries[0]
    trees = scenario.source_trees

    inline = ExchangeEngine(scenario.setting)
    pooled = _pooled(scenario.setting, workers=3)
    try:
        serial = inline.certain_answers_batch(trees, query)
        processed = pooled.certain_answers_batch(trees, query)
    finally:
        pooled.close()

    assert len(serial) == len(processed) == len(trees)
    for one, two in zip(serial, processed):
        assert _payload_view(one) == _payload_view(two), scenario.describe()
    assert inline.stats_summary().result_cache_misses == \
        pooled.stats_summary().result_cache_misses
    assert inline.requests == pooled.requests == len(trees)


@pytest.mark.parametrize("seed,profile", SWEEP)
def test_solve_batch_parity(seed, profile):
    scenario = generate_scenario(seed, profile=profile, n_trees=4)
    trees = scenario.source_trees

    serial = ExchangeEngine(scenario.setting).solve_batch(trees)
    pooled = _pooled(scenario.setting, workers=3)
    try:
        processed = pooled.solve_batch(trees)
    finally:
        pooled.close()

    for one, two in zip(serial, processed):
        assert one.ok == two.ok, scenario.describe()
        if one.ok:
            assert one.payload.equals(two.payload), scenario.describe()
        else:
            assert one.detail == two.detail, scenario.describe()


def test_elementwise_queries_keep_order_across_executors():
    scenario = generate_scenario(404, n_trees=3, n_queries=3)
    trees = scenario.source_trees
    queries = scenario.queries
    serial = ExchangeEngine(scenario.setting).certain_answers_batch(
        trees, queries)
    pooled = _pooled(scenario.setting)
    try:
        processed = pooled.certain_answers_batch(trees, queries)
    finally:
        pooled.close()
    for one, two in zip(serial, processed):
        assert _payload_view(one) == _payload_view(two)


def test_process_batch_fills_the_parent_result_cache():
    engine = _pooled(library.library_setting())
    trees = [library.generate_source(6, seed=s) for s in range(4)]
    query = library.query_writer_of("Book-0")
    try:
        first = engine.certain_answers_batch(trees, query)
        assert engine.stats["result_cache_misses"] == len(trees)
        assert engine.stats["result_cache_hits"] == 0

        # The second batch and the single requests are served from the
        # parent's cache.
        second = engine.certain_answers_batch(trees, query)
        assert engine.stats["result_cache_hits"] == len(trees)
        singles = [engine.certain_answers(tree, query) for tree in trees]
        assert engine.stats["result_cache_hits"] == 2 * len(trees)
    finally:
        engine.close()
    for one, two, three in zip(first, second, singles):
        assert _payload_view(one) == _payload_view(two) == _payload_view(three)


def test_repeated_trees_within_one_process_batch_dispatch_once():
    """Duplicates collapse onto one task, pooled or inline: one miss, two
    hits — the counters a loop of single calls reports."""
    tree = library.generate_source(5, seed=9)
    query = library.query_writer_of("Book-0")
    looped = ExchangeEngine(library.library_setting())
    for _ in range(3):
        looped.certain_answers(tree, query)
    expected = (looped.stats["result_cache_misses"],
                looped.stats["result_cache_hits"], looped.requests)
    assert expected == (1, 2, 3)
    for workers in (None, 2):
        engine = ExchangeEngine(library.library_setting(), workers=workers)
        try:
            results = engine.certain_answers_batch([tree, tree, tree], query)
        finally:
            engine.close()
        assert all(_payload_view(r) == _payload_view(results[0])
                   for r in results)
        assert (engine.stats["result_cache_misses"],
                engine.stats["result_cache_hits"],
                engine.requests) == expected


def test_process_results_carry_the_parent_cache_snapshot():
    """Every EngineResult — wherever it was computed — exposes the
    result_cache_* counters the engine docstring promises."""
    engine = _pooled(library.library_setting())
    trees = [library.generate_source(4, seed=s) for s in range(3)]
    query = library.query_writer_of("Book-0")
    try:
        results = engine.certain_answers_batch(trees, query)
    finally:
        engine.close()
    for result in results:
        assert result.cache["result_cache_misses"] == len(trees)
        assert result.cache["result_cache_hits"] == 0
        assert "rule_cache_misses" in result.cache


def test_workers_below_one_rejected():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be a positive"):
            ExchangeEngine(library.library_setting(), workers=workers)


def test_shared_compiled_setting_across_executors():
    """One compiled setting can serve inline and pooled engines alike."""
    scenario = generate_scenario(77)
    compiled = compile_setting(scenario.setting)
    query = scenario.queries[0]
    engines = [ExchangeEngine(compiled), ExchangeEngine(compiled, workers=2)]
    try:
        views = [[_payload_view(r) for r in
                  engine.certain_answers_batch(scenario.source_trees, query)]
                 for engine in engines]
    finally:
        for engine in engines:
            engine.close()
    assert views[0] == views[1]
