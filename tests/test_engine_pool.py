"""The engine's worker pool: lifetime, crash fallback and the service wiring.

``ExchangeEngine(setting, workers=N)`` owns one lazily created, long-lived
process pool.  Batches reuse it; a worker killed mid-call costs the pool
(counted as ``pool_restarts``; the next call builds a fresh one) but never
the answers, which are then computed inline; a closed engine computes
inline for good.  ``AsyncExchangeService(executor="process")`` reaches the
same pool through its registry's ``workers``.
"""

import asyncio
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro import ExchangeEngine
from repro.service import (AsyncExchangeService, SettingRegistry,
                           certain_answers_request)
from repro.workloads import library, nested_relational

QUERY = nested_relational.query_projects_of("Dept-1")


def _child_pids():
    return {process.pid for process in multiprocessing.active_children()}


def _company_sources(count):
    """Distinct company documents of 10–14 departments: big enough that a
    pooled call is still running when the killer strikes."""
    return [nested_relational.generate_company_source(
        10 + seed % 5, seed=seed)
        for seed in range(count)]


class _Killer(threading.Thread):
    """SIGKILLs one worker process once ``started`` new ones are up.

    Waiting for the whole pool keeps the kill clear of the executor's own
    worker start-up: CPython's pool can hang its manager thread when a
    worker dies while another one is still being spawned."""

    def __init__(self, started):
        super().__init__(daemon=True)
        self.started = started
        self.before = _child_pids()
        self.victim = None

    def run(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            fresh = _child_pids() - self.before
            if len(fresh) >= self.started:
                self.victim = min(fresh)
                os.kill(self.victim, signal.SIGKILL)
                return
            time.sleep(0.001)


def _engine_batch(setting, sources):
    engine = ExchangeEngine(setting, workers=2)
    killer = _Killer(started=2)
    killer.start()
    try:
        results = engine.certain_answers_batch(sources, QUERY)
        killer.join(timeout=60)
        restarts = engine.pool_restarts
        engine.clear_result_cache()
        engine.certain_answers(sources[0], QUERY)
        live = _child_pids() - killer.before
    finally:
        engine.close()
    return [r.payload for r in results], killer, restarts, live


def _service_requests(setting, sources):
    async def scenario():
        async with AsyncExchangeService(executor="process",
                                        parallel=2) as service:
            fingerprint = service.register(setting)
            # Requests arrive one at a time, so the pool starts one worker.
            killer = _Killer(started=1)
            killer.start()
            payloads = []
            for tree in sources:
                result = await service.certain_answers(fingerprint, tree,
                                                       QUERY)
                payloads.append(result.payload)
            killer.join(timeout=60)
            restarts = service.stats()["shards"][fingerprint]["pool_restarts"]
            # The requests after the crashed one already built a new pool.
            return payloads, killer, restarts, _child_pids() - killer.before

    return asyncio.run(scenario())


@pytest.mark.parametrize("run", [_engine_batch, _service_requests],
                         ids=["engine-batch", "service-process"])
def test_dead_worker_falls_back_inline(run):
    setting = nested_relational.company_setting()
    sources = _company_sources(12)
    payloads, killer, restarts, live = run(setting, sources)
    assert not killer.is_alive()
    assert killer.victim is not None, "no pool worker ever started"
    inline = ExchangeEngine(setting)
    assert payloads == [inline.certain_answers(tree, QUERY).payload
                        for tree in sources]
    assert restarts == 1
    # Later calls run on a fresh pool: worker processes started after the
    # kill's pool, the killed one not among them.
    assert live and killer.victim not in live


def test_batches_share_one_long_lived_pool():
    engine = ExchangeEngine(library.library_setting(), workers=2)
    trees = [library.generate_source(6, seed=s) for s in range(6)]
    query = library.query_writer_of("Book-0")
    before = _child_pids()
    try:
        engine.certain_answers_batch(trees, query)
        first = _child_pids() - before
        engine.clear_result_cache()
        engine.certain_answers_batch(trees, query)
        second = _child_pids() - before
    finally:
        engine.close()
    assert len(first) == 2
    assert second == first
    assert engine.pool_restarts == 0


def test_closed_engine_computes_inline_for_good():
    engine = ExchangeEngine(library.library_setting(), workers=2)
    tree = library.generate_source(4, seed=3)
    query = library.query_writer_of("Book-0")
    engine.close()
    engine.close()  # idempotent
    before = _child_pids()
    assert engine.certain_answers_batch([tree], query)[0].ok
    assert engine.solve(tree).ok
    assert _child_pids() - before == set()
    assert engine._pool is None


def test_service_with_explicit_registry_runs_process_work_in_workers():
    setting = library.library_setting()
    tree = library.generate_source(4, seed=5)
    query = library.query_writer_of("Book-0")
    registry = SettingRegistry()
    before = _child_pids()

    async def scenario():
        async with AsyncExchangeService(registry, executor="process",
                                        parallel=2) as service:
            fingerprint = service.register(setting)
            result = await service.submit(
                certain_answers_request(fingerprint, tree, query))
            return result, registry.engine(fingerprint).workers, \
                _child_pids() - before

    result, workers, started = asyncio.run(scenario())
    assert result.payload == \
        ExchangeEngine(setting).certain_answers(tree, query).payload
    assert workers == 2
    assert started, "per-tree work never reached a worker process"


def test_concurrent_requests_share_one_pool():
    """The service's threads share an engine: with more threads and
    workers than cores, every request is counted exactly once and all of
    them are served by a single pool."""
    engine = ExchangeEngine(library.library_setting(), workers=3)
    trees = [library.generate_source(4, seed=s) for s in range(6)]
    query = library.query_writer_of("Book-0")
    expected = [ExchangeEngine(library.library_setting())
                .certain_answers(tree, query).payload for tree in trees]
    before = _child_pids()
    mismatches = []

    def client():
        for index, tree in enumerate(trees):
            if engine.certain_answers(tree, query).payload != expected[index]:
                mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        started = _child_pids() - before
    finally:
        sys.setswitchinterval(interval)
        engine.close()
    assert mismatches == []
    summary = engine.stats_summary()
    assert engine.requests == 4 * len(trees)
    assert summary.result_cache_hits + summary.result_cache_misses == \
        4 * len(trees)
    assert 1 <= len(started) <= 3
    assert engine.pool_restarts == 0
