"""The batch-first facade over the whole exchange pipeline.

:class:`ExchangeEngine` owns a :class:`~repro.engine.compiled.CompiledSetting`
and exposes every pipeline stage as a method returning a uniform
:class:`EngineResult` — success flag, payload, strategy used, wall-clock
timing and a cache-stats snapshot — instead of the four unrelated result
dataclasses of the functional API (which remains available and is what the
engine delegates to, handing it the compiled fast path).

Per-tree work (``solve``, ``certain_answers``) is embarrassingly parallel
across trees once the setting is compiled; the ``*_batch`` methods fan it
out over a ``concurrent.futures`` pool.  ``executor="thread"`` shares the
compiled setting in-process (cheap, but chase/query work is GIL-bound);
``executor="process"`` pickles the compiled setting once per worker — it
arrives warm, so workers never recompile — and escapes the GIL for
CPU-bound batches.

On top of the compiled-setting caches the engine keeps a **result cache**
keyed by ``(tree_fingerprint, query_fingerprint, variable_order)``: repeated
``certain_answers`` requests for the same tree and query are served without
re-chasing.  Hits and misses are surfaced through the ``cache`` snapshot of
every :class:`EngineResult` (``result_cache_hits`` / ``result_cache_misses``)
and through :meth:`ExchangeEngine.stats_summary`.  Only *results* are cached
— including "no solution" outcomes — never exceptions: a call that raises
(:class:`~repro.exchange.errors.ChaseError`, a precondition ``ValueError``)
is recomputed, and re-raises, every time.

The cache is unbounded by default — right for a batch job whose working set
is its own input, wrong for a long-lived server.  ``result_cache_maxsize=N``
bounds it to the ``N`` most recently used entries (least-recently-used
eviction, counted as ``result_cache_evictions``); the serving layer
(:mod:`repro.service`) sets this per shard, so each setting's tenants share a
budget but can never evict another setting's entries.

**Fingerprint-addressed requests.**  After :meth:`attach_store` the
per-tree methods accept a document *fingerprint* (``str``) wherever they
accept an inline :class:`XMLTree`: the engine resolves it through a small
LRU of thawed trees and then the attached
:class:`~repro.storage.CorpusStore`, raising the typed
:class:`~repro.storage.UnknownDocumentError` for absent fingerprints.
Resolutions are counted on the store's ``CacheStats`` (``store_hits`` /
``store_misses``; ``store_bytes`` moves only when record bytes are
actually read off the heap) and surface in every result's ``cache``
snapshot and in :meth:`stats_summary`.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from ..exchange.certain_answers import CertainAnswers, certain_answers
from ..exchange.chase import ChaseResult, canonical_solution
from ..exchange.consistency import ConsistencyResult, check_consistency
from ..exchange.dichotomy import DichotomyReport
from ..exchange.errors import NoSolutionError
from ..exchange.setting import DataExchangeSetting
from ..obs.trace import span as obs_span, timer as obs_timer
from ..patterns.queries import Query
from ..xmlmodel.tree import XMLTree
from ..xmlmodel.values import NullFactory
from .compiled import CompiledSetting, compile_setting
from .stats import CacheStats, EngineStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage import CorpusStore

__all__ = ["EngineResult", "EngineStats", "ExchangeEngine"]

#: A per-tree operand: the document itself, or — with a store attached —
#: its fingerprint.
TreeRef = Union[XMLTree, str]

#: Strategy names accepted by :meth:`ExchangeEngine.check_consistency`.
CONSISTENCY_STRATEGIES = ("auto", "nested_relational", "general")

#: Executor names accepted by the ``*_batch`` methods.
BATCH_EXECUTORS = ("serial", "thread", "process")


@dataclass
class EngineResult:
    """Uniform outcome of every engine operation.

    ``ok``
        Did the operation produce a defined payload?  ``False`` means "no
        solution exists" for ``solve`` / ``certain_answers`` and
        "inconsistent" for ``check_consistency`` — never an internal error
        (those raise).
    ``payload``
        The operation's primary value: a ``bool`` for consistency, the
        canonical-solution tree for ``solve``, the set of certain-answer
        tuples for ``certain_answers``, the dichotomy report for
        ``classify``.
    ``strategy``
        Which algorithm served the request (e.g. ``"nested-relational"``,
        ``"general"``, ``"chase"``).
    ``elapsed``
        Wall-clock seconds spent inside the engine for this request.
    ``cache``
        :meth:`CompiledSetting.cache_stats` snapshot taken after the request
        (cumulative counters; diff two snapshots to see per-request reuse).
    ``raw``
        The underlying functional-API result object
        (:class:`ConsistencyResult`, :class:`ChaseResult`,
        :class:`CertainAnswers`, :class:`DichotomyReport`) for callers that
        need the full detail.
    """

    ok: bool
    payload: Any
    strategy: str
    elapsed: float
    cache: Dict[str, int] = field(default_factory=dict)
    detail: str = ""
    raw: Any = None

    def __bool__(self) -> bool:
        return self.ok

    def unwrap(self) -> Any:
        """The payload, or :class:`NoSolutionError` when ``ok`` is false."""
        if not self.ok:
            raise NoSolutionError(self.detail or "operation produced no result")
        return self.payload


class ExchangeEngine:
    """A compiled, cached facade over consistency, the chase and certain
    answers.

    Build it from a setting (compiled on the spot) or from an explicitly
    precompiled :class:`CompiledSetting`; reuse it for any number of
    per-tree requests::

        engine = ExchangeEngine(setting)
        engine.check_consistency().payload        # True / False
        engine.solve(tree).payload                # canonical solution tree
        engine.certain_answers(tree, query).payload
        engine.certain_answers_batch(trees, query, parallel=4)
    """

    def __init__(self, compiled: Union[CompiledSetting, DataExchangeSetting],
                 result_cache: bool = True,
                 result_cache_maxsize: Optional[int] = None) -> None:
        if isinstance(compiled, DataExchangeSetting):
            compiled = compile_setting(compiled)
        if not isinstance(compiled, CompiledSetting):
            raise TypeError(
                f"expected a DataExchangeSetting or CompiledSetting, "
                f"got {type(compiled).__name__}")
        if result_cache_maxsize is not None and result_cache_maxsize < 1:
            raise ValueError(
                f"result_cache_maxsize must be a positive integer or None "
                f"(unbounded), got {result_cache_maxsize!r}")
        self.compiled = compiled
        self.requests = 0
        #: ``result_cache=False`` disables the engine-level result cache
        #: (every request recomputes; counters stay at zero).
        self.result_cache_enabled = result_cache
        #: ``None`` keeps the cache unbounded (the batch-job default, where
        #: the working set is the job's own input); a long-lived server
        #: should bound it — least-recently-used entries are then evicted
        #: and counted as ``result_cache_evictions``.
        self.result_cache_maxsize = result_cache_maxsize
        self._results: "OrderedDict[Tuple[str, str, Optional[Tuple[str, ...]]], CertainAnswers]" = OrderedDict()
        self._engine_stats = CacheStats()
        #: Attached corpus store (see :meth:`attach_store`) and the LRU of
        #: thawed trees fronting it, keyed by fingerprint.
        self._store: Optional["CorpusStore"] = None
        self._store_trees: "OrderedDict[str, XMLTree]" = OrderedDict()
        self._store_tree_maxsize = 64
        # Guards the result cache, its counters and the request counter
        # against thread-pool batches; computation happens outside the lock
        # (two threads racing past the lookup may both compute — the
        # counters then truthfully report two misses).
        self._lock = threading.Lock()

    @property
    def setting(self) -> DataExchangeSetting:
        return self.compiled.setting

    @property
    def store(self) -> Optional["CorpusStore"]:
        """The attached corpus store, or ``None``."""
        return self._store

    def attach_store(self, store: Union["CorpusStore", str, "os.PathLike"],
                     *, read_only: bool = False,
                     tree_cache_maxsize: int = 64) -> "CorpusStore":
        """Attach a persistent corpus store (a :class:`CorpusStore` or a
        store directory path, opened — and created, unless ``read_only`` —
        on the spot).

        Afterwards every per-tree method accepts a document fingerprint in
        place of an inline tree; resolved trees are kept in a
        ``tree_cache_maxsize``-bounded LRU so repeated requests against
        the same document thaw it once.  Returns the attached store (handy
        for ``engine.attach_store(path).put_tree(tree)``)."""
        from ..storage import CorpusStore
        if tree_cache_maxsize < 1:
            raise ValueError(f"tree_cache_maxsize must be >= 1, "
                             f"got {tree_cache_maxsize!r}")
        if not isinstance(store, CorpusStore):
            store = CorpusStore(store, read_only=read_only)
        with self._lock:
            self._store = store
            self._store_tree_maxsize = tree_cache_maxsize
            self._store_trees.clear()
        return store

    def resolve_tree(self, source: TreeRef) -> XMLTree:
        """An inline tree verbatim, or a fingerprint resolved through the
        thawed-tree LRU and the attached store.

        Raises :class:`~repro.storage.StoreError` when a fingerprint is
        used with no store attached and
        :class:`~repro.storage.UnknownDocumentError` when the store has no
        such document (both typed, both wire-codable)."""
        if isinstance(source, XMLTree):
            return source
        store = self._store
        if store is None:
            from ..storage import StoreError
            raise StoreError(
                f"cannot resolve tree fingerprint {source[:12]}...: no "
                f"store attached (call attach_store first)")
        with self._lock:
            cached = self._store_trees.get(source)
            if cached is not None:
                self._store_trees.move_to_end(source)
        if cached is not None:
            store.stats.hit("store")
            return cached
        tree = store.load_tree(source)
        with self._lock:
            self._store_trees[source] = tree
            self._store_trees.move_to_end(source)
            while len(self._store_trees) > self._store_tree_maxsize:
                self._store_trees.popitem(last=False)
        return tree

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative cache statistics: the compiled setting's caches merged
        with the engine-level result cache counters (and, with a store
        attached, the store's resolution counters)."""
        merged = self.compiled.cache_stats()
        merged.update(self._engine_stats.snapshot())
        if self._store is not None:
            # Read the three store counters directly rather than through
            # snapshot(): this runs per EngineResult on every shard engine
            # sharing one store handle, and the full sorted/formatted
            # snapshot is measurably slower on the warm request path.
            # Store-less engines skip the keys entirely (readers treat the
            # absence as zero) — the warm cached path stays as cheap as it
            # was before the storage layer existed.
            stats = self._store.stats
            merged["store_hits"] = stats.hits("store")
            merged["store_misses"] = stats.misses("store")
            merged["store_bytes"] = stats.counts("store_bytes")
        merged.setdefault("result_cache_hits", 0)
        merged.setdefault("result_cache_misses", 0)
        merged.setdefault("result_cache_evictions", 0)
        merged.setdefault("plan_cache_hits", 0)
        merged.setdefault("plan_cache_misses", 0)
        merged.setdefault("plan_cache_evictions", 0)
        merged.setdefault("plan_join_runs", 0)
        return merged

    def stats_summary(self) -> EngineStats:
        """The engine's counters as a structured :class:`EngineStats`."""
        counters = self.stats
        return EngineStats(
            requests=self.requests,
            result_cache_hits=counters["result_cache_hits"],
            result_cache_misses=counters["result_cache_misses"],
            result_cache_entries=len(self._results),
            result_cache_evictions=counters["result_cache_evictions"],
            result_cache_maxsize=self.result_cache_maxsize,
            plan_cache_hits=counters["plan_cache_hits"],
            plan_cache_misses=counters["plan_cache_misses"],
            plan_cache_evictions=counters["plan_cache_evictions"],
            plan_cache_entries=len(self.compiled.plan_cache),
            plan_join_runs=counters["plan_join_runs"],
            store_hits=counters.get("store_hits", 0),
            store_misses=counters.get("store_misses", 0),
            store_bytes=counters.get("store_bytes", 0),
            counters=counters)

    def clear_result_cache(self) -> None:
        """Drop every cached result (counters are kept)."""
        with self._lock:
            self._results.clear()

    # ------------------------------------------------------------------ #
    # Setting-level operations
    # ------------------------------------------------------------------ #

    def classify(self) -> EngineResult:
        """The dichotomy routing decision (Theorem 6.2): is this setting in
        the tractable class?  ``ok`` is always true; ``payload.tractable``
        carries the verdict."""
        with obs_timer("engine.classify") as clock:
            report: DichotomyReport = self.compiled.dichotomy
            return self._result(True, report, "dichotomy", clock,
                                detail=report.summary(), raw=report)

    def check_consistency(self, strategy: str = "auto",
                          **kwargs: Any) -> EngineResult:
        """Decide consistency (Section 4) with automatic strategy routing.

        ``strategy`` is ``"auto"`` (nested-relational fast path when both
        DTDs qualify), ``"nested_relational"`` (Theorem 4.5) or
        ``"general"`` (Theorem 4.1); extra keyword arguments reach the
        general procedure (e.g. ``max_source_trees``)."""
        normalised = strategy.replace("-", "_")
        if normalised not in CONSISTENCY_STRATEGIES:
            raise ValueError(
                f"unknown consistency strategy {strategy!r}; "
                f"expected one of {', '.join(CONSISTENCY_STRATEGIES)}")
        with obs_timer("engine.consistency") as clock:
            outcome: ConsistencyResult = check_consistency(
                self.setting, method=normalised.replace("_", "-"),
                compiled=self.compiled, **kwargs)
            return self._result(outcome.consistent, outcome.consistent,
                                outcome.method, clock,
                                detail=outcome.detail, raw=outcome)

    # ------------------------------------------------------------------ #
    # Per-tree operations
    # ------------------------------------------------------------------ #

    def solve(self, source_tree: TreeRef,
              nulls: Optional[NullFactory] = None) -> EngineResult:
        """Chase ``cps(T)`` into the canonical solution ``T*`` (Section 6.1).

        ``source_tree`` is an inline tree or — with a store attached — a
        document fingerprint.  ``ok`` is false — with the chase's failure
        reason in ``detail`` — when the source tree has no solution
        (Lemma 6.15 b)."""
        with obs_timer("engine.solve") as clock:
            source_tree = self.resolve_tree(source_tree)
            outcome: ChaseResult = canonical_solution(
                self.setting, source_tree, nulls, compiled=self.compiled)
            return self._result(outcome.success, outcome.tree, "chase",
                                clock, detail=outcome.failure or "",
                                raw=outcome)

    def certain_answers(self, source_tree: TreeRef, query: Query,
                        variable_order: Optional[Sequence[str]] = None,
                        nulls: Optional[NullFactory] = None) -> EngineResult:
        """``certain(Q, T)`` via the canonical solution (Theorem 6.2).

        ``source_tree`` is an inline tree or — with a store attached — a
        document fingerprint.  ``payload`` is the set of all-constant
        answer tuples; ``ok`` is false when the source tree has no
        solution.  Repeated requests for a fingerprint-identical ``(tree,
        query, variable_order)`` triple are served from the result cache
        (observable only through the ``result_cache_*`` counters —
        payload, strategy and detail are identical to a fresh
        computation), so inline and fingerprint-addressed forms of the
        same document share cache entries.  Passing an explicit ``nulls``
        factory bypasses the cache: the caller is asking for the canonical
        solution to be built from *that* factory, which a cached outcome
        would silently ignore."""
        with obs_timer("engine.certain_answers") as clock:
            source_tree = self.resolve_tree(source_tree)
            key = (None if nulls is not None
                   else self._result_key(source_tree, query, variable_order))
            if key is not None:
                with obs_span("engine.cache_lookup"):
                    cached = self._cache_lookup(key)
                if cached is not None:
                    return self._certain_result(cached, clock)
            outcome: CertainAnswers = certain_answers(
                self.setting, source_tree, query, variable_order, nulls,
                compiled=self.compiled)
            if key is not None:
                self._cache_store(key, outcome)
            return self._certain_result(outcome, clock)

    def _result_key(self, source_tree: XMLTree, query: Query,
                    variable_order: Optional[Sequence[str]]
                    ) -> Optional[Tuple[str, str, Optional[Tuple[str, ...]]]]:
        if not self.result_cache_enabled:
            return None
        order = tuple(variable_order) if variable_order is not None else None
        return (source_tree.fingerprint(), query.fingerprint(), order)

    def _cache_lookup(self, key: Tuple) -> Optional[CertainAnswers]:
        """Counted result-cache lookup; a hit refreshes the entry's LRU
        position."""
        with self._lock:
            cached = self._results.get(key)
            if cached is None:
                self._engine_stats.miss("result_cache")
            else:
                self._results.move_to_end(key)
                self._engine_stats.hit("result_cache")
            return cached

    def _cache_store(self, key: Tuple, outcome: CertainAnswers) -> None:
        """Store ``outcome`` under ``key``, evicting least-recently-used
        entries beyond ``result_cache_maxsize`` (counted)."""
        with self._lock:
            self._results[key] = outcome
            self._results.move_to_end(key)
            if self.result_cache_maxsize is not None:
                while len(self._results) > self.result_cache_maxsize:
                    self._results.popitem(last=False)
                    self._engine_stats.evict("result_cache")

    def _certain_result(self, outcome: CertainAnswers,
                        clock: Any) -> EngineResult:
        detail = "" if outcome.has_solution else "the source tree has no solution"
        return self._result(outcome.has_solution, outcome.answers,
                            "canonical-solution", clock,
                            detail=detail, raw=outcome)

    def certain_answer_boolean(self, source_tree: TreeRef,
                               query: Query) -> EngineResult:
        """Boolean certain answers; ``payload`` is ``True`` / ``False`` and
        ``ok`` is false (payload ``None``) when no solution exists."""
        result = self.certain_answers(source_tree, query)
        payload = bool(result.payload) if result.ok else None
        return EngineResult(result.ok, payload, result.strategy,
                            result.elapsed, result.cache, result.detail,
                            result.raw)

    # ------------------------------------------------------------------ #
    # Batch operations
    # ------------------------------------------------------------------ #

    def solve_batch(self, source_trees: Sequence[TreeRef],
                    parallel: Optional[int] = None,
                    executor: str = "thread") -> List[EngineResult]:
        """Canonical solutions for many source trees (order-preserving).

        Items may be inline trees or stored-document fingerprints.
        ``executor`` is ``"thread"`` (default), ``"process"`` or
        ``"serial"``; see :meth:`certain_answers_batch`."""
        trees = [self.resolve_tree(tree) for tree in source_trees]
        return self._map_batch("solve", self.solve, trees,
                               parallel, executor)

    def certain_answers_batch(self, source_trees: Sequence[TreeRef],
                              queries: Union[Query, Sequence[Query]],
                              parallel: Optional[int] = None,
                              executor: str = "thread") -> List[EngineResult]:
        """``certain(Q_i, T_i)`` for many trees (order-preserving).

        ``queries`` is either a single query evaluated against every tree or
        a sequence paired elementwise with ``source_trees``.  ``parallel=N``
        fans the per-tree work out over ``N`` workers:

        * ``executor="thread"`` — a thread pool sharing the compiled setting
          read-only (each request gets its own null factory); cheap to start
          but GIL-bound for CPU-heavy chases;
        * ``executor="process"`` — a process pool; the compiled setting is
          pickled once per worker (arriving warm, so workers never
          recompile) and per-tree work runs on separate cores.  Errors
          raised by a worker propagate to the caller exactly as in the
          serial path;
        * ``executor="serial"`` — force in-line execution regardless of
          ``parallel``.

        All three executors consult (and fill) the engine's result cache in
        the parent, and payloads are identical across executors.  The serial
        and process paths never dispatch a fingerprint-identical request
        twice (the process path collapses in-batch duplicates onto one
        task); the thread path consults the cache per request, so
        *concurrent* duplicates racing past the lookup may occasionally
        compute in parallel — counters then truthfully report extra misses.
        """
        trees = [self.resolve_tree(tree) for tree in source_trees]
        if isinstance(queries, Query):
            pairs = [(tree, queries) for tree in trees]
        else:
            query_list = list(queries)
            if len(query_list) != len(trees):
                raise ValueError(
                    f"{len(trees)} source tree(s) but {len(query_list)} "
                    "query/queries; pass one query or exactly one per tree")
            pairs = list(zip(trees, query_list))
        return self._map_batch("certain_answers",
                               lambda pair: self.certain_answers(*pair),
                               pairs, parallel, executor)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _map_batch(self, operation_name: str,
                   operation: Callable[[Any], EngineResult],
                   items: List[Any], parallel: Optional[int], executor: str
                   ) -> List[EngineResult]:
        if executor not in BATCH_EXECUTORS:
            raise ValueError(f"unknown batch executor {executor!r}; "
                             f"expected one of {', '.join(BATCH_EXECUTORS)}")
        workers = min(parallel or 1, len(items))
        if executor == "process" and workers > 1:
            return self._map_process(operation_name, items, workers)
        if executor == "thread" and workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(operation, items))
        return [operation(item) for item in items]

    def _map_process(self, operation_name: str, items: List[Any],
                     workers: int) -> List[EngineResult]:
        """Fan per-tree work out over a process pool.

        The result cache is consulted in the parent first, and duplicates
        *within* the batch are collapsed onto one task, so no fingerprint-
        identical request is ever dispatched twice — cached and deduplicated
        occurrences count as hits, exactly like the serial path.  Worker
        outcomes are stored back into the cache, and every returned result
        carries the parent's merged cache snapshot (the same view the other
        executors report).
        """
        results: List[Optional[EngineResult]] = [None] * len(items)
        tasks: List[Tuple[str, Any]] = []
        #: result index -> position in ``tasks`` serving it.
        served_by: List[Tuple[int, int]] = []
        task_keys: List[Optional[Tuple]] = []
        task_of_key: Dict[Tuple, int] = {}
        for index, item in enumerate(items):
            key = None
            if operation_name == "certain_answers":
                tree, query = item
                key = self._result_key(tree, query, None)
                if key is not None:
                    with self._lock:
                        cached = self._results.get(key)
                        if cached is not None:
                            self._results.move_to_end(key)
                            self._engine_stats.hit("result_cache")
                        elif key in task_of_key:
                            self._engine_stats.hit("result_cache")
                        else:
                            self._engine_stats.miss("result_cache")
                    if cached is not None:
                        with obs_timer("engine.certain_answers") as clock:
                            results[index] = self._certain_result(cached,
                                                                  clock)
                        continue
                    pending = task_of_key.get(key)
                    if pending is not None:
                        # A fingerprint-identical request is already in this
                        # batch: share its task (and future cache entry).
                        served_by.append((index, pending))
                        continue
                    task_of_key[key] = len(tasks)
            task_keys.append(key)
            served_by.append((index, len(tasks)))
            tasks.append((operation_name, item))
        if tasks:
            with ProcessPoolExecutor(
                    max_workers=min(workers, len(tasks)),
                    initializer=_process_worker_init,
                    initargs=(self.compiled,)) as pool:
                worker_results = list(pool.map(_process_worker_run, tasks))
            for position, result in enumerate(worker_results):
                key = task_keys[position]
                if key is not None:
                    self._cache_store(key, result.raw)
            for index, position in served_by:
                result = worker_results[position]
                with self._lock:
                    self.requests += 1
                results[index] = result
            # One snapshot after the whole batch: the merged parent view
            # every other executor's results carry (worker-local snapshots
            # lack the engine-level counters).
            snapshot = self.stats
            for result in worker_results:
                result.cache = snapshot
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def _result(self, ok: bool, payload: Any, strategy: str, clock: Any,
                detail: str = "", raw: Any = None) -> EngineResult:
        """Wrap an outcome; ``clock`` is the request's
        :func:`repro.obs.trace.timer` — the one code path every
        ``EngineResult.elapsed`` flows through."""
        with self._lock:
            self.requests += 1
        return EngineResult(ok, payload, strategy, clock.elapsed,
                            self.stats, detail, raw)

    def __repr__(self) -> str:
        return f"<ExchangeEngine {self.compiled!r} requests={self.requests}>"


# --------------------------------------------------------------------- #
# Process-pool workers
# --------------------------------------------------------------------- #
#
# The compiled setting travels to each worker exactly once (through the pool
# initializer, which pickles ``initargs`` per worker); tasks then only carry
# the per-tree payload.  Workers rebuild plain EngineResults so the parent
# can merge them with cache-served results order-preservingly.  Exceptions
# raised here (ChaseError, precondition ValueErrors, ...) propagate through
# ``pool.map`` to the caller unchanged.

_WORKER_COMPILED: Optional[CompiledSetting] = None


def _process_worker_init(compiled: CompiledSetting) -> None:
    global _WORKER_COMPILED
    _WORKER_COMPILED = compiled


def _process_worker_run(task: Tuple[str, Any]) -> EngineResult:
    compiled = _WORKER_COMPILED
    assert compiled is not None, "worker used before initialisation"
    operation_name, item = task
    if operation_name == "solve":
        with obs_timer("engine.solve") as clock:
            outcome = canonical_solution(compiled.setting, item,
                                         compiled=compiled)
            return EngineResult(outcome.success, outcome.tree, "chase",
                                clock.elapsed, compiled.cache_stats(),
                                outcome.failure or "", outcome)
    if operation_name == "certain_answers":
        tree, query = item
        with obs_timer("engine.certain_answers") as clock:
            result = certain_answers(compiled.setting, tree, query,
                                     compiled=compiled)
            detail = ("" if result.has_solution
                      else "the source tree has no solution")
            return EngineResult(result.has_solution, result.answers,
                                "canonical-solution", clock.elapsed,
                                compiled.cache_stats(), detail, result)
    raise ValueError(f"unknown worker operation {operation_name!r}")
