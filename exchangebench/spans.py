"""Spans around the exchange server's layers, recorded by ``repro.obs.trace``.

:func:`install` wraps the public functions and methods named in
:data:`layers.TARGETS` in ``repro.obs.trace.span(name)``, attaching a few
counts taken from arguments and results through ``annotate``; the span that
decodes a request line carries its wire id.  Nothing under ``src/``
changes: module-level functions are rebound in every loaded ``repro``
module that imported them, methods are replaced on their class.

The service already carries the span context into its thread pool for
engine work (``_traced_offload``); its plain ``offload``, which runs
``put_tree`` writes and the codec of large request lines, does not, so
:func:`install` makes it capture the caller's context and re-activate it in
the pool thread.  Spans stay in the tracer's in-memory buffer;
``traced_server`` writes them out when the server has shut down.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace

#: ``(span, call arguments, result)`` -> annotate the span with counts.
Annotator = Callable[[Any, tuple, Any], None]


def wrap(fn: Callable, name: str,
         annotate: Optional[Annotator] = None) -> Callable:
    """``fn`` running inside one ``name`` span per call."""
    span = obs_trace.span

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            with span(name) as current:
                result = await fn(*args, **kwargs)
                if annotate is not None:
                    annotate(current, args, result)
            return result
        return traced_async

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with span(name) as current:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(current, args, result)
        return result
    return traced


# --------------------------------------------------------------------- #
# Counts taken at the span boundaries
# --------------------------------------------------------------------- #

def _count_candidates(span: Any, args: tuple, result: Any) -> None:
    span.annotate(candidates=len(result))


def _count_chase(span: Any, args: tuple, result: Any) -> None:
    # args = (target_dtd, tree, ...); the chase works on a copy that keeps
    # node ids, so the input's root id is the solution's root id.
    root = args[1].root
    span.annotate(
        success=bool(result.success), steps=len(result.steps),
        changereg=sum(1 for step in result.steps
                      if step.rule == "ChangeReg"),
        root_changereg=sum(1 for step in result.steps
                           if step.rule == "ChangeReg"
                           and step.node == root),
        solution_nodes=len(result.tree) if result.success else 0)


def _count_nodes(span: Any, args: tuple, result: Any) -> None:
    span.annotate(nodes=len(result))


def _count_rows(span: Any, args: tuple, result: Any) -> None:
    span.annotate(rows=len(result))


def _tag_wire_id(span: Any, args: tuple, result: Any) -> None:
    if isinstance(result, dict) and "id" in result:
        span.annotate(wire=result["id"])


ANNOTATORS = {
    "count_candidates": _count_candidates,
    "count_chase": _count_chase,
    "count_nodes": _count_nodes,
    "count_rows": _count_rows,
    "tag_wire_id": _tag_wire_id,
}


# --------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------- #

def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, current value) for ``module:qualname``."""
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


def _rebind_everywhere(original: Any, replacement: Any) -> int:
    """Replace a module-level function in every ``repro`` module holding it."""
    rebound = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    return rebound


def install(targets: Sequence[Tuple[str, str, str, Optional[str]]]) -> None:
    """Wrap every ``(span name, module, qualname, annotator)`` target.

    Imports the server first, so that every module the request path uses is
    loaded before module-level functions are rebound."""
    importlib.import_module("repro.service.server")
    for span_name, module_name, qualname, annotator in targets:
        owner, attr, value = _resolve(module_name, qualname)
        annotate = ANNOTATORS[annotator] if annotator else None
        if inspect.isclass(owner):
            if not inspect.isfunction(value):
                raise TypeError(f"{module_name}:{qualname} is not a plain "
                                f"method")
            setattr(owner, attr, wrap(value, span_name, annotate))
        elif _rebind_everywhere(value, wrap(value, span_name,
                                            annotate)) == 0:
            raise LookupError(f"{module_name}:{qualname} not found")
    _carry_context_into_pool()


def _carry_context_into_pool() -> None:
    """Make ``AsyncExchangeService.offload`` run its work under the caller's
    span context, so spans opened in the pool thread join the request."""
    from repro.service.service import AsyncExchangeService

    original = inspect.getattr_static(AsyncExchangeService, "offload")

    @functools.wraps(original)
    async def offload(self: Any, fn: Callable[[], Any]) -> Any:
        context = obs_trace.current_context()

        def run() -> Any:
            with obs_trace.activate(context):
                return fn()

        return await original(self, run)

    # ``_offload`` is a class-level alias of ``offload``: replace both.
    AsyncExchangeService.offload = offload
    AsyncExchangeService._offload = offload
