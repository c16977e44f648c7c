"""``pmap``: one dispatch decision, then the serial loop or the warm pool.

Worker-count resolution order: explicit ``workers=`` argument, then the
``REPRO_WORKERS`` environment variable, then 1 (serial).  Inside a worker
process the answer is always 1, so nested ``pmap`` calls degrade to the
serial path instead of spawning pools-of-pools.

Dispatch is decided **here**, once per call — call sites never measure or
guess.  A call runs serially when any of these hold (first match is the
recorded reason):

===============  =======================================================
reason           condition
===============  =======================================================
``nested``       already inside a worker process (no metric recorded)
``cpu_clamp``    requested workers exceed ``os.cpu_count()`` and the
                 clamp leaves ≤ 1 (parallelism would oversubscribe)
``single_item``  one task (nothing to shard)
``workers``      effective worker count resolves to 1
``unpicklable``  the callable or first item cannot be pickled
``payload``      estimated per-task transfer bytes exceed
                 :data:`MAX_TASK_BYTES` (4 MiB) — IPC would dwarf the
                 task's compute
===============  =======================================================

Otherwise the call submits one task per item to the persistent warm pool
(:mod:`repro.parallel.warmpool`), and the decision lands in
``parallel.dispatch{path=serial|pool_warm}``.  In-flight submissions are
windowed to the effective worker count, so a large warm pool never runs a
2-worker call 8 wide.

Each task runs through :func:`_run_task`, which isolates the child's
observability state and returns ``(result, obs_payload)``; the parent folds
every payload back into the process-global collector/registry **in input
order**, so merged metrics and traces are byte-identical to a serial run's
for deterministic workloads.
"""

from __future__ import annotations

import itertools
import os
import pickle
import warnings
from collections import deque
from typing import Any, Callable, Iterable, TypeVar

from ..obs import (
    METRICS,
    begin_capture,
    end_capture,
    get_collector,
    merge_payload,
    noc_profiling_enabled,
    span,
    timeseries_config,
    timeseries_enabled,
    tracing_enabled,
)
from . import warmpool

__all__ = ["pmap", "resolve_workers", "default_workers", "in_worker"]

T = TypeVar("T")
R = TypeVar("R")

#: Set in every worker process; its presence forces nested pmaps serial.
_WORKER_ENV = "REPRO_IN_WORKER"

#: Estimated per-task transfer bytes beyond which IPC dwarfs task compute.
MAX_TASK_BYTES = 4 * 1024 * 1024


def in_worker() -> bool:
    """True inside a ``pmap`` worker process."""
    return bool(os.environ.get(_WORKER_ENV))


def default_workers() -> int:
    """The worker count ``pmap`` uses when none is passed (env or 1).

    A malformed ``REPRO_WORKERS`` is an error, like ``--workers 0``: it
    must not silently turn a requested parallel run serial.
    """
    raw = os.environ.get("REPRO_WORKERS", "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"REPRO_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def resolve_workers(workers: int | None) -> int:
    """Effective worker count: explicit arg > ``$REPRO_WORKERS`` > 1.

    Always 1 inside a worker process — an outer pmap owns the pool.  The
    result is clamped to ``os.cpu_count()``: oversubscribing cores is a net
    slowdown for these CPU-bound tasks (BENCH_experiments.json measured 2
    workers on a 1-CPU box 12% *slower* than serial), so asking for more
    warns and runs with one worker per core instead.
    """
    if in_worker():
        return 1
    requested = max(1, int(workers)) if workers is not None else default_workers()
    cpus = os.cpu_count() or 1
    if requested > cpus:
        warnings.warn(
            f"requested {requested} workers but only {cpus} CPU(s) are "
            f"available; clamping to {cpus} to avoid oversubscription",
            RuntimeWarning,
            stacklevel=2,
        )
        return cpus
    return requested


def _run_task(
    payload: tuple[Callable[[Any], Any], Any, bool, bool, dict | None]
) -> tuple[Any, dict]:
    """Child-side wrapper: run one task with isolated observability state.

    The child's registry/collector/profiles/series start empty for each task
    (a warm pool worker serves many tasks across many ``pmap`` calls; with
    the fork start method it also inherits the parent's accumulated state),
    so what ships back is exactly this task's delta.
    """
    fn, item, tracing, profiling, ts_config = payload
    collector = begin_capture(tracing, profiling, ts_config)
    result = fn(item)
    return result, end_capture(collector)


def _serial(fn: Callable[[T], R], items: list[T], reason: str | None) -> list[R]:
    if reason is not None:
        METRICS.inc("parallel.dispatch", path="serial")
        METRICS.inc("parallel.dispatch.serial", reason=reason)
    return [fn(item) for item in items]


def pmap(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
    label: str | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, sharded across worker processes.

    Results come back in input order.  ``fn`` and every item must be
    picklable (module-level functions, ``functools.partial`` of them, plain
    dataclasses) — an unpicklable callable falls back to the serial loop.
    With an effective worker count of 1 — the default — this is exactly
    ``[fn(item) for item in items]`` in the calling process.  See the module
    docstring for the full dispatch decision table.

    A task that raises propagates its exception to the caller; observability
    payloads of tasks completed before the failure are still merged.
    """
    items = list(items)
    if in_worker():
        return _serial(fn, items, None)  # nested: not a dispatch decision

    requested = max(1, int(workers)) if workers is not None else default_workers()
    n = min(resolve_workers(workers), max(1, len(items)))
    if n <= 1:
        if requested > (os.cpu_count() or 1):
            return _serial(fn, items, "cpu_clamp")
        if len(items) <= 1:
            return _serial(fn, items, "single_item")
        return _serial(fn, items, "workers")

    try:
        fn_blob = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        item_blob = pickle.dumps(items[0], protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return _serial(fn, items, "unpicklable")
    # Every task ships the callable and one item.
    if len(fn_blob) + len(item_blob) > MAX_TASK_BYTES:
        return _serial(fn, items, "payload")

    METRICS.inc("parallel.dispatch", path="pool_warm")
    name = label or getattr(fn, "__name__", None) or type(fn).__name__
    METRICS.inc("parallel.pmap.pools", pool=name)
    METRICS.inc("parallel.pmap.tasks", len(items), pool=name)
    tracing = tracing_enabled()
    profiling = noc_profiling_enabled()
    ts_config = timeseries_config() if timeseries_enabled() else None

    with span("pmap", pool=name, workers=n, tasks=len(items), path="pool_warm"):
        parent_span_id = get_collector().current_span_id() if tracing else None
        executor = warmpool.get_executor(n)
        results: list[R] = []
        item_iter = iter(items)
        pending: deque = deque()

        def top_up() -> None:
            # Window in-flight submissions to the effective worker count so
            # a warm pool sized for a bigger earlier call can't over-run
            # this one's budget.
            for item in itertools.islice(item_iter, n - len(pending)):
                pending.append(
                    executor.submit(
                        _run_task, (fn, item, tracing, profiling, ts_config)
                    )
                )

        try:
            top_up()
            while pending:
                result, obs_payload = pending.popleft().result()
                top_up()  # keep workers fed while the parent merges
                merge_payload(obs_payload, parent_span_id)
                results.append(result)
        except BaseException:
            METRICS.inc("parallel.pmap.failed", pool=name)
            for future in pending:
                future.cancel()
            if getattr(executor, "_broken", False):
                warmpool.discard()
            raise
        return results
