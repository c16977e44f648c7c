"""Spans around calls into ``repro``, recorded from the benchmark's side.

The program itself is not instrumented: :func:`instrument` swaps selected
public functions and methods of ``src/repro`` for timing wrappers for the
duration of one traced unit, and puts the originals back afterwards.  Every
wrapper call appends one span ``[name, start, end, parent]`` to an in-memory
list; nothing is written until the run ends (:meth:`Tracer.dump`).

Self time of a span is its duration minus the time its direct children
cover.  Summed by span name it gives the per-layer times the benchmark
reports (``nn.conv.forward_s`` ...), and summed by the span name's first
component it gives per-module self time (``noc.self_s`` ...).  What no span
covers is the benchmark's own glue; ``trace.coverage`` reports the share of
the traced run's time that named spans account for.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

#: Span-name prefixes, one per ``src/repro`` package the workloads call into.
MODULES = (
    "datasets", "models", "nn", "train", "partition", "plancost", "search",
    "noc", "sim", "mcm", "serve", "experiments",
)


class Tracer:
    """In-memory span recorder with parent links and per-call counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock  # wall time by default; time.process_time for CPU time
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._quiet = 0  # >0 while inside a span whose callees are folded in

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        count: Callable[[dict, tuple, object], None] | None = None,
        fold: bool = False,
        leaf_when_quiet: bool = False,
    ) -> Callable:
        """``fn`` timed as a span.

        ``name`` may be a callable of the call's arguments.  ``count``
        receives ``(counts, args, result)`` after each call.  ``fold`` makes
        the span swallow wrapped callees whose ``leaf_when_quiet`` is set
        (layer calls inside ``Sequential.accuracy`` count as evaluation).
        """
        spans, stack, now = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            if leaf_when_quiet and self._quiet:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, now(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            if fold:
                self._quiet += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if fold:
                    self._quiet -= 1
                stack.pop()
                spans[index][2] = now()
            if count is not None:
                count(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += end - start - children
        return dict(totals)

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span (times relative to the first) as one JSON file."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [n, round(s - origin, 9), round(e - origin, 9), p]
                        for n, s, e, p in self.spans
                    ],
                },
                fh,
            )


def _resolve(target: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:func"`` -> (owner, attribute)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if isinstance(owner, type):
        # Patch the class that defines the method, so subclasses see it too.
        owner = next(c for c in owner.__mro__ if attr in vars(c))
    return owner, attr


@contextmanager
def instrument(tracer: Tracer, targets: list[tuple]) -> Iterator[None]:
    """Wrap every target for the duration of the block.

    A target is ``(spec, name)`` or ``(spec, name, options)``, with ``spec``
    as in :func:`_resolve` and ``options`` passed to :meth:`Tracer.wrap`.
    Module-level functions are replaced in every module that imported them
    by name, so calls from the benchmark and from inside the program both
    hit the wrapper.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for target in targets:
            spec, name, *rest = target
            options = rest[0] if rest else {}
            owner, attr = _resolve(spec)
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(tracer.wrap(name, original.__func__, **options))
            else:
                wrapped = tracer.wrap(name, original, **options)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(attr) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def wrap_layers(tracer: Tracer, model, kind_of: Callable[[object], str]) -> None:
    """Time ``forward``/``backward`` of each layer instance of ``model``.

    The wrappers live on the instances, so they vanish with the model.
    Inside a folding span (evaluation) the calls are not split out.
    """
    for layer in model.layers:
        kind = kind_of(layer)
        for method in ("forward", "backward"):
            setattr(
                layer,
                method,
                tracer.wrap(
                    f"nn.{kind}.{method}", getattr(layer, method), leaf_when_quiet=True
                ),
            )
