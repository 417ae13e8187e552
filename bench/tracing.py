"""Spans around every public palcensus function, recorded from outside.

``install`` replaces each public module-level function of the seven layer
modules with a wrapper that records a span, both where the function is
defined and wherever another palcensus module (or the package itself)
imported it by name, e.g. ``recurrences.census_family`` and
``constants.no_pal_prefix_ratios``.  A span is
``[name, layer, op, parent, start, end]``: ``parent`` is the index of the
enclosing span, ``op`` the benchmark op it belongs to.

Not traced: underscore names (notably the word scans census calls in
words, and the census block workers), methods of classes, functions reached
through a dict built at import time (the verify suites are called through
``verify.SUITES``, so their time lands in the ``run_suites`` span), and
anything inside the worker processes a ``jobs=2`` census forks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("words", "maps", "census", "recurrences", "constants", "verify", "cli")

clock = time.perf_counter


class Tracer:
    """In-memory span recorder for one process; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def begin(self, name: str, layer: str | None) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, layer, self.op, parent, clock(), None])

    def end(self) -> None:
        self.spans[self._stack.pop()][5] = clock()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded by another process under the open span.

        perf_counter reads CLOCK_MONOTONIC, which all processes share, so
        the intervals stay comparable.
        """
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, layer, _, own_parent, start, end in spans:
            self.spans.append([
                name, layer, self.op,
                parent if own_parent is None else own_parent + offset, start, end,
            ])

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every public palcensus function, where defined and where imported."""
    package = importlib.import_module("palcensus")
    modules = {layer: importlib.import_module(f"palcensus.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = tracer.wrap(obj, layer)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if not attr.startswith("_") and inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer spent in a span of that layer and not in a child.

    A span's self time is its duration minus the part of its interval that
    the union of its children's intervals covers.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    totals = dict.fromkeys(LAYERS, 0.0)
    for index, (_, layer, _, _, start, end) in enumerate(spans):
        if layer not in totals:
            continue
        covered, reach = 0.0, start
        for low, high in sorted((spans[c][4], spans[c][5]) for c in children.get(index, ())):
            low, high = max(low, reach), min(high, end)
            if high > low:
                covered += high - low
                reach = high
        totals[layer] += (end - start) - covered
    return totals
