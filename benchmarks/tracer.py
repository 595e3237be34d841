"""Span tracer that wraps a program's public functions from outside.

`installed(tracer, modules, namespace)` replaces every public function of the
given modules with a timing wrapper. A function is rebound by identity: every
attribute of every module under `namespace` that refers to the same function
object is replaced, so names imported with `from .x import f` are traced too.
Leaving the context restores every attribute.

Spans nest through a single open-span pointer, so the tracer assumes the traced
code runs on one thread (the benchmark pins BASINLAB_THREADS=1).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: "Span | None" = None
    children: list = field(default_factory=list)
    call: tuple | None = None  # (fn, args, kwargs) while the span is open

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of [start, end] that child spans cover."""
        return self.duration - covered([(c.start, c.end) for c in self.children],
                                       self.start, self.end)

    def argument(self, name: str):
        """Value of the named parameter of the open call, or None."""
        if self.call is None:
            return None
        fn, args, kwargs = self.call
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
        except (TypeError, ValueError):
            return None
        bound.apply_defaults()
        return bound.arguments.get(name)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Collects spans and named counts. `hooks` maps a span name to a function
    `hook(tracer, span, result)` called after the span closes, while the
    parent span (and its `call`) is still open."""

    def __init__(self, hooks: dict | None = None):
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self._open: Span | None = None

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def count(self, key: str, value) -> None:
        self.counts[key] += value

    def wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open
            span = Span(name, parent=parent, call=(fn, args, kwargs))
            if parent is not None:
                parent.children.append(span)
            self.spans.append(span)
            self._open = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open = parent
            if hook is not None:
                hook(self, span, result)
            span.call = None
            return result

        return traced

    # -- aggregates over the recorded spans ---------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        """Wall time during which at least one span of this name was open."""
        spans = self.named(name)
        if not spans:
            return 0.0
        return covered([(s.start, s.end) for s in spans],
                       min(s.start for s in spans), max(s.end for s in spans))

    def self_time(self, name: str) -> float:
        return sum(s.self_time for s in self.named(name))


def public_functions(module) -> dict:
    """Functions defined in `module` whose names do not start with '_'."""
    return {n: f for n, f in vars(module).items()
            if inspect.isfunction(f) and not n.startswith("_")
            and f.__module__ == module.__name__}


@contextlib.contextmanager
def installed(tracer: Tracer, modules, namespace: str):
    """Trace every public function of `modules`, spans named
    '<last module name part>.<function>'; restore all bindings on exit."""
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for fname, fn in public_functions(mod).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{short}.{fname}", fn))
    replaced = []
    try:
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == namespace or mname.startswith(namespace + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    replaced.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in reversed(replaced):
            setattr(mod, attr, value)
