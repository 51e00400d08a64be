"""In-memory spans around calls into canonrep, for the traced benchmark run.

A ``Tracer`` records one span per call: name, start, end, parent span and
job id.  ``install`` replaces each named function with a timing wrapper in
every loaded ``canonrep`` module namespace that binds it (``cli``,
``bench`` and ``embedding`` import functions by name, so patching only the
defining module would miss those calls); ``restore`` puts the originals
back.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: int


class Tracer:
    """Single-threaded span recorder with function wrapping."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.job = 0
        self.counters: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.job))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def count(self, name: str, n: float) -> None:
        counters = self.counters.setdefault(self.job, {})
        counters[name] = counters.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None):
        """``fn`` with a span named ``name``.  ``on_return(tracer, span,
        result, args)`` runs after the span closes, so it is not charged
        to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, self.spans[index], result, args)
            return result

        return wrapper

    def install(self, targets: dict[str, Optional[Callable]]) -> None:
        """Wrap every ``module.function`` of canonrep named in ``targets``
        (value: an optional return hook) wherever a loaded canonrep module
        binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "canonrep" or n.startswith("canonrep."))]
        for qualname, hook in targets.items():
            mod_name, fn_name = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"canonrep.{mod_name}"], fn_name)
            wrapper = self.wrap(qualname, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list[Span], keep: Callable[[Span], bool] = lambda s: True
              ) -> dict[str, dict[str, float]]:
    """Per span name, over the spans ``keep`` selects: summed self time,
    summed duration and call count."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    for s, own in zip(spans, self_times(spans)):
        if not keep(s):
            continue
        row = table[s.name]
        row["self"] += own
        row["total"] += s.end - s.start
        row["calls"] += 1
    return dict(table)
