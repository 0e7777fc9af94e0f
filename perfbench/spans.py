"""In-memory spans around calls into tagforge's public functions.

A span is (name, start, end, parent, run id). Spans are recorded by replacing
a function where the calling module binds it, e.g.
``tagforge.synthesis.detect_communities``, so no file of the package changes.
Self time is a span's duration minus the time its direct children cover;
children of one span never overlap because the benchmark is single-threaded.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def patch(target: str, make_wrapper: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``module.attr`` (given as "module.attr") by make_wrapper(original).

    Returns a function that puts the original back.
    """
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
    return lambda: setattr(module, attr, original)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, target: str, name: str,
             on_result: Callable[[object], None] | None = None) -> None:
        """Record a span named ``name`` around every call of ``target``."""
        def make(original):
            def wrapper(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        self._restore.append(patch(target, make))

    def unwrap(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _of(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def totals(self, run_id: str) -> dict[str, float]:
        """Summed duration per span name within one run."""
        out: dict[str, float] = defaultdict(float)
        for s in self._of(run_id):
            out[s.name] += s.end - s.start
        return out

    def self_times(self, run_id: str) -> dict[str, float]:
        """Summed self time per span name within one run."""
        out: dict[str, float] = defaultdict(float)
        for s in self._of(run_id):
            out[s.name] += s.end - s.start
            if s.parent is not None:
                out[self.spans[s.parent].name] -= s.end - s.start
        return out

    def counts(self, run_id: str) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self._of(run_id):
            out[s.name] += 1
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
