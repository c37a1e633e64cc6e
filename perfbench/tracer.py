"""In-memory span recorder that wraps wret's public functions by name.

A wrapped function is replaced in the namespace of the module that calls
it (``wret.stages.fit_pca``, ``wret.trainer.mine_hard_triplets``, ...), so
the wret sources stay untouched. Spans keep their parent link; a span's
self time is its duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a version that records a span named
        ``name``; ``count(tracer, args, kwargs, result)`` adds counters."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, parent, time.perf_counter()))
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals.
        Children of one span run one after another on a single thread, so
        the union is the sum of their durations, clipped to the parent."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                parent = self.spans[span.parent]
                covered[span.parent] += min(span.end, parent.end) - max(span.start, parent.start)
        return [span.duration - c for span, c in zip(self.spans, covered)]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, prefix: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name.startswith(prefix))

    def unaccounted(self, prefix: str) -> float:
        """Time of the spans named ``prefix*`` that neither their self time
        nor their direct children's spans explain (0 when spans nest)."""
        chosen = {i for i, s in enumerate(self.spans) if s.name.startswith(prefix)}
        children = sum(s.duration for s in self.spans if s.parent in chosen)
        total = sum(self.spans[i].duration for i in chosen)
        return total - children - self.self_total(prefix)

    def nesting_errors(self) -> list[str]:
        """Children that start before or end after their parent span."""
        bad = []
        for span in self.spans:
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if span.start < parent.start or span.end > parent.end:
                bad.append(f"{span.name} escapes {parent.name}")
        return bad
