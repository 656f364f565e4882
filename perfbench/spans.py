"""In-memory span recorder for the traced benchmark run.

Spans are taken from outside the program: `Tracer.patched` replaces module
attributes of embsearch with timing wrappers for the duration of one
operation and restores them afterwards. A function that a module imported by
name is wrapped where that module looks it up, so the target list names the
looking-up module, not the defining one.

Each span records its name, start, end, parent span and run id (the index of
the operation it belongs to), plus the peak number of bytes allocated above
the level at its start while it was open, as seen by `tracemalloc`.
"""
from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for every traced operation of one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        # open spans: [span, base bytes at start, highest bytes seen so far]
        self._stack: list[list] = []

    def begin(self, name: str) -> Span:
        current = 0
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                # fold the parent's peak so far in before the child resets it
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        parent = self._stack[-1][0].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append([span, current, current])
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        entry = self._stack.pop()
        if entry[0] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if tracemalloc.is_tracing():
            entry[2] = max(entry[2], tracemalloc.get_traced_memory()[1])
            span.peak_bytes = entry[2] - entry[1]
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], entry[2])

    def wrap(self, fn, name):
        """Return fn timed as a span; name may be a string or f(args, kwargs)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(s)

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (module, attribute, span name) target, then restore it."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans: list[Span], wall: float) -> tuple[dict[str, float], float]:
    """Self time summed per layer (the span-name prefix) and the remainder.

    The layer times plus the remainder add up to `wall`: the remainder is the
    time of the operation that no span covers, i.e. the harness's own glue.
    """
    own = self_times(spans)
    layers: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own[s.id]
    return layers, wall - sum(own.values())
