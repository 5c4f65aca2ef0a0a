"""In-memory spans around calls into the f2orbits layers.

A span is (name, start, end, parent); spans are kept in a list and only
written out when the run ends.  Layer calls are traced by temporarily
replacing module or class attributes with wrappers, so the package
source stays untouched.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Stands in for a Tracer when tracing is off: no spans, no wrapping."""

    spans = ()

    def span(self, name: str):
        return nullcontext()

    def patched(self, targets):
        return nullcontext(self)


def tracer(enabled: bool):
    return Tracer() if enabled else NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``owner.attr`` for each (owner, attr, span name) while active."""
        saved = []
        try:
            for owner, attr, name in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def span_cost(self, rounds: int = 20000) -> float:
        """Seconds one wrapped call adds, measured on a throwaway tracer."""
        probe = Tracer()
        noop = probe.wrap(lambda: None, "probe")
        t0 = time.perf_counter()
        for _ in range(rounds):
            noop()
        traced = time.perf_counter() - t0
        bare = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        for _ in range(rounds):
            bare()
        return max(0.0, (traced - (time.perf_counter() - t0)) / rounds)


def rescaled(spans: list[dict], factor: float) -> list[dict]:
    """The spans with every timestamp divided by factor (a child's slowdown)."""
    return [dict(s, start=s["start"] / factor, end=s["end"] / factor) for s in spans]


def durations(spans: list[dict], name: str) -> list[float]:
    """Durations of the spans called ``name`` that no same-named span encloses."""
    out = []
    for rec in spans:
        if rec["name"] != name:
            continue
        parent = rec["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(rec["end"] - rec["start"])
    return out


def total(spans: list[dict], name: str) -> float:
    return sum(durations(spans, name))


def inside(spans: list[dict], name: str, ancestor: str) -> float:
    """Total time of ``name`` spans that run inside an ``ancestor`` span."""
    out = 0.0
    for rec in spans:
        if rec["name"] != name:
            continue
        parent = rec["parent"]
        while parent is not None and spans[parent]["name"] != ancestor:
            parent = spans[parent]["parent"]
        if parent is not None:
            out += rec["end"] - rec["start"]
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    out: dict[str, float] = {}
    for i, rec in enumerate(spans):
        own = rec["end"] - rec["start"] - child_time[i]
        out[rec["name"]] = out.get(rec["name"], 0.0) + own
    return out
