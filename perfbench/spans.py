"""In-memory spans around calls into the program's public functions.

A span is ``[name, start, end, parent, outcome]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``outcome`` is ``"ok"``, ``"none"``
(the call returned ``None``) or the name of the exception it raised.  Span
names are ``<layer>.<function>``.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span recorded around every call."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, "ok"]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if result is None:
                span[4] = "none"
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, module, attr: str, name: str):
        """Wrap ``module.attr`` (the name a caller looks up) for the duration."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def write(self, out, label: str) -> None:
        """One JSON line per span; ``parent`` indexes spans with the same label."""
        for name, start, end, parent, outcome in self.spans:
            record = {"pass": label, "name": name, "start": start, "end": end, "parent": parent, "outcome": outcome}
            out.write(json.dumps(record) + "\n")


class SpanStats:
    """Per-name and per-layer totals of one tracer's spans."""

    def __init__(self, spans: list[list]):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations: dict[str, list[float]] = {}
        self.outcomes: dict[str, dict[str, int]] = {}
        self.self_time: dict[str, float] = {}
        for i, (name, start, end, _, outcome) in enumerate(spans):
            self.durations.setdefault(name, []).append(end - start)
            counts = self.outcomes.setdefault(name, {})
            counts[outcome] = counts.get(outcome, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start) - child_time[i]

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def outcome(self, name: str, outcome: str) -> int:
        return self.outcomes.get(name, {}).get(outcome, 0)

    def quantile_ms(self, name: str, q: float) -> float:
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        if len(values) == 1:
            return values[0] * 1e3
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        return cuts[round(q * 100) - 1] * 1e3

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)
