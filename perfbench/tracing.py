"""Benchmark-side spans around calls into flipbench.

A span is (name, start, end, parent, op, attrs): times from
time.perf_counter, parent the index of the enclosing span or -1, op the
operation number (-1 for set-up and warm-up).  Spans stay in memory and
are written out once the run ends.
"""

from __future__ import annotations

import json
import time


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False
    op = -1

    def call(self, name, fn, *args, attrs=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, attrs=None, **kwargs):
        """fn(*args, **kwargs) inside a span; attrs(result) adds span attributes."""
        idx = len(self.spans)
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else -1, "op": self.op}
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            span.update(attrs(result))
        return result

    def wrap(self, name, fn, attrs=None):
        """A function that calls fn inside a span, for patching a module attribute."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return traced

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def mean_ms(self, name):
        spans = self.named(name)
        if not spans:
            return None
        return 1e3 * sum(s["end"] - s["start"] for s in spans) / len(spans)

    def total_s(self, spans):
        return sum(s["end"] - s["start"] for s in spans)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
