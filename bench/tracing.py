"""In-memory spans around the benchmark's calls into strata's layers.

A span is (name, start_ns, end_ns, parent index, trace id).  Every operation
and every KB compile opens a root span with a fresh trace id; the layer
calls made inside it become its children.  Spans stay in memory until the
run ends, then `write` dumps them as JSON.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, trace]
        self._open = []  # indices of the spans enclosing the current call
        self._trace = 0

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span that is a child of the open span."""
        span = [name, 0, 0, self._open[-1] if self._open else -1, self._trace]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter_ns()
            self._open.pop()

    def root(self, name, fn, *args):
        """Like `call`, but opens a new trace: one per operation or compile."""
        self._trace += 1
        return self.call(name, fn, *args)

    def self_seconds(self) -> dict:
        """Per span name: total duration minus the time its children cover."""
        total = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return {name: ns / 1e9 for name, ns in total.items()}

    def write(self, path: Path, meta: dict):
        keys = ("name", "start_ns", "end_ns", "parent", "trace")
        doc = dict(meta, spans=[dict(zip(keys, s)) for s in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
