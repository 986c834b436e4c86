"""In-memory spans taken around calls into phaselab's layers.

A span is ``[name, start, end, parent]`` with times from ``perf_counter`` and
``parent`` the index of the enclosing span (-1 at the top).  Names are
``<layer>.<function>`` for calls into the library and ``op`` / ``setup`` for
the benchmark's own code around them.  Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("field", "integrand", "minimize", "heteroclinic", "orbit", "foliation", "cli")


class NullTracer:
    """Untraced runs: spans cost one no-op context manager, callbacks stay bare."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def wrap(self, name, fn):
        return fn


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        """Return ``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self, root: str):
        """Per-name totals over the spans below each ``root`` span.

        Returns ``(roots, inclusive, self_time, calls)``: the number of root
        spans, and per span name the summed duration, the summed self time
        (duration minus the time covered by direct children) and the count.
        A root's own self time is the benchmark's glue code.
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        under_root = [False] * len(self.spans)
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        roots = 0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            inside = parent >= 0 and under_root[parent]
            if name == root and not inside:
                roots += 1
                inside = True
            under_root[i] = inside
            if inside:
                inclusive[name] += t1 - t0
                self_time[name] += t1 - t0 - child_time[i]
                calls[name] += 1
        return roots, inclusive, self_time, calls

    def dump(self, path) -> None:
        """Write one JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": t0 - origin,
                         "end": t1 - origin, "parent": parent}
                    )
                    + "\n"
                )
