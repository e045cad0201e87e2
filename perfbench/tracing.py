"""In-memory span recording for the traced benchmark run.

A span is ``(span_id, name, label, units, start, end, parent_id, op_id)``
with ``time.perf_counter`` timestamps.  ``label`` splits one call site's
spans into classes (``None`` when unsplit) and ``units`` is the number of
work units the call did (1 for a plain call), by which per-layer times are
divided.  Spans are appended to a list and written out only when the run
ends, so recording costs one clock read per edge.  ``NullTracer`` has the
same interface and calls straight through; untraced ops run through it so
both modes execute the same op code.
"""

from __future__ import annotations

import time


class NullTracer:
    """Calls through without recording anything."""

    def run_op(self, op_id, fn, *args):
        return fn(*args)

    def call(self, name, fn, *args, label=None, units=1):
        return fn(*args)


class Tracer:
    """Records one span per op and one per layer call inside it."""

    def __init__(self):
        self.spans: list = []
        self._parent = None
        self._op = None

    def _record(self, name, label, units, fn, args):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._parent
        self._parent = sid
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._parent = parent
            self.spans[sid] = (sid, name, label, units, start, end, parent, self._op)

    def run_op(self, op_id, fn, *args):
        self._op = op_id
        try:
            return self._record("op", None, 1, fn, args)
        finally:
            self._op = None

    def call(self, name, fn, *args, label=None, units=1):
        return self._record(name, label, units, fn, args)


def as_records(spans) -> list[dict]:
    """Spans as JSON-ready dicts, in start order."""
    keys = ("id", "name", "label", "units", "start", "end", "parent", "op")
    return [dict(zip(keys, s)) for s in spans]
