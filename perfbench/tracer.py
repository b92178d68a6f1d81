"""In-memory span recorder for the benchmark's traced runs.

A span is one timed call into a ``delrips`` module, recorded from the
benchmark's side of the call. Spans are kept in memory while the run
measures and written out when it ends, so the only cost inside a timed
operation is two clock reads and a list append per span.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_NULL = nullcontext()


class NoSpans:
    """Tracer of the untraced run: every span is a shared no-op context."""

    op_id = None

    def span(self, name):
        return _NULL


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        self.tracer._stack.append(self.rec[0])
        self.rec[2] = time.perf_counter()

    def __exit__(self, *exc):
        self.rec[3] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Spans:
    """Records ``[id, name, start, end, parent id, op id]`` per span.

    ``op_id`` tags every span opened while it is set, so the spans of one
    operation, and the probes made for it, share an identifier.
    """

    def __init__(self):
        self.records = []
        self.op_id = None
        self._stack = []

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.records), name, 0.0, 0.0, parent, self.op_id]
        self.records.append(rec)
        return _Span(self, rec)

    def as_dicts(self):
        return [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op}
                for i, name, start, end, parent, op in self.records]


def per_op_times(records):
    """``{op id: {span name: [total seconds, self seconds]}}``.

    A span's self time is its duration minus the durations of its direct
    children; spans sharing a name within one op are summed.
    """
    child_time = {}
    for _, _, start, end, parent, _ in records:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for sid, name, start, end, _, op in records:
        dur = end - start
        slot = out.setdefault(op, {}).setdefault(name, [0.0, 0.0])
        slot[0] += dur
        slot[1] += dur - child_time.get(sid, 0.0)
    return out
