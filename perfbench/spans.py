"""In-memory span tracer for the benchmark's traced run.

The tracer records spans around calls into the program's modules by patching
each callable where its caller looks it up (see ``layers.py``); nothing inside
``src/`` is instrumented.  A span carries a name, start and end
(``time.perf_counter`` seconds, which is CLOCK_MONOTONIC on Linux and so
comparable across the benchmark and daemon processes), the id of the span that
was open on the same thread when it began, and an operation id shared by
every span under one top-level span.  Spans stay in memory and are written
out once, as Chrome trace-event JSON (the format ``chrome://tracing`` and
Perfetto load).

A layer's self time is its span's duration minus the part of that interval
covered by its child spans; the gap is the part of a window covered by no
top-level span.  On one thread, self times plus the gap add up to the
window's wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "tid", "pid")

    def __init__(self, id, name, start, parent, op, tid, pid=0):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid
        self.pid = pid


class Tracer:
    """Collects spans and counters; installs and removes call wrappers."""

    def __init__(self, pid: int = 0):
        self.pid = pid
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            time.perf_counter(),
            parent.id if parent else None,
            parent.op if parent else span_id,
            threading.get_ident(),
            self.pid,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching ------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: Union[str, Callable[..., str]],
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``name`` is the span name, or a callable computing it from the call's
        arguments.  ``after(result, *args, **kwargs)`` runs once the span has
        ended and may update counters.
        """
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(fixed or name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        """Restore every patched callable, most recent first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)



def chrome_events(spans: Iterable[Span]) -> List[dict]:
    """Complete ("X") trace events; span ids and parents ride in ``args``."""
    return [
        {
            "name": span.name,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": {"id": span.id, "parent": span.parent, "op": span.op},
        }
        for span in spans
    ]


def spans_from_chrome(events: Iterable[dict]) -> List[Span]:
    spans = []
    for event in events:
        args = event["args"]
        span = Span(
            args["id"],
            event["name"],
            event["ts"] / 1e6,
            args["parent"],
            args["op"],
            event["tid"],
            event["pid"],
        )
        span.end = span.start + event["dur"] / 1e6
        spans.append(span)
    return spans


def write_chrome_trace(path: str, events: List[dict], metadata: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "otherData": metadata or {}}, fh)


# -- analysis ------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append((span.start, span.end))
    return {
        (span.pid, span.id): (span.end - span.start)
        - _covered(children.get((span.pid, span.id), []), span.start, span.end)
        for span in spans
    }


def layer_self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[(span.pid, span.id)]
    return totals


def gap_seconds(spans: List[Span], start: float, end: float) -> float:
    """Time in ``[start, end]`` covered by no top-level span."""
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return (end - start) - _covered(top, start, end)
