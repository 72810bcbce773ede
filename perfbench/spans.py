"""Span tracing around calls into the program's public functions.

A :class:`Tracer` replaces chosen functions (module attributes or
class methods) with wrappers that record one span per call: the span's
layer, start and end (``perf_counter_ns``), the span that was open when
it started (its parent), and a count of the work it did (keys, frames).
Spans are kept in flat arrays and reduced only when tracing stops, so
recording costs a few appends per call.

A layer's *self time* is the sum over its spans of each span's
duration minus the part of that interval covered by its child spans
(:func:`self_times`), so time spent in a deeper layer is charged there
and nowhere else.  The wrapped functions are synchronous, so spans on
one thread nest properly; spans opened on any other thread are
ignored rather than mis-parented.
"""

from __future__ import annotations

import threading
from array import array
from time import perf_counter_ns, thread_time_ns
from typing import Callable, Dict, List, Sequence, Tuple

#: ``count(args, kwargs, result) -> int``: the work one call did.
Counter = Callable[[tuple, dict, object], int]


def one(args, kwargs, result) -> int:
    return 1


def n_keys(args, kwargs, result) -> int:
    """Keys in a batch call ``f(self, keys, ...)``."""
    return len(args[1])


def n_result(args, kwargs, result) -> int:
    """Items returned (frames decoded, pairs scanned)."""
    return len(result)


def wal_ops(args, kwargs, result) -> int:
    """Logical operations in ``WriteAheadLog.append(op, payload, ops=1)``."""
    return kwargs.get("ops", args[3] if len(args) > 3 else 1)


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Per span: duration minus the union of its children's intervals.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Child
    intervals are clipped to the parent's and overlaps are counted
    once, so the result never goes negative and the self times of a
    tree sum to its root's duration.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans from wrapped functions; see the module docstring."""

    def __init__(self, capacity: int = 4_000_000):
        self.capacity = capacity
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self._stack: List[int] = []  # open spans; wrappers hold this list
        self.reset()

    def reset(self) -> None:
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.items = array("q")
        self.cpu: Dict[int, int] = {}  # span -> thread CPU ns (blocking)
        self.dropped = 0
        self._stack.clear()

    # -- installing -------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, count: Counter = one,
             blocking: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``blocking`` marks a call that waits on another process or the
        disk: its spans also record this thread's CPU time, so the
        wait is not mistaken for work (the CPU clock costs ~0.6 us a
        read, so only such calls pay for it).
        """
        fn = getattr(owner, attr)
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        layer_id = self._layer_ids[layer]
        tracer = self
        stack = self._stack
        thread = self._thread
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != thread or len(tracer.start) >= tracer.capacity:
                if get_ident() == thread:
                    tracer.dropped += 1
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.layer.append(layer_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.items.append(0)
            tracer.end.append(0)
            stack.append(idx)
            cpu0 = thread_time_ns() if blocking else 0
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter_ns()
                if blocking:
                    tracer.cpu[idx] = thread_time_ns() - cpu0
                stack.pop()
            tracer.items[idx] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is None:  # was inherited: uncover the base's
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reducing ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, items, total and self time (ns).

        ``self_cpu_ns`` is the self time counted as this thread's CPU:
        the self time itself for ordinary spans, and for blocking ones
        the span's CPU time minus its children's share of the span.

        Spans still open (no end stamp) are dropped together with
        everything under them.
        """
        # A signal can land between a span's appends: use whole rows.
        n = min(len(self.layer), len(self.parent), len(self.start))
        closed = [self.end[i] >= self.start[i] > 0 for i in range(n)]
        keep = [
            closed[i] and (self.parent[i] < 0 or closed[self.parent[i]])
            for i in range(n)
        ]
        selfs = self_times(self.start[:n], self.end[:n], self.parent[:n])
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "items": 0, "total_ns": 0, "self_ns": 0,
                   "self_cpu_ns": 0}
            for name in self.layers
        }
        for i in range(n):
            if not keep[i]:
                continue
            rec = out[self.layers[self.layer[i]]]
            rec["calls"] += 1
            rec["items"] += self.items[i]
            wall = self.end[i] - self.start[i]
            rec["total_ns"] += wall
            rec["self_ns"] += selfs[i]
            cpu = self.cpu.get(i)
            rec["self_cpu_ns"] += (
                selfs[i] if cpu is None else max(0, cpu - (wall - selfs[i]))
            )
        out["_meta"] = {"spans": n, "dropped": self.dropped}
        return out


def install_server_spans(tracer: Tracer) -> None:
    """Wrap the public functions a served get or update passes through."""
    from repro.kvstore.store import Namespace
    from repro.server import frame
    from repro.shard.sharded import ShardedIndex
    from repro.shard.shm import AttachedColumn
    from repro.wal.log import WriteAheadLog
    from repro.wal.store import DurableNamespace

    tracer.wrap(frame.FrameDecoder, "feed", "frame.decode", n_result)
    tracer.wrap(frame, "encode_frame_into", "frame.encode")
    tracer.wrap(frame, "encode_value", "frame.encode_value")
    for cls in (DurableNamespace, Namespace):
        tracer.wrap(cls, "get_many", "kvstore.get", n_keys)
        tracer.wrap(cls, "insert_many", "kvstore.insert", n_keys)
    tracer.wrap(WriteAheadLog, "append", "wal.append", wal_ops)
    tracer.wrap(WriteAheadLog, "sync", "wal.sync", blocking=True)
    tracer.wrap(ShardedIndex, "get_many", "shard.get", n_keys, blocking=True)
    tracer.wrap(ShardedIndex, "insert_many", "shard.insert", n_keys, blocking=True)
    tracer.wrap(ShardedIndex, "__contains__", "shard.contains", blocking=True)
    tracer.wrap(AttachedColumn, "get_many", "shard.column_get", n_keys)
    install_core_spans(tracer)


def install_core_spans(tracer: Tracer) -> None:
    """Wrap :class:`repro.core.DyTIS`'s public point, batch and scan calls."""
    from repro.core import DyTIS

    tracer.wrap(DyTIS, "get", "core.get")
    tracer.wrap(DyTIS, "get_many", "core.get", n_keys)
    tracer.wrap(DyTIS, "insert", "core.insert")
    tracer.wrap(DyTIS, "insert_many", "core.insert", n_keys)
    tracer.wrap(DyTIS, "scan", "core.scan")
    tracer.wrap(DyTIS, "__contains__", "core.contains")

