"""In-memory spans and counts recorded around calls into aucppv.

Spans come from the benchmark's own code, never from inside the library: a
span times one call into a public function. A child call that the library
makes internally cannot be timed from outside, so the benchmark replays it
on the same input right after its parent returns, records the replay as a
child span, and derives the parent's self time by subtraction. Such self
times are marked derived wherever they are reported.

Timed runs use ``NULL_TRACER``, whose spans do nothing and whose ``on`` flag
turns every replay off.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import time

#: Spans whose self time (duration minus replayed children) is reported,
#: and the derived metric that carries it.
SELF_TIMES = {
    "cli.main": "cli.self_s",
    "reporting.build_report": "reporting.build_report_self_s",
}


class _Span:
    __slots__ = ("tracer", "name", "parent", "id", "start")

    def __init__(self, tracer: "Tracer", name: str, parent: int | None):
        self.tracer = tracer
        self.name = name
        self.parent = parent

    def __enter__(self) -> int:
        self.id = next(self.tracer._ids)
        self.start = time.perf_counter_ns()
        return self.id

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.tracer.spans.append(
            (self.tracer.op_id, self.id, self.parent, self.name, self.start, end)
        )


class Tracer:
    """Records spans ``(op, id, parent, name, start_ns, end_ns)`` and per-op counts."""

    on = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple[int, str, float]] = []
        self.op_id = 0
        self._ids = itertools.count(1)

    def span(self, name: str, parent: int | None = None) -> _Span:
        return _Span(self, name, parent)

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op_id, name, value))

    def begin_op(self) -> None:
        self.op_id += 1

    def per_op(self) -> dict[int, dict[str, float]]:
        """Seconds per span name, derived self times and counts, for each op."""

        ops: dict[int, dict[str, float]] = {}
        child_ns: dict[int, int] = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        for op, span_id, _, name, start, end in self.spans:
            row = ops.setdefault(op, {})
            if name == "op":
                continue
            key = f"{name}_s"
            row[key] = row.get(key, 0.0) + (end - start) / 1e9
            derived = SELF_TIMES.get(name)
            if derived is not None:
                self_ns = (end - start) - child_ns.get(span_id, 0)
                row[derived] = row.get(derived, 0.0) + self_ns / 1e9
        for op, name, value in self.counts:
            row = ops.setdefault(op, {})
            row[name] = row.get(name, 0) + value
        return ops


class _NullTracer:
    on = False
    _null = contextlib.nullcontext()

    def span(self, name: str, parent: int | None = None):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass

    def begin_op(self) -> None:
        pass


NULL_TRACER = _NullTracer()


class GcClock:
    """Time spent in garbage collections while installed, through ``gc.callbacks``.

    ``ns`` is the running total; a caller reads it before and after the code
    it wants to charge. The cost is one callback per collection.
    """

    def __init__(self) -> None:
        self.ns = 0
        self._start = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.ns += time.perf_counter_ns() - self._start

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
