"""Outside-in tracing: spans recorded around the program's public entry points.

The benchmark does not change the program to trace it.  It wraps entry
points from the outside — class methods and module functions are replaced
for the duration of the traced phase, and the engine is given a
``ModuleRegistry`` whose parser, optimizer and executor entries are timed —
and records one span per call with its parent.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans of one operation add up to the operation's duration.

Spans are folded into per-name totals when they close, which keeps the
memory of a run constant however many calls it makes.  Totals are kept per
operation first and scaled by the host-speed factor when the operation ends.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

ROOT = "op"


@dataclass
class SpanTotals:
    """Accumulated spans of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans and folds them into per-name totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.totals: dict[str, SpanTotals] = {}
        self.values: dict[str, float] = {}
        self.ops = 0
        self._stack: list[list[Any]] = []  # [name, child seconds]
        self._op_spans: dict[str, list[float]] = {}
        self._op_values: dict[str, float] = {}

    # -- spans ---------------------------------------------------------------------

    def _open(self, name: str) -> list[Any]:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any], seconds: float) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += seconds
        acc = self._op_spans.get(frame[0])
        if acc is None:
            acc = self._op_spans[frame[0]] = [0, 0.0, 0.0]
        acc[0] += 1
        acc[1] += seconds
        acc[2] += seconds - frame[1]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording a span named ``name`` per call while active.

        A call made from inside a span of the same name (a layer calling
        itself, as ``gather_properties`` does) stays part of that span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            started = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, tracer.clock() - started)

        return traced

    def add_value(self, name: str, amount: float) -> None:
        """Add to a per-operation quantity scaled like the span times."""
        self._op_values[name] = self._op_values.get(name, 0.0) + amount

    # -- operations ------------------------------------------------------------------

    def begin_op(self) -> list[Any]:
        """Open the root span of one operation."""
        if self._stack:
            raise RuntimeError(f"operation started inside span {self._stack[-1][0]!r}")
        self._op_spans.clear()
        self._op_values.clear()
        return self._open(ROOT)

    def end_op(self, root: list[Any], seconds: float, factor: float) -> None:
        """Close the root span after ``seconds``; fold the operation's spans
        into the totals, each time multiplied by ``factor``."""
        self._close(root, seconds)
        if self._stack:
            raise RuntimeError("spans left open at the end of an operation")
        for name, (calls, total, own) in self._op_spans.items():
            acc = self.totals.get(name)
            if acc is None:
                acc = self.totals[name] = SpanTotals()
            acc.calls += calls
            acc.total_s += total * factor
            acc.self_s += own * factor
        for name, amount in self._op_values.items():
            self.values[name] = self.values.get(name, 0.0) + amount * factor
        self.ops += 1

    def span(self, name: str) -> SpanTotals:
        return self.totals.get(name, SpanTotals())


@contextlib.contextmanager
def patched(tracer: Tracer, targets: list[tuple[Any, ...]]) -> Iterator[Tracer]:
    """Replace each ``owner.attr`` by a traced wrapper named ``span``, and
    activate ``tracer``; everything is restored on exit.

    A target is ``(owner, attr, span)`` or ``(owner, attr, span, adapt)``,
    where ``adapt(original)`` returns the function the span wraps.
    """
    saved = []
    try:
        for owner, attr, span, *adapt in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            inner = adapt[0](original) if adapt else original
            setattr(owner, attr, tracer.wrap(span, inner))
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
