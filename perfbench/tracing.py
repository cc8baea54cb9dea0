"""In-memory spans recorded by the harness around calls into each layer.

The benchmark times the program *from outside*: nothing under ``src/``
knows it is being traced.  A :class:`Tracer` is the one timer object
every workload reports through — ``with tracer.span("topology.network_build")``
around a direct call, or :meth:`Tracer.wrap` to shadow one bound method
of one *instance* (``sim._allocate``, ``mech.on_topology_change``) with
a timing wrapper, so the program's own ``run()`` loop drives the phases
and the harness still sees each boundary.  Wrappers draw no RNG and
change no argument or result, so a traced run's records equal an
untraced run's — the harness checks that on every traced run.

Spans are ``(name, start, end, parent)`` rows kept in parallel lists and
written out once, when the run ends.  A layer's *self time* is its
span's duration minus the part its child spans cover.

A disabled tracer (:data:`OFF`) hands out one shared no-op context
manager and wraps nothing: end-to-end numbers are taken with it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Any, Callable


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.index = self.tracer._open(self.name)

    def __exit__(self, *exc: object) -> None:
        self.tracer._close(self.index)


class Tracer:
    """Span and counter recorder for one traced run of one workload."""

    def __init__(self, workload: str = "", enabled: bool = True) -> None:
        self.workload = workload
        self.enabled = enabled
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: name -> [calls, seconds] of the aggregated call timers.
        self.leaves: dict[str, list] = {}
        self._stack: list[int] = []
        #: span index -> aggregated-call seconds spent directly under it.
        self._leaf_time: dict[int, float] = {}

    # -- recording -----------------------------------------------------
    def span(self, name: str) -> _Span | _NullSpan:
        """Context manager timing one call into the layer ``name``."""
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def add(self, name: str, n: float = 1) -> None:
        """Count ``n`` events at the boundary ``name``."""
        if self.enabled:
            self.counts[name] += n

    def wrap(self, obj: Any, attr: str, name: str,
             before: Callable[[], None] | None = None) -> None:
        """Shadow ``obj.attr`` on this one instance with a span-recording
        wrapper (``before`` runs first, inside the span, for counts read
        at the same boundary).  No-op when tracing is off."""
        inner = getattr(obj, attr)
        if not self.enabled or getattr(inner, "traced", False):
            return  # off, or a shared object some earlier point wrapped
        open_, close = self._open, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_(name)
            try:
                if before is not None:
                    before()
                return inner(*args, **kwargs)
            finally:
                close(index)

        traced.traced = True  # type: ignore[attr-defined]
        setattr(obj, attr, traced)

    def time_calls(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with an *aggregating* timer: one call count
        and one seconds total for calls too frequent to give a row each
        (``mechanism.candidates``, ``traffic.destination``).  The seconds
        leave the enclosing span's self time, like a child span's would.
        Aggregated calls must not nest inside one another."""
        inner = getattr(obj, attr)
        if not self.enabled or getattr(inner, "traced", False):
            return
        leaf = self.leaves.setdefault(name, [0, 0.0])
        stack, leaf_time = self._stack, self._leaf_time

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                leaf[0] += 1
                leaf[1] += dt
                if stack:
                    leaf_time[stack[-1]] = leaf_time.get(stack[-1], 0.0) + dt

        timed.traced = True  # type: ignore[attr-defined]
        setattr(obj, attr, timed)

    # -- reading -------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per name with every child's (span or aggregated call)
        time removed from its parent; sums to the root spans' durations."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        for i, seconds in self._leaf_time.items():
            own[i] -= seconds
        out: dict[str, float] = defaultdict(float)
        for name, seconds in zip(self.names, own):
            out[name] += seconds
        for name, (_calls, seconds) in self.leaves.items():
            out[name] += seconds
        return out

    def as_json(self) -> dict:
        """Every span (times relative to the first), aggregated call
        timer and counter, ready to be written out."""
        t0 = self.starts[0] if self.starts else 0.0
        index: dict[str, int] = {}
        rows = [
            [index.setdefault(n, len(index)), round(s - t0, 7), round(e - t0, 7), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        return {
            "workload": self.workload,
            "columns": ["name", "start_s", "end_s", "parent"],
            "names": list(index),
            "spans": rows,
            "aggregated_calls": {
                n: {"calls": c, "seconds": s} for n, (c, s) in self.leaves.items()
            },
            "counts": dict(self.counts),
        }


#: The tracer end-to-end runs use: records nothing, wraps nothing.
OFF = Tracer(enabled=False)
