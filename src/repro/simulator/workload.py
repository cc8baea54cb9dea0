"""Workload schedules: scripted mid-run traffic-pattern and load shifts.

The transient machinery of :mod:`repro.simulator.schedule` plays *link*
events over the slot loop; this module applies the same slot-event
plumbing to the *workload*: a :class:`WorkloadSchedule` is an ordered list
of events that either retarget the injection process's offered load
(``SET_OFFERED``) or swap the traffic pattern (``SET_PATTERN``) at a
scheduled slot.  The engine consumes the schedule inside
:meth:`~repro.simulator.engine.Simulator.step` and notifies the
:class:`~repro.simulator.metrics.MetricsCollector`, which opens a new
phase — so per-phase throughput/latency series make the shift's transient
observable, exactly like the fault machinery's recovery series.

Schedules are plain, hashable, picklable data: they ride inside
:class:`~repro.experiments.executor.PointJob` and enter the
content-addressed cache key via :meth:`canonical`, so two jobs differing
only in their workload phases never alias one cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

#: Event kinds: retarget the offered load, swap the traffic pattern.
SET_OFFERED = "offered"
SET_PATTERN = "pattern"


@dataclass(frozen=True, order=True)
class WorkloadEvent:
    """One scheduled workload shift: at ``slot``, apply ``kind``/``value``.

    ``SET_OFFERED`` carries a float in [0, 1]; ``SET_PATTERN`` carries a
    traffic-pattern short name (validated against the traffic catalog at
    schedule construction, and against the concrete network when the
    simulator builds its phase patterns).
    """

    slot: int
    kind: str
    value: float | str

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError(f"event slot must be >= 0, got {self.slot}")
        if self.kind == SET_OFFERED:
            v = float(self.value)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"offered load must be in [0, 1], got {v}")
            object.__setattr__(self, "value", v)
        elif self.kind == SET_PATTERN:
            from ..traffic import canonical_traffic_name

            object.__setattr__(
                self, "value", canonical_traffic_name(str(self.value))
            )
        else:
            raise ValueError(
                f"event kind must be {SET_OFFERED!r} or {SET_PATTERN!r}, "
                f"got {self.kind!r}"
            )

    @property
    def label(self) -> str:
        """The phase label this event opens (metrics phase series)."""
        if self.kind == SET_OFFERED:
            return f"offered={self.value:g}"
        return f"pattern={self.value}"


@dataclass(frozen=True)
class WorkloadSchedule:
    """An ordered, immutable list of :class:`WorkloadEvent`.

    Events are sorted by slot (stable within a slot: same-slot events
    apply in the given order, so a simultaneous pattern + load shift is
    expressible).  :meth:`canonical` returns the JSON-able payload that
    :func:`~repro.experiments.executor.job_key` mixes into the cache
    address.
    """

    events: tuple[WorkloadEvent, ...]

    def __init__(self, events: Iterable[WorkloadEvent | tuple]):
        evs = [
            ev if isinstance(ev, WorkloadEvent) else WorkloadEvent(*ev)
            for ev in events
        ]
        evs.sort(key=lambda ev: ev.slot)
        object.__setattr__(self, "events", tuple(evs))

    # ------------------------------------------------------------------
    @classmethod
    def load_steps(cls, steps: Sequence[tuple[int, float]]) -> "WorkloadSchedule":
        """Convenience: a pure offered-load staircase."""
        return cls([WorkloadEvent(slot, SET_OFFERED, load) for slot, load in steps])

    @classmethod
    def pattern_steps(cls, steps: Sequence[tuple[int, str]]) -> "WorkloadSchedule":
        """Convenience: a pure pattern-switch sequence."""
        return cls([WorkloadEvent(slot, SET_PATTERN, name) for slot, name in steps])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def max_slot(self) -> int:
        """Slot of the last event (-1 for an empty schedule)."""
        return self.events[-1].slot if self.events else -1

    def pattern_names(self) -> list[str]:
        """Every pattern any ``SET_PATTERN`` event switches to, in order."""
        out: list[str] = []
        for ev in self.events:
            if ev.kind == SET_PATTERN and ev.value not in out:
                out.append(str(ev.value))
        return out

    def canonical(self) -> list[list]:
        """Canonical JSON-able payload (the cache-key contribution)."""
        return [[ev.slot, ev.kind, ev.value] for ev in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkloadSchedule({len(self.events)} events, max_slot={self.max_slot})"
