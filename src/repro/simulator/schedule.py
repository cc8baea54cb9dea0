"""Fault schedules: scripted mid-run link failures and repairs.

Every experiment in the paper applies its fault set *before* slot 0 — the
network under test is statically degraded.  A :class:`FaultSchedule` opens
the transient story instead: time advances through scheduled events that
mutate the simulated network mid-flight (the CCL-simulator idiom of
event-driven state changes layered over the slot loop).  The engine
consumes the schedule inside :meth:`~repro.simulator.engine.Simulator.step`;
on an event it marks the port dead (or live again), drops the packets
buffered on the failed link, drops the candidate table (and the lists
packets took from it) and asks the routing mechanism to reconfigure via
:meth:`~repro.routing.base.RoutingMechanism.on_topology_change`.

Schedules are plain, hashable, picklable data so they ride inside
:class:`~repro.experiments.executor.PointJob` and enter the content-addressed
cache key like every other point parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..topology.base import Link, Topology, normalize_link

#: Event kinds: a link going dead, a (previously failed) link coming back.
LINK_DOWN = "down"
LINK_UP = "up"


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled topology event: at ``slot``, ``link`` goes down or up."""

    slot: int
    action: str
    link: Link

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError(f"event slot must be >= 0, got {self.slot}")
        if self.action not in (LINK_DOWN, LINK_UP):
            raise ValueError(
                f"event action must be {LINK_DOWN!r} or {LINK_UP!r}, got {self.action!r}"
            )
        object.__setattr__(self, "link", normalize_link(*self.link))


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable list of :class:`FaultEvent`.

    Events are sorted by slot (stable within a slot, downs before ups are
    *not* reordered — same-slot events apply in the given order).  The
    schedule is content-hashable: :meth:`canonical` returns the JSON-able
    payload that :func:`~repro.experiments.executor.job_key` mixes into the
    cache address, so two jobs differing only in their schedule never share
    a cache entry.
    """

    events: tuple[FaultEvent, ...]

    def __init__(self, events: Iterable[FaultEvent | tuple]):
        evs = [
            ev if isinstance(ev, FaultEvent) else FaultEvent(*ev) for ev in events
        ]
        evs.sort(key=lambda ev: ev.slot)
        object.__setattr__(self, "events", tuple(evs))

    # ------------------------------------------------------------------
    @classmethod
    def link_down(cls, slot: int, links: Sequence[Link] | Link) -> "FaultSchedule":
        """Convenience: fail one link (or several) at ``slot``."""
        if links and isinstance(links[0], int):
            links = [links]  # a single (a, b) pair
        return cls([FaultEvent(slot, LINK_DOWN, link) for link in links])

    @classmethod
    def down_then_up(
        cls, down_slot: int, up_slot: int, links: Sequence[Link] | Link
    ) -> "FaultSchedule":
        """Fail link(s) at ``down_slot``, repair them at ``up_slot``."""
        if up_slot <= down_slot:
            raise ValueError("repair must be scheduled after the failure")
        if links and isinstance(links[0], int):
            links = [links]
        evs = [FaultEvent(down_slot, LINK_DOWN, link) for link in links]
        evs += [FaultEvent(up_slot, LINK_UP, link) for link in links]
        return cls(evs)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def max_slot(self) -> int:
        """Slot of the last event (-1 for an empty schedule)."""
        return self.events[-1].slot if self.events else -1

    def links(self) -> set[Link]:
        """Every link any event touches."""
        return {ev.link for ev in self.events}

    def validate(self, topology: Topology, initial_faults: Iterable[Link] = ()) -> None:
        """Check the schedule is consistent with a topology and fault set.

        Raises :class:`ValueError` when an event references a link absent
        from the topology, fails an already-failed link or repairs a live
        one (replaying the events against ``initial_faults``).
        """
        healthy = topology.link_tables.index
        dead = {normalize_link(a, b) for a, b in initial_faults}
        for ev in self.events:
            if ev.link not in healthy:
                raise ValueError(f"scheduled link {ev.link} not present in topology")
            if ev.action == LINK_DOWN:
                if ev.link in dead:
                    raise ValueError(
                        f"slot {ev.slot}: link {ev.link} is already failed"
                    )
                dead.add(ev.link)
            else:
                if ev.link not in dead:
                    raise ValueError(f"slot {ev.slot}: link {ev.link} is not failed")
                dead.discard(ev.link)

    def canonical(self) -> list[list]:
        """Canonical JSON-able payload (the cache-key contribution)."""
        return [[ev.slot, ev.action, [ev.link[0], ev.link[1]]] for ev in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self.events)} events, max_slot={self.max_slot})"
