"""Link models: how a transmitted packet reaches the downstream input.

Phase 3 pops one packet per output port; the :class:`LinkModel` decides
*when* that packet materialises in the neighbour's input FIFO.  The
credit protocol is untouched by link latency — the downstream slot was
reserved at allocation time and the credit returns when the packet later
leaves the downstream FIFO — so link models only move packets, never
accounting.

Implementations
---------------
* :class:`UnitSlotLink` (``"link_latency_slots=1"``, the paper's model) —
  the packet lands downstream immediately and becomes eligible there the
  next slot.
* :class:`PipelinedLink` (``link_latency_slots=k``) — the packet spends
  ``k`` slots on the wire (eligible downstream at ``transmit_slot + k``),
  with up to ``k`` packets in flight per direction.  In-flight packets
  are first-class for the fault machinery: a scheduled link failure
  drops them (counted as ``dropped``, upstream credit returned) and the
  repair reconciliation counts any survivors in the credit ground truth.

Adding a model: subclass :class:`LinkModel` and return it from
:func:`make_link_model`.  Report in-flight packets via
``total_in_flight`` — the engine's deadlock watchdog treats wire transit
as guaranteed progress, so even ``latency_slots`` beyond the watchdog
threshold cannot be mistaken for a stall.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .packet import Packet


class LinkModel(ABC):
    """Transport of transmitted packets toward the downstream input FIFO."""

    latency_slots: int = 1

    @abstractmethod
    def deliver(self, sim, src: int, port: int, vc: int, pkt: Packet) -> None:
        """A packet just left ``src``'s ``port`` on ``vc``: arrange its
        arrival at the downstream switch."""

    def advance(self, sim) -> None:
        """Move in-flight packets one slot (start of every step)."""

    def purge_link(self, sim, link: tuple[int, int]) -> int:
        """Drop the in-flight packets of a freshly-failed link; return
        how many were destroyed."""
        return 0

    def in_flight_between(self, src: int, dst: int, vc: int | None = None) -> int:
        """Packets currently on the wire from ``src`` to ``dst`` (on one
        VC when given) — the repair reconciliation's ground truth."""
        return 0

    def total_in_flight(self) -> int:
        """Packets on any wire (conservation checks)."""
        return 0

    def iter_in_flight(self):
        """Yield ``(next_switch, packet)`` for every packet on a wire —
        the engine refreshes their routing state on topology changes,
        like it does for buffered packets."""
        return iter(())


class UnitSlotLink(LinkModel):
    """The paper's 1-slot link: arrival is immediate, nothing stays in
    flight between slots."""

    latency_slots = 1

    def deliver(self, sim, src: int, port: int, vc: int, pkt: Packet) -> None:
        t = sim.network.port_neighbour[src][port]
        tsw = sim.switches[t]
        tsw.push_input(tsw.pv(sim.rev_port[src][port], vc), pkt)
        sim._wake(t)  # the receiver joins the busy agenda


class PipelinedLink(LinkModel):
    """A ``latency_slots``-deep pipelined link.

    In-flight packets are bucketed by arrival slot — ``arrival_slot ->
    [(src, dst, src_port, vc, packet), ...]`` — so :meth:`advance` pops
    exactly the current slot's arrivals (O(arrivals), not O(links)) at
    the start of each slot.  ``PipelinedLink(1)`` is observationally
    equivalent to :class:`UnitSlotLink`.  The per-directed-link views the
    fault machinery needs (:meth:`purge_link`, :meth:`in_flight_between`)
    scan the buckets; they only run on (rare) topology events.
    """

    def __init__(self, latency_slots: int):
        if latency_slots < 1:
            raise ValueError(f"latency_slots must be >= 1, got {latency_slots}")
        self.latency_slots = latency_slots
        #: arrival_slot -> [(src, dst, src_port, vc, packet), ...]
        self._buckets: dict[int, list] = {}
        #: Running in-flight total (O(1) watchdog/conservation queries).
        self._in_flight = 0

    def deliver(self, sim, src: int, port: int, vc: int, pkt: Packet) -> None:
        dst = sim.network.port_neighbour[src][port]
        self._buckets.setdefault(sim.slot + self.latency_slots, []).append(
            (src, dst, port, vc, pkt)
        )
        self._in_flight += 1

    def advance(self, sim) -> None:
        bucket = self._buckets.pop(sim.slot, None)
        if bucket is None:
            return
        rev_port = sim.rev_port
        switches = sim.switches
        for src, dst, port, vc, pkt in bucket:
            self._in_flight -= 1
            tsw = switches[dst]
            tsw.push_input(tsw.pv(rev_port[src][port], vc), pkt)
            # Wake before this slot's eject: landings are eligible now.
            sim._wake(dst)

    def purge_link(self, sim, link: tuple[int, int]) -> int:
        """Destroy the packets on the wire of a dying link, both ways.

        Each had reserved a downstream input slot at allocation time
        (upstream ``credits -= 1`` / ``load += 1`` outstanding); dying
        mid-flight returns that reservation so the upstream Q-rule
        accounting stays exact, and the drop is counted like a buffered
        drop.
        """
        a, b = link
        ends = {(a, b), (b, a)}
        dropped = 0
        for slot, bucket in self._buckets.items():
            kept = []
            for entry in bucket:
                src, dst, port, vc, pkt = entry
                if (src, dst) not in ends:
                    kept.append(entry)
                    continue
                self._in_flight -= 1
                sim.switches[src].return_credit(port, vc)
                sim._drop(pkt)
                dropped += 1
            if len(kept) != len(bucket):
                self._buckets[slot] = kept
        return dropped

    def in_flight_between(self, src: int, dst: int, vc: int | None = None) -> int:
        return sum(
            1
            for bucket in self._buckets.values()
            for s, d, _port, v, _pkt in bucket
            if s == src and d == dst and (vc is None or v == vc)
        )

    def total_in_flight(self) -> int:
        return self._in_flight

    def iter_in_flight(self):
        for bucket in self._buckets.values():
            for _src, dst, _port, _vc, pkt in bucket:
                yield dst, pkt


def make_link_model(latency_slots: int) -> LinkModel:
    """The link model a ``SimConfig.link_latency_slots`` value names."""
    if latency_slots < 1:
        raise ValueError(f"link_latency_slots must be >= 1, got {latency_slots}")
    if latency_slots == 1:
        return UnitSlotLink()
    return PipelinedLink(latency_slots)
