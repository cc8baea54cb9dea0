"""Packet objects moved by the simulator.

Packets are deliberately dumb records: all routing intelligence lives in
the :class:`~repro.routing.base.RoutingMechanism`, which stores its
per-packet state on the slots reserved here (``hops``, ``deroutes``,
``mid``/``phase`` for Valiant, ``closer`` for Polarized, ``in_escape`` &
friends for SurePath).  ``__slots__`` keeps the millions of packets a
saturation sweep creates cheap.
"""

from __future__ import annotations


class Packet:
    """A fixed-length (16-phit) message from one server to another."""

    __slots__ = (
        "pid",
        "src_server",
        "dst_server",
        "src_switch",
        "dst_switch",
        "birth_slot",
        "eject_slot",
        # --- routing-mechanism state ---
        "hops",
        "deroutes",
        "aligned_dims",
        "mid",
        "phase",
        "closer",
        "in_escape",
        "escape_phase",
        "escape_hops",
        # --- engine-managed candidate cache ---
        "cand_switch",
        "cand_list",
    )

    def __init__(
        self,
        pid: int,
        src_server: int,
        dst_server: int,
        src_switch: int,
        dst_switch: int,
        birth_slot: int,
    ):
        self.pid = pid
        self.src_server = src_server
        self.dst_server = dst_server
        self.src_switch = src_switch
        self.dst_switch = dst_switch
        self.birth_slot = birth_slot
        self.eject_slot = -1
        self.hops = 0
        self.deroutes = 0
        self.aligned_dims = 0
        self.mid = -1
        self.phase = 0
        self.closer = True
        self.in_escape = False
        self.escape_phase = 0
        self.escape_hops = 0
        # Routing candidates looked up at switch ``cand_switch`` — valid
        # until the packet hops (candidates depend only on per-packet
        # routing state, which changes in on_hop, never between slots).
        # The list is the simulator's candidate-table entry, shared with
        # every packet in the same route situation: read-only.
        self.cand_switch = -1
        self.cand_list: list | None = None

    @property
    def delivered(self) -> bool:
        return self.eject_slot >= 0

    def latency_slots(self) -> int:
        """Generation-to-delivery latency in slots; -1 if undelivered."""
        if self.eject_slot < 0:
            return -1
        return self.eject_slot - self.birth_slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.pid} {self.src_server}->{self.dst_server}"
            f" sw {self.src_switch}->{self.dst_switch} hops={self.hops})"
        )
