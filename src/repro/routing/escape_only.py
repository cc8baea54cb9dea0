"""Escape-only routing: the Up/Down escape subnetwork as the sole router.

This is an *ablation* mechanism, not one of the paper's Table 4 rows.  It
answers two questions the paper raises in §3.2:

* "this escape subnetwork is actually able to use most minimal routes and
  can accept a reasonably high amount of load" — measured by routing all
  traffic through the escape tables (with shortcuts);
* how bad the classic shortcut-free AutoNet Up*/Down* escape is — the
  "marginal throughput of a tree" that motivated the shortcuts — measured
  with ``shortcuts=False``.

Every VC carries escape candidates (same tables on each), so the VC count
only adds buffering, as in a one-FIFO-per-port deployment.
"""

from __future__ import annotations

from ..topology.base import Network
from ..updown.escape import PHASE_CLIMB, EscapeSubnetwork
from .base import Candidate, RoutingMechanism


class EscapeOnlyRouting(RoutingMechanism):
    """Route every packet exclusively over the escape subnetwork."""

    name = "EscapeOnly"

    def __init__(
        self,
        network: Network,
        n_vcs: int = 1,
        root: int = 0,
        shortcuts: bool = True,
        escape: EscapeSubnetwork | None = None,
    ):
        super().__init__(n_vcs)
        self.network = network
        if escape is None:
            escape = EscapeSubnetwork(network, root, shortcuts=shortcuts)
        self.escape = escape
        if not shortcuts and escape.shortcuts:
            raise ValueError("pass a shortcut-free escape for shortcuts=False")
        self.name = "EscapeOnly" if escape.shortcuts else "UpDownOnly"

    def init_packet(self, pkt) -> None:
        pkt.hops = 0
        pkt.in_escape = True
        pkt.escape_phase = PHASE_CLIMB
        pkt.escape_hops = 0
        pkt.forced_hops = 0

    def candidates(self, pkt, current: int) -> list[Candidate]:
        out: list[Candidate] = []
        for port, _nbr, pen in self.escape.candidates(
            current, pkt.dst_switch, pkt.escape_phase
        ):
            for vc in range(self.n_vcs):
                out.append((port, vc, pen))
        return out

    def candidate_key(self, pkt, current: int) -> tuple:
        return (current, pkt.dst_switch, pkt.escape_phase)

    def on_hop(self, pkt, old_switch: int, new_switch: int, port: int, vc: int) -> None:
        pkt.escape_phase = self.escape.next_phase(old_switch, port, pkt.escape_phase)
        pkt.hops += 1
        pkt.escape_hops += 1

    def on_topology_change(self) -> None:
        self.escape.rebuild()

    def refresh_packet(self, pkt, current: int) -> None:
        pkt.escape_phase = PHASE_CLIMB  # restart the climb on the new tree

    def max_route_length(self) -> int | None:
        return self.escape.route_length_bound()
