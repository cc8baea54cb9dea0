"""Minimal adaptive routing with ladder VC management (paper Table 4).

Minimal routing keeps only shortest-path next hops, read from BFS-computed
distance tables, so it keeps *working* (finding routes) under any fault set
that leaves the network connected — the paper uses it as the robustness
baseline.  Its VC management is a two-by-two ladder: the packet's ``h``-th
hop may use VCs ``{2h, 2h+1}``, which is deadlock-free because the VC index
increases monotonically along every route.  The ladder is also the weak
point: if faults stretch shortest paths beyond ``n_vcs / 2`` hops the
packet runs out of legal VCs.
"""

from __future__ import annotations

from ..topology.base import Network
from ..topology.graph import FlatViews
from .base import NO_PENALTY, Candidate, RoutingMechanism, ladder_vc


class MinimalRouting(RoutingMechanism, FlatViews):
    """Adaptive shortest-path routing, ladder with 2 VCs per step."""

    name = "Minimal"
    FLAT = {"_dist": "network.distances"}

    def __init__(self, network: Network, n_vcs: int, vcs_per_step: int = 2):
        super().__init__(n_vcs)
        self.network = network
        self.vcs_per_step = vcs_per_step
        self.on_topology_change()

    def init_packet(self, pkt) -> None:
        pkt.hops = 0

    def candidates(self, pkt, current: int) -> list[Candidate]:
        dst = pkt.dst_switch
        vcs = ladder_vc(pkt.hops, self.n_vcs, self.vcs_per_step)
        if not vcs:
            return []
        d = self._dist
        n = self._n
        here = d[current * n + dst]
        out: list[Candidate] = []
        for port, nbr in self.network.live_ports[current]:
            if d[nbr * n + dst] == here - 1:
                for vc in vcs:
                    out.append((port, vc, NO_PENALTY))
        return out

    def candidate_key(self, pkt, current: int) -> tuple:
        return (current, pkt.dst_switch, pkt.hops)

    def on_hop(self, pkt, old_switch: int, new_switch: int, port: int, vc: int) -> None:
        pkt.hops += 1

    def on_topology_change(self) -> None:
        self._bind_flat()  # Network recomputes its distances lazily

    def max_route_length(self) -> int | None:
        return self.n_vcs // self.vcs_per_step
