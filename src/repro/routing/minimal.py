"""Minimal adaptive routes (paper Table 4).

Minimal routing keeps only shortest-path next hops, read from BFS-computed
distance tables, so it keeps *working* (finding routes) under any fault set
that leaves the network connected — the paper uses it as the robustness
baseline.  The paper's Minimal mechanism runs these routes under a
two-by-two ladder (:class:`~repro.routing.base.LadderRouting` with 2 VCs
per step): the packet's ``h``-th hop may use VCs ``{2h, 2h+1}``, which is
deadlock-free because the VC index increases monotonically along every
route.  The ladder is also the weak point: if faults stretch shortest
paths beyond ``n_vcs / 2`` hops the packet runs out of legal VCs.
"""

from __future__ import annotations

from ..topology.base import Network
from ..topology.graph import FlatViews
from .base import NO_PENALTY


class MinimalRoutes(FlatViews):
    """Every shortest-path hop towards :meth:`target`, unpenalised."""

    FLAT = {"_dist": "network.distances"}

    def __init__(self, network: Network):
        self.network = network
        self.on_topology_change()

    def init_packet(self, pkt) -> None:
        pkt.hops = 0

    def target(self, pkt, current: int) -> int:
        """The switch the packet's next hop approaches."""
        return pkt.dst_switch

    def ports(self, pkt, current: int) -> list[tuple[int, int, int]]:
        target = self.target(pkt, current)
        d = self._dist
        n = self._n
        here = d[current * n + target]
        return [
            (port, nbr, NO_PENALTY)
            for port, nbr in self.network.live_ports[current]
            if d[nbr * n + target] == here - 1
        ]

    def ports_key(self, pkt, current: int) -> tuple:
        return (self.target(pkt, current),)

    def on_hop(self, pkt, new_switch: int) -> None:
        pkt.hops += 1

    def on_topology_change(self) -> None:
        self._bind_flat()  # Network recomputes its distances lazily

    def refresh_packet(self, pkt, current: int) -> None:
        """No per-packet state depends on the distances."""

    def max_route_length(self) -> int | None:
        return None  # the ladder alone bounds the mechanism
