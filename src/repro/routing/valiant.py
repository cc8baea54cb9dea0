"""Valiant randomized routing with ladder VC management (paper Table 4).

Each packet draws a uniformly random intermediate switch and travels
minimally source -> intermediate -> destination.  This trades up to 2x path
length for perfect load balancing, giving the well-known 0.5 saturation
throughput on benign traffic and the *optimal* 0.5 on worst-case admissible
permutations such as Dimension Complement Reverse.  VCs follow a
one-by-one ladder over the (at most ``2 * diameter``) hops.
"""

from __future__ import annotations

import numpy as np

from ..seeding import as_generator
from ..topology.base import Network
from ..topology.graph import FlatViews
from .base import NO_PENALTY, Candidate, RoutingMechanism, ladder_vc


class ValiantRouting(RoutingMechanism, FlatViews):
    """Two-phase randomized minimal routing, one-by-one VC ladder."""

    name = "Valiant"
    FLAT = {"_dist": "network.distances"}

    def __init__(
        self,
        network: Network,
        n_vcs: int,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__(n_vcs)
        self.network = network
        self.on_topology_change()
        self.rng = as_generator(rng)

    def init_packet(self, pkt) -> None:
        pkt.hops = 0
        # Uniform intermediate; drawing src or dst degenerates to minimal
        # routing for this packet, as in Valiant's original scheme.
        pkt.mid = int(self.rng.integers(self.network.n_switches))
        pkt.phase = 0

    def _phase_target(self, pkt, current: int) -> int:
        if pkt.phase == 0 and current == pkt.mid:
            pkt.phase = 1
        return pkt.dst_switch if pkt.phase else pkt.mid

    def candidates(self, pkt, current: int) -> list[Candidate]:
        target = self._phase_target(pkt, current)
        vcs = ladder_vc(pkt.hops, self.n_vcs, 1)
        if not vcs:
            return []
        vc = vcs[0]
        d = self._dist
        n = self._n
        here = d[current * n + target]
        out: list[Candidate] = []
        for port, nbr in self.network.live_ports[current]:
            if d[nbr * n + target] == here - 1:
                out.append((port, vc, NO_PENALTY))
        return out

    def candidate_key(self, pkt, current: int) -> tuple:
        # Through ``_phase_target``, so a packet served from a shared
        # list still gets the lazy phase flip ``candidates`` performs.
        return (current, self._phase_target(pkt, current), pkt.hops)

    def on_hop(self, pkt, old_switch: int, new_switch: int, port: int, vc: int) -> None:
        pkt.hops += 1
        # Phase flip is evaluated lazily in candidates(); do it here too so
        # external observers see a consistent phase.
        if pkt.phase == 0 and new_switch == pkt.mid:
            pkt.phase = 1

    def on_topology_change(self) -> None:
        self._bind_flat()

    def max_route_length(self) -> int | None:
        return self.n_vcs
