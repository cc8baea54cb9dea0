"""Valiant randomized routes (paper Table 4).

Each packet draws a uniformly random intermediate switch and travels
minimally source -> intermediate -> destination.  This trades up to 2x path
length for perfect load balancing, giving the well-known 0.5 saturation
throughput on benign traffic and the *optimal* 0.5 on worst-case admissible
permutations such as Dimension Complement Reverse.  The paper's Valiant
mechanism runs these routes under a one-by-one ladder over the (at most
``2 * diameter``) hops.
"""

from __future__ import annotations

import numpy as np

from ..seeding import as_generator
from ..topology.base import Network
from .minimal import MinimalRoutes


class ValiantRoutes(MinimalRoutes):
    """Minimal routes to a random intermediate, then to the destination."""

    def __init__(self, network: Network, rng: np.random.Generator | int | None = None):
        super().__init__(network)
        self.rng = as_generator(rng)

    def init_packet(self, pkt) -> None:
        pkt.hops = 0
        # Uniform intermediate; drawing src or dst degenerates to minimal
        # routing for this packet, as in Valiant's original scheme.
        pkt.mid = int(self.rng.integers(self.network.n_switches))
        pkt.phase = 0

    def target(self, pkt, current: int) -> int:
        # The phase flips lazily on reaching the intermediate; ``ports_key``
        # reads the target too, so a packet served from a shared list
        # still gets the flip.  In phase 0 the destination is no input.
        if pkt.phase == 0 and current == pkt.mid:
            pkt.phase = 1
        return pkt.dst_switch if pkt.phase else pkt.mid

    def on_hop(self, pkt, new_switch: int) -> None:
        pkt.hops += 1
        # Flip here too so external observers see a consistent phase.
        if pkt.phase == 0 and new_switch == pkt.mid:
            pkt.phase = 1
