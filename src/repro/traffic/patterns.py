"""The paper's synthetic traffic patterns (§4), except RPN (see rpn.py).

* **Uniform** — per-message random destination among the other servers.
* **Random Server Permutation** — one fixed random fixed-point-free
  permutation of the servers.
* **Dimension Complement Reverse (DCR)** — servers at switch ``(x, y, z)``
  send to servers at ``(z̄, ȳ, x̄)`` with ``x̄ = k - 1 - x`` (3D); the 2D
  variant treats the server offset as a third coordinate:
  ``(w, x, y) -> (ȳ, x̄, w̄)``.  DCR is the adversarial pattern on which
  Valiant's 0.5 is optimal.
"""

from __future__ import annotations

import numpy as np

from ..seeding import as_generator
from ..topology.base import Network
from ..topology.hyperx import HyperX
from .base import (
    PermutationTraffic,
    TrafficPattern,
    break_fixed_points,
    require_topology,
)


class UniformTraffic(TrafficPattern):
    """Every message goes to a uniformly random *other* server."""

    name = "Uniform"

    def destination(self, src_server: int, rng: np.random.Generator) -> int:
        # Draw over n-1 servers, skipping the source, without rejection.
        d = int(rng.integers(self.n_servers - 1))
        return d + 1 if d >= src_server else d


class RandomServerPermutation(PermutationTraffic):
    """A fixed random permutation of the servers, fixed points removed.

    The fix-up rotates any fixed points among themselves (or swaps a lone
    one with its successor), preserving uniformity closely enough for the
    paper's purpose of "random but balanced" pairings.
    """

    name = "Random Server Permutation"

    def __init__(self, network: Network, rng: np.random.Generator | int | None = None):
        rng = as_generator(rng)
        n = network.n_servers
        if n < 2:
            raise ValueError("a fixed-point-free permutation needs >= 2 servers")
        super().__init__(network, break_fixed_points(rng.permutation(n)))


def _complement_coords(coords: tuple[int, ...], sides: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k - 1 - c for c, k in zip(coords, sides))


class DimensionComplementReverse(PermutationTraffic):
    """Dimension Complement Reverse (paper [24], adapted to 2D in §4).

    3D: switch ``(x, y, z)`` sends to switch ``(z̄, ȳ, x̄)``, same server
    offset.  2D: server ``(w, x, y)`` sends to server ``(ȳ, x̄, w̄)`` where
    ``w`` is the within-switch offset (requires ``servers_per_switch ==
    side``).  Even sides guarantee no fixed points.
    """

    name = "Dimension Complement Reverse"

    def __init__(self, network: Network):
        topo = require_topology("DCR", network, HyperX)
        if len(set(topo.sides)) != 1:
            raise ValueError(
                f"DCR requires a regular HyperX (equal sides), got {topo.sides}"
            )
        k = topo.sides[0]
        sps = topo.servers_per_switch
        n = network.n_servers
        perm = np.empty(n, dtype=np.int64)
        if topo.n_dims == 2:
            if sps != k:
                raise ValueError(
                    "2D DCR uses the server offset as a coordinate and needs "
                    f"servers_per_switch == side ({sps} != {k})"
                )
            for s in range(topo.n_switches):
                x, y = topo.coords(s)
                for w in range(sps):
                    # (w, x, y) -> (ȳ, x̄, w̄)
                    dst_sw = topo.switch_id((k - 1 - x, k - 1 - w))
                    perm[s * sps + w] = dst_sw * sps + (k - 1 - y)
        else:
            for s in range(topo.n_switches):
                rev = _complement_coords(topo.coords(s)[::-1], topo.sides[::-1])
                dst_sw = topo.switch_id(rev)
                for w in range(sps):
                    perm[s * sps + w] = dst_sw * sps + w
        super().__init__(network, perm)
