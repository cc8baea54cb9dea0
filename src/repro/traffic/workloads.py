"""Workload-diversity traffic patterns beyond the paper's four (§4).

The paper evaluates Uniform, Random Server Permutation, DCR and RPN under
steady-state Bernoulli injection.  This module opens the traffic axis with
the classic adversarial patterns of the interconnection-network literature:

* **Hotspot** — a fraction of the traffic converges on a few hot servers
  (the in-cast stressor); the rest is uniform background.
* **Tornado** — every switch sends halfway around each dimension's ring,
  the canonical worst case for dimension-ordered minimal routing.
* **Shift** — servers send ``shift`` positions ahead (mod n), the
  topology-agnostic member of the family: it runs on HyperX, Dragonfly
  and any :class:`~repro.topology.custom.ExplicitTopology` alike.
* **Bit permutations** (transpose, bit-reverse, bit-shuffle) — the FFT /
  matrix-transpose communication patterns; destination = a fixed
  permutation of the *bits* of the source index.
* **Dragonfly group-adversarial** — every group sends to the next group,
  funnelling all its traffic through the single global link between the
  two (the ADV+1 pattern that motivates non-minimal routing on
  Dragonflies).

All fixed maps are :class:`~repro.traffic.base.PermutationTraffic`
subclasses, so the admissibility validation (bijective, fixed-point-free)
applies unchanged.  Bit permutations naturally have fixed points (server 0
maps to itself under any bit permutation); :func:`~.base.break_fixed_points`
rotates those among themselves — the same fix-up Random Server Permutation
uses — so every registered pattern stays self-traffic-free.
"""

from __future__ import annotations

import numpy as np

from ..seeding import as_generator
from ..topology.base import Network
from ..topology.dragonfly import Dragonfly
from ..topology.hyperx import HyperX
from .base import (
    PermutationTraffic,
    TrafficPattern,
    break_fixed_points,
    require_topology,
)


# ----------------------------------------------------------------------
# Hotspot — random per message, not a permutation
# ----------------------------------------------------------------------
class HotspotTraffic(TrafficPattern):
    """A fraction of the traffic converges on ``n_hot`` hot servers.

    With probability ``fraction`` a message goes to a uniformly random hot
    server; otherwise to a uniformly random other server (the background).
    The hot set is drawn once from the construction RNG, so two instances
    built with the same seed stress the same servers.

    Messages are never self-directed: a hot draw that lands on the source
    falls through to the background draw, which skips the source without
    rejection.
    """

    name = "Hotspot"

    def __init__(
        self,
        network: Network,
        rng: np.random.Generator | int | None = None,
        *,
        n_hot: int = 1,
        fraction: float = 0.5,
    ):
        super().__init__(network)
        if not 1 <= n_hot <= self.n_servers:
            raise ValueError(f"n_hot must be in [1, {self.n_servers}], got {n_hot}")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        rng = as_generator(rng)
        self.hot = np.sort(rng.choice(self.n_servers, size=n_hot, replace=False))
        self.fraction = float(fraction)

    def destination(self, src_server: int, rng: np.random.Generator) -> int:
        if rng.random() < self.fraction:
            dst = int(self.hot[rng.integers(len(self.hot))])
            if dst != src_server:
                return dst
        d = int(rng.integers(self.n_servers - 1))
        return d + 1 if d >= src_server else d


# ----------------------------------------------------------------------
# Tornado and shift
# ----------------------------------------------------------------------
class TornadoTraffic(PermutationTraffic):
    """Each switch sends halfway around every dimension (HyperX only).

    Switch ``(x_1, ..., x_n)`` sends to ``((x_i + k_i // 2) mod k_i)``,
    same server offset — the classic tornado pattern that concentrates
    load on the longest rotation of each complete-graph row.  Every side
    is >= 2, so every coordinate moves and the map is fixed-point-free.
    """

    name = "Tornado"

    def __init__(self, network: Network):
        topo = require_topology("Tornado", network, HyperX)
        sps = topo.servers_per_switch
        shifts = tuple(k // 2 for k in topo.sides)
        perm = np.empty(network.n_servers, dtype=np.int64)
        for s in range(topo.n_switches):
            dst_sw = topo.switch_id(
                tuple(
                    (c + d) % k
                    for c, d, k in zip(topo.coords(s), shifts, topo.sides)
                )
            )
            base, dbase = s * sps, dst_sw * sps
            for w in range(sps):
                perm[base + w] = dbase + w
        super().__init__(network, perm)


class ShiftTraffic(PermutationTraffic):
    """Server ``s`` sends to ``(s + shift) mod n`` — any topology.

    The only new pattern with no structural requirement at all: it is the
    workload to reach for on Dragonfly or custom topologies where the
    HyperX-structured patterns do not apply.
    """

    name = "Shift"

    def __init__(self, network: Network, *, shift: int = 1):
        n = network.n_servers
        if shift % n == 0:
            raise ValueError(f"shift must be nonzero mod {n} servers")
        perm = (np.arange(n, dtype=np.int64) + shift) % n
        self.shift = shift
        super().__init__(network, perm)


# ----------------------------------------------------------------------
# Bit-permutation family
# ----------------------------------------------------------------------
class BitPermutationTraffic(PermutationTraffic):
    """Base class: destination = a fixed permutation of the source's bits.

    Requires a power-of-two server count.  Subclasses implement
    :meth:`map_bits`; fixed points of the resulting map (server 0 always,
    and e.g. bit-palindromes under reversal) are removed by
    :func:`break_fixed_points` so the pattern is admissible self-free
    traffic like every other registered pattern.
    """

    def __init__(self, network: Network):
        n = network.n_servers
        if n < 2 or n & (n - 1):
            raise ValueError(
                f"{type(self).__name__} needs a power-of-two server count, "
                f"got {n} on {type(network.topology).__name__}; use "
                "supported_traffics() to filter"
            )
        self.n_bits = n.bit_length() - 1
        perm = np.fromiter(
            (self.map_bits(s, self.n_bits) for s in range(n)), dtype=np.int64, count=n
        )
        if not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError(f"{type(self).__name__}.map_bits is not a bijection")
        break_fixed_points(perm)
        super().__init__(network, perm)

    def map_bits(self, s: int, n_bits: int) -> int:
        raise NotImplementedError


class BitTransposeTraffic(BitPermutationTraffic):
    """Swap the upper and lower halves of the index bits (matrix transpose)."""

    name = "Bit Transpose"

    def __init__(self, network: Network):
        n = network.n_servers
        if n >= 2 and (n.bit_length() - 1) % 2:
            raise ValueError(
                f"Bit Transpose needs an even number of index bits, got {n} "
                f"servers on {type(network.topology).__name__}"
            )
        super().__init__(network)

    def map_bits(self, s: int, n_bits: int) -> int:
        half = n_bits // 2
        lo = s & ((1 << half) - 1)
        return (lo << half) | (s >> half)


class BitReverseTraffic(BitPermutationTraffic):
    """Reverse the index bits (the FFT butterfly exchange pattern)."""

    name = "Bit Reverse"

    def map_bits(self, s: int, n_bits: int) -> int:
        out = 0
        for _ in range(n_bits):
            out = (out << 1) | (s & 1)
            s >>= 1
        return out


class BitShuffleTraffic(BitPermutationTraffic):
    """Rotate the index bits left by one (the perfect-shuffle pattern)."""

    name = "Bit Shuffle"

    def map_bits(self, s: int, n_bits: int) -> int:
        top = s >> (n_bits - 1)
        return ((s << 1) & ((1 << n_bits) - 1)) | top


# ----------------------------------------------------------------------
# Dragonfly group-adversarial
# ----------------------------------------------------------------------
class DragonflyAdversarial(PermutationTraffic):
    """Every group sends to the group ``offset`` ahead (ADV+offset).

    Each server sends to the server at the same (switch-in-group, offset)
    position of group ``(g + offset) mod n_groups``, so *all* of a group's
    traffic competes for the single global link it shares with the target
    group — the canonical adversarial workload for minimal Dragonfly
    routing, and the stress test for the escape subnetwork's §7 caveat
    (its Up/Down paths are not minimal here).
    """

    name = "Dragonfly Adversarial"

    def __init__(self, network: Network, *, offset: int = 1):
        topo = require_topology("DragonflyAdversarial", network, Dragonfly)
        if offset % topo.n_groups == 0:
            raise ValueError(
                f"offset must be nonzero mod {topo.n_groups} groups"
            )
        sps = topo.servers_per_switch
        group_servers = topo.a * sps
        n = network.n_servers
        perm = (np.arange(n, dtype=np.int64) + offset * group_servers) % n
        self.offset = offset
        super().__init__(network, perm)
