"""Synthetic traffic patterns: the paper's evaluation set (§4) plus the
workload-diversity library (hotspot, tornado/shift, bit permutations,
Dragonfly group-adversarial — see :mod:`repro.traffic.workloads`)."""

from __future__ import annotations

import numpy as np

from ..registry import Registry
from ..topology.base import Network
from .base import (
    PermutationTraffic,
    TrafficPattern,
    break_fixed_points,
    validate_permutation,
)
from .collective import CollectiveTraffic
from .patterns import (
    DimensionComplementReverse,
    RandomServerPermutation,
    UniformTraffic,
)
from .rpn import RegularPermutationToNeighbour, gray_cycle, next_in_gray_cycle
from .workloads import (
    BitReverseTraffic,
    BitShuffleTraffic,
    BitTransposeTraffic,
    DragonflyAdversarial,
    HotspotTraffic,
    ShiftTraffic,
    TornadoTraffic,
)

#: The traffic-pattern axis: canonical name -> ``(network, rng)``
#: factory.  The paper's four patterns first, then the
#: workload-diversity library.  Register here to make a pattern
#: reachable from sweeps, cache keys and the CLI alike.
TRAFFIC_REGISTRY = Registry("traffic pattern")
for _entry in (
    ("uniform", lambda net, rng: UniformTraffic(net),
     (), "Uniform"),
    ("randperm", lambda net, rng: RandomServerPermutation(net, rng),
     ("random server permutation",), "Random Server Permutation"),
    ("dcr", lambda net, rng: DimensionComplementReverse(net),
     ("dimension complement reverse",), "Dimension Complement Reverse"),
    ("rpn", lambda net, rng: RegularPermutationToNeighbour(net),
     ("regular permutation to neighbour",), "Regular Permutation to Neighbour"),
    ("hotspot", lambda net, rng: HotspotTraffic(net, rng),
     (), "Hotspot"),
    ("tornado", lambda net, rng: TornadoTraffic(net),
     (), "Tornado"),
    ("shift", lambda net, rng: ShiftTraffic(net),
     (), "Shift"),
    ("transpose", lambda net, rng: BitTransposeTraffic(net),
     ("bit transpose",), "Bit Transpose"),
    ("bitrev", lambda net, rng: BitReverseTraffic(net),
     ("bit reverse",), "Bit Reverse"),
    ("shuffle", lambda net, rng: BitShuffleTraffic(net),
     ("bit shuffle",), "Bit Shuffle"),
    ("adversarial", lambda net, rng: DragonflyAdversarial(net),
     ("dragonfly adversarial", "dfly-adv"), "Dragonfly Adversarial"),
):
    TRAFFIC_REGISTRY.register(
        _entry[0], _entry[1], aliases=_entry[2], display=_entry[3]
    )
del _entry

#: Short names accepted by :func:`make_traffic`, in registration order.
TRAFFIC_PATTERNS: tuple[str, ...] = TRAFFIC_REGISTRY.names


def canonical_traffic_name(name: str) -> str:
    """Resolve a pattern name or alias to its registry short name.

    Every consumer that matches pattern names (the factory below, the
    sweep validators) goes through this, so an alias can never behave
    differently from its short name.  Unknown names raise the registry's
    one "unknown traffic pattern" error — a typo is an error, not an
    unsupported topology.
    """
    return TRAFFIC_REGISTRY.canonical(name)


def make_traffic(
    name: str,
    network: Network,
    rng: np.random.Generator | int | None = None,
) -> TrafficPattern:
    """Build a traffic pattern by short name (see :data:`TRAFFIC_PATTERNS`).

    Patterns with structural requirements raise ``TypeError`` (wrong
    topology class) or ``ValueError`` (wrong sizing) — use
    :func:`supported_traffics` to filter a pattern list for a network.
    """
    return TRAFFIC_REGISTRY.make(name, network, rng)


def supported_traffics(
    network: Network, names: tuple[str, ...] = TRAFFIC_PATTERNS
) -> list[str]:
    """The subset of ``names`` constructible on ``network``, in order.

    Mirrors :func:`repro.routing.catalog.supported_mechanisms`: patterns
    with structural requirements (HyperX coordinates, even sides,
    power-of-two server counts, Dragonfly groups) are silently dropped so
    sweeps can take one pattern list across heterogeneous topologies.
    """
    out = []
    for name in names:
        canonical_traffic_name(name)  # a typo raises, even if unsupported
        try:
            make_traffic(name, network, rng=0)
        except (TypeError, ValueError):
            continue
        out.append(name)
    return out


__all__ = [
    "BitReverseTraffic",
    "BitShuffleTraffic",
    "BitTransposeTraffic",
    "CollectiveTraffic",
    "DimensionComplementReverse",
    "DragonflyAdversarial",
    "HotspotTraffic",
    "PermutationTraffic",
    "RandomServerPermutation",
    "RegularPermutationToNeighbour",
    "ShiftTraffic",
    "TRAFFIC_PATTERNS",
    "TRAFFIC_REGISTRY",
    "TornadoTraffic",
    "TrafficPattern",
    "UniformTraffic",
    "break_fixed_points",
    "canonical_traffic_name",
    "gray_cycle",
    "make_traffic",
    "next_in_gray_cycle",
    "supported_traffics",
    "validate_permutation",
]
