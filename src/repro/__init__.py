"""SurePath: fault-tolerant routing for HyperX interconnection networks.

A full Python reproduction of *"Achieving High-Performance Fault-Tolerant
Routing in HyperX Interconnection Networks"* (Camarero, Cano, Martínez,
Beivide — SC 2024): HyperX topologies, link-fault models, the
Omnidimensional / Polarized / Minimal / Valiant routing algorithms, the
SurePath mechanism with its opportunistic Up/Down escape subnetwork, a
slot-level virtual-cut-through simulator, the paper's synthetic traffic
patterns, and drivers that regenerate every table and figure of the
evaluation.

Quickstart::

    from repro import HyperX, Network, Simulator, make_mechanism, make_traffic

    net = Network(HyperX((8, 8), 8))
    mech = make_mechanism("PolSP", net)
    sim = Simulator(net, mech, make_traffic("uniform", net), offered=0.6)
    print(sim.run(warmup=200, measure=400).summary())
"""

from __future__ import annotations

from .routing import (
    MECHANISMS,
    LadderRouting,
    RoutingMechanism,
    SurePathRouting,
    make_mechanism,
)
from .simulator import (
    PAPER_CONFIG,
    BatchInjection,
    BernoulliInjection,
    DeadlockError,
    FaultEvent,
    FaultSchedule,
    SimConfig,
    SimResult,
    Simulator,
)
from .topology import (
    HyperX,
    Network,
    Topology,
    complete_graph,
    regular_hyperx,
    shape_faults,
    shape_root,
)
from .traffic import (
    TRAFFIC_PATTERNS,
    DimensionComplementReverse,
    RandomServerPermutation,
    RegularPermutationToNeighbour,
    TrafficPattern,
    UniformTraffic,
    make_traffic,
)
from .updown import EscapeSubnetwork

__version__ = "0.2.0"

__all__ = [
    "BatchInjection",
    "BernoulliInjection",
    "DeadlockError",
    "DimensionComplementReverse",
    "EscapeSubnetwork",
    "FaultEvent",
    "FaultSchedule",
    "HyperX",
    "LadderRouting",
    "MECHANISMS",
    "Network",
    "PAPER_CONFIG",
    "RandomServerPermutation",
    "RegularPermutationToNeighbour",
    "RoutingMechanism",
    "SimConfig",
    "SimResult",
    "Simulator",
    "SurePathRouting",
    "TRAFFIC_PATTERNS",
    "Topology",
    "TrafficPattern",
    "UniformTraffic",
    "complete_graph",
    "make_mechanism",
    "make_traffic",
    "regular_hyperx",
    "shape_faults",
    "shape_root",
    "__version__",
]
