"""Topology substrate: the paper's HyperX/Dragonfly plus the diversity
library (torus/mesh, fat-tree, random-regular), faulted networks and
graph metrics.  :func:`make_topology` builds any family by short name."""

from __future__ import annotations

from .base import Link, Network, Topology, normalize_link
from .catalog import TOPOLOGIES, TOPOLOGY_REGISTRY, make_topology
from .custom import ExplicitTopology, mesh_topology, ring_topology
from .dragonfly import Dragonfly, balanced_dragonfly
from .fattree import FatTree
from .faults import (
    apply_faults,
    cross_faults,
    random_connected_fault_sequence,
    random_fault_sequence,
    random_switch_fault_sequence,
    row_faults,
    shape_faults,
    shape_root,
    star_faults,
    subcube_faults,
    subplane_faults,
    switch_faults,
)
from .graph import (
    UNREACHABLE,
    NetworkDisconnected,
    all_pairs_distances,
    average_distance,
    average_distance_or_none,
    bfs_distances,
    connected_components,
    diameter,
    diameter_or_none,
    eccentricity,
    is_connected,
)
from .hyperx import HyperX, complete_graph, regular_hyperx
from .random_regular import RandomRegular
from .torus import Torus, mesh_ncube

__all__ = [
    "Dragonfly",
    "ExplicitTopology",
    "FatTree",
    "HyperX",
    "Link",
    "Network",
    "NetworkDisconnected",
    "RandomRegular",
    "TOPOLOGIES",
    "TOPOLOGY_REGISTRY",
    "Topology",
    "Torus",
    "UNREACHABLE",
    "all_pairs_distances",
    "apply_faults",
    "average_distance",
    "average_distance_or_none",
    "balanced_dragonfly",
    "bfs_distances",
    "complete_graph",
    "connected_components",
    "cross_faults",
    "diameter",
    "diameter_or_none",
    "eccentricity",
    "is_connected",
    "make_topology",
    "mesh_ncube",
    "mesh_topology",
    "normalize_link",
    "random_connected_fault_sequence",
    "random_fault_sequence",
    "random_switch_fault_sequence",
    "regular_hyperx",
    "ring_topology",
    "row_faults",
    "shape_faults",
    "shape_root",
    "star_faults",
    "subcube_faults",
    "subplane_faults",
    "switch_faults",
]
