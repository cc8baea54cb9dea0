"""Catalogue of the paper's six routing mechanisms (Table 4).

Each mechanism is one row of :data:`MECHANISM_REGISTRY`: a route set run
under one of two VC policies, a ladder
(:class:`~repro.routing.base.LadderRouting`) or SurePath
(:class:`~repro.routing.surepath.SurePathRouting`).  :func:`make_mechanism`
builds any row by name with the paper's VC conventions: every mechanism
gets ``2n`` VCs on an ``n``-dimensional HyperX for the fault-free
comparison (§4), while the fault experiments (§6) run SurePath with 4 VCs
(3 routing + 1 escape).

Rows whose route set only needs BFS tables (Minimal, Valiant, Polarized,
PolSP) also build on non-HyperX networks, matching the paper's remark
that SurePath is topology-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..registry import Registry
from ..topology.base import Network
from ..topology.hyperx import HyperX
from ..updown.escape import EscapeSubnetwork
from .base import LadderRouting, RouteSet, RoutingMechanism
from .minimal import MinimalRoutes
from .omni import OmnidimensionalRoutes
from .polarized import PolarizedRoutes
from .surepath import SurePathRouting
from .valiant import ValiantRoutes


@dataclass(frozen=True)
class MechanismRow:
    """One Table 4 row: which route set, under which VC policy."""

    #: The paper's name, its casing kept (records and cache keys use it).
    name: str
    #: ``(network, *, rng, max_deroutes) -> RouteSet``.
    routes: Callable[..., RouteSet]
    #: Ladder VCs per hop, or ``None`` for the SurePath policy.
    vcs_per_step: int | None
    #: Table 4's routing column, as the paper words it.
    paper_routing: str
    #: Table 4's VC budget on an ``n``-dimensional HyperX.
    required_vcs: Callable[[int], int]
    #: The route set walks HyperX coordinates.
    hyperx_only: bool = False

    @property
    def surepath(self) -> bool:
        return self.vcs_per_step is None


#: The mechanism axis, in the paper's plotting order.
MECHANISM_REGISTRY = Registry("routing mechanism")
for _row in (
    MechanismRow("Minimal", lambda net, **_: MinimalRoutes(net), 2,
                 "Shortest path", lambda n: n),
    MechanismRow("Valiant", lambda net, *, rng, **_: ValiantRoutes(net, rng), 1,
                 "Shortest path x2 phases", lambda n: 2 * n),
    MechanismRow(
        "OmniWAR",
        lambda net, *, max_deroutes, **_: OmnidimensionalRoutes(net, max_deroutes),
        1, "Omnidimensional", lambda n: 2 * n, hyperx_only=True,
    ),
    MechanismRow("Polarized", lambda net, **_: PolarizedRoutes(net), 1,
                 "Polarized", lambda n: 2 * n),
    MechanismRow(
        "OmniSP",
        lambda net, *, max_deroutes, **_: OmnidimensionalRoutes(net, max_deroutes),
        None, "Omnidimensional", lambda n: 2, hyperx_only=True,
    ),
    MechanismRow("PolSP", lambda net, **_: PolarizedRoutes(net), None,
                 "Polarized", lambda n: 2),
):
    MECHANISM_REGISTRY.register(_row.name, _row)
del _row

#: Mechanism names in the paper's plotting order.
MECHANISMS: tuple[str, ...] = tuple(
    row.name for row in MECHANISM_REGISTRY.values()
)

#: SurePath configurations (escape-based deadlock avoidance).
SUREPATH_MECHANISMS: tuple[str, ...] = tuple(
    row.name for row in MECHANISM_REGISTRY.values() if row.surepath
)

#: Mechanisms that assume the HyperX coordinate structure.
HYPERX_ONLY: tuple[str, ...] = tuple(
    row.name for row in MECHANISM_REGISTRY.values() if row.hyperx_only
)


def mechanism_supported(name: str, topology) -> bool:
    """Whether ``name`` can route on ``topology``.

    The structural requirement is per-mechanism: the Omnidimensional
    mechanisms walk HyperX coordinates; everything else (Minimal,
    Valiant, Polarized, PolSP) is table-driven and runs on any connected
    topology — torus, fat-tree, random-regular, Dragonfly, explicit
    graphs alike.  An unknown mechanism name raises here — a typo is an
    error at filter time, never a crash inside a pool worker.
    """
    return not MECHANISM_REGISTRY[name].hyperx_only or isinstance(topology, HyperX)


def supported_mechanisms(topology, names) -> list[str]:
    """Filter mechanism names to those the topology supports."""
    return [n for n in names if mechanism_supported(n, topology)]


def compatibility_matrix(topologies: dict[str, object]) -> list[dict]:
    """Per-mechanism x per-topology support matrix.

    ``topologies`` maps display labels to :class:`Topology` instances;
    the result has one row per mechanism with boolean cells per label —
    the upfront map of which sweep cells exist, mirroring
    :func:`repro.traffic.supported_traffics` on the traffic axis.
    """
    return [
        {
            "mechanism": name,
            **{
                label: mechanism_supported(name, topo)
                for label, topo in topologies.items()
            },
        }
        for name in MECHANISMS
    ]


def default_n_vcs(network: Network) -> int:
    """The paper's fair-comparison VC budget: ``2n`` for an nD HyperX.

    For non-HyperX topologies we fall back to twice the diameter, the
    analogous ladder requirement.  Raises
    :class:`~repro.topology.graph.NetworkDisconnected` when the network
    is split (there is no finite diameter to size the ladder from).
    """
    topo = network.topology
    if isinstance(topo, HyperX):
        return 2 * topo.n_dims
    from ..topology.graph import NetworkDisconnected, diameter_or_none

    diam = diameter_or_none(network)
    if diam is None:
        raise NetworkDisconnected(
            "cannot size a VC ladder on a disconnected network"
        )
    return 2 * diam


def make_mechanism(
    name: str,
    network: Network,
    n_vcs: int | None = None,
    *,
    escape: EscapeSubnetwork | None = None,
    root: int = 0,
    rng: np.random.Generator | int | None = None,
    max_deroutes: int | None = None,
) -> RoutingMechanism:
    """Build a routing mechanism by its paper name.

    Parameters
    ----------
    name:
        One of :data:`MECHANISMS` (case-insensitive).
    network:
        Target network; HyperX required for OmniWAR / OmniSP.
    n_vcs:
        VCs per port; defaults to :func:`default_n_vcs`.
    escape:
        Shared pre-built escape subnetwork for the SurePath mechanisms
        (rebuilding it per mechanism is wasteful in sweeps).
    root:
        Escape-subnetwork root when ``escape`` is not given.
    rng:
        Seed or generator for Valiant's intermediate draws.
    max_deroutes:
        Omnidimensional deroute budget ``m`` (default: ``n`` dims).
    """
    if not mechanism_supported(name, network.topology):
        # Clean upfront rejection (the route set would fail deeper in,
        # possibly inside a pool worker): name both sides of the mismatch.
        raise TypeError(
            f"mechanism {name!r} requires a HyperX topology, got "
            f"{type(network.topology).__name__}; see supported_mechanisms()"
        )
    row = MECHANISM_REGISTRY[name]
    if n_vcs is None:
        n_vcs = default_n_vcs(network)
    routes = row.routes(network, rng=rng, max_deroutes=max_deroutes)
    if row.surepath:
        return SurePathRouting(row.name, network, routes, n_vcs, escape=escape, root=root)
    return LadderRouting(row.name, routes, n_vcs, row.vcs_per_step)


def is_fault_tolerant(name: str) -> bool:
    """Whether the mechanism keeps delivering under arbitrary connected faults.

    Minimal is fault-tolerant in route existence but its 2-per-step ladder
    caps route length; Valiant/OmniWAR/Polarized ladders likewise cap hops.
    Only the SurePath configurations are unconditionally fault-tolerant
    (paper §6).
    """
    return MECHANISM_REGISTRY[name].surepath
