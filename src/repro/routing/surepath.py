"""SurePath routing mechanism (paper §3): routing VCs + Up/Down escape.

SurePath splits the virtual channels of every port into two sets:

* ``CRout`` — VCs ``0 .. n_vcs-2``, carrying the bulk of the load under a
  fully-adaptive base routing (Omnidimensional or Polarized route sets).
* ``CEsc`` — the last VC, implementing the opportunistic Up/Down escape
  subnetwork of :mod:`repro.updown`, which is deadlock-free on its own with
  a single FIFO per port.

Transition rules (paper §3, items 1–2):

1. A packet in ``CRout`` may request any hop offered by the base routing
   algorithm, on any routing VC, with the algorithm's penalty.
2. Any packet — in ``CRout`` *or* ``CEsc`` — may request any escape-candidate
   hop on the escape VC, with the Up/Down penalties (Up 112, Down 96,
   shortcuts 80/64/48 phits).  Moving from ``CEsc`` back into ``CRout`` is
   forbidden, so once a packet escapes it rides the escape subnetwork to the
   destination.

A *forced hop* happens when a packet in ``CRout`` gets no routing candidate
(deroute budget exhausted towards a dead link, ladder-free Polarized corner
cases under heavy faults, ...): its only candidates are then the escape ones,
which always exist while the network is connected.  This is the whole
fault-tolerance argument: the escape tables are rebuilt by BFS after every
topology change, so *some* candidate always remains and every escape hop
strictly decreases the Up/Down distance to the destination — packets cannot
cycle and cannot deadlock.

The paper's two configurations are rows of the mechanism catalog
(:mod:`repro.routing.catalog`): OmniSP runs the Omnidimensional route set
under this policy, PolSP the Polarized one.
"""

from __future__ import annotations

from ..topology.base import Network
from ..updown.escape import PHASE_CLIMB, EscapeSubnetwork
from .base import (
    Candidate,
    CandidateList,
    CandidateRow,
    RouteSet,
    RoutingMechanism,
    candidate_row,
)

#: ``(port, penalty) -> (triples, row)``, see :func:`candidate_row`.
_InternedRows = dict[tuple[int, int], tuple[tuple[Candidate, ...], CandidateRow]]


class SurePathRouting(RoutingMechanism):
    """SurePath: base route set on ``CRout`` + Up/Down escape on ``CEsc``.

    Parameters
    ----------
    name:
        The mechanism's name (``"OmniSP"``, ``"PolSP"``).
    network:
        The (possibly faulty) network; must be connected so the escape
        subnetwork can be built.
    routes:
        Base route-candidate generator (:class:`OmnidimensionalRoutes` or
        :class:`PolarizedRoutes`).
    n_vcs:
        Total VCs per port.  SurePath needs at least 2 (1 routing +
        1 escape); the paper's fault experiments use 4 and note that 2
        suffice without performance collapse.
    escape:
        Pre-built escape subnetwork to share between mechanisms, or
        ``None`` to build one rooted at ``root``.
    root:
        Root of the Up/Down layering when ``escape`` is not supplied.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        routes: RouteSet,
        n_vcs: int = 4,
        escape: EscapeSubnetwork | None = None,
        root: int = 0,
    ):
        if n_vcs < 2:
            raise ValueError("SurePath needs >= 2 VCs (1 routing + 1 escape)")
        super().__init__(n_vcs)
        self.name = name
        self.network = network
        self.routes = routes
        self.escape = escape if escape is not None else EscapeSubnetwork(network, root)
        if self.escape.network is not network:
            raise ValueError("escape subnetwork was built on a different network")
        #: Routing VCs (CRout) and the escape VC (CEsc).
        self.routing_vcs: tuple[int, ...] = tuple(range(n_vcs - 1))
        self.escape_vc: int = n_vcs - 1
        #: ``(port, penalty) ->`` that hop's rule-1 candidates (one per
        #: routing VC) and their row, and the same for its rule-2
        #: candidate on the escape VC.  Interned (built on first use,
        #: valid across topology changes) so candidate lists, which the
        #: simulator keeps, share their triples and rows instead of each
        #: owning fresh ones per port.
        self._rule1_rows: _InternedRows = {}
        self._escape_rows: _InternedRows = {}

    # ------------------------------------------------------------------
    # RoutingMechanism interface
    # ------------------------------------------------------------------
    def init_packet(self, pkt) -> None:
        self.routes.init_packet(pkt)
        pkt.in_escape = False
        pkt.escape_phase = PHASE_CLIMB
        pkt.escape_hops = 0
        pkt.forced_hops = 0

    def candidates(self, pkt, current: int) -> CandidateList:
        rows: list[CandidateRow] = []
        out = CandidateList((), rows)
        if not pkt.in_escape:
            # Rule 1: base-routing hops on every routing VC.
            rule1 = self._rule1_rows
            for port, _nbr, pen in self.routes.ports(pkt, current):
                entry = rule1.get((port, pen))
                if entry is None:
                    entry = rule1[port, pen] = candidate_row(
                        port, pen, self.routing_vcs, self.n_vcs
                    )
                out += entry[0]
                rows.append(entry[1])
        # Rule 2: escape hops are always on offer (and are the only offer
        # once the packet is in CEsc, or when rule 1 yields nothing).
        # Packets outside the escape start it in the climb phase.
        phase = pkt.escape_phase if pkt.in_escape else PHASE_CLIMB
        rule2 = self._escape_rows
        for port, _nbr, pen in self.escape.candidates(current, pkt.dst_switch, phase):
            entry = rule2.get((port, pen))
            if entry is None:
                entry = rule2[port, pen] = candidate_row(
                    port, pen, (self.escape_vc,), self.n_vcs
                )
            out += entry[0]
            rows.append(entry[1])
        return out

    def candidate_key(self, pkt, current: int) -> tuple:
        """See :meth:`RoutingMechanism.candidate_key`.

        :meth:`candidates` reads, besides ``current``: ``pkt.in_escape``,
        the base route set's inputs (its ``ports_key``) for rule 1, and
        ``(dst_switch, escape_phase)`` for rule 2.  Packets outside the
        escape always query the climb phase, and their destination is in
        ``ports_key`` (a route set run under SurePath must key it), so
        rule 2 adds nothing to their key.
        """
        if pkt.in_escape:
            return (1, current, pkt.dst_switch, pkt.escape_phase)
        return (0, current) + self.routes.ports_key(pkt, current)

    def on_hop(self, pkt, old_switch: int, new_switch: int, port: int, vc: int) -> None:
        if vc == self.escape_vc:
            if not pkt.in_escape:
                # This hop either escaped voluntarily (congestion) or was
                # forced (no routing candidate); the simulator distinguishes
                # them when tallying, we record the transition itself here.
                pkt.in_escape = True
                pkt.escape_phase = PHASE_CLIMB
            pkt.escape_phase = self.escape.next_phase(
                old_switch, port, pkt.escape_phase
            )
            pkt.escape_hops += 1
            pkt.hops += 1
        else:
            self.routes.on_hop(pkt, new_switch)

    def on_topology_change(self) -> None:
        """Rebuild the escape subnetwork (same root) and the base routes.

        This is the mechanism-level half of the paper's reconfiguration:
        after a link event the Up/Down layering and both escape distance
        matrices are recomputed by BFS, and the base route set refreshes
        whatever distance tables it compiled.  Packets already in flight
        are repaired separately via :meth:`refresh_packet`.
        """
        self.escape.rebuild()
        self.routes.on_topology_change()

    def refresh_packet(self, pkt, current: int) -> None:
        if pkt.in_escape:
            # The old descend phase may be meaningless on the new layering
            # (the packet's apex was relative to the old tree): restart the
            # climb.  Climb candidates always exist while connected, and
            # every hop still strictly decreases the new phase-aware
            # distance, so termination/deadlock-freedom are preserved.
            pkt.escape_phase = PHASE_CLIMB
        else:
            self.routes.refresh_packet(pkt, current)

    def max_route_length(self) -> int | None:
        # A packet may ride routing hops up to the base bound and then the
        # escape subnetwork from anywhere: the escape length is bounded by
        # the maximum Up/Down distance (strictly decreasing per hop).
        return self.routes.max_route_length() + self.escape.route_length_bound()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, routes={type(self.routes).__name__},"
            f" n_vcs={self.n_vcs}, root={self.escape.root})"
        )

