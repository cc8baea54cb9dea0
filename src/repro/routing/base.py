"""Routing-mechanism interface shared by the simulator and the analyses.

A *routing mechanism* (paper Table 4) couples a route set
(:class:`RouteSet`: Minimal, Valiant, Omnidimensional or Polarized
hops) with one of two VC-management policies: the :class:`LadderRouting`
defined here, or SurePath (:mod:`repro.routing.surepath`).  The catalog
(:mod:`repro.routing.catalog`) builds the paper's six mechanisms from
one registry row each.  The simulator interrogates the mechanism once
per allocation round for each head-of-line packet:

* :meth:`RoutingMechanism.init_packet` seeds per-packet routing state at
  injection time,
* :meth:`RoutingMechanism.candidates` returns legal next hops as
  ``(port, vc, penalty_phits)`` triples at the packet's current switch,
* :meth:`RoutingMechanism.on_hop` updates per-packet state after a hop is
  actually performed.

Penalties are expressed in phits, to be added to the queue-occupancy term
``Q`` (also in phits) of the paper's ``Q + P`` output-selection rule.

A candidate list may come with its *row structure*
(:class:`CandidateList`): the runs of candidates that share an output
port and a penalty, which the simulator's request scans score once per
run instead of once per VC when the port is idle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.packet import Packet

#: Candidate next hop: (output port, virtual channel, penalty in phits).
Candidate = tuple[int, int, int]

#: One run of a candidate list: ``(port, penalty, pvs)`` — consecutive
#: candidates on ``port`` with ``penalty``, as their flat output-VC
#: indices ``port * n_vcs + vc`` in list order.
CandidateRow = tuple[int, int, tuple[int, ...]]


class CandidateList(list[Candidate]):
    """A candidate list together with its rows.

    It *is* the ``(port, vc, penalty)`` triple list (every consumer that
    reads triples is unchanged); ``rows`` are :data:`CandidateRow` runs
    that concatenate, in order, to exactly those triples.  Rows are
    interned by whoever builds them and shared between lists, so neither
    the list nor its rows may be mutated once handed out.
    """

    __slots__ = ("rows",)

    def __init__(self, triples: Iterable[Candidate], rows: list[CandidateRow]):
        super().__init__(triples)
        self.rows = rows

    @classmethod
    def of_triples(
        cls,
        triples: list[Candidate],
        n_vcs: int,
        interned: dict[Candidate, CandidateRow],
    ) -> "CandidateList":
        """Wrap a plain triple list with one width-1 row per triple,
        interned in ``interned`` (triple -> row, for one ``n_vcs``)."""
        rows = []
        for t in triples:
            row = interned.get(t)
            if row is None:
                port, vc, pen = t
                row = interned[t] = (port, pen, (port * n_vcs + vc,))
            rows.append(row)
        return cls(triples, rows)


def candidate_row(
    port: int, pen: int, vcs: tuple[int, ...], n_vcs: int
) -> tuple[tuple[Candidate, ...], CandidateRow]:
    """The triples of the hop ``(port, pen)`` on each of ``vcs``, and
    their :data:`CandidateRow` — the pair a mechanism interns to build
    :class:`CandidateList` results without per-call allocation."""
    return (
        tuple((port, vc, pen) for vc in vcs),
        (port, pen, tuple(port * n_vcs + vc for vc in vcs)),
    )


#: Penalty of a minimal / best candidate (paper §3.1).
NO_PENALTY = 0
#: Penalty of an Omnidimensional deroute or a Polarized ``Δµ = 1`` hop.
DEROUTE_PENALTY = 64
#: Penalty of a Polarized ``Δµ = 0`` hop.
POLARIZED_FLAT_PENALTY = 80


class RoutingMechanism(ABC):
    """Abstract routing mechanism (routes + VC management)."""

    #: Human-readable name, matching the paper's Table 4 where applicable.
    name: str = "abstract"

    def __init__(self, n_vcs: int):
        if n_vcs < 1:
            raise ValueError("need at least one virtual channel")
        self.n_vcs = n_vcs

    @abstractmethod
    def init_packet(self, pkt: "Packet") -> None:
        """Initialise per-packet routing state at injection."""

    @abstractmethod
    def candidates(self, pkt: "Packet", current: int) -> list[Candidate]:
        """Legal next hops for ``pkt`` standing at switch ``current``.

        An empty list means the packet cannot move under this mechanism
        (e.g. ladder exhausted, or faults removed all legal ports); the
        simulator will record it as *stalled*, which is exactly the failure
        mode the paper attributes to non-fault-tolerant mechanisms.

        The list holds at most one entry per ``(port, vc)``.  It may be a
        plain list or a :class:`CandidateList` carrying its rows; the
        simulator wraps a plain one in width-1 rows.
        """

    @abstractmethod
    def on_hop(
        self, pkt: "Packet", old_switch: int, new_switch: int, port: int, vc: int
    ) -> None:
        """Update packet state after the hop ``old_switch -> new_switch``
        through ``port`` on virtual channel ``vc``."""

    # ------------------------------------------------------------------
    # Online reconfiguration (dynamic fault injection / repair)
    # ------------------------------------------------------------------
    def on_topology_change(self) -> None:
        """Rebuild any topology-derived state after an online link event.

        Called by the engine after it mutates the network mid-run (a
        scheduled link failure or repair).  Mechanisms holding compiled
        tables or cached distance matrices must refresh them here —
        exactly the BFS-recomputation the paper assumes happens "when the
        topology changes".  The default is a no-op for mechanisms that
        read the network's live adjacency directly.
        """

    def refresh_packet(self, pkt: "Packet", current: int) -> None:
        """Repair per-packet routing state after a topology change.

        ``current`` is the switch whose buffers hold the packet (the switch
        where its next candidate request happens).  The default is a no-op;
        mechanisms whose per-packet state references the old tables (e.g.
        SurePath's escape phase) override it.
        """

    @abstractmethod
    def candidate_key(self, pkt: "Packet", current: int) -> tuple:
        """The index of the routing table :meth:`candidates` reads: a
        hashable key such that two packets with equal keys get equal
        candidate lists.

        The contract: between two calls to :meth:`on_topology_change`,
        ``candidate_key(a, c) == candidate_key(b, c)`` implies
        ``candidates(a, c) == candidates(b, c)`` — i.e. the key captures
        *every* per-packet field the candidate computation reads, and
        performs any lazy per-packet update :meth:`candidates` would.
        Every engine backend keeps one ``key -> candidate list`` table
        per simulator (:meth:`repro.simulator.engine.Simulator.lookup_candidates`)
        and hands the *same list object* to every packet in the same
        route situation instead of calling :meth:`candidates` per
        packet-hop — so an under-specified key misroutes on every
        backend, and a returned list must never be mutated afterwards.
        """

    # ------------------------------------------------------------------
    def max_route_length(self) -> int | None:
        """Upper bound on switch-to-switch hops, when one is known."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, n_vcs={self.n_vcs})"


def ladder_vc(hops: int, n_vcs: int, vcs_per_step: int = 1) -> list[int]:
    """VCs a ladder policy permits after ``hops`` switch-to-switch hops.

    The ladder uses VC ``hops`` (one-by-one) or VCs ``{2*hops, 2*hops+1}``
    (two-by-two, the paper's Minimal configuration).  Returns the empty
    list when the ladder is exhausted — the packet has travelled further
    than the VC budget allows, which can happen under faults and is the
    ladder's fundamental fault-intolerance.
    """
    lo = hops * vcs_per_step
    return [vc for vc in range(lo, lo + vcs_per_step) if vc < n_vcs]


class RouteSet(Protocol):
    """The hops a mechanism may offer, whatever VCs carry them.

    A route set owns its per-packet state (``pkt.hops`` included); a VC
    policy only decides which VCs each hop may use.
    """

    def init_packet(self, pkt) -> None: ...

    def ports(self, pkt, current: int) -> list[tuple[int, int, int]]:
        """Candidate ``(port, neighbour, penalty)`` hops at ``current``."""
        ...

    def ports_key(self, pkt, current: int) -> tuple:
        """Every per-packet input of :meth:`ports` besides ``current``
        (destination or phase target included), performing any lazy
        state update :meth:`ports` would."""
        ...

    def on_hop(self, pkt, new_switch: int) -> None: ...

    def on_topology_change(self) -> None: ...

    def refresh_packet(self, pkt, current: int) -> None: ...

    def max_route_length(self) -> int | None: ...


class LadderRouting(RoutingMechanism):
    """A route set under a VC ladder: hop ``h`` may only use the VCs
    :func:`ladder_vc` grants it, so VC indices rise along every route
    (deadlock-free) and a route longer than the ladder stalls.

    ``vcs_per_step`` is 2 for the paper's Minimal and 1 for its other
    ladder mechanisms (Valiant, OmniWAR, Polarized).
    """

    def __init__(self, name: str, routes: RouteSet, n_vcs: int, vcs_per_step: int = 1):
        super().__init__(n_vcs)
        self.name = name
        self.routes = routes
        self.vcs_per_step = vcs_per_step
        #: First hop count with no VC left: every later one gets the
        #: same empty list, so the key saturates here.
        self._exhausted = -(-n_vcs // vcs_per_step)

    def init_packet(self, pkt) -> None:
        self.routes.init_packet(pkt)

    def candidates(self, pkt, current: int) -> list[Candidate]:
        vcs = ladder_vc(pkt.hops, self.n_vcs, self.vcs_per_step)
        if not vcs:
            return []
        return [
            (port, vc, pen)
            for port, _nbr, pen in self.routes.ports(pkt, current)
            for vc in vcs
        ]

    def candidate_key(self, pkt, current: int) -> tuple:
        hops = pkt.hops
        if hops > self._exhausted:
            hops = self._exhausted
        return (current, hops) + self.routes.ports_key(pkt, current)

    def on_hop(self, pkt, old_switch: int, new_switch: int, port: int, vc: int) -> None:
        self.routes.on_hop(pkt, new_switch)

    def on_topology_change(self) -> None:
        self.routes.on_topology_change()

    def refresh_packet(self, pkt, current: int) -> None:
        self.routes.refresh_packet(pkt, current)

    def max_route_length(self) -> int | None:
        bound = self.n_vcs // self.vcs_per_step
        routes_bound = self.routes.max_route_length()
        return bound if routes_bound is None else min(bound, routes_bound)
