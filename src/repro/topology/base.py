"""Topology substrate: abstract topologies and faulted network instances.

The paper's evaluation operates on HyperX (Hamming graph) topologies with
link failures injected.  This module separates the two concerns:

* :class:`Topology` describes a *healthy* switch-to-switch graph with a
  stable per-switch port numbering (ports keep their index when links fail,
  which is how real switches behave and what routing tables assume).
* :class:`Network` is a concrete instance: a topology plus a set of failed
  links.  All routing-table computation and simulation happens on a
  ``Network``.

Switches are integers ``0..n_switches-1``.  A link is an unordered pair of
switches, normalised as ``(min, max)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

Link = tuple[int, int]


def normalize_link(a: int, b: int) -> Link:
    """Return the canonical (sorted) representation of an undirected link."""
    if a == b:
        raise ValueError(f"self-link ({a},{b}) is not a valid network link")
    return (a, b) if a < b else (b, a)


class LinkTables(NamedTuple):
    """The links of a healthy topology (see ``Topology.link_tables``)."""

    #: Every link, normalised, sorted, listed once.
    links: tuple[Link, ...]
    #: Position of each link in ``links`` (and its row in ``ends``).
    index: dict[Link, int]
    #: ``ends[i] = (a, port on a, b, port on b)`` for ``links[i] == (a, b)``.
    ends: np.ndarray


class Topology(ABC):
    """A healthy switch-level topology with stable port numbering.

    Subclasses define the switch count, the per-switch neighbour lists and
    how many servers attach to every switch.  Port ``p`` of switch ``s``
    refers to the ``p``-th entry of ``neighbours(s)`` and keeps meaning even
    when the link on it fails.  ``neighbours()`` must not change once the
    topology is constructed: the adjacency array, port map, reverse-port
    table and link tables every :class:`Network` and simulator start from
    are each derived from it on first use and cached.
    """

    #: The cached derivations; left out of pickles (jobs ship topologies).
    _DERIVED = ("healthy_nbr", "port_map", "rev_port", "link_tables")

    @property
    @abstractmethod
    def n_switches(self) -> int:
        """Number of switches."""

    @property
    @abstractmethod
    def servers_per_switch(self) -> int:
        """Number of servers (terminals) attached to every switch."""

    @abstractmethod
    def neighbours(self, s: int) -> Sequence[int]:
        """Ordered neighbour list of switch ``s`` (defines port numbering)."""

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Total number of servers in the system."""
        return self.n_switches * self.servers_per_switch

    def degree(self, s: int) -> int:
        """Switch-to-switch degree of switch ``s`` in the healthy topology."""
        return len(self.neighbours(s))

    @property
    def radix(self) -> int:
        """Switch radix: network ports plus server ports (uniform case)."""
        return self.degree(0) + self.servers_per_switch

    @cached_property
    def healthy_nbr(self) -> np.ndarray:
        """``[s, p]`` -> neighbour on port ``p`` of ``s``; short rows padded with -1."""
        rows = [self.neighbours(s) for s in range(self.n_switches)]
        width = max(map(len, rows))
        return np.array(
            [[*row, *[-1] * (width - len(row))] for row in rows], dtype=np.intp
        )

    @cached_property
    def port_map(self) -> dict[tuple[int, int], int]:
        """``(s, t)`` -> index of ``t`` in ``neighbours(s)``."""
        port: dict[tuple[int, int], int] = {}
        for s in range(self.n_switches):
            for p, t in enumerate(self.neighbours(s)):
                port.setdefault((s, t), p)
        return port

    @cached_property
    def rev_port(self) -> list[list[int]]:
        """``[s][p]`` -> the port back to ``s`` on the neighbour behind
        port ``p`` of ``s``.  Taken from the healthy topology, so a
        repaired link finds its ports again; read-only, shared by every
        simulator on this topology."""
        port = self.port_map
        return [
            [port[t, s] for t in self.neighbours(s)]
            for s in range(self.n_switches)
        ]

    @cached_property
    def link_tables(self) -> LinkTables:
        """The sorted links, with each one's position and its two ports."""
        port = self.port_map
        links = tuple(sorted({normalize_link(s, t) for s, t in port}))
        ends = [(a, port[a, b], b, port[b, a]) for a, b in links]
        return LinkTables(
            links,
            {link: i for i, link in enumerate(links)},
            np.array(ends, dtype=np.intp).reshape(-1, 4),
        )

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            state.pop(name, None)
        return state

    def links(self) -> list[Link]:
        """All healthy links, normalised, sorted, each listed once."""
        return list(self.link_tables.links)

    def port_of(self, s: int, t: int) -> int:
        """Port index on switch ``s`` whose link leads to switch ``t``."""
        try:
            return self.port_map[s, t]
        except KeyError:
            raise ValueError(f"switches {s} and {t} are not adjacent") from None

    def server_switch(self, server: int) -> int:
        """Switch to which ``server`` is attached."""
        return server // self.servers_per_switch

    def switch_servers(self, s: int) -> range:
        """Servers attached to switch ``s``."""
        c = self.servers_per_switch
        return range(s * c, (s + 1) * c)


class Network:
    """A topology instance with an (optionally empty) set of failed links.

    The network exposes *live* adjacency for routing-table computation and
    simulation while keeping the healthy topology's port numbering.  The
    all-pairs distance matrix is computed lazily (BFS over live links) and
    cached.
    """

    def __init__(self, topology: Topology, faults: Iterable[Link] = ()):
        self.topology = topology
        self.faults: frozenset[Link] = frozenset(
            normalize_link(a, b) for a, b in faults
        )
        # Three views of the live adjacency, kept in step by _set_port_state.
        # nbr[s, p] = neighbour on port p, -1 if the link failed or the
        # switch has no such port (the array the BFS kernel gathers through)
        self.nbr: np.ndarray = topology.healthy_nbr.copy()
        if self.faults:
            tables = topology.link_tables
            unknown = self.faults - tables.index.keys()
            if unknown:
                raise ValueError(
                    f"faulty links not present in topology: {sorted(unknown)[:5]}"
                )
            dead = tables.ends[[tables.index[link] for link in self.faults]]
            self.nbr[dead[:, 0], dead[:, 1]] = -1
            self.nbr[dead[:, 2], dead[:, 3]] = -1
        # port_neighbour[s][p] = neighbour on port p, or -1 if the link failed
        self.port_neighbour: list[list[int]] = [
            row[: topology.degree(s)] for s, row in enumerate(self.nbr.tolist())
        ]
        # live_ports[s] = [(port, neighbour), ...] for live links only
        self.live_ports: list[list[tuple[int, int]]] = [
            [(p, t) for p, t in enumerate(row) if t >= 0] for row in self.port_neighbour
        ]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_switches(self) -> int:
        return self.topology.n_switches

    @property
    def servers_per_switch(self) -> int:
        return self.topology.servers_per_switch

    @property
    def n_servers(self) -> int:
        return self.topology.n_servers

    def live_links(self) -> list[Link]:
        """Normalised list of live (non-faulty) links."""
        return [link for link in self.topology.link_tables.links if link not in self.faults]

    def neighbour_on_port(self, s: int, p: int) -> int:
        """Neighbour reached through port ``p`` of switch ``s`` (-1 if dead)."""
        return self.port_neighbour[s][p]

    def live_degree(self, s: int) -> int:
        return len(self.live_ports[s])

    def port_of(self, s: int, t: int) -> int:
        """Port on ``s`` towards adjacent switch ``t`` (live or dead)."""
        return self.topology.port_of(s, t)

    def with_faults(self, extra: Iterable[Link]) -> "Network":
        """A new network with ``extra`` faults added to the current ones."""
        return Network(self.topology, set(self.faults) | {normalize_link(a, b) for a, b in extra})

    # ------------------------------------------------------------------
    # Online reconfiguration (dynamic fault injection / repair)
    # ------------------------------------------------------------------
    def _set_port_state(self, link: Link, alive: bool) -> None:
        """Rewrite ``nbr`` / ``port_neighbour`` / ``live_ports`` for one link."""
        a, b = link
        for s, t in ((a, b), (b, a)):
            p = self.topology.port_of(s, t)
            self.port_neighbour[s][p] = self.nbr[s, p] = t if alive else -1
            self.live_ports[s] = [
                (q, u) for q, u in enumerate(self.port_neighbour[s]) if u >= 0
            ]

    def _invalidate_caches(self) -> None:
        """Drop cached graph metrics after a topology change.

        No incremental distance patching is attempted: a failed or repaired
        link always changes the distance between its own endpoints (1 hop
        versus a detour), so the matrix is genuinely stale after every
        event.  The matrix stays lazy — it is only recomputed when a
        consumer (a BFS-table mechanism's ``on_topology_change``) actually
        reads it, which is the cheap path when none does.
        """
        for name in ("distances", "diameter", "is_connected", "average_distance"):
            self.__dict__.pop(name, None)

    def apply_fault(self, link: Link) -> None:
        """Fail one currently-live link *in place* (online reconfiguration).

        Updates the live adjacency and invalidates cached graph metrics
        (recomputed lazily on next access).  Simulation state (buffers,
        credits, routing tables) is the caller's concern — the engine and
        the routing mechanisms react through
        :meth:`~repro.routing.base.RoutingMechanism.on_topology_change`.
        """
        link = normalize_link(*link)
        if link not in self.topology.link_tables.index:
            raise ValueError(f"link {link} not present in topology")
        if link in self.faults:
            raise ValueError(f"link {link} is already failed")
        self.faults = self.faults | {link}
        self._set_port_state(link, alive=False)
        self._invalidate_caches()

    def restore_link(self, link: Link) -> None:
        """Repair one currently-failed link *in place* (see :meth:`apply_fault`)."""
        link = normalize_link(*link)
        if link not in self.faults:
            raise ValueError(f"link {link} is not failed")
        self.faults = self.faults - {link}
        self._set_port_state(link, alive=True)
        self._invalidate_caches()

    # ------------------------------------------------------------------
    # Graph metrics (delegated to repro.topology.graph, cached here)
    # ------------------------------------------------------------------
    @cached_property
    def distances(self) -> np.ndarray:
        """All-pairs hop distance matrix (int16; -1 for unreachable pairs)."""
        from .graph import all_pairs_distances

        return all_pairs_distances(self)

    @cached_property
    def diameter(self) -> int:
        """Largest finite pairwise distance; raises if disconnected."""
        from .graph import diameter

        return diameter(self)

    @cached_property
    def is_connected(self) -> bool:
        from .graph import is_connected

        return is_connected(self)

    @cached_property
    def average_distance(self) -> float:
        """Mean switch-to-switch distance over ordered distinct pairs."""
        from .graph import average_distance

        return average_distance(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.topology!r}, faults={len(self.faults)} links,"
            f" switches={self.n_switches})"
        )
