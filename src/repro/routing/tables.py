"""Compiled routing tables: the paper's hardware implementation model.

Paper §3: *"The construction of both subnetworks ensures they allow a
table-based implementation in which the current router may employ an
internal table indexed with source and/or destination tag to decide the
valid ports for the next hop and give preferences to them.  Furthermore,
these tables can be computed by a BFS algorithm when the topology
changes, which keeps cost in the order of using Minimal routing."*

This module makes that claim concrete.  :func:`compile_minimal_table`,
:func:`compile_polarized_table` and :func:`compile_escape_table` turn the
dynamic candidate functions into the dense per-switch arrays a router ASIC
would hold, and report their sizes:

* **Minimal** — for each (switch, destination): the bitmask of ports on a
  shortest path.  One lookup per hop.
* **Polarized** — for each (switch, endpoint): the ``{-1, 0, +1}``
  approach/revolve/depart sign per port (the paper: *"all the information
  needed by Polarized is obtained by accessing twice (one indexed by s and
  the other by t) to the routing tables"*).  Candidates are reconstructed
  from two row lookups plus the packet's header bit.
* **Escape** — for each (switch, destination, phase): the escape-legal
  ports with their penalties, exactly the *"table at each switch C,
  indexable at every target switch T and port p"* of §3.2.

:class:`TableMinimalRoutes` is a drop-in route set reading purely off the
compiled table; the test suite asserts it offers the same hops as the
dynamic :class:`~repro.routing.minimal.MinimalRoutes`, and that the
Polarized/escape reconstructions match their dynamic counterparts on every
(switch, destination) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import Network
from ..updown.escape import PHASE_CLIMB, PHASE_DESCEND, EscapeSubnetwork
from .base import NO_PENALTY
from .minimal import MinimalRoutes


# ----------------------------------------------------------------------
# Minimal routing table
# ----------------------------------------------------------------------
def compile_minimal_table(network: Network) -> np.ndarray:
    """Port bitmasks of shortest-path next hops.

    Returns an ``(n_switches, n_switches)`` uint64 array; bit ``p`` of
    ``table[c, t]`` is set iff port ``p`` of ``c`` lies on a shortest path
    to ``t``.  Row ``table[:, t]`` is what switch firmware holds per
    destination.  Requires degree <= 64 (always true for the paper's
    topologies; a production router would shard wider radices).
    """
    n = network.n_switches
    max_degree = max(network.topology.degree(s) for s in range(n))
    if max_degree > 64:
        raise ValueError("bitmask tables support at most 64 network ports")
    dist = network.distances
    table = np.zeros((n, n), dtype=np.uint64)
    for c in range(n):
        drow_c = dist[c]
        for port, nbr in network.live_ports[c]:
            mask = np.uint64(1 << port)
            closer = dist[nbr] == drow_c - 1
            table[c, closer] |= mask
    np.fill_diagonal(table, 0)
    return table


def minimal_ports(table: np.ndarray, current: int, target: int) -> list[int]:
    """Decode one bitmask row into a port list."""
    mask = int(table[current, target])
    out = []
    port = 0
    while mask:
        if mask & 1:
            out.append(port)
        mask >>= 1
        port += 1
    return out


class TableMinimalRoutes(MinimalRoutes):
    """Minimal routes read exclusively from a compiled bitmask table.

    The same hops as :class:`~repro.routing.minimal.MinimalRoutes`; run
    under the same two-by-two ladder, it validates the paper's
    table-implementation claim and measures table sizes.
    """

    FLAT: dict[str, str] = {}  # reads the table, not the distances

    def ports(self, pkt, current: int) -> list[tuple[int, int, int]]:
        live = self.network.port_neighbour[current]
        return [
            (port, live[port], NO_PENALTY)
            for port in minimal_ports(self.table, current, pkt.dst_switch)
        ]

    def on_topology_change(self) -> None:
        """Recompile the bitmask table — the paper's per-topology-event BFS.

        The dead port must leave every bitmask it appeared in, and a
        repaired port must re-enter the rows whose shortest paths it
        serves, so the whole table is rebuilt from the fresh distances.
        """
        self.table = compile_minimal_table(self.network)


# ----------------------------------------------------------------------
# Polarized sign table
# ----------------------------------------------------------------------
def compile_polarized_table(network: Network) -> np.ndarray:
    """The paper's Polarized router table: per (switch, endpoint, port)
    the sign of the distance change, ``{-1, 0, +1}`` for approach /
    revolve / depart (+2 marks dead ports).

    Shape ``(n_switches, n_switches, max_ports)`` int8.  A Polarized
    router reads ``table[c, s, :]`` and ``table[c, t, :]`` — two row
    accesses — to enumerate candidates.
    """
    n = network.n_switches
    max_ports = max(network.topology.degree(s) for s in range(n))
    dist = network.distances
    table = np.full((n, n, max_ports), 2, dtype=np.int8)
    for c in range(n):
        for port, nbr in network.live_ports[c]:
            # sign of d(e, nbr) - d(e, c) for every endpoint e at once
            table[c, :, port] = np.sign(
                dist[nbr].astype(np.int32) - dist[c].astype(np.int32)
            )
    return table


def polarized_candidates_from_table(
    table: np.ndarray,
    current: int,
    src: int,
    dst: int,
    closer: bool,
    penalties: dict[int, int] | None = None,
) -> list[tuple[int, int]]:
    """Reconstruct Polarized candidates ``(port, penalty)`` from the sign
    table, applying Table 1 and the Δµ=0 header-bit filter."""
    from .polarized import PENALTY_BY_DELTA_MU

    pens = PENALTY_BY_DELTA_MU if penalties is None else penalties
    s_row = table[current, src]
    t_row = table[current, dst]
    out: list[tuple[int, int]] = []
    for port in range(table.shape[2]):
        ds = int(s_row[port])
        dt = int(t_row[port])
        if ds == 2 or dt == 2:
            continue  # dead port
        dmu = ds - dt
        if dmu < 0:
            continue
        if dmu == 0:
            if ds == 1 and not closer:
                continue
            if ds == -1 and closer:
                continue
            if ds == 0:
                continue
        out.append((port, pens[dmu]))
    return out


# ----------------------------------------------------------------------
# Escape candidate table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EscapeTable:
    """Dense escape tables: penalty per (switch, destination, port, phase).

    ``climb[c, t, p]`` / ``descend[c, t, p]`` hold the penalty of taking
    port ``p`` at ``c`` towards ``t`` in that phase, or -1 when illegal —
    byte-for-byte the structure §3.2 sketches for hardware.
    """

    climb: np.ndarray
    descend: np.ndarray

    def candidates(self, current: int, target: int, phase: int) -> list[tuple[int, int]]:
        arr = self.climb if phase == PHASE_CLIMB else self.descend
        row = arr[current, target]
        return [(p, int(pen)) for p, pen in enumerate(row) if pen >= 0]

    @property
    def nbytes(self) -> int:
        return self.climb.nbytes + self.descend.nbytes


def compile_escape_table(escape: EscapeSubnetwork) -> EscapeTable:
    """Materialise an escape subnetwork into dense penalty tables."""
    net = escape.network
    n = net.n_switches
    max_ports = max(net.topology.degree(s) for s in range(n))
    climb = np.full((n, n, max_ports), -1, dtype=np.int16)
    descend = np.full((n, n, max_ports), -1, dtype=np.int16)
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            for port, _nbr, pen in escape.candidates(c, t, PHASE_CLIMB):
                climb[c, t, port] = pen
            try:
                desc = escape.candidates(c, t, PHASE_DESCEND)
            except AssertionError:
                desc = []  # no pure-descent path from c to t: all illegal
            for port, _nbr, pen in desc:
                descend[c, t, port] = pen
    return EscapeTable(climb=climb, descend=descend)


# ----------------------------------------------------------------------
# Sizing: the cost a router pays per topology event
# ----------------------------------------------------------------------
def table_sizes(network: Network, escape: EscapeSubnetwork | None = None) -> dict:
    """Bytes of state per router for each table kind (sanity: kilobytes,
    not megabytes, at paper scale — implementable in switch SRAM)."""
    n = network.n_switches
    minimal = compile_minimal_table(network)
    polarized = compile_polarized_table(network)
    out = {
        "switches": n,
        "minimal_bytes_per_switch": minimal.nbytes // n,
        "polarized_bytes_per_switch": polarized.nbytes // n,
    }
    if escape is not None:
        esc = compile_escape_table(escape)
        out["escape_bytes_per_switch"] = esc.nbytes // n
    return out
