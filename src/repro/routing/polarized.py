"""Polarized routes, behind Polarized and PolSP (paper §3.1.2).

Polarized routing builds minimal and non-minimal routes hop by hop while
never decreasing the weight function

    µ_{s,t}(c) = d(c, s) - d(c, t)

where ``s``/``t`` are the packet's source/destination switches and ``d`` is
the graph distance (read from BFS tables, so Polarized adapts to faults by
construction).  For a hop to neighbour ``y``, write ``Δs = d(s,y) - d(s,c)``
and ``Δt = d(t,y) - d(t,c)``; the hop's weight change is ``Δµ = Δs - Δt``.
The paper's Table 1 allows exactly five (Δs, Δt) combinations:

    (+1,-1)  Δµ=2   depart source and approach target   (penalty 0)
    (+1, 0)  Δµ=1   depart source, revolve target       (penalty 64)
    ( 0,-1)  Δµ=1   revolve source, approach target     (penalty 64)
    (+1,+1)  Δµ=0   depart both                         (penalty 80)
    (-1,-1)  Δµ=0   approach both                       (penalty 80)

To avoid cycles among Δµ = 0 hops, the packet carries the boolean
``closer = d(c,s) < d(c,t)``: while *closer to the source* only the
departing (+1,+1) hop is legal, afterwards only the approaching (-1,-1)
hop is.  Route length is bounded by twice the network diameter.

The standalone **Polarized** mechanism of Table 4 runs these routes under
a one-by-one VC ladder; PolSP runs the same :class:`PolarizedRoutes` under
SurePath's escape-based deadlock avoidance instead.
"""

from __future__ import annotations

from ..topology.base import Network
from ..topology.graph import FlatViews
from .base import DEROUTE_PENALTY, NO_PENALTY, POLARIZED_FLAT_PENALTY

#: Penalty by weight gain Δµ (paper: highest Δµ -> 0, then 64, then 80).
PENALTY_BY_DELTA_MU = {2: NO_PENALTY, 1: DEROUTE_PENALTY, 0: POLARIZED_FLAT_PENALTY}


class PolarizedRoutes(FlatViews):
    """Stateless candidate generator for Polarized routes.

    Works on any connected network (the paper stresses Polarized discovers
    the topology through BFS tables), which is what makes it a good base
    route set for fault-tolerant SurePath.  Distances are read through
    ``_dist``, a flat view of ``network.distances`` (:class:`FlatViews`).
    """

    FLAT = {"_dist": "network.distances"}

    def __init__(self, network: Network):
        self.network = network
        self.on_topology_change()

    def init_packet(self, pkt) -> None:
        pkt.hops = 0
        # closer == True while d(c,s) < d(c,t); at the source d(c,s)=0 so the
        # packet starts in the "first half" unless it is already at distance
        # zero of the target (never: such packets eject immediately).
        pkt.closer = True

    def ports(self, pkt, current: int) -> list[tuple[int, int, int]]:
        """Candidate ``(port, neighbour, penalty)`` hops at ``current``."""
        src = pkt.src_switch
        dst = pkt.dst_switch
        d = self._dist
        n = self._n
        ds_c = d[current * n + src]
        dt_c = d[current * n + dst]
        closer = pkt.closer
        out: list[tuple[int, int, int]] = []
        for port, nbr in self.network.live_ports[current]:
            row = nbr * n
            delta_s = d[row + src] - ds_c
            delta_t = d[row + dst] - dt_c
            dmu = delta_s - delta_t
            if dmu < 0:
                continue
            if dmu == 0:
                # Only the two Table-1 Δµ=0 entries, gated by the header bit.
                if delta_s == 1:  # (+1,+1): departing both
                    if not closer:
                        continue
                elif delta_s == -1:  # (-1,-1): approaching both
                    if closer:
                        continue
                else:  # (0,0) revolving both: not in Table 1
                    continue
            out.append((port, int(nbr), PENALTY_BY_DELTA_MU[dmu]))
        return out

    def ports_key(self, pkt, current: int) -> tuple:
        # ``ports`` reads only (current, src_switch, dst_switch, closer)
        # and topology tables.
        return (pkt.dst_switch, pkt.src_switch, pkt.closer)

    def on_hop(self, pkt, new_switch: int) -> None:
        pkt.hops += 1
        d = self._dist
        row = new_switch * self._n
        pkt.closer = d[row + pkt.src_switch] < d[row + pkt.dst_switch]

    def on_topology_change(self) -> None:
        self._bind_flat()

    def refresh_packet(self, pkt, current: int) -> None:
        # The header bit was computed against the old distances; recompute
        # it at the packet's current switch so the Δµ=0 gating stays sound.
        d = self._dist
        row = current * self._n
        pkt.closer = d[row + pkt.src_switch] < d[row + pkt.dst_switch]

    def max_route_length(self) -> int:
        # Polarized routes never exceed twice the diameter (µ increases at
        # least every other hop and spans [-diam, diam]).
        return 2 * int(self.network.diameter)

