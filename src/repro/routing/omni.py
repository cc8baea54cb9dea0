"""Omnidimensional routes, behind OmniWAR and OmniSP (paper §3.1.1).

Omnidimensional routing (the route set behind DAL and OmniWAR) only ever
moves a packet along dimensions where its current switch is *unaligned*
with the destination.  In every such dimension all ``k - 1`` row neighbours
are candidates: one of them is the minimal hop (reaching the destination's
coordinate) and the rest are deroutes.  A global budget of ``m`` deroutes
is enforced; the paper always uses ``m = n`` (the dimension count), for a
maximum route length of ``n + m`` hops.

Minimal candidates carry no penalty; deroutes are penalised 64 phits.

**OmniWAR** is this route set under a one-by-one VC ladder.  Note the route
set is defined on the *healthy* HyperX structure: a hop is only offered on
live links, but the algorithm has no other notion of faults — which is why
a single fault can strand traffic (the paper's motivation), e.g. when the
minimal port died and the deroute budget is spent.
"""

from __future__ import annotations

from ..topology.base import Network
from ..topology.hyperx import HyperX
from .base import DEROUTE_PENALTY, NO_PENALTY


class OmnidimensionalRoutes:
    """Stateless candidate generator for Omnidimensional routes.

    Shared by OmniWAR (ladder VCs) and OmniSP (SurePath VCs); the VC
    policy supplies the VCs.
    """

    def __init__(self, network: Network, max_deroutes: int | None = None):
        topo = network.topology
        if not isinstance(topo, HyperX):
            raise TypeError("Omnidimensional routes require a HyperX topology")
        self.network = network
        self.hx: HyperX = topo
        #: Global deroute budget ``m``; the paper fixes ``m = n``.
        self.max_deroutes = topo.n_dims if max_deroutes is None else max_deroutes

    def init_packet(self, pkt) -> None:
        pkt.hops = 0
        pkt.deroutes = 0
        hx = self.hx
        sc, dc = hx.coords(pkt.src_switch), hx.coords(pkt.dst_switch)
        pkt.aligned_dims = sum(1 for a, b in zip(sc, dc) if a == b)

    def ports(self, pkt, current: int) -> list[tuple[int, int, int]]:
        """Candidate ``(port, neighbour, penalty)`` hops at ``current``."""
        hx = self.hx
        dst = pkt.dst_switch
        cur_coords = hx.coords(current)
        dst_coords = hx.coords(dst)
        live = self.network.port_neighbour[current]
        allow_deroute = pkt.deroutes < self.max_deroutes
        out: list[tuple[int, int, int]] = []
        for dim in range(hx.n_dims):
            cc, dc = cur_coords[dim], dst_coords[dim]
            if cc == dc:
                continue  # aligned dimensions are never used
            # Minimal hop: straight to the destination's coordinate.
            p = hx.port(current, dim, dc)
            nbr = live[p]
            if nbr >= 0:
                out.append((p, nbr, NO_PENALTY))
            if allow_deroute:
                for v in range(hx.sides[dim]):
                    if v == cc or v == dc:
                        continue
                    p = hx.port(current, dim, v)
                    nbr = live[p]
                    if nbr >= 0:
                        out.append((p, nbr, DEROUTE_PENALTY))
        return out

    def ports_key(self, pkt, current: int) -> tuple:
        # ``ports`` reads only (current, dst_switch) and whether the
        # deroute budget is open.
        return (pkt.dst_switch, pkt.deroutes < self.max_deroutes)

    def on_hop(self, pkt, new_switch: int) -> None:
        pkt.hops += 1
        # Omnidimensional hops only move within unaligned dimensions, so the
        # aligned-dimension count either grows by one (minimal hop) or stays
        # put (deroute, consuming budget).
        hx = self.hx
        nc = hx.coords(new_switch)
        dc = hx.coords(pkt.dst_switch)
        aligned_now = sum(1 for a, b in zip(nc, dc) if a == b)
        if aligned_now <= pkt.aligned_dims:
            pkt.deroutes += 1
        pkt.aligned_dims = aligned_now

    def on_topology_change(self) -> None:
        """No compiled state: candidates read ``port_neighbour`` live."""

    def refresh_packet(self, pkt, current: int) -> None:
        # Alignment is a function of (current, destination) coordinates
        # only, so it survives topology changes; recompute defensively in
        # case the packet was re-homed by a buffer purge.
        hx = self.hx
        cc, dc = hx.coords(current), hx.coords(pkt.dst_switch)
        pkt.aligned_dims = sum(1 for a, b in zip(cc, dc) if a == b)

    def max_route_length(self) -> int:
        return self.hx.n_dims + self.max_deroutes

