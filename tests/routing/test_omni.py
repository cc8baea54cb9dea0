"""Omnidimensional route-set and OmniWAR mechanism tests."""

import pytest

from _helpers import make_packet, walk_route
from repro.routing.base import DEROUTE_PENALTY, NO_PENALTY
from repro.routing.catalog import make_mechanism
from repro.routing.omni import OmnidimensionalRoutes
from repro.topology.base import Network
from repro.topology.hyperx import HyperX


class TestRouteSet:
    def test_requires_hyperx(self):
        class FakeTopo(HyperX):
            pass

        # A non-HyperX topology is rejected.
        from repro.topology.base import Topology

        class Ring(Topology):
            n_switches = 4
            servers_per_switch = 1

            def neighbours(self, s):
                return [(s - 1) % 4, (s + 1) % 4]

        with pytest.raises(TypeError):
            OmnidimensionalRoutes(Network(Ring()))

    def test_only_unaligned_dimensions_used(self, net2d):
        """Source and target in the same row: no hop leaves the row."""
        hx = net2d.topology
        src, dst = hx.switch_id((0, 1)), hx.switch_id((3, 1))
        routes = OmnidimensionalRoutes(net2d)
        pkt = make_packet(net2d, src, dst)
        routes.init_packet(pkt)
        for _port, nbr, _pen in routes.ports(pkt, src):
            assert hx.coords(nbr)[1] == 1  # stays in the row

    def test_minimal_hop_unpenalized_deroutes_penalized(self, net2d):
        hx = net2d.topology
        src, dst = hx.switch_id((0, 0)), hx.switch_id((2, 0))
        routes = OmnidimensionalRoutes(net2d)
        pkt = make_packet(net2d, src, dst)
        routes.init_packet(pkt)
        pens = {}
        for _port, nbr, pen in routes.ports(pkt, src):
            pens[hx.coords(nbr)] = pen
        assert pens[(2, 0)] == NO_PENALTY
        assert pens[(1, 0)] == DEROUTE_PENALTY
        assert pens[(3, 0)] == DEROUTE_PENALTY

    def test_deroute_budget_enforced(self, net2d):
        hx = net2d.topology
        src, dst = hx.switch_id((0, 0)), hx.switch_id((2, 0))
        routes = OmnidimensionalRoutes(net2d, max_deroutes=0)
        pkt = make_packet(net2d, src, dst)
        routes.init_packet(pkt)
        hops = routes.ports(pkt, src)
        assert len(hops) == 1  # only the minimal hop
        assert hops[0][2] == NO_PENALTY

    def test_deroute_consumes_budget(self, net2d):
        hx = net2d.topology
        src, dst = hx.switch_id((0, 0)), hx.switch_id((2, 0))
        routes = OmnidimensionalRoutes(net2d, max_deroutes=1)
        pkt = make_packet(net2d, src, dst)
        routes.init_packet(pkt)
        deroute_target = hx.switch_id((1, 0))
        routes.on_hop(pkt, deroute_target)
        assert pkt.deroutes == 1
        hops = routes.ports(pkt, deroute_target)
        assert all(pen == NO_PENALTY for _p, _n, pen in hops)

    def test_max_route_length_is_n_plus_m(self, net3d):
        routes = OmnidimensionalRoutes(net3d)
        assert routes.max_route_length() == 6  # n=3, m=n=3

    def test_aligned_destination_yields_no_candidates(self, net2d):
        """At the destination, no dimension is unaligned: empty port set."""
        routes = OmnidimensionalRoutes(net2d)
        pkt = make_packet(net2d, 0, 5)
        routes.init_packet(pkt)
        assert routes.ports(pkt, 5) == []


class TestFaultIntolerance:
    """The paper's motivation: a single fault can strand Omni routes."""

    def test_dead_minimal_link_with_spent_budget_strands(self, hx2d):
        src, dst = hx2d.switch_id((0, 0)), hx2d.switch_id((2, 0))
        net = Network(hx2d, [tuple(sorted((src, dst)))])
        routes = OmnidimensionalRoutes(net, max_deroutes=0)
        pkt = make_packet(net, src, dst)
        routes.init_packet(pkt)
        assert routes.ports(pkt, src) == []  # nothing legal: stranded

    def test_deroutes_can_rescue_when_budget_remains(self, hx2d, rng):
        src, dst = hx2d.switch_id((0, 0)), hx2d.switch_id((2, 0))
        net = Network(hx2d, [tuple(sorted((src, dst)))])
        mech = make_mechanism("OmniWAR", net, 8)
        visited = walk_route(mech, net, src, dst, rng)
        assert visited[-1] == dst


class TestOmniWAR:
    def test_ladder_vcs(self, net2d):
        mech = make_mechanism("OmniWAR", net2d, 4)
        pkt = make_packet(net2d, 0, 10)
        mech.init_packet(pkt)
        assert {vc for _p, vc, _pen in mech.candidates(pkt, 0)} == {0}
        pkt.hops = 3
        assert {vc for _p, vc, _pen in mech.candidates(pkt, 0)} == {3}

    def test_ladder_exhaustion(self, net2d):
        mech = make_mechanism("OmniWAR", net2d, 4)
        pkt = make_packet(net2d, 0, 10)
        mech.init_packet(pkt)
        pkt.hops = 4
        assert mech.candidates(pkt, 0) == []

    def test_routes_deliver_within_bound(self, net3d, rng):
        mech = make_mechanism("OmniWAR", net3d, 6)
        for src in range(0, 64, 13):
            for dst in range(3, 64, 17):
                if src == dst:
                    continue
                visited = walk_route(mech, net3d, src, dst, rng)
                assert len(visited) - 1 <= 6
