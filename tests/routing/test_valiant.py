"""Valiant randomized routing tests."""


from _helpers import make_packet, walk_route
from repro.routing.catalog import make_mechanism


class TestPhases:
    def test_packet_gets_intermediate(self, net2d):
        mech = make_mechanism("Valiant", net2d, 4, rng=0)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        assert 0 <= pkt.mid < net2d.n_switches
        assert pkt.phase == 0

    def test_first_phase_heads_to_intermediate(self, net2d):
        mech = make_mechanism("Valiant", net2d, 8, rng=1)
        d = net2d.distances
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        pkt.mid = 5  # force a known intermediate
        for port, _vc, _pen in mech.candidates(pkt, 0):
            nbr = net2d.port_neighbour[0][port]
            assert d[nbr, 5] == d[0, 5] - 1

    def test_phase_flips_at_intermediate(self, net2d):
        mech = make_mechanism("Valiant", net2d, 8, rng=1)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        pkt.mid = 5
        mech.on_hop(pkt, 0, 5, 0, 0)
        assert pkt.phase == 1

    def test_degenerate_intermediate_at_source(self, net2d):
        """mid == src: phase 1 starts immediately, pure minimal route."""
        mech = make_mechanism("Valiant", net2d, 8, rng=1)
        d = net2d.distances
        pkt = make_packet(net2d, 3, 12)
        mech.init_packet(pkt)
        pkt.mid = 3
        for port, _vc, _pen in mech.candidates(pkt, 3):
            nbr = net2d.port_neighbour[3][port]
            assert d[nbr, 12] == d[3, 12] - 1
        assert pkt.phase == 1


class TestRoutes:
    def test_routes_deliver_and_respect_bound(self, net2d, rng):
        mech = make_mechanism("Valiant", net2d, 8, rng=3)
        for src in range(0, 16, 3):
            for dst in range(1, 16, 3):
                if src == dst:
                    continue
                visited = walk_route(mech, net2d, src, dst, rng)
                # Two minimal phases: at most 2 * diameter hops.
                assert len(visited) - 1 <= 2 * net2d.diameter

    def test_ladder_vc_progression(self, net2d, rng):
        mech = make_mechanism("Valiant", net2d, 8, rng=3)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        cands = mech.candidates(pkt, 0)
        assert {vc for _p, vc, _pen in cands} == {0}
        pkt.hops = 2
        cands = mech.candidates(pkt, 0)
        assert {vc for _p, vc, _pen in cands} == {2}

    def test_ladder_exhaustion(self, net2d):
        mech = make_mechanism("Valiant", net2d, 4, rng=3)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        pkt.hops = 4
        assert mech.candidates(pkt, 0) == []

    def test_intermediates_cover_network(self, net2d):
        """Valiant's balancing needs intermediates spread over all switches."""
        mech = make_mechanism("Valiant", net2d, 8, rng=5)
        mids = set()
        for i in range(400):
            pkt = make_packet(net2d, 0, 15, pid=i)
            mech.init_packet(pkt)
            mids.add(pkt.mid)
        assert len(mids) == net2d.n_switches

    def test_routes_adapt_to_faults(self, faulty2d, rng):
        mech = make_mechanism("Valiant", faulty2d, 16, rng=3)
        for src in range(0, 16, 5):
            for dst in range(2, 16, 5):
                if src == dst:
                    continue
                visited = walk_route(mech, faulty2d, src, dst, rng)
                assert visited[-1] == dst
