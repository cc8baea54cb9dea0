"""Minimal adaptive routing tests."""


from _helpers import make_packet, walk_route
from repro.routing.catalog import make_mechanism


class TestCandidates:
    def test_only_shortest_path_hops(self, net2d):
        mech = make_mechanism("Minimal", net2d, 4)
        d = net2d.distances
        for src in (0, 5):
            for dst in (10, 15):
                if src == dst:
                    continue
                pkt = make_packet(net2d, src, dst)
                mech.init_packet(pkt)
                for port, _vc, pen in mech.candidates(pkt, src):
                    nbr = net2d.port_neighbour[src][port]
                    assert d[nbr, dst] == d[src, dst] - 1
                    assert pen == 0

    def test_all_minimal_ports_offered(self, net2d):
        """2D HyperX at distance 2: both dimension orders are candidates."""
        hx = net2d.topology
        src = hx.switch_id((0, 0))
        dst = hx.switch_id((2, 3))
        pkt = make_packet(net2d, src, dst)
        mech = make_mechanism("Minimal", net2d, 4)
        mech.init_packet(pkt)
        ports = {p for p, _v, _pen in mech.candidates(pkt, src)}
        assert hx.port(src, 0, 2) in ports
        assert hx.port(src, 1, 3) in ports

    def test_two_by_two_ladder_vcs(self, net2d):
        mech = make_mechanism("Minimal", net2d, 4)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        vcs0 = {vc for _p, vc, _ in mech.candidates(pkt, 0)}
        assert vcs0 == {0, 1}
        pkt.hops = 1
        vcs1 = {vc for _p, vc, _ in mech.candidates(pkt, 0)}
        assert vcs1 == {2, 3}

    def test_ladder_exhaustion_returns_empty(self, net2d):
        mech = make_mechanism("Minimal", net2d, 4)
        pkt = make_packet(net2d, 0, 15)
        mech.init_packet(pkt)
        pkt.hops = 2  # 2 VCs per step, 4 VCs -> at most 2 hops
        assert mech.candidates(pkt, 0) == []

    def test_avoids_dead_links(self, faulty2d):
        mech = make_mechanism("Minimal", faulty2d, 16)
        d = faulty2d.distances
        for src in range(faulty2d.n_switches):
            for dst in range(faulty2d.n_switches):
                if src == dst:
                    continue
                pkt = make_packet(faulty2d, src, dst)
                mech.init_packet(pkt)
                for port, _vc, _pen in mech.candidates(pkt, src):
                    nbr = faulty2d.port_neighbour[src][port]
                    assert nbr >= 0
                    assert d[nbr, dst] == d[src, dst] - 1


class TestRoutes:
    def test_routes_have_minimal_length(self, net2d, rng):
        mech = make_mechanism("Minimal", net2d, 8)
        d = net2d.distances
        for src in range(0, 16, 3):
            for dst in range(1, 16, 4):
                if src == dst:
                    continue
                visited = walk_route(mech, net2d, src, dst, rng)
                assert len(visited) - 1 == d[src, dst]

    def test_routes_adapt_to_faults(self, faulty2d, rng):
        mech = make_mechanism("Minimal", faulty2d, 16)
        d = faulty2d.distances
        for src in range(0, 16, 5):
            for dst in range(2, 16, 5):
                if src == dst:
                    continue
                visited = walk_route(mech, faulty2d, src, dst, rng)
                assert len(visited) - 1 == d[src, dst]

    def test_max_route_length(self, net2d):
        assert make_mechanism("Minimal", net2d, 4).max_route_length() == 2
