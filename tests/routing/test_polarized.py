"""Polarized routing tests: Table 1 semantics and the weight function."""

from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import make_packet, walk_route
from repro.routing.base import DEROUTE_PENALTY, NO_PENALTY, POLARIZED_FLAT_PENALTY
from repro.routing.catalog import make_mechanism
from repro.routing.polarized import PolarizedRoutes


def mu(dist, s, t, c):
    return int(dist[c, s]) - int(dist[c, t])


class TestTableOne:
    """The five (Δs, Δt) combinations of the paper's Table 1."""

    def test_only_legal_delta_combinations(self, net3d):
        routes = PolarizedRoutes(net3d)
        d = net3d.distances
        legal = {(1, -1), (1, 0), (0, -1), (1, 1), (-1, -1)}
        for src, dst in [(0, 63), (5, 40), (17, 3)]:
            pkt = make_packet(net3d, src, dst)
            routes.init_packet(pkt)
            for c in range(0, 64, 7):
                if c in (dst,):
                    continue
                pkt.closer = bool(d[c, src] < d[c, dst])
                for _port, nbr, _pen in routes.ports(pkt, c):
                    ds = int(d[nbr, src]) - int(d[c, src])
                    dt = int(d[nbr, dst]) - int(d[c, dst])
                    assert (ds, dt) in legal

    def test_penalties_by_delta_mu(self, net3d):
        routes = PolarizedRoutes(net3d)
        d = net3d.distances
        src, dst = 0, 63
        pkt = make_packet(net3d, src, dst)
        routes.init_packet(pkt)
        for c in range(1, 64, 5):
            if c == dst:
                continue
            pkt.closer = bool(d[c, src] < d[c, dst])
            for _port, nbr, pen in routes.ports(pkt, c):
                dmu = (int(d[nbr, src]) - int(d[c, src])) - (
                    int(d[nbr, dst]) - int(d[c, dst])
                )
                expected = {2: NO_PENALTY, 1: DEROUTE_PENALTY, 0: POLARIZED_FLAT_PENALTY}
                assert pen == expected[dmu]

    def test_flat_hops_gated_by_closer_bit(self, net3d):
        """(+1,+1) only while closer to source; (-1,-1) only afterwards."""
        routes = PolarizedRoutes(net3d)
        d = net3d.distances
        src, dst = 0, 63
        pkt = make_packet(net3d, src, dst)
        routes.init_packet(pkt)
        for c in range(0, 64, 3):
            if c == dst:
                continue
            for closer in (True, False):
                pkt.closer = closer
                for _port, nbr, _pen in routes.ports(pkt, c):
                    ds = int(d[nbr, src]) - int(d[c, src])
                    dt = int(d[nbr, dst]) - int(d[c, dst])
                    if ds - dt == 0:
                        assert (ds == 1) == closer


class TestWeightMonotonicity:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_mu_never_decreases_on_walks(self, net3d, data):
        routes = PolarizedRoutes(net3d)
        d = net3d.distances
        n = net3d.n_switches
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        if src == dst:
            return
        pkt = make_packet(net3d, src, dst)
        routes.init_packet(pkt)
        c = src
        prev_mu = mu(d, src, dst, c)
        for _ in range(2 * net3d.diameter + 1):
            if c == dst:
                break
            cands = routes.ports(pkt, c)
            assert cands, "Polarized stranded a packet on a healthy network"
            _port, nbr, _pen = data.draw(st.sampled_from(cands))
            routes.on_hop(pkt, nbr)
            c = nbr
            new_mu = mu(d, src, dst, c)
            assert new_mu >= prev_mu
            prev_mu = new_mu
        assert c == dst

    def test_route_length_bound(self, net3d, rng):
        routes = make_mechanism("Polarized", net3d, 6)
        for src in range(0, 64, 11):
            for dst in range(5, 64, 13):
                if src == dst:
                    continue
                visited = walk_route(routes, net3d, src, dst, rng)
                assert len(visited) - 1 <= 2 * net3d.diameter


class TestFaultAdaptivity:
    def test_routes_deliver_on_faulty_network(self, faulty2d, rng):
        """Polarized reads BFS tables, so routes adapt (mechanism may still
        die by ladder, tested in the simulator integration suite)."""
        routes = PolarizedRoutes(faulty2d)
        d = faulty2d.distances
        for src in range(0, 16, 3):
            for dst in range(1, 16, 4):
                if src == dst:
                    continue
                pkt = make_packet(faulty2d, src, dst)
                routes.init_packet(pkt)
                c = src
                for _ in range(2 * faulty2d.diameter):
                    if c == dst:
                        break
                    cands = routes.ports(pkt, c)
                    assert cands
                    # Greedy: best penalty first (deterministic here).
                    cands.sort(key=lambda x: x[2])
                    _p, nbr, _pen = cands[0]
                    routes.on_hop(pkt, nbr)
                    c = nbr
                assert c == dst

    def test_ladder_mechanism_exhausts_under_long_routes(self, heavy_faulty2d):
        mech = make_mechanism("Polarized", heavy_faulty2d, 4)
        pkt = make_packet(heavy_faulty2d, 0, 15)
        mech.init_packet(pkt)
        pkt.hops = 4
        assert mech.candidates(pkt, 0) == []

    def test_max_route_length_tracks_diameter(self, heavy_faulty2d):
        routes = PolarizedRoutes(heavy_faulty2d)
        assert routes.max_route_length() == 2 * heavy_faulty2d.diameter
