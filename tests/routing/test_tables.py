"""Compiled routing-table tests: equivalence with the dynamic mechanisms.

Validates the paper's §3 claim that Minimal, Polarized and the escape
subnetwork admit a table-based implementation rebuilt by BFS per topology
event.
"""

import numpy as np
import pytest

from _helpers import make_packet, walk_route
from repro.routing.base import LadderRouting
from repro.routing.catalog import make_mechanism
from repro.routing.polarized import PolarizedRoutes
from repro.routing.tables import (
    TableMinimalRoutes,
    compile_escape_table,
    compile_minimal_table,
    compile_polarized_table,
    minimal_ports,
    polarized_candidates_from_table,
    table_sizes,
)
from repro.updown.escape import PHASE_CLIMB, PHASE_DESCEND, EscapeSubnetwork


class TestMinimalTable:
    def test_ports_match_dynamic_mechanism(self, net2d):
        table = compile_minimal_table(net2d)
        mech = make_mechanism("Minimal", net2d, 4)
        for c in range(net2d.n_switches):
            for t in range(net2d.n_switches):
                if c == t:
                    assert minimal_ports(table, c, t) == []
                    continue
                pkt = make_packet(net2d, c, t)
                mech.init_packet(pkt)
                dynamic = sorted({p for p, _v, _pen in mech.candidates(pkt, c)})
                assert minimal_ports(table, c, t) == dynamic

    def test_ports_match_on_faulty_network(self, heavy_faulty2d):
        table = compile_minimal_table(heavy_faulty2d)
        mech = make_mechanism("Minimal", heavy_faulty2d, 16)
        for c in range(0, 16, 3):
            for t in range(1, 16, 4):
                if c == t:
                    continue
                pkt = make_packet(heavy_faulty2d, c, t)
                mech.init_packet(pkt)
                dynamic = sorted({p for p, _v, _pen in mech.candidates(pkt, c)})
                assert minimal_ports(table, c, t) == dynamic

    def test_table_mechanism_delivers_minimally(self, net2d, rng):
        mech = LadderRouting("Minimal(table)", TableMinimalRoutes(net2d), 8, 2)
        d = net2d.distances
        for src in range(0, 16, 5):
            for dst in range(2, 16, 5):
                if src == dst:
                    continue
                visited = walk_route(mech, net2d, src, dst, rng)
                assert len(visited) - 1 == d[src, dst]

    def test_rejects_wide_radix(self):
        from repro.topology.base import Network
        from repro.topology.hyperx import HyperX

        net = Network(HyperX((34, 34), 1))  # degree 66 > 64
        with pytest.raises(ValueError):
            compile_minimal_table(net)


class TestPolarizedTable:
    def test_signs_match_distances(self, net2d):
        table = compile_polarized_table(net2d)
        d = net2d.distances
        for c in range(net2d.n_switches):
            for port, nbr in net2d.live_ports[c]:
                expected = np.sign(
                    d[nbr].astype(int) - d[c].astype(int)
                )
                assert np.array_equal(table[c, :, port], expected)

    @pytest.mark.parametrize("closer", [True, False])
    def test_candidates_match_dynamic_routes(self, net2d, closer):
        table = compile_polarized_table(net2d)
        routes = PolarizedRoutes(net2d)
        for src, dst in [(0, 15), (3, 12), (5, 10)]:
            pkt = make_packet(net2d, src, dst)
            routes.init_packet(pkt)
            pkt.closer = closer
            for c in range(net2d.n_switches):
                if c == dst:
                    continue
                dynamic = sorted(
                    (p, pen) for p, _n, pen in routes.ports(pkt, c)
                )
                from_table = sorted(
                    polarized_candidates_from_table(table, c, src, dst, closer)
                )
                assert from_table == dynamic

    def test_dead_ports_marked(self, heavy_faulty2d):
        table = compile_polarized_table(heavy_faulty2d)
        for c in range(heavy_faulty2d.n_switches):
            live = {p for p, _ in heavy_faulty2d.live_ports[c]}
            for port in range(table.shape[2]):
                if port not in live:
                    assert (table[c, :, port] == 2).all()


class TestEscapeTable:
    def test_matches_dynamic_candidates(self, faulty2d):
        esc = EscapeSubnetwork(faulty2d, root=3)
        table = compile_escape_table(esc)
        for c in range(faulty2d.n_switches):
            for t in range(faulty2d.n_switches):
                if c == t:
                    continue
                dyn = sorted((p, pen) for p, _n, pen in
                             esc.candidates(c, t, PHASE_CLIMB))
                assert sorted(table.candidates(c, t, PHASE_CLIMB)) == dyn
                try:
                    dyn_d = sorted((p, pen) for p, _n, pen in
                                   esc.candidates(c, t, PHASE_DESCEND))
                except AssertionError:
                    dyn_d = []
                assert sorted(table.candidates(c, t, PHASE_DESCEND)) == dyn_d

    def test_nbytes_positive(self, net2d):
        esc = EscapeSubnetwork(net2d, 0)
        assert compile_escape_table(esc).nbytes > 0


class TestTableSizes:
    def test_reports_all_kinds(self, net2d):
        esc = EscapeSubnetwork(net2d, 0)
        sizes = table_sizes(net2d, esc)
        assert sizes["switches"] == 16
        for key in ("minimal_bytes_per_switch", "polarized_bytes_per_switch",
                    "escape_bytes_per_switch"):
            assert sizes[key] > 0

    def test_paper_scale_fits_in_sram(self):
        """At 8x8x8 the per-switch tables stay in the tens of KB —
        implementable, as §3 claims."""
        from repro.topology.base import Network
        from repro.topology.hyperx import HyperX

        net = Network(HyperX((8, 8, 8), 8))
        sizes = table_sizes(net)
        assert sizes["minimal_bytes_per_switch"] < 64 * 1024
        assert sizes["polarized_bytes_per_switch"] < 64 * 1024
