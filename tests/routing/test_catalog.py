"""Mechanism catalogue tests (paper Table 4 configurations)."""

import pytest

from repro.routing.catalog import (
    MECHANISMS,
    default_n_vcs,
    is_fault_tolerant,
    make_mechanism,
)
from repro.topology.base import Network
from repro.topology.hyperx import HyperX
from repro.updown.escape import EscapeSubnetwork

#: ``(n_vcs, max_route_length())`` of each mechanism, in this order, per
#: HyperX shape and VC budget (``None``: the default ``2n``).  Measured on
#: the per-mechanism classes the registry rows replaced; a row that
#: builds another policy or route set moves a bound here.
PINNED_NAMES = ("Minimal", "Valiant", "OmniWAR", "Polarized", "OmniSP", "PolSP")
PINNED = {
    ((4, 4), None): [(4, 2), (4, 4), (4, 4), (4, 4), (4, 7), (4, 7)],
    ((4, 4), 2): [(2, 1), (2, 2), (2, 2), (2, 2), (2, 7), (2, 7)],
    ((4, 4), 4): [(4, 2), (4, 4), (4, 4), (4, 4), (4, 7), (4, 7)],
    ((4, 4), 6): [(6, 3), (6, 6), (6, 4), (6, 4), (6, 7), (6, 7)],
    ((4, 4), 8): [(8, 4), (8, 8), (8, 4), (8, 4), (8, 7), (8, 7)],
    ((4, 4, 4), None): [(6, 3), (6, 6), (6, 6), (6, 6), (6, 11), (6, 11)],
    ((4, 4, 4), 2): [(2, 1), (2, 2), (2, 2), (2, 2), (2, 11), (2, 11)],
    ((4, 4, 4), 4): [(4, 2), (4, 4), (4, 4), (4, 4), (4, 11), (4, 11)],
    ((4, 4, 4), 6): [(6, 3), (6, 6), (6, 6), (6, 6), (6, 11), (6, 11)],
    ((4, 4, 4), 8): [(8, 4), (8, 8), (8, 6), (8, 6), (8, 11), (8, 11)],
}


class TestFactory:
    @pytest.mark.parametrize("name", MECHANISMS)
    def test_builds_every_mechanism(self, net2d, name):
        mech = make_mechanism(name, net2d)
        assert mech.name.lower() == name.lower()

    def test_case_insensitive(self, net2d):
        assert make_mechanism("polsp", net2d).name == "PolSP"
        assert make_mechanism("OMNIWAR", net2d).name == "OmniWAR"

    def test_unknown_name_rejected(self, net2d):
        with pytest.raises(ValueError):
            make_mechanism("DOR", net2d)

    def test_default_vc_budget_is_2n(self, net2d, net3d):
        assert default_n_vcs(net2d) == 4
        assert default_n_vcs(net3d) == 6
        assert make_mechanism("Polarized", net2d).n_vcs == 4
        assert make_mechanism("Valiant", net3d).n_vcs == 6

    def test_explicit_vcs_override(self, net2d):
        assert make_mechanism("PolSP", net2d, n_vcs=2).n_vcs == 2

    def test_shared_escape_reused(self, net2d):
        esc = EscapeSubnetwork(net2d, 0)
        m1 = make_mechanism("OmniSP", net2d, escape=esc)
        m2 = make_mechanism("PolSP", net2d, escape=esc)
        assert m1.escape is esc and m2.escape is esc

    def test_root_forwarded(self, net2d):
        mech = make_mechanism("PolSP", net2d, root=7)
        assert mech.escape.root == 7

    def test_max_deroutes_forwarded(self, net3d):
        mech = make_mechanism("OmniWAR", net3d, max_deroutes=1)
        assert mech.routes.max_deroutes == 1


class TestPinnedRows:
    @pytest.mark.parametrize("sides,budget", list(PINNED))
    def test_name_vcs_and_route_bound(self, sides, budget):
        net = Network(HyperX(sides, 4))
        got = []
        for name in PINNED_NAMES:
            mech = make_mechanism(name, net, budget, rng=1)
            got.append((mech.name, mech.n_vcs, mech.max_route_length()))
        want = [
            (name, n_vcs, bound)
            for name, (n_vcs, bound) in zip(PINNED_NAMES, PINNED[sides, budget])
        ]
        assert got == want


class TestTopologyCompatibility:
    """The per-mechanism x per-topology compatibility layer."""

    def _families(self):
        from repro.topology.fattree import FatTree
        from repro.topology.hyperx import HyperX
        from repro.topology.random_regular import RandomRegular
        from repro.topology.torus import Torus

        return {
            "hyperx": HyperX((4, 4), 2),
            "torus": Torus((4, 4), 2),
            "fattree": FatTree(4),
            "random": RandomRegular(16, 4, 2, seed=0),
        }

    def test_matrix_shape_and_values(self):
        from repro.routing.catalog import compatibility_matrix

        rows = compatibility_matrix(self._families())
        assert [r["mechanism"] for r in rows] == list(MECHANISMS)
        for r in rows:
            if r["mechanism"] in ("OmniWAR", "OmniSP"):
                assert r["hyperx"] and not r["torus"]
                assert not r["fattree"] and not r["random"]
            else:
                assert all(r[label] for label in self._families())

    def test_supported_mechanisms_per_family(self):
        from repro.routing.catalog import supported_mechanisms

        fams = self._families()
        assert supported_mechanisms(fams["hyperx"], MECHANISMS) == list(MECHANISMS)
        for label in ("torus", "fattree", "random"):
            got = supported_mechanisms(fams[label], MECHANISMS)
            assert got == [m for m in MECHANISMS if m not in ("OmniWAR", "OmniSP")]

    def test_upfront_rejection_names_both_sides(self):
        from repro.topology.base import Network

        for label, topo in self._families().items():
            if label == "hyperx":
                continue
            net = Network(topo)
            with pytest.raises(TypeError, match=f"OmniWAR.*{type(topo).__name__}"):
                make_mechanism("OmniWAR", net)

    def test_unknown_mechanism_rejected_at_filter_time(self):
        """A typo fails where the sweep generates jobs, not in a worker."""
        from repro.routing.catalog import mechanism_supported, supported_mechanisms

        topo = self._families()["torus"]
        with pytest.raises(ValueError, match="unknown routing mechanism 'Polarised'"):
            mechanism_supported("Polarised", topo)
        with pytest.raises(ValueError, match="unknown routing mechanism"):
            supported_mechanisms(topo, ["PolSP", "Polarised"])

    def test_every_supported_mechanism_builds_on_every_family(self):
        from repro.routing.catalog import supported_mechanisms
        from repro.topology.base import Network

        for topo in self._families().values():
            net = Network(topo)
            for name in supported_mechanisms(topo, MECHANISMS):
                assert make_mechanism(name, net, n_vcs=4).name == name


class TestClassification:
    def test_fault_tolerance_classification(self):
        assert is_fault_tolerant("OmniSP")
        assert is_fault_tolerant("polsp")
        for name in ("Minimal", "Valiant", "OmniWAR", "Polarized"):
            assert not is_fault_tolerant(name)

    def test_mechanism_list_matches_paper_order(self):
        assert MECHANISMS == (
            "Minimal", "Valiant", "OmniWAR", "Polarized", "OmniSP", "PolSP",
        )
