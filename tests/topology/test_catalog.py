"""Topology registry tests (make_topology / TOPOLOGIES)."""

import pytest

from repro.topology import (
    TOPOLOGIES,
    TOPOLOGY_REGISTRY,
    FatTree,
    HyperX,
    Network,
    RandomRegular,
    Torus,
    make_topology,
)


class TestRegistry:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_every_name_builds_connected(self, name):
        topo = make_topology(name)
        net = Network(topo)
        assert net.is_connected
        assert topo.n_switches >= 3
        assert topo.servers_per_switch >= 1

    def test_display_names_cover_registry(self):
        assert all(TOPOLOGY_REGISTRY.display_name(name) for name in TOPOLOGIES)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            make_topology("moebius")

    def test_aliases_accepted(self):
        assert isinstance(make_topology("fat-tree"), FatTree)
        assert isinstance(make_topology("jellyfish"), RandomRegular)
        assert isinstance(make_topology("2D HyperX"), HyperX)

    def test_family_classes(self):
        assert isinstance(make_topology("torus"), Torus)
        assert make_topology("torus").wrap
        assert not make_topology("mesh").wrap
        assert make_topology("torus3").n_dims == 3

    def test_parameters_forwarded(self):
        assert make_topology("torus", side=6).sides == (6, 6)
        assert make_topology("fattree", k=6).k == 6
        assert make_topology("random", n_switches=12, degree=3, seed=5).seed == 5
        assert make_topology("hyperx", servers_per_switch=7).servers_per_switch == 7
        assert make_topology("dragonfly", servers_per_switch=3).p == 3

    def test_random_seed_changes_graph(self):
        a = make_topology("random", seed=0)
        b = make_topology("random", seed=1)
        assert a.links() != b.links()


class TestScaledTopologies:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    def test_scaled_families_build(self, name, scale):
        from repro.experiments.scales import get_scale, scaled_topology

        topo = scaled_topology(name, get_scale(scale))
        assert Network(topo).is_connected

    def test_scaled_sizes_grow_with_scale(self):
        from repro.experiments.scales import get_scale, scaled_topology

        for name in ("torus", "fattree", "random"):
            tiny = scaled_topology(name, get_scale("tiny"))
            small = scaled_topology(name, get_scale("small"))
            assert small.n_switches > tiny.n_switches

    def test_unknown_name_still_rejected(self):
        from repro.experiments.scales import get_scale, scaled_topology

        with pytest.raises(ValueError, match="unknown topology"):
            scaled_topology("moebius", get_scale("tiny"))

    def test_aliases_get_scale_sizing_not_defaults(self):
        """An alias must pick up the same per-scale parameters as its
        registry name — never fall back to the CI-sized defaults."""
        from repro.experiments.scales import get_scale, scaled_topology

        small = get_scale("small")
        assert scaled_topology("fat-tree", small).k == \
            scaled_topology("fattree", small).k == small.side_2d
        assert scaled_topology("jellyfish", small).n == small.side_2d ** 2

    def test_canonical_name_resolution(self):
        from repro.topology.catalog import canonical_name

        assert canonical_name("Fat-Tree") == "fattree"
        assert canonical_name("jellyfish") == "random"
        assert canonical_name("torus") == "torus"
        with pytest.raises(ValueError, match="unknown topology"):
            canonical_name("moebius")

    def test_alias_registry_aligned_with_topologies(self):
        assert TOPOLOGIES == TOPOLOGY_REGISTRY.names == tuple(TOPOLOGY_REGISTRY)
