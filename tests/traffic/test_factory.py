"""Traffic factory tests."""

import pytest

from repro.traffic import (
    TRAFFIC_PATTERNS,
    TRAFFIC_REGISTRY,
    make_traffic,
    supported_traffics,
)


class TestFactory:
    @pytest.mark.parametrize("name", TRAFFIC_PATTERNS)
    def test_builds_or_cleanly_rejects_every_pattern_3d(self, net3d, name):
        """Every registered name either builds on the 3D HyperX or raises
        the structural error ``supported_traffics`` filters on."""
        if name in supported_traffics(net3d):
            t = make_traffic(name, net3d, rng=0)
            assert t.n_servers == net3d.n_servers
        else:
            with pytest.raises((TypeError, ValueError)):
                make_traffic(name, net3d, rng=0)

    def test_hyperx_supports_all_but_dragonfly_adversarial(self, net3d):
        # 4x4x4 with 4 servers/switch: 256 servers (8 bits) hosts the
        # whole catalog except the Dragonfly-structured pattern.
        assert supported_traffics(net3d) == [
            n for n in TRAFFIC_PATTERNS if n != "adversarial"
        ]

    def test_long_names_accepted(self, net3d):
        assert make_traffic("Dimension Complement Reverse", net3d).name.startswith(
            "Dimension"
        )
        assert make_traffic("Regular Permutation to Neighbour", net3d)
        assert make_traffic("Bit Reverse", net3d).name == "Bit Reverse"

    def test_unknown_rejected(self, net2d):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            make_traffic("zipfian", net2d)

    def test_display_names_cover_patterns(self):
        assert all(TRAFFIC_REGISTRY.display_name(n) for n in TRAFFIC_PATTERNS)

    def test_randperm_seed_forwarded(self, net2d):
        import numpy as np

        a = make_traffic("randperm", net2d, 3).as_permutation()
        b = make_traffic("randperm", net2d, 3).as_permutation()
        assert np.array_equal(a, b)

    def test_hotspot_seed_forwarded(self, net2d):
        import numpy as np

        a = make_traffic("hotspot", net2d, 3)
        b = make_traffic("hotspot", net2d, 3)
        assert np.array_equal(a.hot, b.hot)


class TestStructuralRejections:
    """Satellite: structurally invalid (pattern, topology) combinations
    fail with *one* clean error naming both sides — never an assertion
    failure deep inside a pool worker."""

    def _net(self, topo):
        from repro.topology.base import Network

        return Network(topo)

    def test_coordinate_patterns_name_topology(self):
        from repro.topology.fattree import FatTree
        from repro.topology.torus import Torus

        torus = self._net(Torus((4, 4), 2))
        with pytest.raises(TypeError, match="DCR requires a HyperX.*Torus"):
            make_traffic("dcr", torus)
        with pytest.raises(TypeError, match="Tornado requires a HyperX.*Torus"):
            make_traffic("tornado", torus)
        with pytest.raises(TypeError, match="RPN requires a HyperX.*FatTree"):
            make_traffic("rpn", self._net(FatTree(4)))

    def test_dragonfly_adversarial_rejected_on_new_families(self):
        from repro.topology.random_regular import RandomRegular
        from repro.topology.torus import Torus

        for topo in (Torus((4, 4), 2), RandomRegular(16, 4, 2, seed=0)):
            with pytest.raises(
                TypeError,
                match=f"DragonflyAdversarial requires a Dragonfly.*{type(topo).__name__}",
            ):
                make_traffic("adversarial", self._net(topo))

    def test_bit_patterns_name_server_count_and_topology(self):
        from repro.topology.fattree import FatTree

        net = self._net(FatTree(4))  # 40 servers: not a power of two
        with pytest.raises(ValueError, match="power-of-two.*40.*FatTree"):
            make_traffic("bitrev", net)
        with pytest.raises(ValueError, match="power-of-two"):
            make_traffic("shuffle", net)

    def test_transpose_odd_bits_named(self):
        from repro.topology.hyperx import HyperX

        net = self._net(HyperX((4, 4), 2))  # 32 servers, 5 bits
        with pytest.raises(ValueError, match="Bit Transpose.*32"):
            make_traffic("transpose", net)

    def test_supported_traffics_filters_every_rejection(self):
        """Everything the filter keeps builds; everything it drops raises
        the clean structural error (never anything else)."""
        from repro.topology.base import Network
        from repro.topology.fattree import FatTree
        from repro.topology.random_regular import RandomRegular
        from repro.topology.torus import Torus

        for topo in (
            Torus((4, 4), 4),
            Torus((3, 4), 2, wrap=False),
            FatTree(4),
            RandomRegular(16, 4, 2, seed=1),
        ):
            net = Network(topo)
            ok = supported_traffics(net)
            for name in TRAFFIC_PATTERNS:
                if name in ok:
                    assert make_traffic(name, net, rng=0).n_servers == net.n_servers
                else:
                    with pytest.raises((TypeError, ValueError)) as exc:
                        make_traffic(name, net, rng=0)
                    assert not isinstance(exc.value, AssertionError)

    def test_sweep_rejects_bad_pattern_upfront(self):
        """A structurally impossible pattern fails at job generation with
        an error naming the pattern and topology, not inside a worker."""
        from repro.experiments.sweeps import load_sweep_jobs
        from repro.topology.base import Network
        from repro.topology.torus import Torus

        net = Network(Torus((4, 4), 2))
        with pytest.raises(ValueError, match=r"\['tornado'\].*Torus"):
            load_sweep_jobs(net, ["PolSP"], ["uniform", "tornado"], [0.3])

    def test_sweep_validation_accepts_aliases(self, net2d):
        """Aliases the factory accepts must pass the upfront validation
        exactly like their short names."""
        from repro.experiments.sweeps import load_sweep_jobs

        jobs = load_sweep_jobs(
            net2d, ["PolSP"], ["Random Server Permutation", "Bit Reverse"],
            [0.3], warmup=10, measure=20,
        )
        assert len(jobs) == 2

    def test_canonical_traffic_name(self):
        from repro.traffic import canonical_traffic_name

        assert canonical_traffic_name("Bit Reverse") == "bitrev"
        assert canonical_traffic_name("dfly-adv") == "adversarial"
        assert canonical_traffic_name("uniform") == "uniform"
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            canonical_traffic_name("zipfian")

    def test_alias_registry_aligned_with_patterns(self):
        """The name tuple is the registry's, in registration order."""
        assert TRAFFIC_PATTERNS == TRAFFIC_REGISTRY.names == tuple(TRAFFIC_REGISTRY)
