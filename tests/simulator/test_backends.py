"""Engine-backend API tests: registry, config validation, the
``make_simulator`` façade, the retired deprecation shim and the busy agenda.

The *records* produced by the backends are pinned by the differential
suite in ``tests/experiments/test_backend_equivalence.py``; this module
covers the API surface itself.
"""

import warnings

import pytest

from repro.registry import Registry
from repro.routing.catalog import make_mechanism
from repro.simulator.array_backend import ArraySimulator
from repro.simulator.backends import ENGINE_BACKENDS, make_simulator
from repro.simulator.config import PAPER_CONFIG, SimConfig
from repro.simulator.engine import Simulator
from repro.traffic import make_traffic


def make_sim(net, config=PAPER_CONFIG, mechanism="PolSP", traffic="uniform",
             offered=0.3, seed=0, **kw):
    mech = make_mechanism(mechanism, net, rng=seed + 1)
    return make_simulator(config, net, mech, make_traffic(traffic, net, seed),
                          offered=offered, seed=seed, **kw)


class TestBackendRegistry:
    def test_registered_backends(self):
        assert set(ENGINE_BACKENDS) == {"slot", "array"}
        assert ENGINE_BACKENDS.names == ("slot", "array")

    def test_lazy_entries_resolve_to_classes(self):
        assert ENGINE_BACKENDS["slot"] is Simulator
        assert ENGINE_BACKENDS["array"] is ArraySimulator

    def test_event_is_an_alias_of_slot(self):
        assert "event" in ENGINE_BACKENDS
        assert ENGINE_BACKENDS.canonical("event") == "slot"
        assert ENGINE_BACKENDS["event"] is Simulator

    def test_backend_name_attributes_match_keys(self):
        for name in ENGINE_BACKENDS:
            assert ENGINE_BACKENDS[name].backend_name == name

    def test_display_names(self):
        assert "slot" in ENGINE_BACKENDS.display_name("slot").lower()
        assert "agenda" in ENGINE_BACKENDS.display_name("event").lower()
        assert "plan cache" in ENGINE_BACKENDS.display_name("array").lower()

    def test_unknown_backend_error_shape(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            ENGINE_BACKENDS["quantum"]


class TestConfigValidation:
    def test_default_backend_is_slot(self):
        assert PAPER_CONFIG.backend == "slot"
        assert SimConfig().backend == "slot"

    def test_valid_backends_accepted(self):
        for name in ENGINE_BACKENDS:
            assert SimConfig(backend=name).backend == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            SimConfig(backend="quantum")

    def test_backend_is_cache_key_strict(self):
        # Config fields travel verbatim into cache keys, so validation
        # is exact: no case folding that would alias two spellings.
        with pytest.raises(ValueError, match="unknown engine backend"):
            SimConfig(backend="Slot")

    def test_event_alias_is_stored_as_slot(self):
        # One engine, one cache address: the alias never reaches a key.
        assert SimConfig(backend="event") == SimConfig()
        assert SimConfig(backend="event").backend == "slot"
        assert PAPER_CONFIG.with_(backend="event") == PAPER_CONFIG

    @pytest.mark.parametrize("name", ["EVENT", "Event", " event", "SLOT"])
    def test_alias_resolution_is_exact(self, name):
        with pytest.raises(ValueError, match="unknown engine backend"):
            SimConfig(backend=name)


class TestMakeSimulator:
    def test_slot_config_builds_reference_engine(self, net2d):
        sim = make_sim(net2d)
        assert type(sim) is Simulator
        assert sim.backend_name == "slot"

    def test_event_config_builds_reference_engine(self, net2d):
        sim = make_sim(net2d, config=PAPER_CONFIG.with_(backend="event"))
        assert type(sim) is Simulator
        assert sim.backend_name == "slot"

    def test_array_config_builds_array_engine(self, net2d):
        sim = make_sim(net2d, config=PAPER_CONFIG.with_(backend="array"))
        assert type(sim) is ArraySimulator
        assert sim.backend_name == "array"

    def test_default_config_is_paper_config(self, net2d):
        mech = make_mechanism("Minimal", net2d, rng=1)
        sim = make_simulator(
            None, net2d, mech, make_traffic("uniform", net2d, 0), offered=0.2
        )
        assert sim.cfg is PAPER_CONFIG

    def test_missing_collaborators_raise_typeerror(self, net2d):
        with pytest.raises(TypeError):
            make_simulator(PAPER_CONFIG, net2d, None, None)

    def test_every_backend_is_a_simulator(self, net2d):
        for backend in ENGINE_BACKENDS:
            sim = make_sim(net2d, config=PAPER_CONFIG.with_(backend=backend))
            assert isinstance(sim, Simulator)


class TestDeprecationShim:
    """The ``Simulator.__new__`` re-dispatch shim is gone: a backend
    class accepts only a config naming itself."""

    def _collaborators(self, net):
        return (net, make_mechanism("Minimal", net, rng=1),
                make_traffic("uniform", net, 0))

    @pytest.mark.parametrize("cls, backend", [
        (Simulator, "array"), (ArraySimulator, "slot"),
        (ArraySimulator, "event"),
    ])
    def test_foreign_config_raises(self, net2d, cls, backend):
        net, mech, traffic = self._collaborators(net2d)
        with pytest.raises(ValueError, match="make_simulator"):
            cls(net, mech, traffic, offered=0.2,
                config=PAPER_CONFIG.with_(backend=backend))

    def test_plain_slot_construction_stays_silent(self, net2d):
        net, mech, traffic = self._collaborators(net2d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = Simulator(net, mech, traffic, offered=0.2)
        assert type(sim) is Simulator

    def test_subclass_construction_not_intercepted(self, net2d):
        # A backend class built with its own config is just that class.
        net, mech, traffic = self._collaborators(net2d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim = ArraySimulator(net, mech, traffic, offered=0.2,
                                 config=PAPER_CONFIG.with_(backend="array"))
        assert type(sim) is ArraySimulator

    def test_alias_config_builds_the_reference_class(self, net2d):
        net, mech, traffic = self._collaborators(net2d)
        sim = Simulator(net, mech, traffic, offered=0.2,
                        config=PAPER_CONFIG.with_(backend="event"))
        assert type(sim) is Simulator


class TestBusyAgenda:
    """The busy agenda is how the default engine schedules."""

    def test_agenda_starts_empty(self, net2d):
        sim = make_sim(net2d)
        assert sim.busy_switches() == ()
        assert sim.alloc_switches() == []

    def test_array_backend_inherits_the_agenda(self):
        for name in ("_wake", "alloc_switches", "busy_switches", "step"):
            assert name not in vars(ArraySimulator), name

    def test_agenda_invariant_holds_while_running(self, net2d):
        sim = make_sim(net2d, offered=0.1)
        for _ in range(40):
            sim.step()
            busy = set(sim.busy_switches())
            for sw in sim.switches:
                if sw.active_inputs or any(sw.port_load):
                    assert sw.sid in busy, (
                        f"switch {sw.sid} has work but is off the agenda "
                        f"at slot {sim.slot}"
                    )

    def test_agenda_drains_when_traffic_stops(self, net2d):
        sim = make_sim(net2d, offered=0.2)
        for _ in range(30):
            sim.step()
        sim.offered = 0.0
        sim.injection.offered = 0.0
        for _ in range(400):
            sim.step()
            if not sim.busy_switches():
                break
        assert sim.busy_switches() == ()
        assert sim.in_flight == 0

    def test_agenda_is_sparse_at_low_load(self, net2d):
        sim = make_sim(net2d, offered=0.02, mechanism="Minimal")
        sizes = []
        for _ in range(60):
            sim.step()
            sizes.append(len(sim.busy_switches()))
        assert min(sizes) < len(sim.switches)


class TestRegistryHelper:
    """The shared Registry behaviors every axis relies on."""

    def test_alias_and_case_folding(self):
        reg = Registry("widget")
        reg.register("alpha", object(), aliases=("first", "A One"))
        assert reg.canonical(" ALPHA ") == "alpha"
        assert reg.canonical("a one") == "alpha"

    def test_duplicate_names_rejected(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        with pytest.raises(ValueError, match="duplicate widget"):
            reg.register("alpha", object())
        with pytest.raises(ValueError, match="duplicate widget"):
            reg.register("beta", object(), aliases=("alpha",))

    def test_error_names_kind_and_choices(self):
        reg = Registry("widget")
        reg.register("alpha", object())
        with pytest.raises(ValueError, match=r"unknown widget 'x'.*alpha"):
            reg.canonical("x")

    def test_views(self):
        reg = Registry("widget")
        reg.register("b", object(), aliases=("bee",), display="The B")
        reg.register("a", object())
        assert reg.names == ("b", "a")
        assert reg.canonical("bee") == "b"
        assert reg.display_name("bee") == "The B"
        assert reg.display_name("a") == "a"
