"""Engine tests: conservation, latency floors, determinism, flow control."""

import pytest

from repro.routing.catalog import make_mechanism
from repro.simulator.backends import make_simulator
from repro.simulator.config import PAPER_CONFIG
from repro.simulator.engine import DeadlockError, Simulator
from repro.simulator.injection import BatchInjection
from repro.traffic import make_traffic


def make_sim(net, mechanism="PolSP", traffic="uniform", offered=0.3, seed=0,
             **kw):
    mech = make_mechanism(mechanism, net, rng=seed + 1)
    return Simulator(net, mech, make_traffic(traffic, net, seed),
                     offered=offered, seed=seed, **kw)


class _NoRouteMechanism:
    """A mechanism that never offers a candidate: every packet stalls."""

    n_vcs = 1
    escape_vc = None

    def init_packet(self, pkt):
        pass

    def candidate_key(self, pkt, here):
        return ()

    def candidates(self, pkt, here):
        return []

    def on_hop(self, pkt, here, there, port, vc):  # pragma: no cover
        raise AssertionError("no grants can happen without candidates")

    def on_topology_change(self):  # pragma: no cover
        pass

    def refresh_packet(self, pkt, here):  # pragma: no cover
        pass


class TestEarlyStopMeasurement:
    """A watchdog-stopped run reports the slots actually measured, so
    accepted load is not diluted by slots that never happened."""

    class _RemoteTraffic:
        """Every server targets its peer on the next switch — nothing is
        ever local, so no ejection can mask the stall."""

        def __init__(self, net):
            self.n_servers = net.n_servers
            self.sps = net.servers_per_switch

        def destination(self, src, rng):
            return (src + self.sps) % self.n_servers

    def _stalling_sim(self, net2d, threshold=10, backend="slot"):
        cfg = PAPER_CONFIG.with_(
            deadlock_threshold_slots=threshold, backend=backend
        )
        return make_simulator(
            cfg, net2d, _NoRouteMechanism(), self._RemoteTraffic(net2d),
            offered=1.0, seed=0,
        )

    def test_duck_typed_mechanism_runs_on_every_backend(self, net2d):
        """A mechanism outside the ``RoutingMechanism`` hierarchy runs
        on every backend, and all stall identically."""
        seen = {}
        for backend in ("slot", "array"):
            sim = self._stalling_sim(net2d, backend=backend)
            seen[backend] = repr(sim.run(warmup=0, measure=500))
            assert sim.deadlocked
        assert seen["slot"] == seen["array"]

    def test_measure_slots_reflect_early_stop(self, net2d):
        sim = self._stalling_sim(net2d)
        res = sim.run(warmup=0, measure=500)
        assert res.deadlocked
        # The watchdog fired long before the nominal 500 slots.
        assert 0 < res.measure_slots < 500
        assert res.measure_slots == sim.slot - sim.metrics.measure_start

    def test_accepted_uses_actual_window(self, net2d):
        """Accepted load normalises over the measured slots; a healthy
        mid-load run still reports its nominal window."""
        stalled = self._stalling_sim(net2d).run(warmup=0, measure=500)
        assert stalled.accepted == 0.0  # nothing ever delivered
        healthy = make_sim(net2d, offered=0.3).run(warmup=40, measure=120)
        assert healthy.measure_slots == 120

    def test_deadlock_during_warmup_measures_nothing(self, net2d):
        sim = self._stalling_sim(net2d)
        res = sim.run(warmup=50, measure=100)
        assert res.deadlocked
        assert res.measure_slots == 0
        assert res.accepted == 0.0


class TestConservation:
    def test_packets_conserved_every_slot(self, net2d):
        sim = make_sim(net2d, offered=0.5)
        for _ in range(120):
            sim.step()
            buffered = sim.buffered_packets()
            assert buffered == sim.in_flight
            assert (
                sim.metrics.generated_total
                == sim.metrics.delivered_total + sim.in_flight
            )

    def test_credit_invariant(self, net2d):
        """credits == input capacity - (output occupancy + downstream input)."""
        sim = make_sim(net2d, offered=0.6)
        for _ in range(100):
            sim.step()
        cap = sim.cfg.input_buffer_packets
        for sw in sim.switches:
            for p in range(sw.n_ports):
                nbr = net2d.port_neighbour[sw.sid][p]
                rp = sim.rev_port[sw.sid][p]
                tsw = sim.switches[nbr]
                for vc in range(sw.n_vcs):
                    pv = sw.pv(p, vc)
                    expected = cap - len(sw.out_q[pv]) - len(
                        tsw.in_q[tsw.pv(rp, vc)]
                    )
                    assert sw.credits[pv] == expected

    def test_simulators_share_the_topology_reverse_port_table(self, net2d):
        """``rev_port`` is the topology's cached table, not a per-simulator
        copy: every simulator (and every backend) on one topology reads
        the same object."""
        a = make_sim(net2d)
        b = make_simulator(
            PAPER_CONFIG.with_(backend="array"), net2d,
            make_mechanism("Minimal", net2d, rng=2),
            make_traffic("uniform", net2d, 1), offered=0.3, seed=1,
        )
        assert a.rev_port is b.rev_port is net2d.topology.rev_port
        for s, sw in enumerate(a.switches):
            for p in range(sw.n_ports):
                t = net2d.port_neighbour[s][p]
                assert net2d.port_neighbour[t][a.rev_port[s][p]] == s

    def test_load_bookkeeping_matches_state(self, net2d):
        sim = make_sim(net2d, offered=0.6)
        for _ in range(100):
            sim.step()
        cap = sim.cfg.input_buffer_packets
        for sw in sim.switches:
            for p in range(sw.n_ports):
                total = 0
                for vc in range(sw.n_vcs):
                    pv = sw.pv(p, vc)
                    expected = len(sw.out_q[pv]) + (cap - sw.credits[pv])
                    assert sw.load[pv] == expected
                    total += expected
                assert sw.port_load[p] == total


class TestDelivery:
    def test_all_delivered_at_low_load(self, net2d):
        sim = make_sim(net2d, offered=0.05)
        res = sim.run(warmup=50, measure=400)
        assert res.accepted == pytest.approx(0.05, abs=0.02)
        assert res.stalled_packets == 0
        assert not res.deadlocked

    def test_latency_floor_single_hop(self, net2d):
        """Minimum latency: inject + per-hop slots, in cycles."""
        sim = make_sim(net2d, mechanism="Minimal", offered=0.02)
        res = sim.run(warmup=50, measure=300)
        # Avg distance ~1.9 switch hops; each hop >= 1 slot (16 cycles),
        # plus injection-queue and ejection slots.
        assert res.avg_latency_cycles >= 2 * 16
        assert res.avg_latency_cycles < 12 * 16

    def test_batch_drains_completely(self, net2d):
        inj = BatchInjection(net2d.n_servers, 5)
        mech = make_mechanism("PolSP", net2d, rng=1)
        sim = Simulator(net2d, mech, make_traffic("randperm", net2d, 0),
                        injection=inj, seed=0)
        res = sim.run_until_drained(max_slots=20_000)
        assert res.completion_slot is not None
        assert res.delivered == 5 * net2d.n_servers
        assert sim.in_flight == 0

    def test_hop_counts_recorded(self, net2d):
        sim = make_sim(net2d, mechanism="Minimal", offered=0.05)
        res = sim.run(warmup=50, measure=300)
        # Minimal routes: average hops equals average switch distance.
        assert 1.0 < res.avg_hops < 2.1


class TestDeterminism:
    def test_same_seed_same_result(self, net2d):
        r1 = make_sim(net2d, offered=0.4, seed=9).run(100, 200)
        r2 = make_sim(net2d, offered=0.4, seed=9).run(100, 200)
        assert r1.accepted == r2.accepted
        assert r1.avg_latency_cycles == r2.avg_latency_cycles
        assert r1.jain == r2.jain
        assert r1.generated == r2.generated

    def test_different_seeds_differ(self, net2d):
        r1 = make_sim(net2d, offered=0.4, seed=1).run(100, 200)
        r2 = make_sim(net2d, offered=0.4, seed=2).run(100, 200)
        assert r1.generated != r2.generated


class TestFlowControl:
    def test_output_buffers_respect_capacity(self, net2d):
        sim = make_sim(net2d, offered=1.0)
        for _ in range(150):
            sim.step()
            for sw in sim.switches:
                for q in sw.out_q:
                    assert len(q) <= sim.cfg.output_buffer_packets

    def test_input_buffers_respect_capacity(self, net2d):
        sim = make_sim(net2d, offered=1.0)
        npv2 = net2d.topology.degree(0) * 4
        for _ in range(150):
            sim.step()
            for sw in sim.switches:
                for idx, q in enumerate(sw.in_q):
                    cap = (
                        sim.cfg.source_queue_packets
                        if sw.is_injection_input(idx)
                        else sim.cfg.input_buffer_packets
                    )
                    assert len(q) <= cap

    def test_speedup_limits_grants(self, net2d):
        """With speedup 1 the network still works, just slower."""
        cfg = PAPER_CONFIG.with_(crossbar_speedup=1)
        mech = make_mechanism("PolSP", net2d, rng=1)
        sim = Simulator(net2d, mech, make_traffic("uniform", net2d, 0),
                        offered=0.2, seed=0, config=cfg)
        res = sim.run(warmup=100, measure=300)
        assert res.accepted == pytest.approx(0.2, abs=0.04)


class TestWatchdog:
    def test_strict_mode_raises_on_stall(self, heavy_faulty2d):
        """A ladder mechanism under heavy faults strands packets; with a
        tiny threshold the watchdog must fire."""
        cfg = PAPER_CONFIG.with_(deadlock_threshold_slots=50)
        mech = make_mechanism("OmniWAR", heavy_faulty2d)
        sim = Simulator(
            heavy_faulty2d, mech, make_traffic("uniform", heavy_faulty2d, 0),
            offered=0.3, seed=0, config=cfg, strict_deadlock=True,
        )
        with pytest.raises(DeadlockError):
            for _ in range(5000):
                sim.step()

    def test_flag_mode_sets_deadlocked(self, heavy_faulty2d):
        cfg = PAPER_CONFIG.with_(deadlock_threshold_slots=50)
        mech = make_mechanism("Minimal", heavy_faulty2d)
        sim = Simulator(
            heavy_faulty2d, mech, make_traffic("uniform", heavy_faulty2d, 0),
            offered=0.3, seed=0, config=cfg,
        )
        res = sim.run(warmup=100, measure=2000)
        assert res.deadlocked
        assert res.stalled_packets > 0


class TestValidation:
    def test_mismatched_injection_rejected(self, net2d):
        mech = make_mechanism("Minimal", net2d)
        inj = BatchInjection(3, 1)  # wrong server count
        with pytest.raises(ValueError):
            Simulator(net2d, mech, make_traffic("uniform", net2d, 0),
                      injection=inj)

    def test_run_validates_windows(self, net2d):
        sim = make_sim(net2d)
        with pytest.raises(ValueError):
            sim.run(warmup=-1, measure=10)
        with pytest.raises(ValueError):
            sim.run(warmup=10, measure=0)
