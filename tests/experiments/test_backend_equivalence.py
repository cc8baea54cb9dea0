"""Differential suite: the ``"array"`` backend must be *byte-identical*
to the ``"slot"`` reference — not statistically close.

Every case runs the same job list once per backend through the serial
executor — the slot reference plus each alternate backend — and
compares the JSON-normalised records (the same fingerprint the golden
suite uses).  The matrix spans mechanisms
(table-driven minimal, two-phase Valiant, escape-based PolSP) ×
topology families (HyperX, torus, fat-tree) × schedules (static,
mid-run fail-then-repair, phased workload), plus the microarchitecture
variants whose RNG/wake behaviour differs (pipelined links, on-off
injection, split RNG streams), each over multiple seeds.

Records can agree while the hooks that feed them do not (a backend that
skips ``injection.on_blocked`` changes no record of an open-loop point),
so a per-hook differential also compares every ``metrics.on_*`` and
``injection.on_*`` call, slot by slot.

The cache-key tests pin that ``backend`` reaches ``job_key``: no two
backends' results can ever alias one cache entry, and the ``"event"``
alias of ``"slot"`` shares the reference's entry rather than adding one.
"""

from __future__ import annotations

import json
import weakref
from collections import Counter

from repro.experiments.executor import (
    SerialExecutor,
    encode_json_safe,
    job_key,
)
from repro.experiments.sweeps import (
    load_sweep_jobs,
    workload_sweep_jobs,
)
from repro.routing.catalog import make_mechanism
from repro.simulator.backends import make_simulator
from repro.simulator.collective import CollectiveInjection, make_collective
from repro.simulator.config import PAPER_CONFIG
from repro.simulator.schedule import FaultSchedule
from repro.simulator.workload import WorkloadSchedule
from repro.topology.base import Network
from repro.topology.catalog import make_topology
from repro.topology.faults import random_connected_fault_sequence
from repro.topology.hyperx import HyperX
from repro.traffic import make_traffic
from repro.traffic.collective import CollectiveTraffic

import pytest

SLOT = PAPER_CONFIG
EVENT = PAPER_CONFIG.with_(backend="event")
ARRAY = PAPER_CONFIG.with_(backend="array")

#: The non-reference backends, each diffed against ``"slot"``.
ALT_BACKENDS = ("array",)


def _alt_config(backend):
    return PAPER_CONFIG.with_(backend=backend)

#: Mechanisms covering the three routing styles that exercise distinct
#: engine paths: plain tables, two-phase Valiant, escape-based SurePath.
MECHANISMS = ("Minimal", "Valiant", "PolSP")

SEEDS = (0, 1)

WARMUP, MEASURE = 60, 120


def _families():
    return {
        "hyperx": HyperX((4, 4), 2),
        "torus": make_topology("torus", side=4, servers_per_switch=2),
        "fattree": make_topology("fattree", k=4, servers_per_switch=2),
    }


def _normalize(records):
    return json.loads(json.dumps(encode_json_safe(records)))


def _run_both(make_jobs, alt):
    """Run ``make_jobs(config)`` under slot and the ``alt`` backend;
    return both fingerprints."""
    slot = SerialExecutor().run(make_jobs(SLOT))
    other = SerialExecutor().run(make_jobs(_alt_config(alt)))
    return _normalize(slot), _normalize(other)


def _assert_identical(slot, other):
    assert len(slot) == len(other)
    for s, e in zip(slot, other):
        # The config (and with it the backend name) is not part of the
        # record payload, so a straight equality is the full fingerprint.
        assert s == e, (
            f"backend divergence at {s.get('mechanism')}/{s.get('traffic')}"
            f"/offered={s.get('offered')}/seed={s.get('seed')}"
        )


@pytest.mark.parametrize("alt", ALT_BACKENDS)
@pytest.mark.parametrize("family", sorted(_families()))
def test_static_sweep_identical(family, alt):
    topo = _families()[family]
    net = Network(topo)

    def jobs(config):
        out = []
        for seed in SEEDS:
            out += load_sweep_jobs(
                net, MECHANISMS, ("uniform",), (0.3, 0.7),
                warmup=WARMUP, measure=MEASURE, seed=seed, config=config,
            )
        return out

    _assert_identical(*_run_both(jobs, alt))


@pytest.mark.parametrize("alt", ALT_BACKENDS)
@pytest.mark.parametrize("family", sorted(_families()))
def test_midrun_fault_schedule_identical(family, alt):
    topo = _families()[family]
    net = Network(topo)
    link = random_connected_fault_sequence(topo, 1, rng=7)[0]
    schedule = FaultSchedule.down_then_up(
        WARMUP + 20, WARMUP + 80, [link]
    )

    def jobs(config):
        out = []
        for seed in SEEDS:
            out += load_sweep_jobs(
                net, MECHANISMS, ("uniform",), (0.5,),
                warmup=WARMUP, measure=MEASURE, seed=seed, config=config,
                n_vcs=4, schedule=schedule, series_interval=20,
            )
        return out

    _assert_identical(*_run_both(jobs, alt))


@pytest.mark.parametrize("alt", ALT_BACKENDS)
@pytest.mark.parametrize("family", sorted(_families()))
def test_phased_workload_identical(family, alt):
    topo = _families()[family]
    net = Network(topo)
    # Load dips then spikes mid-measurement: agenda drains, then refills.
    workload = WorkloadSchedule.load_steps(
        [(WARMUP + 30, 0.05), (WARMUP + 80, 0.8)]
    )

    def jobs(config):
        out = []
        for seed in SEEDS:
            out += workload_sweep_jobs(
                net, MECHANISMS, ("uniform",), (0.4,),
                injections=("bernoulli",), workload=workload,
                warmup=WARMUP, measure=MEASURE, seed=seed, config=config,
            )
        return out

    _assert_identical(*_run_both(jobs, alt))


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_pattern_swap_workload_identical(alt):
    net = Network(HyperX((4, 4), 2))
    workload = WorkloadSchedule.pattern_steps([(WARMUP + 40, "randperm")])

    def jobs(config):
        return workload_sweep_jobs(
            net, ("PolSP",), ("uniform",), (0.5,),
            injections=("bernoulli",), workload=workload,
            warmup=WARMUP, measure=MEASURE, seed=0, config=config,
        )

    _assert_identical(*_run_both(jobs, alt))


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_pipelined_links_identical(alt):
    net = Network(HyperX((4, 4), 2))

    def jobs(config):
        cfg = config.with_(link_latency_slots=2)
        out = []
        for seed in SEEDS:
            out += load_sweep_jobs(
                net, ("Minimal", "PolSP"), ("uniform",), (0.3, 0.7),
                warmup=WARMUP, measure=MEASURE, seed=seed, config=cfg,
            )
        return out

    _assert_identical(*_run_both(jobs, alt))


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_onoff_injection_and_split_streams_identical(alt):
    net = Network(HyperX((4, 4), 2))

    def jobs(config):
        out = []
        for streams in ("shared", "split"):
            cfg = config.with_(rng_streams=streams)
            out += workload_sweep_jobs(
                net, ("PolSP",), ("randperm",), (0.5,),
                injections=("onoff",), burst_slots=4, idle_slots=4,
                warmup=WARMUP, measure=MEASURE, seed=0, config=cfg,
            )
        return out

    _assert_identical(*_run_both(jobs, alt))


#: Dense-congestion cases that force the array backend's credit-feedback
#: fallback: at a hotspot, a grant at switch ``t`` returns a credit to
#: an upstream switch ``u > t`` still awaiting its visit in the same
#: allocation phase, so ``u``'s cached plan must be abandoned for a
#: live rebuild.  The small-mesh case funnels everything through the
#: centre; the HyperX case adds multi-dimension feedback chains.
FALLBACK_CASES = {
    "mesh": lambda: make_topology("mesh", side=4, servers_per_switch=4),
    "hyperx": lambda: HyperX((4, 4), 4),
}


@pytest.mark.parametrize("alt", ALT_BACKENDS)
@pytest.mark.parametrize("family", sorted(FALLBACK_CASES))
def test_dense_hotspot_fallback_identical(family, alt):
    net = Network(FALLBACK_CASES[family]())

    def jobs(config):
        out = []
        for seed in SEEDS:
            out += load_sweep_jobs(
                net, ("PolSP", "Minimal"), ("hotspot",), (0.8,),
                warmup=WARMUP, measure=MEASURE, seed=seed, config=config,
            )
        return out

    _assert_identical(*_run_both(jobs, alt))


@pytest.mark.parametrize("family", sorted(FALLBACK_CASES))
def test_fallback_cases_exercise_both_grant_paths(family):
    # The cases above only prove identity; this pins that they actually
    # drive the plan cache (plan replays) AND the conflict detector's
    # fallback (rescans under credit feedback) — otherwise the matrix would
    # silently stop covering one of the two.
    net = Network(FALLBACK_CASES[family]())
    mech = make_mechanism("PolSP", net, rng=1)
    sim = make_simulator(
        ARRAY, net, mech, make_traffic("hotspot", net, 0),
        offered=0.8, seed=0,
    )
    for _ in range(300):
        sim.step()
    assert sim.grant_stats["plan_hits"] > 0
    assert sim.grant_stats["fallback_rebuilds"] > 0


class TestBackendInCacheKey:
    def _job(self, config):
        return load_sweep_jobs(
            Network(HyperX((4, 4), 2)), ("Minimal",), ("uniform",), (0.5,),
            warmup=WARMUP, measure=MEASURE, seed=0, config=config,
        )[0]

    def test_backend_changes_job_key(self):
        assert EVENT == SLOT
        keys = {
            job_key(self._job(cfg)) for cfg in (SLOT, EVENT, ARRAY)
        }
        assert len(keys) == 2
        assert job_key(self._job(ARRAY)) != job_key(self._job(SLOT))

    def test_same_backend_same_key(self):
        assert job_key(self._job(EVENT)) == job_key(self._job(SLOT))
        assert job_key(self._job(ARRAY)) == job_key(
            self._job(PAPER_CONFIG.with_(backend="array"))
        )

    def test_backends_cache_separately(self, tmp_path):
        cache = tmp_path / "cache"
        records, counts = [], []
        for cfg in (SLOT, EVENT, ARRAY):
            records.append(SerialExecutor(cache_dir=cache).run([self._job(cfg)]))
            counts.append(len(list(cache.rglob("*.json"))))
        # The alias reads the reference's cache file; array writes its own.
        assert counts == [1, 1, 2]
        assert _normalize(records[0]) == _normalize(records[1])
        assert _normalize(records[0]) == _normalize(records[2])



# ----------------------------------------------------------------------
# Per-hook observation differential
# ----------------------------------------------------------------------
#: Probe points on HyperX (4,4)x4, seed 3, ``(mechanism, traffic,
#: offered, faulted)``, each with the hooks it must reach.  A faulted
#: point fails two links at slot 100 and repairs them at 200: Minimal
#: strands heads behind them, which the plan cache replays under
#: hotspot congestion, and PolSP's uniform load drops a packet.
HOOK_POINTS = {
    ("PolSP", "hotspot", 0.7, False): {"injection.on_blocked"},
    ("Minimal", "hotspot", 0.7, True): {"metrics.on_stalled"},
    ("PolSP", "uniform", 0.9, True): {"injection.on_dropped"},
}


def _observe_hooks(sim):
    """Wrap every ``on_*`` hook of ``sim.metrics`` and ``sim.injection``
    on the instance; return the multiset of ``(slot, hook, args)`` they
    receive, with packets named by pid.

    ``on_stalled`` counts ``(slot, pid)`` pairs: ``array`` replays a
    switch's stalled heads in one call, the scan reports each head in
    its own.  The hooks hold ``sim`` weakly: a cycle through it would
    keep every simulator and its calls alive until a full collection,
    which slows the tests that run after these."""
    calls = Counter()
    clock = weakref.proxy(sim)

    def wrap(label, fn):
        def hook(*args):
            if label == "metrics.on_stalled":
                pids, slot = args
                calls.update((slot, label, pid) for pid in pids)
            else:
                key = tuple(getattr(a, "pid", a) for a in args)
                calls[(clock.slot, label, key)] += 1
            return fn(*args)

        return hook

    for owner in ("metrics", "injection"):
        obj = getattr(sim, owner)
        for name in dir(obj):
            if name.startswith("on_"):
                setattr(obj, name, wrap(f"{owner}.{name}", getattr(obj, name)))
    return calls


def _hook_calls(backend, mechanism, traffic, offered, faulted):
    topo = HyperX((4, 4), 4)
    net = Network(topo)
    links = random_connected_fault_sequence(topo, 2, rng=1)
    sim = make_simulator(
        _alt_config(backend), net, make_mechanism(mechanism, net, rng=3),
        make_traffic(traffic, net, 3), offered=offered, seed=3,
        fault_schedule=(
            FaultSchedule.down_then_up(100, 200, links) if faulted else None
        ),
    )
    calls = _observe_hooks(sim)
    sim.run(warmup=60, measure=200)
    return calls


def _collective_hook_calls(backend):
    # A ring all-reduce drained through a failure of the row-closing
    # links, the only ones holding queued packets: drops re-queue at the
    # source, so on_dropped / on_delivered run on the retransmit path.
    topo = HyperX((4, 4), 4)
    net = Network(topo)
    injection = CollectiveInjection(
        net.n_servers,
        make_collective("allreduce_ring", net.n_servers, chunk_packets=4),
    )
    links = [(4 * row, 4 * row + 3) for row in range(4)]
    sim = make_simulator(
        _alt_config(backend), net, make_mechanism("PolSP", net, rng=3),
        CollectiveTraffic(net, injection), injection=injection, offered=1.0,
        seed=3, fault_schedule=FaultSchedule.down_then_up(20, 80, links),
    )
    calls = _observe_hooks(sim)
    result = sim.run_until_drained(max_slots=20_000)
    assert result.completion_slot is not None
    assert injection.retransmitted > 0
    return calls


@pytest.mark.parametrize("alt", ALT_BACKENDS)
@pytest.mark.parametrize("point", HOOK_POINTS, ids=lambda p: "-".join(map(str, p)))
def test_every_hook_sees_the_same_calls(point, alt):
    ref = _hook_calls("slot", *point)
    assert ref == _hook_calls(alt, *point)
    assert HOOK_POINTS[point] <= {label for _slot, label, _args in ref}


@pytest.mark.parametrize("alt", ALT_BACKENDS)
def test_every_hook_sees_the_same_calls_on_a_drain(alt):
    assert _collective_hook_calls("slot") == _collective_hook_calls(alt)
