"""Closed-loop drain-path parity: ``run_until_drained`` must produce
byte-identical :class:`SimResult`s on every backend.

The open-loop differential suite
(``tests/experiments/test_backend_equivalence.py``) exercises ``run``;
this one pins the *drain* loop — finite batches and collective DAGs run
to completion — whose termination condition (``in_flight == 0 and
injection.exhausted``) and completion-slot stamping must not drift
between the slot reference and the array engine, including
through mid-drain link failures and pipelined links.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.routing import make_mechanism
from repro.simulator import (
    BatchInjection,
    FaultSchedule,
    SimConfig,
    make_simulator,
)
from repro.topology.base import Network
from repro.topology.catalog import make_topology
from repro.topology.faults import random_connected_fault_sequence
from repro.traffic import make_traffic

ALT_BACKENDS = ("array",)


def _drain_batch(backend, topo, mechanism, traffic, *, seed=0,
                 packets=30, cfgkw=None, schedule=None):
    net = Network(topo)
    injection = BatchInjection(net.n_servers, packets)
    sim = make_simulator(
        SimConfig(backend=backend, **(cfgkw or {})),
        net,
        make_mechanism(mechanism, net),
        make_traffic(traffic, net, seed),
        injection=injection,
        seed=seed,
        series_interval=25,
        fault_schedule=schedule,
    )
    return asdict(sim.run_until_drained(max_slots=100_000))


@pytest.mark.parametrize("mechanism,traffic,seed", [
    ("minimal", "uniform", 0),
    ("polsp", "rpn", 1),
    ("omnisp", "randperm", 2),
])
def test_batch_drain_byte_identical(mechanism, traffic, seed):
    topo = make_topology("hyperx", side=4, servers_per_switch=2)
    ref = _drain_batch("slot", topo, mechanism, traffic, seed=seed)
    assert ref["completion_slot"] is not None
    assert ref["jct_cycles"] == ref["completion_slot"] * 16
    for backend in ALT_BACKENDS:
        got = _drain_batch(backend, topo, mechanism, traffic, seed=seed)
        assert got == ref, backend


@pytest.mark.parametrize("cfgkw", [
    {"link_latency_slots": 3},
    {"rng_streams": "split"},
])
def test_batch_drain_microarch_variants(cfgkw):
    topo = make_topology("hyperx", side=4, servers_per_switch=2)
    ref = _drain_batch("slot", topo, "polsp", "uniform", cfgkw=cfgkw)
    assert ref["completion_slot"] is not None
    for backend in ALT_BACKENDS:
        got = _drain_batch(backend, topo, "polsp", "uniform", cfgkw=cfgkw)
        assert got == ref, backend


def test_batch_drain_through_fault_schedule():
    # Links fail mid-drain and repair before the batch finishes: the
    # purge/retry dynamics must not desynchronise the backends.
    topo = make_topology("hyperx", side=4, servers_per_switch=2)
    links = random_connected_fault_sequence(topo, 2, rng=5)
    ref = _drain_batch(
        "slot", topo, "polsp", "uniform",
        schedule=FaultSchedule.down_then_up(10, 60, links),
    )
    assert ref["completion_slot"] is not None
    for backend in ALT_BACKENDS:
        got = _drain_batch(
            backend, topo, "polsp", "uniform",
            schedule=FaultSchedule.down_then_up(10, 60, links),
        )
        assert got == ref, backend


def test_batch_drain_on_torus():
    topo = make_topology("torus", side=4, servers_per_switch=2)
    ref = _drain_batch("slot", topo, "polsp", "uniform")
    assert ref["completion_slot"] is not None
    for backend in ALT_BACKENDS:
        assert _drain_batch(backend, topo, "polsp", "uniform") == ref
