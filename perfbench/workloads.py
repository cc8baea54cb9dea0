"""The six benchmark workloads: what each builds, runs, checks and traces.

Every workload answers the same five questions, and nothing else in the
harness knows what a workload is made of:

* :meth:`Workload.setup` — build everything up to *ready to step*
  (``setup_s``; never inside ``wall_s``), reporting each layer's build
  through the tracer;
* :meth:`Workload.run` — the timed region (``wall_s``): the call a user
  of the reproduction makes, returning the records it produced;
* :meth:`Workload.differential` — for the non-``slot`` workloads, a short
  prefix run on ``slot`` and on the workload's backend that must agree
  byte for byte (outside the timed region);
* :meth:`Workload.probe` — traced runs only: direct calls into single
  layer functions (one candidate lookup, one destination draw, one
  topology change) on a private, warmed simulator;
* ``why`` — the reason the workload is in the set.

All RNG inputs — traffic seed, simulator seed, fault sequence — derive
from the one ``seed`` argument.  Sizes are chosen so one timed unit takes
2–4 s on the 2-core reference host: the run loop repeats units until it
has measured for ``--seconds`` and reports the median (see ``bench.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # The benchmark measures the program beside it; alone it has nothing
    # to run (and must not fall back to some other installed copy).
    raise SystemExit(f"perfbench: no src/repro under {ROOT}: need a full checkout")
sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.executor import (  # noqa: E402
    ParallelExecutor,
    SerialExecutor,
    encode_json_safe,
    job_key,
    make_record,
)
from repro.experiments.figures import fig1_diameter_under_failures  # noqa: E402
from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.experiments.sweeps import load_sweep_jobs  # noqa: E402
from repro.routing.catalog import MECHANISMS, make_mechanism  # noqa: E402
from repro.seeding import as_generator  # noqa: E402
from repro.simulator.backends import make_simulator  # noqa: E402
from repro.simulator.collective import CollectiveInjection, make_collective  # noqa: E402
from repro.simulator.config import PAPER_CONFIG  # noqa: E402
from repro.simulator.schedule import FaultSchedule  # noqa: E402
from repro.topology.base import Network  # noqa: E402
from repro.topology.catalog import make_topology  # noqa: E402
from repro.topology.faults import random_connected_fault_sequence  # noqa: E402
from repro.topology.graph import diameter_or_none  # noqa: E402
from repro.topology.hyperx import HyperX  # noqa: E402
from repro.traffic import CollectiveTraffic, make_traffic  # noqa: E402
from repro.updown.escape import EscapeSubnetwork  # noqa: E402

from tracing import OFF, Tracer  # noqa: E402

#: Scratch space for sweep caches and traces; inside the checkout (the
#: benchmark may write nowhere else) and already gitignored.
SCRATCH = ROOT / ".benchmarks"

PHASES = ("eject", "allocate", "transmit", "inject")
GRANT_SUBPHASES = ("predraw", "select", "commit", "fallback")


def fingerprint(payload: Any) -> str:
    """SHA-256 of the canonical (sorted, strict) JSON of ``payload``."""
    blob = json.dumps(encode_json_safe(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Outcome:
    """What one timed unit produced."""

    wall_s: float
    #: The records the fingerprint hashes.
    payload: Any
    #: Operations attempted (sweep points, simulator runs, Fig-1 sequences).
    ops: int
    #: One line per operation that failed inside the unit.
    failures: list[str] = field(default_factory=list)
    #: Exact simulated counts and traced layer numbers, by metric name.
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class; see the module docstring for the contract."""

    name = ""
    why = ""
    #: Sizes by scale; ``smoke`` is ~1/20 of ``full`` for the self-tests.
    sizes: dict[str, dict[str, Any]] = {}

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.size = self.sizes["smoke" if smoke else "full"]

    def setup(self, seed: int, tr: Tracer) -> Any:
        raise NotImplementedError

    def run(self, built: Any, tr: Tracer) -> Outcome:
        raise NotImplementedError

    def differential(self, seed: int) -> tuple[int, list[str]]:
        """``(operations attempted, failures)`` of the backend cross-check."""
        return 0, []

    def probe(self, seed: int) -> dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
@dataclass
class BuiltSim:
    network: Network
    mechanism: Any
    traffic: Any
    sim: Any
    injection: Any = None


def end_state_probe(sim: Any) -> tuple:
    """The end state two backends must share after identical runs; the
    last entry is the next draw of the simulator's RNG stream."""
    return (
        sim.in_flight,
        sim.next_pid,
        float(sim.state.credits.sum()),
        int(sim.state.packets.live),
        int(sim.rng.integers(1 << 30)),
    )


def instrument_simulator(built: BuiltSim, tr: Tracer) -> None:
    """Shadow the simulator's phase hooks (and the routing / traffic calls
    made from inside them) on this one instance, so the program's own
    ``run()`` loop drives them while the tracer sees every boundary."""
    if not tr.enabled:
        return
    sim = built.sim
    n_switches = sim.network.n_switches

    def active_share() -> None:
        tr.add("simulator.active_switches", len(sim.alloc_switches()) / n_switches)

    tr.wrap(sim, "step", "simulator.step")
    tr.wrap(sim, "_eject", "simulator.eject")
    tr.wrap(sim, "_allocate", "simulator.allocate", before=active_share)
    tr.wrap(sim, "_transmit", "simulator.transmit")
    tr.wrap(sim, "_inject", "simulator.inject")
    tr.wrap(sim, "_apply_scheduled_events", "simulator.fault_event")
    tr.wrap(built.mechanism, "on_topology_change", "routing.topology_change")
    escape = getattr(built.mechanism, "escape", None)
    if escape is not None:
        tr.wrap(escape, "rebuild", "updown.escape_rebuild")
    tr.time_calls(built.mechanism, "candidates", "routing.candidates")
    tr.time_calls(sim.traffic, "destination", "traffic.destination")
    if sim.backend_name == "array":
        sim.enable_grant_profile()


def simulator_layers(built: BuiltSim, result: Any, wall_s: float) -> dict[str, float]:
    """Exact simulated counts read off a finished simulator."""
    sim = built.sim
    hops = int(sim.state.link_tx.sum())
    out = {
        "simulator.slots": sim.slot,
        "simulator.hops": hops,
        "simulator.delivered": result.delivered,
        "simulator.stalled_packets": result.stalled_packets,
        "simulator.dropped_packets": result.dropped_packets,
        "simulator.slots_per_s": sim.slot / wall_s,
        "simulator.us_per_hop": 1e6 * wall_s / max(hops, 1),
        "updown.escape_hop_fraction": result.escape_hop_fraction,
    }
    stats = getattr(sim, "grant_stats", None)
    if stats is not None:
        attempts = sum(stats.values())
        out["simulator.array.plan_hits"] = stats["plan_hits"]
        out["simulator.array.select_rebuilds"] = stats["select_rebuilds"]
        out["simulator.array.fallback_rebuilds"] = stats["fallback_rebuilds"]
        out["simulator.array.plan_hit_ratio"] = stats["plan_hits"] / max(attempts, 1)
        profile = sim.grant_profile or {}
        for sub in GRANT_SUBPHASES:
            out[f"simulator.array.{sub}_s"] = profile.get(sub, 0.0)
    return out


class SimWorkload(Workload):
    """One PolSP simulator point on one backend, optionally with a
    fail-then-repair schedule.  Subclasses name the topology and sizes."""

    #: Engine backend; a non-``slot`` one is cross-checked against ``slot``.
    backend = "slot"
    traffic_name = "uniform"
    offered = 0.5
    series_interval: int | None = None

    def topology(self) -> Any:
        raise NotImplementedError

    def schedule(self, topo: Any, seed: int, tr: Tracer) -> FaultSchedule | None:
        return None

    def make_injection(self, network: Network) -> Any:
        return None

    def build(self, seed: int, tr: Tracer, backend: str, scheduled: bool = True) -> BuiltSim:
        with tr.span("topology.network_build"):
            topo = self.topology()
            network = Network(topo)
        schedule = self.schedule(topo, seed, tr) if scheduled else None
        with tr.span("updown.escape_build"):
            escape = EscapeSubnetwork(network, 0)
        with tr.span("routing.mechanism_build"):
            mechanism = make_mechanism("PolSP", network, escape=escape, rng=seed + 1)
        with tr.span("traffic.build"):
            injection = self.make_injection(network)
            if injection is not None:
                traffic = CollectiveTraffic(network, injection)
            else:
                traffic = make_traffic(self.traffic_name, network, seed)
        with tr.span("simulator.construct"):
            sim = make_simulator(
                PAPER_CONFIG.with_(backend=backend), network, mechanism, traffic,
                offered=self.offered, injection=injection, seed=seed,
                series_interval=self.series_interval, fault_schedule=schedule,
            )
        return BuiltSim(network, mechanism, traffic, sim, injection)

    def setup(self, seed: int, tr: Tracer) -> BuiltSim:
        return self.build(seed, tr, self.backend)

    def drive(self, sim: Any) -> Any:
        """The user-facing call that the timed region consists of."""
        return sim.run(warmup=self.size["warmup"], measure=self.size["measure"])

    def run(self, built: BuiltSim, tr: Tracer) -> Outcome:
        instrument_simulator(built, tr)
        t0 = perf_counter()
        with tr.span("simulator.run"):
            result = self.drive(built.sim)
        wall_s = perf_counter() - t0
        failures = []
        if result.deadlocked:
            failures.append(f"{self.name}: simulator deadlocked at slot {built.sim.slot}")
        return Outcome(
            wall_s, asdict(result), 1, failures, simulator_layers(built, result, wall_s)
        )

    def differential(self, seed: int) -> tuple[int, list[str]]:
        if self.backend == "slot":
            return 0, []
        prefix = self.size["prefix"]
        seen = {}
        for backend in ("slot", self.backend):
            sim = self.build(seed, OFF, backend, scheduled=False).sim
            result = sim.run(warmup=prefix // 3, measure=prefix - prefix // 3)
            seen[backend] = fingerprint([asdict(result), end_state_probe(sim)])
            del sim
        if seen["slot"] != seen[self.backend]:
            return 2, [
                f"{self.name}: {self.backend} and slot disagree after a "
                f"{prefix}-slot prefix (result or end-state probe)"
            ]
        return 2, []

    def probe(self, seed: int) -> dict[str, float]:
        built = self.build(seed, OFF, self.backend, scheduled=False)
        return probe_simulator(built, self.size["probe_slots"], seed)


def probe_simulator(built: BuiltSim, slots: int, seed: int) -> dict[str, float]:
    """Direct calls into single layer functions on a warmed simulator
    nobody else uses: candidate lookups over a snapshot of its head-of-line
    packets, destination draws, and one topology change."""
    sim, mech = built.sim, built.mechanism
    for _ in range(slots):
        sim.step()
    heads = [
        (q[0], sw.sid)
        for sw in sim.switches
        for q in sw.in_q
        if q and q[0].dst_switch != sw.sid
    ]
    out = {}
    if heads:
        rounds = max(1, 20_000 // len(heads))
        t0 = perf_counter()
        for _ in range(rounds):
            for pkt, sid in heads:
                mech.candidates(pkt, sid)
        out["routing.candidates_us"] = 1e6 * (perf_counter() - t0) / (rounds * len(heads))
    # Destination draws from a private generator: the simulator's own
    # streams are never touched (collective traffic reads its FIFO head,
    # which only exists while something is pending).
    rng = as_generator(seed)
    if built.injection is None:
        servers = list(range(sim.network.n_servers))
    else:
        servers = built.injection.attempts(sim.slot, rng).tolist()
    if servers:
        rounds = max(1, 20_000 // len(servers))
        t0 = perf_counter()
        for _ in range(rounds):
            for server in servers:
                built.traffic.destination(server, rng)
        out["traffic.destination_us"] = (
            1e6 * (perf_counter() - t0) / (rounds * len(servers))
        )
    link = built.network.live_links()[0]
    built.network.apply_fault(link)
    t0 = perf_counter()
    mech.on_topology_change()
    out["routing.topology_change_s"] = perf_counter() - t0
    return out


class DenseHotspotArray(SimWorkload):
    name = "dense_hotspot_array"
    why = (
        "array backend under hotspot congestion: a fill phase of scalar rebuilds, "
        "then plan replay; the guard for any change to the plan cache"
    )
    backend = "array"
    traffic_name = "hotspot"
    offered = 0.7
    sizes = {
        "full": {"side": 8, "warmup": 250, "measure": 1500, "prefix": 25, "probe_slots": 40},
        "smoke": {"side": 4, "warmup": 20, "measure": 60, "prefix": 10, "probe_slots": 10},
    }

    def topology(self) -> Any:
        side = self.size["side"]
        return HyperX((side, side), side)


class MeshAllocArray(SimWorkload):
    name = "mesh_alloc_array"
    why = (
        "same array code, opposite regime: small-radix mesh where credit feedback "
        "kills every plan (zero hits, all fallback rebuilds); allocate is the lever"
    )
    backend = "array"
    traffic_name = "hotspot"
    offered = 0.5
    sizes = {
        "full": {"side": 6, "warmup": 100, "measure": 150, "prefix": 40, "probe_slots": 60},
        "smoke": {"side": 4, "warmup": 10, "measure": 15, "prefix": 10, "probe_slots": 10},
    }

    def topology(self) -> Any:
        side = self.size["side"]
        return make_topology("mesh", side=side, servers_per_switch=side)


class SparseTransientEvent(SimWorkload):
    name = "sparse_transient_event"
    why = (
        "event backend on a big, 6%-active torus with a fail-then-repair schedule: "
        "scalar arbiters, online escape rebuild in the timed region, largest set-up"
    )
    backend = "event"
    traffic_name = "uniform"
    offered = 0.002
    series_interval = 50
    sizes = {
        "full": {"side": 28, "faults": 4, "warmup": 300, "measure": 1000,
                 "down": 500, "up": 900, "prefix": 150, "probe_slots": 300},
        "smoke": {"side": 10, "faults": 2, "warmup": 30, "measure": 100,
                  "down": 50, "up": 90, "prefix": 30, "probe_slots": 30},
    }

    def topology(self) -> Any:
        return make_topology("torus", side=self.size["side"], servers_per_switch=1)

    def schedule(self, topo: Any, seed: int, tr: Tracer) -> FaultSchedule:
        with tr.span("topology.fault_sequence"):
            links = random_connected_fault_sequence(
                topo, self.size["faults"], rng=seed + 7
            )
        return FaultSchedule.down_then_up(self.size["down"], self.size["up"], links)


class AllreduceDrainSlot(SimWorkload):
    name = "allreduce_drain_slot"
    why = (
        "closed loop beside five open loops: ring all-reduce drained through a link "
        "failure (drop, retransmit, repair); few packets, per-slot fixed cost dominates"
    )
    offered = 1.0
    sizes = {
        "full": {"chunk_packets": 16, "down": 500, "up": 1200, "probe_slots": 200},
        "smoke": {"chunk_packets": 2, "down": 40, "up": 100, "probe_slots": 20},
    }

    def topology(self) -> Any:
        return HyperX((4, 4), 4)

    def schedule(self, topo: Any, seed: int, tr: Tracer) -> FaultSchedule:
        # The ring's consecutive-server transfers that leave a row take a
        # two-hop route and share the row-closing links (4r, 4r+3): the
        # only links with packets *queued* at a slot boundary, so the only
        # ones whose failure drops anything (three quarters of ring hops
        # are intra-switch, and a lone flow drains its link every slot).
        links = [(4 * row, 4 * row + 3) for row in range(4)]
        return FaultSchedule.down_then_up(self.size["down"], self.size["up"], links)

    def make_injection(self, network: Network) -> CollectiveInjection:
        policy = make_collective(
            "allreduce_ring", network.n_servers,
            chunk_packets=self.size["chunk_packets"],
        )
        return CollectiveInjection(network.n_servers, policy)

    def drive(self, sim: Any) -> Any:
        return sim.run_until_drained(max_slots=500_000)

    def run(self, built: BuiltSim, tr: Tracer) -> Outcome:
        out = super().run(built, tr)
        result = out.payload
        out.payload = [result, built.injection.retransmitted]
        if result["completion_slot"] is None:
            out.failures.append(f"{self.name}: collective did not drain")
        if not self.smoke and result["dropped_packets"] == 0:
            out.failures.append(
                f"{self.name}: the link failure dropped nothing, so the "
                "retransmit path this workload exists for never ran"
            )
        out.layers["simulator.collective.retransmitted"] = built.injection.retransmitted
        out.layers["simulator.collective.jct_cycles"] = result["jct_cycles"] or 0
        out.layers["simulator.drain_s"] = out.wall_s
        return out


# ----------------------------------------------------------------------
# The Figure-4 path: sweep jobs through the executor and its cache
# ----------------------------------------------------------------------
@dataclass
class BuiltSweep:
    jobs: list
    #: Every point's simulator, constructed and left unstepped: set-up is
    #: "ready to step", and the timed region builds its own.
    simulators: list


def build_point_simulator(runner: ExperimentRunner, job: Any, tr: Tracer) -> BuiltSim:
    """``ExperimentRunner.build_simulator`` for a static job, one layer per
    span.  The sweep's traced pass checks its records against the
    executor's, so this cannot drift from the real path unnoticed."""
    spec = job.spec
    escape = None
    if spec.mechanism.lower() in ("omnisp", "polsp"):
        with tr.span("updown.escape_build"):
            escape = runner.escape
    with tr.span("routing.mechanism_build"):
        mechanism = make_mechanism(
            spec.mechanism, runner.network, spec.n_vcs, escape=escape,
            root=runner.root, rng=spec.seed + 1,
        )
    with tr.span("traffic.build"):
        traffic = runner.traffic(spec.traffic, spec.seed)
    with tr.span("simulator.construct"):
        sim = make_simulator(
            runner.config, runner.network, mechanism, traffic,
            offered=spec.offered, seed=spec.seed,
        )
    return BuiltSim(runner.network, mechanism, traffic, sim)


class TracedSerialExecutor(SerialExecutor):
    """``SerialExecutor`` whose points run through instrumented simulators.

    ``_execute`` is the executor's documented strategy hook; the cache
    logic around it is the real one.  Each job gets a span, its simulator
    the phase wrappers, and the summed simulator counts are kept.
    """

    def __init__(self, cache_dir: Path, tr: Tracer) -> None:
        super().__init__(cache_dir=cache_dir)
        self.tr = tr
        self.executed = 0
        self.layers: dict[str, float] = {}
        self.runner: ExperimentRunner | None = None
        tr.wrap(self, "_cache_load", "experiments.cache_load")
        tr.wrap(self, "_cache_store", "experiments.cache_store")

    def _execute(self, jobs: Any) -> list[dict]:
        records = []
        for job in jobs:
            self.executed += 1
            with self.tr.span("experiments.run_job"):
                if self.runner is None:
                    with self.tr.span("topology.network_build"):
                        self.runner = ExperimentRunner(
                            job.network(), config=job.config, root=job.spec.root
                        )
                built = build_point_simulator(self.runner, job, self.tr)
                instrument_simulator(built, self.tr)
                t0 = perf_counter()
                result = built.sim.run(warmup=job.warmup, measure=job.measure)
                counts = simulator_layers(built, result, perf_counter() - t0)
                for key in ("slots", "hops", "delivered", "stalled_packets",
                            "dropped_packets"):
                    name = f"simulator.{key}"
                    self.layers[name] = self.layers.get(name, 0) + counts[name]
                records.append(make_record(job, result))
        return records


class LoadsweepSlot(Workload):
    name = "loadsweep_slot"
    why = (
        "the Figure-4 path users run: sweep jobs -> executor -> result cache, cold "
        "then warm, slot engine on all six mechanisms; no array or event code runs"
    )
    sizes = {
        "full": {"loads": (0.3, 0.6, 0.9), "warmup": 20, "measure": 40, "probe_slots": 60},
        "smoke": {"loads": (0.6,), "warmup": 5, "measure": 10, "probe_slots": 10},
    }

    def jobs(self, seed: int) -> list:
        return load_sweep_jobs(
            Network(HyperX((4, 4), 4)), MECHANISMS, ("uniform", "randperm"),
            self.size["loads"], warmup=self.size["warmup"],
            measure=self.size["measure"], seed=seed,
        )

    def setup(self, seed: int, tr: Tracer) -> BuiltSweep:
        with tr.span("experiments.jobs_build"):
            jobs = self.jobs(seed)
        with tr.span("topology.network_build"):
            runner = ExperimentRunner(jobs[0].network(), config=jobs[0].config)
        return BuiltSweep(jobs, [build_point_simulator(runner, j, tr).sim for j in jobs])

    def run(self, built: BuiltSweep, tr: Tracer) -> Outcome:
        jobs = built.jobs
        SCRATCH.mkdir(exist_ok=True)
        cache_dir = Path(tempfile.mkdtemp(prefix="sweep-cache-", dir=SCRATCH))
        try:
            if tr.enabled:
                cold_ex = warm_ex = TracedSerialExecutor(cache_dir, tr)
            else:
                cold_ex = SerialExecutor(cache_dir=cache_dir)
                warm_ex = SerialExecutor(cache_dir=cache_dir)
            t0 = perf_counter()
            with tr.span("experiments.sweep_cold"):
                cold = cold_ex.run(jobs)
            t1 = perf_counter()
            with tr.span("experiments.sweep_warm"):
                warm = warm_ex.run(jobs)
            t2 = perf_counter()
            cached = len(list(cache_dir.glob("*.json")))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        failures = []
        if fingerprint(warm) != fingerprint(cold):
            failures.append(f"{self.name}: warm (cached) records differ from cold ones")
        if cached != len(jobs):
            failures.append(f"{self.name}: {cached} cache entries for {len(jobs)} jobs")
        failures += [
            f"{self.name}: {r['mechanism']}/{r['traffic']}@{r['offered']} deadlocked"
            for r in cold if r["deadlocked"]
        ]
        layers = {
            "experiments.warm_sweep_s": t2 - t1,
            "experiments.points_per_s": len(jobs) / (t1 - t0),
        }
        if tr.enabled:
            layers.update(cold_ex.layers)
            # Hits of the warm pass: every job the executor did not have
            # to execute again.
            executed_warm = cold_ex.executed - len(jobs)
            layers["experiments.cache_hit_ratio"] = 1.0 - executed_warm / len(jobs)
            wall = t2 - t0
            layers["simulator.slots_per_s"] = layers["simulator.slots"] / wall
            layers["simulator.us_per_hop"] = 1e6 * wall / max(layers["simulator.hops"], 1)
        return Outcome(t2 - t0, cold, 2 * len(jobs), failures, layers)

    def probe(self, seed: int) -> dict[str, float]:
        jobs = self.jobs(seed)
        out = {}
        t0 = perf_counter()
        for job in jobs:
            job_key(job)
        out["experiments.job_key_us"] = 1e6 * (perf_counter() - t0) / len(jobs)
        t0 = perf_counter()
        blobs = [pickle.dumps(job) for job in jobs]
        out["experiments.pickle_us_per_job"] = 1e6 * (perf_counter() - t0) / len(jobs)
        out["experiments.pickle_bytes_per_job"] = sum(map(len, blobs)) / len(jobs)
        # The pool the program's ParallelExecutor starts (default context),
        # measured the way it uses it; never more workers than cores.
        workers = min(2, os.cpu_count() or 1)
        t0 = perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(abs, range(workers)))
            out["experiments.pool_startup_s"] = perf_counter() - t0
        t0 = perf_counter()
        serial = SerialExecutor().run(jobs)
        t1 = perf_counter()
        parallel = ParallelExecutor(jobs=workers).run(jobs)
        t2 = perf_counter()
        if fingerprint(parallel) != fingerprint(serial):
            raise AssertionError("parallel executor records differ from serial ones")
        out["experiments.parallel_speedup"] = (t1 - t0) / (t2 - t1)
        # One PolSP point of the sweep, warmed, for the routing/traffic probes.
        job = next(j for j in jobs if j.spec.mechanism == "PolSP" and j.spec.offered == 0.6)
        runner = ExperimentRunner(job.network(), config=job.config)
        built = build_point_simulator(runner, job, OFF)
        out.update(probe_simulator(built, self.size["probe_slots"], seed))
        return out


# ----------------------------------------------------------------------
# Paper Figure 1: pure graph computation
# ----------------------------------------------------------------------
@dataclass
class BuiltFig1:
    seed: int
    topology: Any
    links: list
    healthy_diameter: int | None


class Fig1Diameter(Workload):
    name = "fig1_diameter"
    why = (
        "paper Figure 1 at full 8x8x8 scale: Network construction + all-pairs "
        "distances only; a topology change shows here, an engine change must not"
    )
    sizes = {
        "full": {"sides": (8, 8, 8), "n_sequences": 6, "step": 384},
        "smoke": {"sides": (4, 4, 4), "n_sequences": 2, "step": 24},
    }

    def setup(self, seed: int, tr: Tracer) -> BuiltFig1:
        with tr.span("topology.network_build"):
            topo = HyperX(self.size["sides"], 1)
            links = topo.links()
            network = Network(topo)
        with tr.span("topology.diameter"):
            healthy = diameter_or_none(network)
        return BuiltFig1(seed, topo, links, healthy)

    def run(self, built: BuiltFig1, tr: Tracer) -> Outcome:
        size = self.size
        t0 = perf_counter()
        with tr.span("experiments.fig1"):
            if tr.enabled:
                curves = self.traced_curves(built, tr)
            else:
                curves = fig1_diameter_under_failures(
                    sides=size["sides"], n_sequences=size["n_sequences"],
                    step=size["step"], seed=built.seed,
                )
        wall_s = perf_counter() - t0
        failures = [
            f"{self.name}: sequence {c['sequence']} starts at "
            f"{c['points'][:1]}, the healthy diameter is {built.healthy_diameter}"
            for c in curves
            if not c["points"] or c["points"][0] != (0, built.healthy_diameter)
        ]
        calls = sum(len(c["points"]) + (c["disconnect_at"] is not None) for c in curves)
        return Outcome(
            wall_s, curves, len(curves), failures, {"topology.diameter_calls": calls}
        )

    def traced_curves(self, built: BuiltFig1, tr: Tracer) -> list[dict]:
        """The Figure-1 driver's loop over the same public layer calls,
        one span per call; the run loop checks that its curves fingerprint
        like the driver's own."""
        links, topo = built.links, built.topology
        rng = as_generator(built.seed)
        curves = []
        for seq in range(self.size["n_sequences"]):
            order = rng.permutation(len(links))
            points, disconnect_at = [], None
            for count in range(0, len(links) + 1, self.size["step"]):
                with tr.span("topology.network_build"):
                    network = Network(topo, [links[i] for i in order[:count]])
                with tr.span("topology.diameter"):
                    diam = diameter_or_none(network)
                if diam is None:
                    disconnect_at = count
                    break
                points.append((count, diam))
            curves.append({
                "sequence": seq, "points": points,
                "disconnect_at": disconnect_at, "total_links": len(links),
            })
        return curves


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        LoadsweepSlot, DenseHotspotArray, MeshAllocArray,
        SparseTransientEvent, Fig1Diameter, AllreduceDrainSlot,
    )
}


#: Build calls every workload reports through the tracer; each becomes
#: the per-layer metric ``<span>_s``, summed over the traced unit's set-up
#: and its timed run (the sweep and Figure 1 also build inside the run).
BUILD_SPANS = (
    "topology.network_build", "topology.fault_sequence", "topology.diameter",
    "updown.escape_build", "routing.mechanism_build", "traffic.build",
    "simulator.construct", "experiments.jobs_build",
)
MODULES = ("topology", "routing", "updown", "traffic", "simulator", "experiments")


def span_layers(setup_tr: Tracer, run_tr: Tracer) -> dict[str, float]:
    """The per-layer metrics the spans of one traced unit give."""
    built, total, own = setup_tr.totals(), run_tr.totals(), run_tr.self_times()
    out = {f"{name}_s": built.get(name, 0.0) + total.get(name, 0.0) for name in BUILD_SPANS}
    for phase in PHASES:
        out[f"simulator.{phase}_s"] = total.get(f"simulator.{phase}", 0.0)
    out["simulator.fault_event_s"] = total.get("simulator.fault_event", 0.0)
    out["simulator.step_other_s"] = (
        own.get("simulator.step", 0.0) + own.get("simulator.run", 0.0)
    )
    calls, seconds = run_tr.leaves.get("routing.candidates", (0, 0.0))
    out["routing.candidates_calls"] = calls
    out["routing.candidates_s"] = seconds
    allocations = run_tr.names.count("simulator.allocate")
    out["simulator.event.active_switch_share"] = (
        run_tr.counts.get("simulator.active_switches", 0.0) / max(allocations, 1)
    )
    spans = list(zip(run_tr.names, run_tr.starts, run_tr.ends, run_tr.parents))
    points = [end - start for name, start, end, _ in spans if name == "experiments.run_job"]
    if points:
        out["experiments.point_s_p50"] = statistics.median(points)
        out["experiments.point_s_max"] = max(points)
        out["experiments.executor_overhead_s"] = (
            total["experiments.sweep_cold"] - sum(points)
        )
        out["experiments.cache_write_ms"] = (
            1e3 * total["experiments.cache_store"] / len(points)
        )
        # Loads under the warm sweep are the hits; the cold sweep's all miss.
        hits = [
            end - start
            for name, start, end, parent in spans
            if name == "experiments.cache_load"
            and run_tr.names[parent] == "experiments.sweep_warm"
        ]
        out["experiments.cache_read_ms"] = 1e3 * statistics.mean(hits)
    root = sum(end - start for _, start, end, parent in spans if parent < 0)
    for module in MODULES:
        share = sum(s for name, s in own.items() if name.split(".")[0] == module)
        out[f"trace.share.{module}"] = share / root
    return out
