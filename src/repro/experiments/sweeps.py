"""Parameter sweeps: every figure is a list of points, run and tabulated.

Sweeps are *declarative*: each ``*_jobs`` builder returns a flat work
list of fully-specified :class:`~repro.experiments.executor.PointJob`
objects — its own axis loop around :func:`load_sweep_jobs`, the one
block builder — and :func:`run_sweep` hands the list to an
:class:`~repro.experiments.executor.Executor` (serial by default,
process-parallel and/or disk-cached when the caller provides one).  Job
lists are plain lists, so a figure composes several sweeps with ``+``
and still pays for one executor run.  Columns that only name a job's
place in its sweep (topology, shape, microarchitecture...) travel as
``PointJob.labels`` and are stamped onto the record by the executor.
Sweep outputs are flat lists of records (plain dicts) so the reporting
module, the tests and external analysis can consume them
without custom types.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Sequence

from ..routing.catalog import default_n_vcs, supported_mechanisms
from ..simulator.collective import MAX_ENTRIES, CollectiveTooLarge, collective_entries
from ..simulator.config import PAPER_CONFIG, SimConfig
from ..simulator.injection import onoff_peak
from ..simulator.schedule import FaultSchedule
from ..simulator.workload import WorkloadSchedule
from ..topology.base import Network, Topology
from ..topology.faults import random_connected_fault_sequence
from ..traffic import canonical_traffic_name, supported_traffics
from ..updown.roots import choose_root
from .executor import Executor, PointJob, SerialExecutor
from .runner import PointSpec

__all__ = [
    "DEFAULT_ARBITERS",
    "DEFAULT_INJECTIONS",
    "ablation_arbiter_jobs",
    "collective_sweep_jobs",
    "fault_sweep_jobs",
    "filter_records",
    "load_sweep_jobs",
    "run_sweep",
    "saturation_throughput",
    "supported_mechanisms",
    "supported_traffics",
    "topology_sweep_jobs",
    "with_labels",
    "workload_sweep_jobs",
]


def run_sweep(jobs: list[PointJob], executor: Executor | None = None) -> list[dict]:
    """Run a job list to its records (same order), serially by default."""
    return (executor if executor is not None else SerialExecutor()).run(jobs)


def with_labels(jobs: Iterable[PointJob], **labels: Any) -> list[PointJob]:
    """Copies of ``jobs`` carrying extra label columns (after their own)."""
    extra = tuple(labels.items())
    return [replace(job, labels=job.labels + extra) for job in jobs]


def _validate_traffics(
    network: Network, traffics: Sequence[str], extra: Sequence[str] = ()
) -> None:
    """Reject structurally impossible patterns before any job runs.

    Every sweep validates its full pattern list against the network
    upfront (patterns depend on the topology, never on the fault set), so
    a bad request fails with one clean error naming the patterns and the
    topology — not a ``TypeError`` mid-sweep inside a pool worker.  Names
    are canonicalised first: an alias ("Random Server Permutation", "bit
    reverse") validates exactly like its short name, and an unknown name
    raises the factory's typo error.
    """
    wanted = list(traffics) + list(extra)
    # Probe only the requested names; the full registry is constructed
    # lazily, for the error message alone (building every pattern per
    # validation call is measurable at paper scale).
    requested = {canonical_traffic_name(n) for n in wanted}
    ok = set(supported_traffics(network, tuple(sorted(requested))))
    bad = sorted({n for n in wanted if canonical_traffic_name(n) not in ok})
    if bad:
        supported = sorted(
            canonical_traffic_name(n) for n in supported_traffics(network)
        )
        raise ValueError(
            f"pattern(s) {bad} unsupported on "
            f"{type(network.topology).__name__}; supported: {supported}"
        )


def load_sweep_jobs(
    network: Network,
    mechanisms: Sequence[str],
    traffics: Sequence[str],
    loads: Sequence[float],
    *,
    warmup: int = 300,
    measure: int = 600,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    root: int = 0,
    n_vcs: int | None = None,
    schedule: FaultSchedule | None = None,
    series_interval: int | None = None,
    workload: WorkloadSchedule | None = None,
    labels: tuple[tuple[str, Any], ...] = (),
) -> list[PointJob]:
    """One job per (traffic, supported mechanism, load) on one network.

    The block every sweep is made of, in nested-loop order, and on its
    own the throughput/latency/Jain-versus-load sweep of Figures 4 and 5.
    With a single saturating load, 4 VCs and a structured-fault network
    it is the sweep behind Figures 8 and 9; with a fault ``schedule`` it
    plays mid-run link failures/repairs, and each record gains
    ``dropped``, ``schedule_events`` and the per-``series_interval``
    recovery ``series``.  Patterns (the workload schedule's phase
    patterns included) and the fault schedule are validated against the
    network before any job exists; a collective job's "traffic" is its
    collective name, which :class:`SimConfig` has already validated.
    """
    if config.collective == "none":
        _validate_traffics(
            network, traffics,
            extra=workload.pattern_names() if workload is not None else (),
        )
    if schedule is not None:
        schedule.validate(network.topology, network.faults)
    faults = tuple(sorted(network.faults))
    return [
        PointJob(
            topology=network.topology,
            faults=faults,
            spec=PointSpec(
                mechanism, traffic, offered, seed=seed, n_vcs=n_vcs, root=root
            ),
            warmup=warmup,
            measure=measure,
            config=config,
            schedule=schedule,
            series_interval=series_interval,
            workload=workload,
            labels=labels,
        )
        for traffic in traffics
        for mechanism in supported_mechanisms(network.topology, mechanisms)
        for offered in loads
    ]


def fault_sweep_jobs(
    topology: Topology,
    mechanisms: Sequence[str],
    traffics: Sequence[str],
    fault_counts: Sequence[int],
    *,
    offered: float = 1.0,
    warmup: int = 300,
    measure: int = 600,
    seed: int = 0,
    fault_seed: int = 12345,
    config: SimConfig = PAPER_CONFIG,
    root: int = 0,
    n_vcs: int | None = None,
) -> list[PointJob]:
    """Saturation throughput versus cumulative random faults (Figure 6).

    One random connected fault sequence is drawn; each requested count is
    a prefix of it, so fault sets are nested exactly as in the paper's
    "sequence of random faults" scenario.  SurePath mechanisms use 4 VCs
    by default here, matching §6 (pass ``n_vcs`` to override).
    """
    counts = sorted(set(int(c) for c in fault_counts))
    sequence = (
        random_connected_fault_sequence(topology, counts[-1], rng=fault_seed)
        if counts and counts[-1] > 0
        else []
    )
    jobs: list[PointJob] = []
    for count in counts:
        jobs += load_sweep_jobs(
            Network(topology, sequence[:count]), mechanisms, traffics,
            (offered,),
            warmup=warmup, measure=measure, seed=seed, config=config,
            root=root, n_vcs=4 if n_vcs is None else n_vcs,
        )
    return jobs


#: The arbiters the ablation sweeps by default, paper's rule first.
DEFAULT_ARBITERS = ("qp", "roundrobin", "age", "random")


def ablation_arbiter_jobs(
    network: Network,
    mechanisms: Sequence[str],
    traffics: Sequence[str],
    loads: Sequence[float],
    *,
    arbiters: Sequence[str] = DEFAULT_ARBITERS,
    flow_controls: Sequence[str] = ("vct",),
    link_latencies: Sequence[int] = (1,),
    warmup: int = 300,
    measure: int = 600,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    root: int = 0,
    n_vcs: int | None = None,
) -> list[PointJob]:
    """Sweep the router microarchitecture itself.

    The paper hardwires Q+P output selection, virtual cut-through and
    1-slot links; this sweep crosses arbiters x flow controls x link
    latencies over a load sweep and reports how much of the routing
    story each choice carries.  The component selection travels inside
    each job's ``SimConfig`` (so it enters the cache key); every record
    is a standard sweep record plus the ``arbiter`` / ``flow_control`` /
    ``link_latency`` labels and the combined ``microarch`` one.
    """
    jobs: list[PointJob] = []
    for arbiter in arbiters:
        for flow_control in flow_controls:
            for latency in link_latencies:
                latency = int(latency)
                jobs += load_sweep_jobs(
                    network, mechanisms, traffics, loads,
                    warmup=warmup, measure=measure, seed=seed,
                    config=config.with_(
                        arbiter=arbiter,
                        flow_control=flow_control,
                        link_latency_slots=latency,
                    ),
                    root=root, n_vcs=n_vcs,
                    labels=(
                        ("arbiter", arbiter),
                        ("flow_control", flow_control),
                        ("link_latency", latency),
                        ("microarch", f"{arbiter}/{flow_control}/L{latency}"),
                    ),
                )
    return jobs


#: Injection processes the workload sweep crosses by default.
DEFAULT_INJECTIONS = ("bernoulli", "onoff")


def workload_sweep_jobs(
    network: Network,
    mechanisms: Sequence[str],
    traffics: Sequence[str],
    loads: Sequence[float],
    *,
    injections: Sequence[str] = DEFAULT_INJECTIONS,
    burst_slots: int = 8,
    idle_slots: int = 8,
    workload: WorkloadSchedule | None = None,
    warmup: int = 300,
    measure: int = 600,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    root: int = 0,
    n_vcs: int | None = None,
) -> list[PointJob]:
    """Sweep mechanisms x traffic patterns x injection processes.

    The paper evaluates four patterns under steady-state Bernoulli
    injection only; this sweep crosses the full registered pattern
    catalog with bursty (on-off) and optionally phased workloads, one
    block per injection process.  Every job runs with
    ``rng_streams="split"`` — destination sequences then depend on the
    seed alone, so the bernoulli and on-off rows of the resulting table
    route *identical* traffic and differ only in arrival timing.  Every
    record is a standard sweep record plus the ``injection`` /
    ``burst_slots`` / ``idle_slots`` labels and the combined ``workload``
    row label — the process name plus its burst geometry when that
    matters, e.g. ``onoff(8/8)`` (and, for phased jobs,
    ``workload_events`` + the per-phase ``phase_series``).  With on-off
    injection a load above the duty cycle ``burst / (burst + idle)`` is
    rejected before any job exists: no on-off source can offer it.
    """
    burst_slots, idle_slots = int(burst_slots), int(idle_slots)
    if "onoff" in injections:  # fail before any job exists
        for load in loads:
            onoff_peak(load, burst_slots, idle_slots)
    jobs: list[PointJob] = []
    for injection in injections:
        name = (
            f"onoff({burst_slots}/{idle_slots})"
            if injection == "onoff"
            else injection
        )
        if workload is not None:
            name += f"+{len(workload)}ev"
        jobs += load_sweep_jobs(
            network, mechanisms, traffics, loads,
            warmup=warmup, measure=measure, seed=seed,
            config=config.with_(
                injection=injection,
                burst_slots=burst_slots,
                idle_slots=idle_slots,
                rng_streams="split",
            ),
            root=root, n_vcs=n_vcs, workload=workload,
            labels=(
                ("injection", injection),
                ("burst_slots", burst_slots),
                ("idle_slots", idle_slots),
                ("workload", name),
            ),
        )
    return jobs


def topology_sweep_jobs(
    networks: dict[str, Network | Topology],
    mechanisms: Sequence[str],
    traffics: Sequence[str],
    loads: Sequence[float],
    *,
    warmup: int = 300,
    measure: int = 600,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    root_strategy: str = "first",
    n_vcs: int | None = None,
) -> list[PointJob]:
    """Sweep mechanisms x traffic x load across topology *families*.

    ``networks`` maps display labels to :class:`Network` (or bare
    :class:`Topology`) instances; each job carries its label as the
    ``topology`` column.  One pattern/mechanism list serves every
    family: structurally impossible combinations (HyperX-only mechanisms,
    coordinate-bound or power-of-two patterns) are dropped *per topology*
    through the same filters single-topology sweeps use, so the job list
    contains exactly the cells that exist.  The escape root is chosen per
    topology by :func:`repro.updown.roots.choose_root` with
    ``root_strategy`` — the Up/Down tree has no canonical root on an
    asymmetric family like a fat-tree or a random graph.
    """
    jobs: list[PointJob] = []
    for label, net in networks.items():
        if not isinstance(net, Network):
            net = Network(net)
        jobs += load_sweep_jobs(
            net, mechanisms, supported_traffics(net, tuple(traffics)), loads,
            warmup=warmup, measure=measure, seed=seed, config=config,
            root=choose_root(net, root_strategy), n_vcs=n_vcs,
            labels=(("topology", label),),
        )
    return jobs


def collective_sweep_jobs(
    network: Network,
    mechanisms: Sequence[str],
    collectives: Sequence[str],
    *,
    schedules: Sequence[tuple[str, FaultSchedule | None]] = (("none", None),),
    chunk_packets: int = 1,
    max_slots: int = 100_000,
    series_interval: int | None = None,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    root: int = 0,
    n_vcs: int | None = None,
) -> list[PointJob]:
    """Run collectives to completion across mechanisms and fault schedules.

    One job per (fault-schedule, collective, mechanism) cell, all
    closed-loop: the collective name rides in ``config.collective`` (so
    it enters the cache key with everything else) *and* in
    ``spec.traffic`` (so the record's standard ``traffic`` column is
    self-describing).  ``max_slots`` becomes the job's ``measure`` — the
    drain budget — and ``warmup`` is 0 by the JCT convention.  Each
    record is a standard sweep record plus ``collective``,
    ``chunk_packets``, ``jct_cycles`` (``None`` when the budget ran out),
    ``completion_slot``, ``drained`` and ``retransmitted`` — the figure
    of merit is JCT, lower is better, with a fault mid-collective showing
    up as degradation rather than deadlock.

    ``schedules`` pairs a display label (the record's ``schedule``
    column) with a :class:`~repro.simulator.schedule.FaultSchedule` (or
    ``None`` for the healthy baseline); schedules are link-specific, so a
    multi-topology collective figure builds one such list per network
    (see ``fig_collectives``).

    ``n_vcs`` defaults to the fair ladder budget of the healthy topology
    (:func:`~repro.routing.catalog.default_n_vcs`), resolved here so
    each record names it: a ladder shorter than the family's routes
    strands packets until the watchdog records the run as deadlocked.
    Sizing on the healthy topology keeps a network that its faults
    split building, into its disconnected record.
    """
    for coll in collectives:
        entries = collective_entries(coll, network.n_servers)
        if entries > MAX_ENTRIES:
            raise CollectiveTooLarge(
                f"{coll} on {network.n_servers} servers is a {entries:,}-entry "
                f"policy, past the {MAX_ENTRIES:,} entries a collective sweep "
                "builds (see repro.simulator.collective.MAX_ENTRIES)"
            )
    if n_vcs is None:
        n_vcs = default_n_vcs(Network(network.topology))
    configs = [
        config.with_(collective=coll, chunk_packets=chunk_packets)
        for coll in collectives
    ]
    jobs: list[PointJob] = []
    for label, schedule in schedules:
        for cfg in configs:
            jobs += load_sweep_jobs(
                network, mechanisms, (cfg.collective,), (1.0,),
                warmup=0, measure=max_slots, seed=seed, config=cfg,
                root=root, n_vcs=n_vcs,
                schedule=schedule, series_interval=series_interval,
                labels=(("schedule", label),),
            )
    return jobs


# ----------------------------------------------------------------------
# Record helpers
# ----------------------------------------------------------------------
def filter_records(
    records: Iterable[dict], **criteria
) -> list[dict]:
    """Records matching all the given key=value criteria."""
    out = []
    for rec in records:
        if all(rec.get(k) == v for k, v in criteria.items()):
            out.append(rec)
    return out


def saturation_throughput(records: Iterable[dict], mechanism: str, traffic: str) -> float:
    """Highest accepted load seen for one (mechanism, traffic) curve."""
    accs = [
        r["accepted"]
        for r in records
        if r["mechanism"] == mechanism and r["traffic"] == traffic
    ]
    if not accs:
        raise ValueError(f"no records for {mechanism}/{traffic}")
    return max(accs)
