"""Drivers regenerating every table and figure of the paper's evaluation.

Each ``fig*`` function returns plain JSON-able data (lists of records /
curves) shaped like the paper's plot, which the CLI renders as ASCII
tables.  One driver serves both dimensionalities of a figure kind through
``dims`` (Figures 4/5, 6, 8/9).  Every driver takes a ``scale`` preset (see
:mod:`repro.experiments.scales`); ``"paper"`` reproduces the exact paper
topologies.
"""

from __future__ import annotations

from ..routing.catalog import MECHANISM_REGISTRY, MECHANISMS
from ..seeding import as_generator
from ..simulator.config import PAPER_CONFIG, SimConfig, table2_rows
from ..simulator.injection import onoff_duty
from ..simulator.schedule import FaultSchedule
from ..topology.base import Network
from ..topology.faults import (
    random_connected_fault_sequence,
    shape_faults,
    shape_root,
)
from ..topology.graph import diameter_or_none
from ..topology.hyperx import HyperX
from ..traffic import supported_traffics
from ..updown.roots import choose_root
from .runner import ExperimentRunner
from .scales import Scale, get_scale, scaled_topology
from .sweeps import (
    DEFAULT_ARBITERS,
    DEFAULT_INJECTIONS,
    ablation_arbiter_jobs,
    collective_sweep_jobs,
    fault_sweep_jobs,
    load_sweep_jobs,
    run_sweep,
    topology_sweep_jobs,
    with_labels,
    workload_sweep_jobs,
)

#: Traffic patterns per topology dimensionality, in the paper's order.
TRAFFICS_2D = ("uniform", "randperm", "dcr")
TRAFFICS_3D = ("uniform", "randperm", "dcr", "rpn")

#: Structured fault shapes per dimensionality (paper names).
SHAPES_2D = ("row", "subplane", "cross")
SHAPES_3D = ("row", "subcube", "star")


def _scale(scale: str | Scale) -> Scale:
    return scale if isinstance(scale, Scale) else get_scale(scale)


def _mid_and_max_load(sc: Scale) -> tuple[float, float]:
    """Mid-load (latency regime) plus saturation (throughput regime)."""
    return (sc.loads[len(sc.loads) // 2 - 1], sc.loads[-1])


def _hostable(traffics: tuple[str, ...], dims: int) -> tuple[str, ...]:
    """``traffics`` without RPN on 2D (the pattern needs three dimensions)."""
    return tuple(t for t in traffics if dims == 3 or t != "rpn")


# ----------------------------------------------------------------------
# Figure 1 — diameter versus random link failures (8x8x8)
# ----------------------------------------------------------------------
def fig1_diameter_under_failures(
    sides: tuple[int, ...] = (8, 8, 8),
    n_sequences: int = 4,
    step: int = 64,
    seed: int = 0,
) -> list[dict]:
    """Diameter evolution under cumulative random link failures.

    Pure graph computation, so it runs at the paper's full 8x8x8 scale by
    default.  One curve per random sequence; a curve ends at the first
    sampled fault count that disconnects the network (the paper's lines
    "exit the plot").

    Expected shape: diameter 3 until ~80 faults, 5 needs ~35% of links,
    disconnection around ~75%.
    """
    topo = HyperX(sides, 1)
    links = topo.links()
    rng = as_generator(seed)
    curves: list[dict] = []
    for seq in range(n_sequences):
        order = rng.permutation(len(links))
        points: list[tuple[int, int]] = []
        disconnect_at: int | None = None
        for count in range(0, len(links) + 1, step):
            net = Network(topo, [links[i] for i in order[:count]])
            diam = diameter_or_none(net)
            if diam is None:
                disconnect_at = count
                break
            points.append((count, diam))
        curves.append(
            {
                "sequence": seq,
                "points": points,
                "disconnect_at": disconnect_at,
                "total_links": len(links),
            }
        )
    return curves


# ----------------------------------------------------------------------
# Tables 2-4
# ----------------------------------------------------------------------
def table2() -> list[tuple[str, str]]:
    """Simulation parameters (paper Table 2)."""
    return table2_rows()


def table3(scale: str | Scale = "paper") -> list[dict]:
    """Topological parameters of the evaluated HyperX networks.

    At ``paper`` scale this reproduces Table 3 exactly: 256/512 switches,
    radix 46/29, 4096 servers, 3840/5376 links, diameter 2/3, average
    distance 1.8/2.625.
    """
    from ..topology.graph import average_distance

    sc = _scale(scale)
    out = []
    for label, hx in (("2D HyperX", sc.hyperx_2d()), ("3D HyperX", sc.hyperx_3d())):
        net = Network(hx)
        out.append(
            {
                "topology": label,
                "sides": hx.sides,
                "switches": hx.n_switches,
                "radix": hx.radix,
                "servers_per_switch": hx.servers_per_switch,
                "total_servers": hx.n_servers,
                "links": len(hx.links()),
                "diameter": net.diameter,
                # Paper convention: mean over all ordered pairs incl. self.
                "avg_distance": round(average_distance(net, include_self=True), 4),
            }
        )
    return out


def table4(n_dims: int = 3) -> list[dict]:
    """Routing mechanisms and their VC budgets (paper Table 4)."""
    return [
        {
            "mechanism": row.name,
            "routing": row.paper_routing,
            "vcs": (
                "SurePath (routing + escape)" if row.surepath
                else f"Ladder {row.vcs_per_step}/step"
            ),
            "required_vcs": row.required_vcs(n_dims),
        }
        for row in MECHANISM_REGISTRY.values()
    ]


# ----------------------------------------------------------------------
# Figures 2 and 3 — illustrations (escape colouring, RPN plane)
# ----------------------------------------------------------------------
def fig2_escape_illustration(scale: str | Scale = "tiny", root: int = 0) -> dict:
    """The Figure 2 walk-through: link colouring of the escape subnetwork.

    Returns the black/red link split, the BFS level of every switch and
    the paper's two worked candidate examples on the 2D topology.
    """
    from ..updown.escape import PHASE_CLIMB, EscapeSubnetwork

    sc = _scale(scale)
    hx = sc.hyperx_2d()
    net = Network(hx)
    esc = EscapeSubnetwork(net, root)
    s00, s11 = hx.switch_id((0, 0)), hx.switch_id((1, 1))
    s01, s03 = hx.switch_id((0, 1)), hx.switch_id((0, min(3, hx.sides[1] - 1)))
    return {
        "root": root,
        "black_links": esc.n_black_links(),
        "red_links": esc.n_red_links(),
        "levels": [int(v) for v in esc.root_distance],
        "example_updown": [
            (hx.coords(nbr), pen)
            for _p, nbr, pen in esc.candidates(s00, s11, PHASE_CLIMB)
        ],
        "example_shortcut": [
            (hx.coords(nbr), pen)
            for _p, nbr, pen in esc.candidates(s01, s03, PHASE_CLIMB)
        ],
    }


def fig3_rpn_illustration(scale: str | Scale = "paper") -> dict:
    """The Figure 3 view of Regular Permutation to Neighbour.

    Returns the ASCII arrows of one plane plus the confined-pairs-per-row
    histogram, whose values must all be 0 or k/2 (the paper's imbalance
    property).
    """
    from ..traffic import make_traffic

    sc = _scale(scale)
    hx = sc.hyperx_3d()
    rpn = make_traffic("rpn", Network(hx))
    counts = rpn.confined_pairs_per_row()
    k = hx.sides[0]
    return {
        "plane": rpn.plane_ascii(),
        "k": k,
        "rows_with_pairs": sum(1 for v in counts.values() if v),
        "pairs_per_loaded_row": sorted(set(counts.values())),
        "aligned_bound": rpn.aligned_route_bound(),
    }


# ----------------------------------------------------------------------
# Figures 4 and 5 — fault-free load sweeps
# ----------------------------------------------------------------------
def fig_load_sweep(
    scale: str | Scale = "tiny",
    dims: int = 2,
    mechanisms: tuple[str, ...] = MECHANISMS,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Throughput/latency/Jain vs offered load: Figure 4 (2D), Figure 5 (3D).

    ``config`` carries the simulator knobs including the engine backend
    (``--backend`` on the CLI); records are backend-independent.

    Expected shape: Valiant saturates ~0.5 everywhere and is optimal on
    DCR; Minimal lags on permutations; OmniSP/PolSP match or beat the
    ladder mechanisms.  The 3D sweep adds RPN, where Minimal is worst,
    Omni-based mechanisms cap at 0.5 (aligned routes) and
    Polarized-based ones exceed it.
    """
    sc = _scale(scale)
    jobs = load_sweep_jobs(
        Network(sc.hyperx(dims)), mechanisms, _hostable(TRAFFICS_3D, dims), sc.loads,
        warmup=sc.warmup, measure=sc.measure, seed=seed, config=config,
    )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Figure 6 — throughput under cumulative random faults
# ----------------------------------------------------------------------
def fig6_random_faults(
    scale: str | Scale = "tiny",
    dims: int = 2,
    seed: int = 0,
    fault_seed: int = 12345,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Saturation throughput of OmniSP/PolSP vs random fault count.

    The paper sweeps 0..100 faults in steps of 10 on the paper-scale
    networks (<3% of links); scaled-down runs use the scale's
    ``fault_fractions`` of the link count so the stress is comparable.

    Expected shape: graceful degradation; Uniform drops ~0.9 -> ~0.8 at
    paper scale, the adversarial patterns barely move.
    """
    sc = _scale(scale)
    hx = sc.hyperx(dims)
    n_links = len(hx.links())
    counts = sorted({int(round(f * n_links)) for f in sc.fault_fractions})
    jobs = fault_sweep_jobs(
        hx, ("OmniSP", "PolSP"), _hostable(TRAFFICS_3D, dims), counts,
        offered=1.0, warmup=sc.warmup, measure=sc.measure,
        seed=seed, fault_seed=fault_seed, config=config,
    )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Figure 7 — structured fault shapes (illustration + exact link counts)
# ----------------------------------------------------------------------
def shape_parameters(hx: HyperX) -> dict[str, dict]:
    """Per-shape parameters scaled from the paper's 16x16 / 8x8x8 values.

    Paper values: 2D Row K16 (120 links), Subplane K5^2 (100), Cross
    arm 11 (110); 3D Row K8 (28), Subcube K3^3 (81), Star arm 7 (63).
    Scaled topologies keep the same proportions (rounded, margins kept).
    """
    k = min(hx.sides)
    if hx.n_dims == 2:
        return {
            "row": {},
            "subplane": {"side": max(2, round(5 * k / 16))},
            "cross": {"arm": min(k - 1, max(2, round(11 * k / 16)))},
        }
    return {
        "row": {},
        "subcube": {"side": max(2, round(3 * k / 8))},
        "star": {"arm": min(k - 1, max(2, round(7 * k / 8)))},
    }


def fig7_fault_shapes(scale: str | Scale = "paper") -> list[dict]:
    """The 2D fault shapes with their link counts (Figure 7).

    At paper scale the counts match the paper exactly: Row 120,
    Subplane 100, Cross 110.
    """
    sc = _scale(scale)
    hx = sc.hyperx_2d()
    params = shape_parameters(hx)
    out = []
    for shape in SHAPES_2D:
        faults = shape_faults(hx, shape, **params[shape])
        root = shape_root(hx, shape, **params[shape])
        net = Network(hx, faults)
        out.append(
            {
                "shape": shape,
                "n_faults": len(faults),
                "root": root,
                "root_coords": hx.coords(root),
                "connected": net.is_connected,
                "root_live_degree": net.live_degree(root),
            }
        )
    return out


# ----------------------------------------------------------------------
# Figures 8 and 9 — throughput bars under structured faults
# ----------------------------------------------------------------------
def fig_shape_faults(
    scale: str | Scale = "tiny",
    dims: int = 2,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Saturation throughput bars under structured faults: Figure 8 (2D
    Row/Subplane/Cross), Figure 9 (3D Row/Subcube/Star, plus RPN).

    Each shape is followed by its healthy reference marks (same root,
    same mechanisms), labelled ``<shape>-healthy-ref``.

    Expected shape: Row and Subplane/Subcube cost ~11%; Cross is the 2D
    stressor (~37% drop under Uniform, paper scale); OmniSP ~ PolSP in
    2D; in 3D PolSP keeps its RPN edge except under Star, where OmniSP
    wins peak throughput (the in-cast analysis of Figure 10).
    """
    sc = _scale(scale)
    hx = sc.hyperx(dims)
    params = shape_parameters(hx)
    jobs = []
    for shape in SHAPES_2D if dims == 2 else SHAPES_3D:
        root = shape_root(hx, shape, **params[shape])
        faulty = Network(hx, shape_faults(hx, shape, **params[shape]))
        for net, label in ((faulty, shape), (Network(hx), f"{shape}-healthy-ref")):
            jobs += with_labels(
                load_sweep_jobs(
                    net, ("OmniSP", "PolSP"), _hostable(TRAFFICS_3D, dims), (1.0,),
                    warmup=sc.warmup, measure=sc.measure, seed=seed,
                    config=config, root=root, n_vcs=4,
                ),
                shape=label,
            )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Transient recovery — mid-run link failures (beyond the paper's figures)
# ----------------------------------------------------------------------
def fig_transient(
    scale: str | Scale = "tiny",
    dims: int = 2,
    mechanisms: tuple[str, ...] = ("OmniSP", "PolSP"),
    traffics: tuple[str, ...] = ("uniform",),
    offered: float = 0.6,
    n_links: int = 2,
    fail_at: float = 0.33,
    repair_at: float | None = 0.66,
    series_interval: int | None = None,
    seed: int = 0,
    fault_seed: int = 12345,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Transient recovery from a mid-run link failure (and optional repair).

    The paper evaluates fault *snapshots*; this driver plays the dynamics:
    ``n_links`` random links (whose loss keeps the network connected) fail
    at ``fail_at`` of the measurement window and — when ``repair_at`` is
    given — come back later.  Routing tables and the Up/Down escape tree
    rebuild online at each event; the per-interval ``series`` in every
    record shows the throughput dip, the latency spike and the
    re-convergence.

    Expected shape: SurePath mechanisms drop only the packets buffered on
    the dying links and re-converge within a few intervals; ladder
    mechanisms accumulate stalled packets when the failure stretches
    routes past their VC budget.
    """
    sc = _scale(scale)
    hx = sc.hyperx(dims)
    links = random_connected_fault_sequence(hx, n_links, rng=fault_seed)
    fail_slot = sc.warmup + int(sc.measure * fail_at)
    if repair_at is not None:
        # Strictly < 1.0: a repair at exactly warmup+measure would fall one
        # slot past the run's end and the engine would (rightly) reject it.
        if not fail_at < repair_at < 1.0:
            raise ValueError("repair_at must lie after fail_at, within the run")
        schedule = FaultSchedule.down_then_up(
            fail_slot, sc.warmup + int(sc.measure * repair_at), links
        )
    else:
        schedule = FaultSchedule.link_down(fail_slot, links)
    if series_interval is None:
        series_interval = max(10, sc.measure // 24)
    jobs = load_sweep_jobs(
        Network(hx), mechanisms, _hostable(traffics, dims), (offered,),
        warmup=sc.warmup, measure=sc.measure, seed=seed, config=config,
        n_vcs=4, schedule=schedule, series_interval=series_interval,
    )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Router-microarchitecture ablation (beyond the paper's figures)
# ----------------------------------------------------------------------
def fig_ablation_arbiter(
    scale: str | Scale = "tiny",
    dims: int = 2,
    mechanisms: tuple[str, ...] = ("OmniSP", "PolSP"),
    traffics: tuple[str, ...] = ("uniform",),
    arbiters: tuple[str, ...] = DEFAULT_ARBITERS,
    flow_controls: tuple[str, ...] = ("vct",),
    link_latencies: tuple[int, ...] = (1,),
    loads: tuple[float, ...] | None = None,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Throughput/latency across router microarchitectures.

    The paper's results assume one specific router — Q+P output
    selection, virtual cut-through, 1-slot links.  This driver re-runs a
    load sweep with that microarchitecture swapped out piece by piece:
    alternative arbiters (round-robin, age-based, random), store-and-
    forward flow control and pipelined multi-slot links.

    Expected shape: Q+P saturates highest (its load awareness is doing
    real work); random/round-robin cost throughput at saturation but tie
    below it; store-and-forward serialises output stages and caps
    accepted load; pipelined links add latency per hop while throughput
    holds until buffering binds.
    """
    sc = _scale(scale)
    jobs = ablation_arbiter_jobs(
        Network(sc.hyperx(dims)), mechanisms, _hostable(traffics, dims),
        _mid_and_max_load(sc) if loads is None else loads,
        arbiters=arbiters, flow_controls=flow_controls,
        link_latencies=link_latencies,
        warmup=sc.warmup, measure=sc.measure, seed=seed, config=config,
    )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Workload diversity — patterns x injection processes (beyond the paper)
# ----------------------------------------------------------------------
#: The workload patterns fig-workloads sweeps by default (paper's Uniform
#: as the baseline, then the adversarial library); filtered per topology.
WORKLOAD_TRAFFICS = (
    "uniform", "hotspot", "tornado", "shift", "transpose", "bitrev", "shuffle",
)


def fig_workloads(
    scale: str | Scale = "tiny",
    dims: int = 2,
    mechanisms: tuple[str, ...] = ("OmniSP", "PolSP"),
    traffics: tuple[str, ...] | None = None,
    injections: tuple[str, ...] = DEFAULT_INJECTIONS,
    burst_slots: int = 8,
    idle_slots: int = 8,
    loads: tuple[float, ...] | None = None,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Mechanism x pattern x injection-process comparison table.

    The paper's evaluation holds the workload axis fixed (four patterns,
    steady-state Bernoulli); this driver sweeps the workload-diversity
    library — hotspot in-cast, tornado, shift, the bit-permutation family
    — under both smooth and bursty (on-off) injection at the same
    normalised offered loads.  Patterns a topology cannot host (e.g. bit
    transpose on an odd bit count) are dropped automatically.

    ``loads=None`` runs the scale's mid and top load, capped (with
    on-off injection) at the duty cycle ``burst / (burst + idle)``: no
    on-off source can offer more, and every process runs the same loads.

    Expected shape: everything loses throughput under hotspot (the hot
    server is the bottleneck, not routing); tornado/bit patterns separate
    the load-aware mechanisms from the oblivious ones; on-off matches
    Bernoulli's saturation but pays a latency premium below it (queueing
    bursts), and the premium grows with ``burst_slots``.
    """
    sc = _scale(scale)
    net = Network(sc.hyperx(dims))
    if traffics is None:
        traffics = tuple(supported_traffics(net, WORKLOAD_TRAFFICS))
    if loads is None:
        cap = onoff_duty(burst_slots, idle_slots) if "onoff" in injections else 1.0
        loads = tuple(dict.fromkeys(min(x, cap) for x in _mid_and_max_load(sc)))
    jobs = workload_sweep_jobs(
        net, mechanisms, traffics, loads,
        injections=injections, burst_slots=burst_slots, idle_slots=idle_slots,
        warmup=sc.warmup, measure=sc.measure, seed=seed, config=config,
    )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Topology diversity — mechanism x topology families (beyond the paper)
# ----------------------------------------------------------------------
#: The families fig-topologies sweeps by default: the paper's 2D HyperX
#: as the baseline, then the diversity library.
TOPOLOGY_FAMILIES = ("hyperx", "torus", "mesh", "fattree", "random")

#: Patterns for cross-family comparison: structurally universal first
#: (uniform/randperm/shift build everywhere), then hotspot; coordinate-
#: bound patterns are filtered per family by the sweep.
TOPOLOGY_TRAFFICS = ("uniform", "randperm", "shift", "hotspot")


def fig_topologies(
    scale: str | Scale = "tiny",
    topologies: tuple[str, ...] = TOPOLOGY_FAMILIES,
    mechanisms: tuple[str, ...] = ("Minimal", "Polarized", "PolSP"),
    traffics: tuple[str, ...] = TOPOLOGY_TRAFFICS,
    loads: tuple[float, ...] | None = None,
    root_strategy: str = "max_live_degree",
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Mechanism x topology-family comparison sweep.

    The paper's evaluation is HyperX-only (Dragonfly appears as the §7
    portability remark); this driver runs the same mechanisms over the
    topology registry — torus, mesh, fat-tree, seeded random-regular —
    at comparable scale presets, with the escape root chosen per family
    by ``root_strategy`` (a fat-tree or random graph has no canonical
    switch 0).

    Expected shape: HyperX saturates highest (densest links, diameter 2);
    the torus pays its larger diameter in latency and saturates lower;
    the mesh adds boundary asymmetry on top; the fat-tree bottlenecks on
    its uplinks under uniform; the random graph lands between torus and
    HyperX (Jellyfish's short mean paths).  PolSP stays deadlock-free on
    every family — the escape construction is topology-agnostic.
    """
    sc = _scale(scale)
    networks = {
        name: Network(scaled_topology(name, sc)) for name in topologies
    }
    jobs = topology_sweep_jobs(
        networks, mechanisms, traffics,
        _mid_and_max_load(sc) if loads is None else loads,
        warmup=sc.warmup, measure=sc.measure, seed=seed, config=config,
        root_strategy=root_strategy,
    )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Collective (CCL) workloads — job completion time across families
# ----------------------------------------------------------------------
#: Families for the collective figure: the deterministic parametric ones
#: (a seeded random graph adds nothing to a closed-loop DAG comparison).
COLLECTIVE_TOPOLOGIES = ("hyperx", "torus", "fattree")

#: Collectives the figure runs, classic algorithms first.
COLLECTIVE_SET = ("allreduce_ring", "allreduce_tree", "allgather_ring")


def fig_collectives(
    scale: str | Scale = "tiny",
    topologies: tuple[str, ...] = COLLECTIVE_TOPOLOGIES,
    mechanisms: tuple[str, ...] = ("Minimal", "Polarized", "PolSP"),
    collectives: tuple[str, ...] = COLLECTIVE_SET,
    chunk_packets: int = 1,
    max_slots: int = 200_000,
    n_links: int = 2,
    fail_slot: int = 8,
    repair_slot: int = 208,
    root_strategy: str = "max_live_degree",
    seed: int = 0,
    fault_seed: int = 12345,
    config: SimConfig = PAPER_CONFIG,
    executor=None,
) -> list[dict]:
    """Collective JCT across mechanisms, topology families and faults.

    For every family the driver runs each collective twice — on the
    healthy network and with ``n_links`` random links (connectivity-
    preserving) failing at ``fail_slot`` and repairing at
    ``repair_slot`` — so each record's ``jct_cycles`` column answers the
    deployment question the steady-state sweeps cannot: *how much later
    does the job finish* under this mechanism / on this family / through
    this fault, rather than what load it would sustain forever.

    Expected shape: ring algorithms ride neighbour links and degrade
    gently; the tree's root-adjacent hops make it fault-sensitive.  For
    the deadlock-free mechanisms a fault mid-collective costs time, not
    the job (``drained`` stays true, JCT degrades); deadlock-prone
    baselines (Minimal on a torus) can stall the DAG outright — their
    records report ``deadlocked`` with ``jct_cycles`` ``None``, the
    closed-loop version of the paper's liveness argument.
    """
    sc = _scale(scale)
    jobs = []
    for name in topologies:
        topo = scaled_topology(name, sc)
        net = Network(topo)
        links = random_connected_fault_sequence(topo, n_links, rng=fault_seed)
        schedules = [
            ("none", None),
            ("downup", FaultSchedule.down_then_up(fail_slot, repair_slot, links)),
        ]
        jobs += with_labels(
            collective_sweep_jobs(
                net, mechanisms, collectives,
                schedules=schedules, chunk_packets=chunk_packets,
                max_slots=max_slots, seed=seed, config=config,
                root=choose_root(net, root_strategy),
            ),
            topology=name,
        )
    return run_sweep(jobs, executor)


# ----------------------------------------------------------------------
# Figure 10 — completion time under Star faults + RPN
# ----------------------------------------------------------------------
def fig10_completion_time(
    scale: str | Scale = "tiny",
    seed: int = 0,
    series_interval: int = 50,
    max_slots: int = 500_000,
) -> list[dict]:
    """Batch completion time, RPN traffic, Star fault configuration.

    Every server sends ``scale.batch_packets`` packets (paper: 8000 phits
    = 500); the driver reports the accepted-load time series and the
    completion time.

    Expected shape: OmniSP sustains higher bulk throughput but its tail —
    the root's servers squeezed through the surviving links — finishes
    ~2.8x later than PolSP at paper scale.
    """
    sc = _scale(scale)
    hx = sc.hyperx_3d()
    params = shape_parameters(hx)
    shape = "star"
    faults = shape_faults(hx, shape, **params[shape])
    root = shape_root(hx, shape, **params[shape])
    net = Network(hx, faults)
    runner = ExperimentRunner(net, config=PAPER_CONFIG, root=root)
    out = []
    for mechanism in ("OmniSP", "PolSP"):
        res = runner.run_batch(
            mechanism, "rpn", sc.batch_packets,
            seed=seed, series_interval=series_interval, max_slots=max_slots,
        )
        out.append(
            {
                "mechanism": mechanism,
                "completion_cycles": res.completion_cycles,
                "completion_slot": res.completion_slot,
                "delivered": res.delivered,
                "expected": sc.batch_packets * net.n_servers,
                "peak_load": max((v for _, v in res.time_series), default=0.0),
                "time_series": res.time_series,
                "deadlocked": res.deadlocked,
            }
        )
    return out
