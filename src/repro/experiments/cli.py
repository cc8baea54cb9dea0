"""Command-line interface: ``surepath-sim <experiment> [options]``.

Examples::

    surepath-sim table3 --scale paper
    surepath-sim fig4 --scale tiny
    surepath-sim fig4 --scale small --jobs 4 --cache-dir ~/.cache/surepath
    surepath-sim fig6 --scale small --dims 3
    surepath-sim fig10 --scale tiny --csv out.csv
    surepath-sim fig-transient --scale tiny --repair
    surepath-sim fig-ablation-arbiter --scale tiny --link-latencies 1 2
    surepath-sim fig-workloads --scale tiny --injections bernoulli onoff
    surepath-sim fig-topologies --scale tiny --topologies torus fattree random
    surepath-sim fig-collectives --scale tiny --collectives allreduce_ring
    surepath-sim fig4 --scale small --backend array
    surepath-sim point --mechanism PolSP --traffic rpn --offered 0.8 --dims 3

Every table and figure of the paper has a subcommand, one row of
:data:`COMMANDS`; ``--scale paper`` runs the exact paper topologies (slow
in pure Python — see README.md, "Running experiments").

A *sweep* subcommand (figures 4, 5, 6, 8, 9 and the five ``fig-*``)
calls one driver in :mod:`repro.experiments.figures`, and each of its
flags defaults to the driver parameter it feeds: a run with no flags is
the driver called with no arguments.  ``fig4``/``fig5`` share the
load-sweep driver and ``fig8``/``fig9`` the shape-fault driver, bound to
2 and 3 dimensions.  Sweeps also accept ``--jobs N`` (a process pool),
``--cache-dir DIR`` (reuse points simulated by earlier runs) and
``--backend NAME`` (``slot``, the reference loop, or ``array``, the
same loop with a plan cache around the Q+P request scan; identical
records, see the README's "Backends").

Beyond the paper's figures: ``fig-transient`` fails links mid-run (and,
with ``--repair``, brings them back) and reports the recovery series;
``fig-ablation-arbiter`` swaps the router microarchitecture (arbiter,
flow control, link latency) the paper hardwires; ``fig-workloads``
crosses the adversarial pattern library with smooth and bursty (on-off)
injection; ``fig-topologies`` runs the mechanisms over the torus, mesh,
fat-tree and random-regular families; ``fig-collectives`` runs
all-reduce / all-gather dependency DAGs to completion and reports the
job completion time, healthy and through a link failure and repair.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Any, Callable

from ..routing.catalog import MECHANISMS
from ..simulator.arbiters import ARBITERS
from ..simulator.backends import ENGINE_BACKENDS
from ..simulator.collective import COLLECTIVES
from ..simulator.config import PAPER_CONFIG
from ..simulator.flowcontrol import FLOW_CONTROLS
from ..simulator.injection import INJECTIONS
from ..topology.base import Network
from ..topology.catalog import TOPOLOGIES
from ..traffic import TRAFFIC_PATTERNS
from ..updown.roots import ROOT_STRATEGIES
from . import figures
from .executor import encode_json_safe, make_executor
from .reporting import (
    ascii_table,
    curve_sparkline,
    records_to_csv,
    throughput_matrix,
)
from .runner import ExperimentRunner
from .scales import SCALES, get_scale


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """argparse type: an integer >= ``minimum`` (clean usage error otherwise)."""

    def parse(value: str) -> int:
        n = int(value)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return n

    return parse


_positive_int = _int_at_least(1)

#: Every reusable argument, declared once: its range-checked type and
#: registry-derived choices live here; a command row overrides the help
#: where the commands genuinely differ.  A sweep command's defaults are
#: its driver's (see :func:`build_parser`), so the sweep-only flags below
#: carry none; the defaults here serve the other commands.
ARGUMENTS: dict[str, dict[str, Any]] = {
    # on every command
    "scale": dict(default="tiny", choices=sorted(SCALES),
                  help="experiment scale preset (default: %(default)s)"),
    "seed": dict(type=int, default=0, help="simulation seed"),
    "csv": dict(metavar="FILE", help="also write records as CSV"),
    "json": dict(metavar="FILE", help="also write records as JSON"),
    # on every sweep command (points run through an executor)
    "jobs": dict(type=_positive_int, default=None, metavar="N",
                 help="simulate sweep points on N worker processes "
                      "(default: serial)"),
    "cache-dir": dict(metavar="DIR", default=None,
                      help="content-addressed result cache; repeated runs "
                           "reuse already-simulated points"),
    "backend": dict(default="slot", choices=sorted(ENGINE_BACKENDS),
                    help="engine backend: 'slot' is the reference loop "
                         "(it skips idle switches), 'array' adds a plan "
                         "cache to the Q+P request scan — identical records "
                         "(default: slot)"),
    # per command
    "sequences": dict(type=_positive_int, default=4),
    "step": dict(type=_positive_int, default=64),
    "dims": dict(type=int, choices=(2, 3)),
    "offered": dict(type=float),
    "links": dict(type=_int_at_least(0), metavar="N"),
    "repair": dict(action="store_true",
                   help="schedule the failed links to come back up"),
    "mechanisms": dict(nargs="+", choices=MECHANISMS),
    "arbiters": dict(nargs="+", choices=sorted(ARBITERS)),
    "flow-controls": dict(nargs="+", choices=sorted(FLOW_CONTROLS)),
    "link-latencies": dict(nargs="+", type=_positive_int, metavar="SLOTS",
                           help="link latencies in slots "
                                "(default: %(default)s)"),
    "loads": dict(nargs="+", type=float,
                  help="offered loads (default: the scale's mid and top "
                       "load)"),
    "patterns": dict(nargs="+", choices=TRAFFIC_PATTERNS, metavar="PATTERN"),
    "injections": dict(nargs="+", choices=sorted(INJECTIONS)),
    "burst": dict(type=_positive_int, metavar="SLOTS",
                  help="mean on-burst length of the on-off process "
                       "(default: %(default)s)"),
    "idle": dict(type=_positive_int, metavar="SLOTS",
                 help="mean off-idle length of the on-off process "
                      "(default: %(default)s)"),
    "topologies": dict(nargs="+", choices=TOPOLOGIES, metavar="FAMILY",
                       help="topology families to sweep "
                            "(default: %(default)s)"),
    "root-strategy": dict(choices=ROOT_STRATEGIES,
                          help="escape-root policy per family "
                               "(default: %(default)s)"),
    "collectives": dict(nargs="+", choices=sorted(COLLECTIVES),
                        metavar="NAME",
                        help="collectives to run (default: %(default)s)"),
    "chunk-packets": dict(type=_positive_int, metavar="N",
                          help="chunk transfer size in 16-phit packets "
                               "(default: %(default)s)"),
    "max-slots": dict(type=_positive_int, metavar="SLOTS",
                      help="drain budget per run (default: %(default)s)"),
    "mechanism": dict(default="PolSP", choices=MECHANISMS),
    "traffic": dict(default="uniform", choices=TRAFFIC_PATTERNS),
    "warmup": dict(type=int, default=None),
    "measure": dict(type=int, default=None),
}

COMMON_ARGS = ("scale", "seed", "csv", "json")
EXECUTOR_ARGS = ("jobs", "cache-dir", "backend")


def _emit(records, args, columns=None, title=None) -> None:
    if isinstance(records, list) and records and isinstance(records[0], dict):
        print(ascii_table(records, columns, title))
    else:
        print(records)
    if getattr(args, "csv", None) and isinstance(records, list):
        with open(args.csv, "w") as f:
            f.write(records_to_csv(records))
        print(f"wrote {args.csv}", file=sys.stderr)
    if getattr(args, "json", None):
        with open(args.json, "w") as f:
            # encode_json_safe: NaN latencies become null so the file is
            # strict JSON (json.dumps would emit the invalid literal NaN).
            json.dump(
                encode_json_safe(records), f, indent=2, default=str,
                allow_nan=False,
            )
        print(f"wrote {args.json}", file=sys.stderr)


# ----------------------------------------------------------------------
# Tables, illustrations and single runs: bespoke output per command
# ----------------------------------------------------------------------
def _table2(args) -> None:
    rows = [{"parameter": k, "value": v} for k, v in figures.table2()]
    _emit(rows, args, ("parameter", "value"), "Table 2 — simulation parameters")


def _table3(args) -> None:
    _emit(figures.table3(args.scale), args, title="Table 3 — topological parameters")


def _table4(args) -> None:
    _emit(figures.table4(), args, title="Table 4 — routing mechanisms")


def _fig1(args) -> None:
    curves = figures.fig1_diameter_under_failures(
        n_sequences=args.sequences, step=args.step, seed=args.seed
    )
    for c in curves:
        print(
            f"seq {c['sequence']}: {curve_sparkline(c['points'])}"
            f"  disconnects at {c['disconnect_at']}/{c['total_links']} faults"
        )
    if args.csv or args.json:
        _emit(curves, args)


def _fig2(args) -> None:
    info = figures.fig2_escape_illustration(args.scale)
    print(f"escape subnetwork rooted at {info['root']}: "
          f"{info['black_links']} black (Up/Down) links, "
          f"{info['red_links']} red shortcuts")
    print(f"Up/Down example candidates: {info['example_updown']}")
    print(f"shortcut example candidates: {info['example_shortcut']}")


def _fig3(args) -> None:
    info = figures.fig3_rpn_illustration(args.scale)
    print(f"RPN on side {info['k']}: loaded rows carry "
          f"{info['pairs_per_loaded_row']} confined pairs "
          f"(aligned-route bound {info['aligned_bound']})")
    print(info["plane"])


def _fig7(args) -> None:
    _emit(figures.fig7_fault_shapes(args.scale), args,
          title="Figure 7 — 2D fault shapes")


def _fig10(args) -> None:
    recs = figures.fig10_completion_time(args.scale, seed=args.seed)
    for r in recs:
        print(
            f"{r['mechanism']}: completion={r['completion_cycles']} cycles, "
            f"peak={r['peak_load']:.3f}, delivered={r['delivered']}/{r['expected']}"
        )
        print("  " + curve_sparkline(r["time_series"]))
    if args.csv or args.json:
        _emit(recs, args)


def _point(args) -> None:
    sc = get_scale(args.scale)
    res = ExperimentRunner(Network(sc.hyperx(args.dims))).run_point(
        args.mechanism, args.traffic, args.offered,
        warmup=args.warmup or sc.warmup,
        measure=args.measure or sc.measure,
        seed=args.seed,
    )
    print(res.summary())


# ``wraps``: the parser reads this command's flag defaults through
# ``__wrapped__``, from ``fig_transient``'s own signature.  ``--repair`` is
# the one sweep flag with no driver parameter: without it the failed links
# stay down; with it they come back at the driver's ``repair_at``.
@wraps(figures.fig_transient)
def _fig_transient(*args: Any, repair: bool, **kwargs: Any) -> list[dict]:
    if not repair:
        kwargs["repair_at"] = None
    return figures.fig_transient(*args, **kwargs)


def _recovery_sparklines(recs: list[dict]) -> str:
    return "\n".join(
        f"{r['mechanism']}/{r['traffic']}: recovery "
        + curve_sparkline([(s["slot"], s["accepted"]) for s in r["series"]])
        for r in recs
    )


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Command:
    """One subcommand.

    ``args`` names its :data:`ARGUMENTS`; ``overrides`` holds this
    command's own help (or, for a command without a driver, default) for
    some of them.  A *sweep* command has a ``driver`` — a ``figures``
    function called with the scale, every listed argument under its own
    name (``rename`` maps the exceptions), the seed, the config and the
    executor; each flag's default is the default of the driver parameter
    it feeds.  Its records print as ``pivot(records)`` (when set) above a
    ``columns`` table headed ``title`` (``str.format``-ed with, or called
    on, the parsed arguments).  Any other command prints through ``run``.
    """

    help: str
    args: tuple[str, ...] = ()
    overrides: dict[str, dict[str, Any]] = field(default_factory=dict)
    run: Callable[[argparse.Namespace], None] | None = None
    driver: Callable[..., list[dict]] | None = None
    rename: dict[str, str] = field(default_factory=dict)
    columns: tuple[str, ...] = ()
    title: str | Callable[[argparse.Namespace], str] = ""
    pivot: Callable[[list[dict]], str] | None = None


SWEEP_COLUMNS = (
    "mechanism", "traffic", "offered", "accepted", "latency_cycles",
    "jain", "faults",
)
SHAPE_COLUMNS = ("shape", "mechanism", "traffic", "accepted")

COMMANDS: dict[str, Command] = {
    "table2": Command("simulation parameters", run=_table2),
    "table3": Command("topological parameters", run=_table3),
    "table4": Command("routing mechanisms and VC budgets", run=_table4),
    "fig1": Command("diameter vs random link failures",
                    args=("sequences", "step"), run=_fig1),
    "fig2": Command("escape-subnetwork link colouring", run=_fig2),
    "fig3": Command("RPN traffic-pattern illustration", run=_fig3),
    "fig4": Command(
        "2D fault-free load sweep",
        driver=partial(figures.fig_load_sweep, dims=2),
        columns=SWEEP_COLUMNS, title="Figure 4 — 2D load sweep",
        pivot=throughput_matrix,
    ),
    "fig5": Command(
        "3D fault-free load sweep (incl. RPN)",
        driver=partial(figures.fig_load_sweep, dims=3),
        columns=SWEEP_COLUMNS, title="Figure 5 — 3D load sweep",
        pivot=throughput_matrix,
    ),
    "fig6": Command(
        "throughput vs cumulative random faults",
        args=("dims",),
        driver=figures.fig6_random_faults,
        columns=("mechanism", "traffic", "faults", "accepted"),
        title="Figure 6 — {dims}D random-fault sweep",
    ),
    "fig7": Command("structured fault shapes and link counts", run=_fig7),
    "fig8": Command(
        "2D throughput under structured faults",
        driver=partial(figures.fig_shape_faults, dims=2),
        columns=SHAPE_COLUMNS, title="Figure 8 — 2D structured faults",
    ),
    "fig9": Command(
        "3D throughput under structured faults",
        driver=partial(figures.fig_shape_faults, dims=3),
        columns=SHAPE_COLUMNS, title="Figure 9 — 3D structured faults",
    ),
    "fig10": Command("completion time under Star faults + RPN", run=_fig10),
    "fig-transient": Command(
        "mid-run link failure/repair recovery series",
        args=("dims", "offered", "links", "repair", "mechanisms"),
        overrides={
            "links": dict(help="links failing at the event "
                               "(default: %(default)s)"),
        },
        driver=_fig_transient,
        rename={"links": "n_links"},
        columns=(
            "mechanism", "traffic", "offered", "accepted", "latency_cycles",
            "stalled", "dropped", "schedule_events",
        ),
        title=lambda a: f"Transient — {a.links} link(s) fail mid-run"
                        + (" then recover" if a.repair else ""),
        pivot=_recovery_sparklines,
    ),
    "fig-ablation-arbiter": Command(
        "router-microarchitecture ablation sweep",
        args=(
            "dims", "mechanisms", "arbiters", "flow-controls",
            "link-latencies", "loads",
        ),
        driver=figures.fig_ablation_arbiter,
        columns=(
            "arbiter", "flow_control", "link_latency", "mechanism", "traffic",
            "offered", "accepted", "latency_cycles",
        ),
        title="Ablation — router microarchitecture (arbiter / flow control / "
              "link latency)",
        pivot=partial(throughput_matrix, row_key=("mechanism", "microarch")),
    ),
    "fig-workloads": Command(
        "workload-diversity sweep (patterns x injection)",
        args=(
            "dims", "mechanisms", "patterns", "injections", "burst", "idle",
            "loads",
        ),
        overrides={
            "patterns": dict(help="traffic patterns (default: every pattern "
                                  "the topology supports)"),
            "loads": dict(help="offered loads (default: the scale's mid and "
                               "top load, capped at the on-off duty cycle)"),
        },
        driver=figures.fig_workloads,
        rename={"patterns": "traffics", "burst": "burst_slots",
                "idle": "idle_slots"},
        columns=(
            "workload", "mechanism", "traffic", "offered", "accepted",
            "latency_cycles", "jain",
        ),
        title="Workload diversity — traffic patterns x injection processes",
        pivot=partial(throughput_matrix, row_key=("mechanism", "workload")),
    ),
    "fig-topologies": Command(
        "topology-diversity sweep (mechanism x family)",
        args=("topologies", "mechanisms", "patterns", "root-strategy", "loads"),
        overrides={
            "patterns": dict(help="traffic patterns, filtered per family "
                                  "(default: %(default)s)"),
        },
        driver=figures.fig_topologies,
        rename={"patterns": "traffics"},
        columns=(
            "topology", "mechanism", "traffic", "offered", "accepted",
            "latency_cycles", "jain",
        ),
        title="Topology diversity — mechanisms x topology families",
        pivot=partial(throughput_matrix, row_key=("mechanism", "traffic"),
                      col_key="topology"),
    ),
    "fig-collectives": Command(
        "collective (CCL) job-completion-time sweep",
        args=(
            "topologies", "mechanisms", "collectives", "chunk-packets",
            "links", "max-slots", "root-strategy",
        ),
        overrides={
            "links": dict(help="links failing in the faulted runs "
                               "(default: %(default)s)"),
        },
        driver=figures.fig_collectives,
        rename={"links": "n_links"},
        columns=(
            "topology", "collective", "schedule", "mechanism", "jct_cycles",
            "completion_slot", "retransmitted", "drained", "deadlocked",
        ),
        title="Collectives — job completion time (cycles, lower is better)",
        pivot=partial(
            throughput_matrix, row_key=("mechanism", "collective"),
            col_key=("topology", "schedule"), value_key="jct_cycles",
            agg="min",
        ),
    ),
    "point": Command(
        "one simulation point",
        args=("mechanism", "traffic", "offered", "dims", "warmup", "measure"),
        overrides={"offered": dict(default=0.5), "dims": dict(default=2)},
        run=_point,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surepath-sim",
        description="Regenerate the SurePath paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        executor_args = EXECUTOR_ARGS if cmd.driver else ()
        params = inspect.signature(cmd.driver).parameters if cmd.driver else {}
        for arg in COMMON_ARGS + executor_args + cmd.args:
            spec = {**ARGUMENTS[arg], **cmd.overrides.get(arg, {})}
            dest = arg.replace("-", "_")
            param = params.get(cmd.rename.get(dest, dest))
            if param is not None:
                spec["default"] = param.default
            p.add_argument(f"--{arg}", **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    if cmd.driver is None:
        cmd.run(args)
        return 0
    # The sweep commands' SimConfig; --backend is its only CLI-exposed
    # field so far (everything else is the paper's Table 2).
    config = PAPER_CONFIG.with_(backend=args.backend)
    kwargs = {}
    for arg in cmd.args:
        dest = arg.replace("-", "_")
        value = getattr(args, dest)
        kwargs[cmd.rename.get(dest, dest)] = (
            tuple(value) if isinstance(value, list) else value
        )
    recs = cmd.driver(
        args.scale, **kwargs, seed=args.seed, config=config,
        executor=make_executor(args.jobs, args.cache_dir),
    )
    if cmd.pivot is not None:
        print(cmd.pivot(recs))
    title = cmd.title
    _emit(
        recs, args, cmd.columns,
        title(args) if callable(title) else title.format(**vars(args)),
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
