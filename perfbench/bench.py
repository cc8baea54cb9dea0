"""The repo benchmark: six workloads, end-to-end metrics, a traced run.

One run of one workload (the form the benchmark driver calls)::

    python3 perfbench/bench.py --workload mesh_alloc_array --seed 0 \\
        --seconds 10 --trace 0

builds the workload from the seed, checks it against its backend
cross-check and its checked-in fingerprint, repeats the timed unit until
it has measured for ``--seconds``, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).

Without ``--workload`` it runs every workload, each run in a fresh
subprocess, one after another (never two at once), and prints the median
of ``--repeats`` runs with min, max and the sample count::

    python3 perfbench/bench.py                      # end-to-end table
    python3 perfbench/bench.py --trace              # ... plus per-layer
    python3 perfbench/bench.py --out NEW.json       # keep the numbers
    python3 perfbench/bench.py --compare BASE.json  # delta table
    python3 perfbench/bench.py --check-noise        # two sets, same code
    python3 perfbench/bench.py --smoke              # 1/20 size, in-process
    python3 perfbench/bench.py --regen-expected     # rewrite fingerprints

Host time and simulated time are never mixed: every metric is host time
unless BENCHMARK.json gives it the unit ``count`` or ``ratio``, and those
repeat exactly for a given seed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import OFF, Tracer  # noqa: E402
from workloads import ROOT, SCRATCH, WORKLOADS, fingerprint, span_layers  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m for m in MANIFEST["per_layer"]}

#: Timed units per run (at least), and set-up builds per run: at least
#: five, and millisecond set-ups repeat until half a second is spent on
#: them, so that their median is steady too.
MIN_UNITS = 3
MIN_SETUPS = 5
SETUP_SECONDS = 0.5
MAX_SETUPS = 60
#: Seeds with a checked-in fingerprint under ``expected/``.
EXPECTED_SEEDS = (0, 1)
#: A single run must end within the driver's limit.
RUN_TIMEOUT_S = 180


def host_facts() -> dict[str, Any]:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def host_class() -> str:
    """Name of the checked-in baseline this host compares against."""
    major, minor = platform.python_version_tuple()[:2]
    return (
        f"{platform.system().lower()}-{platform.machine()}-"
        f"{os.cpu_count()}cpu-py{major}{minor}"
    )


def expected_path(name: str, seed: int) -> Path:
    return HERE / "expected" / f"{name}.seed{seed}.json"


# ----------------------------------------------------------------------
# One run of one workload, in this process
# ----------------------------------------------------------------------
def timed_unit(workload: Any, seed: int, setup_tr: Tracer, run_tr: Tracer) -> tuple:
    """One cold build plus one timed unit: ``(setup seconds, Outcome)``."""
    gc.collect()  # the previous unit's simulator must not sit in peak RSS
    t0 = perf_counter()
    built = workload.setup(seed, setup_tr)
    setup_s = perf_counter() - t0
    return setup_s, workload.run(built, run_tr)


def run_single(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns the result with both metric sets
    (``per_layer`` empty unless ``trace``)."""
    workload = WORKLOADS[name](smoke=smoke)
    failures: list[str] = []
    attempted, errors = workload.differential(seed)
    failures += errors

    # -- end-to-end: tracing off --------------------------------------
    walls: list[float] = []
    setups: list[float] = []
    prints: set[str] = set()
    budget = seconds * (0.4 if trace else 1.0)
    min_units = 1 if trace else MIN_UNITS
    while len(walls) < min_units or sum(walls) < budget:
        try:
            setup_s, outcome = timed_unit(workload, seed, OFF, OFF)
        except Exception:
            attempted += 1
            failures.append(f"{name}: unit raised\n{traceback.format_exc()}")
            break
        attempted += outcome.ops
        failures += outcome.failures
        walls.append(outcome.wall_s)
        setups.append(setup_s)
        prints.add(fingerprint(outcome.payload))
        del outcome
    while walls and (
        len(setups) < MIN_SETUPS
        or (sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUPS)
    ):
        gc.collect()
        t0 = perf_counter()
        built = workload.setup(seed, OFF)
        setups.append(perf_counter() - t0)
        del built
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if len(prints) > 1:
        failures.append(f"{name}: {len(prints)} different records from one seed")
    want = expected_path(name, seed)
    if prints and not smoke and want.exists():
        expected = json.loads(want.read_text())["sha256"]
        if expected not in prints:
            failures.append(
                f"{name}: records differ from expected/{want.name} "
                f"(got {sorted(prints)[0][:16]}, want {expected[:16]})"
            )

    result: dict[str, Any] = {
        "units": len(walls),
        "fingerprint": sorted(prints)[0] if prints else None,
        "end_to_end": {}, "per_layer": {},
    }
    if walls:
        result["end_to_end"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        result["samples"] = {"wall_s": walls, "setup_s": setups}
        if trace:
            try:
                layers, ops, errors = traced_units(
                    workload, seed, seconds - sum(walls), statistics.median(walls), prints
                )
            except Exception:
                attempted += 1
                failures.append(f"{name}: traced run raised\n{traceback.format_exc()}")
            else:
                attempted += ops
                failures += errors
                result["per_layer"] = layers
    result.update(attempted=attempted, failed=len(failures), failures=failures)
    return result


def traced_units(
    workload: Any, seed: int, budget: float, untraced_wall: float, prints: set[str]
) -> tuple[dict[str, float], int, list[str]]:
    """Repeat the unit with tracing on; per-layer metrics are the medians
    over the traced units, plus the direct layer probes."""
    name = workload.name
    samples: list[dict[str, float]] = []
    walls: list[float] = []
    failures: list[str] = []
    ops = 0
    while not walls or sum(walls) < budget:
        setup_tr, run_tr = Tracer(name), Tracer(name)
        _, outcome = timed_unit(workload, seed, setup_tr, run_tr)
        ops += outcome.ops
        failures += outcome.failures
        if fingerprint(outcome.payload) not in prints:
            failures.append(f"{name}: traced records differ from untraced ones")
        layers = span_layers(setup_tr, run_tr)
        layers.update(outcome.layers)
        samples.append(layers)
        walls.append(outcome.wall_s)
    SCRATCH.mkdir(exist_ok=True)
    with open(SCRATCH / f"trace-{name}.json", "w") as f:
        json.dump({"setup": setup_tr.as_json(), "run": run_tr.as_json()}, f)
    out = {
        key: statistics.median(s[key] for s in samples if key in s)
        for key in {k for s in samples for k in s}
    }
    out.update(workload.probe(seed))
    traced_wall = statistics.median(walls)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return out, ops, failures


def contract_metrics(result: dict, trace: bool) -> dict:
    """Every metric of the set asked for, as BENCHMARK.json names them; a
    per-layer metric that does not apply to the workload reads 0."""
    if not trace:
        return {
            n: {"value": result["end_to_end"][n], "unit": m["unit"]}
            for n, m in END_TO_END.items()
        }
    values = result["per_layer"]
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return {
        n: {"value": values.get(n, 0.0), "unit": m["unit"]} for n, m in PER_LAYER.items()
    }


def contract_line(result: dict, trace: bool) -> str:
    """The driver's result object."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result, trace),
    })


def main_single(args: argparse.Namespace) -> int:
    result = run_single(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    if not result["end_to_end"]:
        return 1  # nothing was measured: no result line
    samples = result["samples"]
    for metric in ("wall_s", "setup_s"):
        s = samples[metric]
        print(f"{args.workload} {metric}: median {statistics.median(s):.4f} s "
              f"(min {min(s):.4f}, max {max(s):.4f}, n={len(s)})")
    print(f"{args.workload} peak_rss_mb: {result['end_to_end']['peak_rss_mb']:.1f} MB")
    print(f"{args.workload} ops: {result['attempted']} attempted, "
          f"{result['failed']} failed; fingerprint {result['fingerprint'][:16]}")
    print(contract_line(result, bool(args.trace)))
    return 0 if result["failed"] == 0 else 1


# ----------------------------------------------------------------------
# All workloads: fresh subprocess per run, one after another
# ----------------------------------------------------------------------
def spawn_run(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "bench.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name}: run produced no result (exit {proc.returncode})")
    return json.loads(lines[-1])


def summarize(values: list[float], unit: str) -> dict:
    return {
        "unit": unit, "median": statistics.median(values),
        "min": min(values), "max": max(values), "n": len(values), "samples": values,
    }


def run_set(args: argparse.Namespace, names: list[str], trace: bool) -> dict:
    """One full set: ``--repeats`` untraced runs per workload (run ``i``
    uses seed ``--seed + i`` under ``--vary-seed``), then one traced run."""
    out: dict[str, Any] = {}
    for name in names:
        runs = []
        for i in range(args.repeats):
            seed = args.seed + (i if args.vary_seed else 0)
            runs.append(spawn_run(name, seed, args.seconds, 0, args.smoke))
            print(f"  {name} run {i + 1}/{args.repeats} (seed {seed}): " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in runs[-1]["metrics"].items()
            ), flush=True)
        entry = {
            "end_to_end": {
                m: summarize([r["metrics"][m]["value"] for r in runs], spec["unit"])
                for m, spec in END_TO_END.items()
            },
            "ops": sum(r["attempted"] for r in runs),
            "ops_failed": sum(r["failed"] for r in runs),
        }
        if trace:
            traced = spawn_run(name, args.seed, args.seconds, 1, args.smoke)
            entry["per_layer"] = traced["metrics"]
            entry["ops"] += traced["attempted"]
            entry["ops_failed"] += traced["failed"]
        out[name] = entry
    return {
        "schema": 1,
        "host": host_facts(),
        "config": {
            "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
            "vary_seed": args.vary_seed, "smoke": args.smoke,
        },
        "workloads": out,
    }


def print_set(data: dict) -> None:
    host = data["host"]
    print(f"host: {host['nproc']} x {host['cpu_model']}, python {host['python']}, "
          f"numpy {host['numpy']}")
    for name, entry in data["workloads"].items():
        print(f"\n{name}: ops {entry['ops']}, ops_failed {entry['ops_failed']}")
        for metric, s in entry["end_to_end"].items():
            print(f"  {metric:<14} median {s['median']:>10.4f} {s['unit']:<3} "
                  f"(min {s['min']:.4f}, max {s['max']:.4f}, n={s['n']})")
        for metric, v in entry.get("per_layer", {}).items():
            print(f"    {metric:<40} {v['value']:>14.6g} {v['unit']}")


def failed_ops(data: dict) -> int:
    return sum(entry["ops_failed"] for entry in data["workloads"].values())


# ----------------------------------------------------------------------
# Comparing two sets
# ----------------------------------------------------------------------
def worse_by(metric: dict, base: float, new: float) -> float:
    """Relative change from ``base`` to ``new``, positive when worse."""
    change = (new - base) / base if base else 0.0
    return change if metric["better"] == "lower" else -change


def iqr_share(values: list[float]) -> float | None:
    """Distance between the quartiles as a share of the median, the
    spread the benchmark driver computes; needs four samples."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: dict, base: dict, new: dict) -> str:
    """``regressed`` / ``improved`` / ``unchanged``, or ``unresolved`` when
    either side's own min-max range is wider than the bound (unless every
    new run reads better than every base run)."""
    bound = metric["bound"]
    change = worse_by(metric, base["median"], new["median"])
    if change > bound:
        return "REGRESSED"
    lower = metric["better"] == "lower"
    all_better = new["max"] < base["min"] if lower else new["min"] > base["max"]
    noisy = any((s["max"] - s["min"]) / s["median"] > bound for s in (base, new))
    if noisy and not all_better:
        return "unresolved"
    return "improved" if change < -bound and all_better else "unchanged"


def compare(base: dict, new: dict) -> int:
    """Per-workload delta table: end-to-end first, then per-layer; every
    ratio printed with its base.  Returns the number of regressions."""
    regressions = 0
    for name, entry in new["workloads"].items():
        old = base["workloads"].get(name)
        if old is None:
            print(f"\n{name}: not in the base file")
            continue
        print(f"\n{name}")
        print(f"  {'end-to-end':<14} {'base':>11} {'new':>11} {'new/base':>9} "
              f"{'bound':>6}  verdict   (base min..max | new min..max)")
        for metric, spec in END_TO_END.items():
            b, n = old["end_to_end"][metric], entry["end_to_end"][metric]
            v = verdict(spec, b, n)
            regressions += v == "REGRESSED"
            print(f"  {metric:<14} {b['median']:>11.4f} {n['median']:>11.4f} "
                  f"{n['median'] / b['median']:>8.3f}x {spec['bound']:>6.0%}  {v:<9} "
                  f"({b['min']:.4f}..{b['max']:.4f} | {n['min']:.4f}..{n['max']:.4f})")
        if entry["ops_failed"] > old["ops_failed"]:
            print(f"  ops_failed {old['ops_failed']} -> {entry['ops_failed']}: REGRESSED")
            regressions += 1
        layers, old_layers = entry.get("per_layer"), old.get("per_layer")
        if layers and old_layers:
            print(f"  {'per-layer (one traced run each; not gated)':<44} "
                  f"{'base':>12} {'new':>12} {'new/base':>9}")
            for metric, v in layers.items():
                b = old_layers.get(metric, {}).get("value")
                if b is None or (b == 0 and v["value"] == 0):
                    continue
                ratio = f"{v['value'] / b:>8.3f}x" if b else "      new"
                print(f"    {metric:<42} {b:>12.6g} {v['value']:>12.6g} {ratio} "
                      f"{v['unit']}")
    return regressions


def check_noise(args: argparse.Namespace, names: list[str]) -> int:
    """Two full sets of the same code, back to back: both medians, their
    relative difference, each set's quartile spread, and the bound."""
    print("set A")
    a = run_set(args, names, trace=False)
    print("set B")
    b = run_set(args, names, trace=False)
    if args.out:
        Path(args.out).write_text(json.dumps({"a": a, "b": b}, indent=1) + "\n")
    bad = failed_ops(a) + failed_ops(b)
    print(f"\n{'workload':<24} {'metric':<12} {'median A':>10} {'median B':>10} "
          f"{'B vs A':>8} {'IQR A':>7} {'IQR B':>7} {'bound':>6}")
    for name in names:
        for metric, spec in END_TO_END.items():
            sa = a["workloads"][name]["end_to_end"][metric]
            sb = b["workloads"][name]["end_to_end"][metric]
            drift = abs(sb["median"] - sa["median"]) / sa["median"]
            spreads = [iqr_share(s["samples"]) for s in (sa, sb)]
            # set-up time's spread is reported, not gated (millisecond builds).
            over = drift > spec["bound"] or (
                metric != "setup_s"
                and any(s is not None and s > spec["bound"] for s in spreads)
            )
            bad += over
            cells = ["    n/a" if s is None else f"{s:>7.2%}" for s in spreads]
            print(f"{name:<24} {metric:<12} {sa['median']:>10.4f} {sb['median']:>10.4f} "
                  f"{drift:>8.2%} {cells[0]} {cells[1]} {spec['bound']:>6.0%}"
                  + ("  OVER" if over else ""))
    return 1 if bad else 0


# ----------------------------------------------------------------------
# Fingerprints, smoke, entry point
# ----------------------------------------------------------------------
def regen_expected(names: list[str]) -> int:
    """Rewrite ``expected/<workload>.seed<k>.json`` from this tree."""
    for name in names:
        workload = WORKLOADS[name]()
        for seed in EXPECTED_SEEDS:
            _, outcome = timed_unit(workload, seed, OFF, OFF)
            if outcome.failures:
                print("\n".join(outcome.failures), file=sys.stderr)
                return 1
            path = expected_path(name, seed)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({
                "workload": name, "seed": seed, "size": workload.size,
                "ops": outcome.ops, "sha256": fingerprint(outcome.payload),
            }, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


def smoke(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload at ~1/20 size, traced, in this process; the last
    line is one JSON object with every metric name that was emitted."""
    summary = {}
    failed = 0
    for name in names:
        result = run_single(name, args.seed, args.seconds, trace=True, smoke=True)
        for line in result["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
        failed += result["failed"]
        print(f"{name}: {result['units']} untraced unit(s), wall_s "
              f"{result['end_to_end']['wall_s']:.4f}, {result['attempted']} ops, "
              f"{result['failed']} failed")
        summary[name] = {
            "end_to_end": contract_metrics(result, False),
            "per_layer": contract_metrics(result, True),
            "failed": result["failed"],
        }
    print(json.dumps(summary))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="See perfbench/README.md for the workloads and metrics.",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in this process and print "
                             "the driver's JSON result as the last line")
    parser.add_argument("--seed", type=int, default=0,
                        help="every RNG input derives from it (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="measure for this long per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 sizes; without --workload: all six, traced")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh-process runs per workload (default 3)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i of a workload uses seed --seed + i")
    parser.add_argument("--only", help="comma-separated workload names")
    parser.add_argument("--out", help="write the set(s) to this JSON file")
    parser.add_argument("--compare", metavar="BASE.json",
                        help="print the delta table against a saved set")
    parser.add_argument("--check-noise", action="store_true",
                        help="run two sets back to back and compare them")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite the checked-in fingerprints")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else float(MANIFEST["run_seconds"])
    names = args.only.split(",") if args.only else [w["name"] for w in MANIFEST["workloads"]]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")

    if args.workload:
        return main_single(args)
    if args.regen_expected:
        return regen_expected(names)
    if args.check_noise:
        return check_noise(args, names)
    if args.smoke:
        return smoke(args, names)
    new = run_set(args, names, trace=bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(new, indent=1) + "\n")
    print_set(new)
    status = 1 if failed_ops(new) else 0
    if args.compare:
        base = json.loads(Path(args.compare).read_text())
        print(f"\ncompared with {args.compare} (host class here: {host_class()})")
        status |= 1 if compare(base, new) else 0
    return status


if __name__ == "__main__":
    raise SystemExit(main())
