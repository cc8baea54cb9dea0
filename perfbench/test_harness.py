"""Self-tests of the benchmark harness (not part of tier-1 ``testpaths``).

Run with ``python -m pytest perfbench/test_harness.py -q`` (~1 min).
They pin the benchmark's contract — names, counts, the prediction table,
the result line — and that a traced run changes no record.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import workloads  # noqa: E402
from tracing import OFF, Tracer  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "bench.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


# ----------------------------------------------------------------------
# BENCHMARK.json and the prediction table
# ----------------------------------------------------------------------
def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    names = []
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert UNIT.fullmatch(m["unit"]), m
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_manifest_lists_the_workload_table():
    listed = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
    assert listed == {name: cls.why for name, cls in workloads.WORKLOADS.items()}


def test_every_layer_metric_predicts_an_end_to_end_metric_and_workload():
    layer = [m["name"] for m in MANIFEST["per_layer"]]
    assert sorted(PREDICTIONS) == sorted(layer)
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    for name, prediction in PREDICTIONS.items():
        assert prediction["moves"] in end_to_end, name
        assert prediction["on"], name
        assert set(prediction["on"]) <= set(workloads.WORKLOADS), name


def test_expected_fingerprints_are_checked_in():
    for name in workloads.WORKLOADS:
        for seed in bench.EXPECTED_SEEDS:
            entry = json.loads(bench.expected_path(name, seed).read_text())
            assert entry["workload"] == name and entry["seed"] == seed
            assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"])


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class _Layer:
    def work(self, n):
        return sum(range(n))


def test_self_times_sum_to_the_root_span():
    tr = Tracer("t")
    layer = _Layer()
    tr.time_calls(layer, "work", "leaf.work")
    with tr.span("root"):
        with tr.span("child"):
            layer.work(10_000)
        with tr.span("child"):
            pass
        layer.work(10_000)
    own, total = tr.self_times(), tr.totals()
    assert sum(own.values()) == pytest.approx(total["root"], rel=1e-9)
    assert tr.leaves["leaf.work"][0] == 2
    assert own["leaf.work"] == pytest.approx(tr.leaves["leaf.work"][1])
    assert own["child"] < total["child"]  # the aggregated call left it
    assert tr.as_json()["spans"][1][3] == 0  # child's parent is the root


def test_wrapping_is_per_instance_idempotent_and_transparent():
    tr = Tracer("t")
    a, b = _Layer(), _Layer()
    tr.wrap(a, "work", "layer.work")
    tr.wrap(a, "work", "layer.work")  # a shared object wrapped twice
    assert a.work(5) == 10 and b.work(5) == 10
    assert tr.names == ["layer.work"]
    assert "work" not in vars(b)


def test_disabled_tracer_records_and_wraps_nothing():
    layer = _Layer()
    OFF.wrap(layer, "work", "x")
    OFF.time_calls(layer, "work", "x")
    with OFF.span("x"):
        OFF.add("x")
    assert "work" not in vars(layer)
    assert not OFF.names and not OFF.counts and not OFF.leaves


# ----------------------------------------------------------------------
# Traced and untraced runs produce the same records
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_fingerprints_agree(name):
    workload = workloads.WORKLOADS[name](smoke=True)
    _, plain = bench.timed_unit(workload, 3, OFF, OFF)
    setup_tr, run_tr = Tracer(name), Tracer(name)
    _, traced = bench.timed_unit(workload, 3, setup_tr, run_tr)
    assert not plain.failures and not traced.failures
    assert workloads.fingerprint(traced.payload) == workloads.fingerprint(plain.payload)
    assert run_tr.names, "the traced run recorded no span"
    layers = workloads.span_layers(setup_tr, run_tr)
    shares = sum(v for k, v in layers.items() if k.startswith("trace.share."))
    assert shares == pytest.approx(1.0, abs=0.05)  # self times cover the wall


def test_a_changed_record_fails_the_run(tmp_path, monkeypatch):
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps({"sha256": "0" * 64}))
    monkeypatch.setattr(bench, "expected_path", lambda name, seed: wrong)
    monkeypatch.setattr(bench, "MIN_UNITS", 1)
    result = bench.run_single("allreduce_drain_slot", 0, 0.0, trace=False, smoke=False)
    assert result["failed"] == 1 and "records differ" in result["failures"][0]
    assert json.loads(bench.contract_line(result, False))["correct"] is False


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_summary():
    t0 = time.perf_counter()
    proc = run_bench("--smoke")
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def test_smoke_emits_every_metric_name_for_every_workload(smoke_summary):
    summary, elapsed = smoke_summary
    assert elapsed < 30
    assert list(summary) == [w["name"] for w in MANIFEST["workloads"]]
    for name, entry in summary.items():
        assert entry["failed"] == 0, name
        for key in ("end_to_end", "per_layer"):
            wanted = {m["name"]: m["unit"] for m in MANIFEST[key]}
            got = {m: v["unit"] for m, v in entry[key].items()}
            assert got == wanted, (name, key)
        assert all(v["value"] > 0 for v in entry["end_to_end"].values()), name


def test_smoke_reproduces_the_contrasts_the_workloads_exist_for(smoke_summary):
    layers = {name: entry["per_layer"] for name, entry in smoke_summary[0].items()}

    def value(workload, metric):
        return layers[workload][metric]["value"]

    assert value("fig1_diameter", "trace.share.topology") >= 0.8
    assert value("fig1_diameter", "trace.share.simulator") == 0
    assert value("loadsweep_slot", "experiments.cache_hit_ratio") == 1.0
    assert value("sparse_transient_event", "simulator.event.active_switch_share") < 0.5
    assert value("sparse_transient_event", "simulator.fault_event_s") > 0
    assert value("allreduce_drain_slot", "simulator.collective.jct_cycles") > 0
    for name in ("dense_hotspot_array", "mesh_alloc_array"):
        rebuilds = value(name, "simulator.array.fallback_rebuilds")
        assert rebuilds > 0 and value(name, "simulator.array.fallback_s") > 0


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_of_a_single_run(trace, key):
    proc = run_bench("--workload", "fig1_diameter", "--seed", "5", "--seconds", "0.2",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in MANIFEST[key]]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = run_bench("--workload", "fig1_diameter", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "bench.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ----------------------------------------------------------------------
# --compare verdicts
# ----------------------------------------------------------------------
def _summary(*values):
    return bench.summarize(list(values), "s")


def test_compare_verdicts():
    wall = {"name": "wall_s", "better": "lower", "bound": 0.10}
    base = _summary(1.00, 1.01, 1.02)
    assert bench.verdict(wall, base, _summary(1.20, 1.21, 1.22)) == "REGRESSED"
    assert bench.verdict(wall, base, _summary(1.00, 1.02, 1.03)) == "unchanged"
    assert bench.verdict(wall, base, _summary(0.80, 0.81, 0.82)) == "improved"
    # A side whose own runs spread wider than the bound settles nothing ...
    assert bench.verdict(wall, base, _summary(0.90, 1.00, 1.15)) == "unresolved"
    # ... unless every new run beats every base run.
    assert bench.verdict(wall, base, _summary(0.70, 0.80, 0.95)) == "improved"
    higher = {"name": "x", "better": "higher", "bound": 0.10}
    assert bench.verdict(higher, base, _summary(0.80, 0.81, 0.82)) == "REGRESSED"


def test_compare_prints_both_sections(capsys):
    entry = {
        "end_to_end": {m["name"]: _summary(1.0, 1.1, 1.2) for m in MANIFEST["end_to_end"]},
        "per_layer": {"simulator.allocate_s": {"value": 2.0, "unit": "s"}},
        "ops": 3, "ops_failed": 0,
    }
    data = {"workloads": {"mesh_alloc_array": entry}}
    assert bench.compare(data, data) == 0
    out = capsys.readouterr().out
    assert "wall_s" in out and "1.000x" in out and "simulator.allocate_s" in out
