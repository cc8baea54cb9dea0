"""The router-microarchitecture ablation sweep, figure driver and CLI."""

import json

from repro.experiments.cli import main
from repro.experiments.executor import (
    ParallelExecutor,
    SerialExecutor,
    job_key,
)
from repro.experiments.figures import fig_ablation_arbiter
from repro.experiments.sweeps import (
    DEFAULT_ARBITERS,
    ablation_arbiter_jobs,
    run_sweep,
)
from repro.topology.base import Network
from repro.topology.hyperx import HyperX


def _net():
    return Network(HyperX((3, 3), 2))


class TestAblationJobs:
    def test_job_grid(self):
        jobs = ablation_arbiter_jobs(
            _net(), ("PolSP",), ("uniform",), (0.5,),
            arbiters=("qp", "age"), flow_controls=("vct", "saf"),
            link_latencies=(1, 2), warmup=20, measure=40,
        )
        assert len(jobs) == 2 * 2 * 2
        combos = {
            (j.config.arbiter, j.config.flow_control, j.config.link_latency_slots)
            for j in jobs
        }
        assert combos == {
            (a, f, k) for a in ("qp", "age") for f in ("vct", "saf") for k in (1, 2)
        }

    def test_components_enter_cache_key(self):
        base, qp_alt, lat_alt = (
            ablation_arbiter_jobs(
                _net(), ("PolSP",), ("uniform",), (0.5,),
                arbiters=(arb,), link_latencies=(lat,), warmup=20, measure=40,
            )[0]
            for arb, lat in (("qp", 1), ("age", 1), ("qp", 2))
        )
        assert len({job_key(base), job_key(qp_alt), job_key(lat_alt)}) == 3

    def test_records_annotated(self):
        recs = run_sweep(ablation_arbiter_jobs(
            _net(), ("PolSP",), ("uniform",), (0.4,),
            arbiters=("qp", "random"), warmup=20, measure=60,
        ))
        assert len(recs) == 2
        for rec in recs:
            assert rec["flow_control"] == "vct"
            assert rec["link_latency"] == 1
            assert rec["microarch"] == f"{rec['arbiter']}/vct/L1"
        assert {r["arbiter"] for r in recs} == {"qp", "random"}

    def test_serial_parallel_cache_identical(self, tmp_path):
        jobs = ablation_arbiter_jobs(
            _net(), ("PolSP",), ("uniform",), (0.5,),
            arbiters=("qp", "roundrobin"), link_latencies=(1, 2),
            warmup=20, measure=40,
        )
        serial = run_sweep(jobs)
        assert run_sweep(jobs, ParallelExecutor(jobs=2)) == serial
        cache = tmp_path / "cache"
        first = run_sweep(jobs, SerialExecutor(cache_dir=cache))
        cached = run_sweep(jobs, SerialExecutor(cache_dir=cache))
        # Labels are re-stamped on cache hits, so records round-trip.
        assert first == cached
        assert {r["microarch"] for r in cached} == {r["microarch"] for r in serial}


class TestFigureDriver:
    def test_fig_ablation_arbiter_defaults(self):
        recs = fig_ablation_arbiter(
            "tiny", mechanisms=("PolSP",), arbiters=("qp",), loads=(0.4,)
        )
        assert recs and all(r["arbiter"] == "qp" for r in recs)

    def test_rpn_dropped_in_2d(self):
        recs = fig_ablation_arbiter(
            "tiny", dims=2, mechanisms=("PolSP",),
            traffics=("uniform", "rpn"), arbiters=("qp",), loads=(0.4,),
        )
        assert all(r["traffic"] == "uniform" for r in recs)


class TestCli:
    def test_subcommand_runs_end_to_end(self, capsys, tmp_path):
        out_json = tmp_path / "ablation.json"
        rc = main([
            "fig-ablation-arbiter", "--scale", "tiny",
            "--mechanisms", "PolSP", "--arbiters", "qp", "random",
            "--link-latencies", "1", "--loads", "0.4",
            "--json", str(out_json),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "microarch" in out and "qp/vct/L1" in out
        recs = json.loads(out_json.read_text())
        assert {r["arbiter"] for r in recs} == {"qp", "random"}

    def test_docstring_lists_subcommand(self):
        from repro.experiments import cli

        assert "fig-ablation-arbiter" in cli.__doc__

    def test_default_arbiters_cover_registry(self):
        from repro.simulator.arbiters import ARBITERS

        assert set(DEFAULT_ARBITERS) == set(ARBITERS)
