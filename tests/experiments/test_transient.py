"""Transient subsystem through the executor: identity, caching, strict JSON."""

import json
import math

import pytest

from repro.experiments.executor import (
    ParallelExecutor,
    SerialExecutor,
    decode_json_safe,
    encode_json_safe,
    job_key,
    make_executor,
)
from repro.experiments.sweeps import load_sweep_jobs, run_sweep
from repro.simulator.schedule import FaultSchedule
from repro.topology.faults import random_connected_fault_sequence

KW = dict(warmup=40, measure=200, n_vcs=4, series_interval=25)


def _jobs(net, mechanisms, schedule):
    """One transient point per mechanism: uniform traffic at load 0.6."""
    return load_sweep_jobs(
        net, mechanisms, ["uniform"], [0.6], schedule=schedule, **KW
    )


@pytest.fixture(scope="module")
def schedule(hx2d):
    links = random_connected_fault_sequence(hx2d, 2, rng=9)
    return FaultSchedule.down_then_up(80, 160, links)


def _norm(records):
    """NaN-robust structural comparison key."""
    return json.dumps(encode_json_safe(records), sort_keys=True)


class TestTransientThroughExecutor:
    def test_records_carry_transient_payload(self, net2d, schedule):
        (rec,) = run_sweep(_jobs(net2d, ["PolSP"], schedule))
        assert rec["schedule_events"] == len(schedule)
        assert isinstance(rec["series"], list) and rec["series"]
        assert {"slot", "accepted", "latency_cycles", "stalls", "dropped"} <= set(
            rec["series"][0]
        )
        assert rec["accepted"] > 0.3  # recovered, not deadlocked

    def test_serial_parallel_identity(self, net2d, schedule):
        jobs = _jobs(net2d, ["OmniSP", "PolSP"], schedule)
        serial = run_sweep(jobs)
        for workers in (1, 4):
            par = run_sweep(jobs, ParallelExecutor(jobs=workers))
            assert _norm(par) == _norm(serial)

    def test_identity_through_the_cache(self, net2d, schedule, tmp_path):
        jobs = _jobs(net2d, ["PolSP"], schedule)
        fresh = run_sweep(jobs, SerialExecutor(cache_dir=tmp_path))
        cached = run_sweep(jobs, ParallelExecutor(jobs=2, cache_dir=tmp_path))
        assert _norm(cached) == _norm(fresh)

    def test_schedule_content_enters_job_key(self, net2d, schedule):
        j1 = _jobs(net2d, ["PolSP"], schedule)[0]
        j2 = _jobs(
            net2d, ["PolSP"], FaultSchedule.link_down(80, sorted(schedule.links()))
        )[0]
        static = _jobs(net2d, ["PolSP"], schedule)[0]
        assert job_key(j1) == job_key(static)  # deterministic
        assert job_key(j1) != job_key(j2)  # repair half matters

    def test_jobs_are_order_independent(self, net2d, schedule):
        """Transient jobs bypass the shared runner cache, so a mutated
        network from one job can never leak into the next."""
        jobs = _jobs(net2d, ["PolSP"], schedule)
        once = run_sweep(jobs)
        assert _norm(run_sweep(jobs + jobs)) == _norm(once + once)


class TestStrictJsonCache:
    def _deadlocked_sweep(self, net2d, tmp_path):
        """A zero-delivery point: offered 0.0 yields NaN latency."""
        ex = SerialExecutor(cache_dir=tmp_path)
        jobs = load_sweep_jobs(
            net2d, ["Minimal"], ["uniform"], [0.0], warmup=5, measure=10
        )
        return run_sweep(jobs, ex)

    def test_nan_record_round_trips_via_null(self, net2d, tmp_path):
        first = self._deadlocked_sweep(net2d, tmp_path)
        assert math.isnan(first[0]["latency_cycles"])

        def reject(token):
            raise AssertionError(f"non-strict JSON token {token!r} in cache")

        files = list(tmp_path.glob("*.json"))
        assert files
        for path in files:
            payload = json.loads(path.read_text(), parse_constant=reject)
            assert payload["record"]["latency_cycles"] is None

        cached = self._deadlocked_sweep(net2d, tmp_path)
        assert math.isnan(cached[0]["latency_cycles"])
        assert _norm(cached) == _norm(first)

    def test_encode_decode_helpers(self):
        rec = {
            "latency_cycles": float("nan"),
            "series": [{"latency_cycles": float("inf"), "accepted": 0.5}],
            "accepted": 1.0,
        }
        enc = encode_json_safe(rec)
        assert enc["latency_cycles"] is None
        assert enc["series"][0]["latency_cycles"] is None
        assert enc["accepted"] == 1.0
        dec = decode_json_safe(enc)
        assert math.isnan(dec["latency_cycles"])
        assert math.isnan(dec["series"][0]["latency_cycles"])
        assert dec["accepted"] == 1.0


class TestJobsValidationAgreement:
    """ParallelExecutor and make_executor agree: jobs <= 0 is an error."""

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_parallel_executor_rejects(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ParallelExecutor(jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_make_executor_rejects(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            make_executor(jobs)

    def test_none_still_defaults(self):
        assert ParallelExecutor(jobs=None).n_workers >= 1
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(4), ParallelExecutor)
