"""Parallel point-execution subsystem for experiment sweeps.

Every figure of the paper is a sweep over *independent* simulation points
— (network, mechanism, traffic, load, seed) tuples.  This module turns a
sweep into data plus a strategy:

* :class:`PointJob` — a fully-specified, picklable description of one
  point: topology, fault set, :class:`~repro.experiments.runner.PointSpec`
  and the run window.  Sweeps *generate* lists of jobs instead of
  simulating inline.
* :func:`run_job` — simulates one job to a flat record dict (through
  :func:`build_job`, which assembles its simulator unstepped).  A
  per-process runner cache reuses routing tables / escape subnetworks
  across jobs on the same network, so workers pay table construction once
  per (topology, faults, root) — exactly like the serial runner did.
* :class:`SerialExecutor` — runs jobs in-process, in order; its output is
  record-for-record identical to the historical nested-loop sweeps.
* :class:`ParallelExecutor` — fans jobs out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Results keep job
  order, and because every job carries its own seed the records are
  deterministic and identical to the serial ones regardless of worker
  count or scheduling.
* Content-addressed result cache — any executor can be given a
  ``cache_dir``; records are stored under a SHA-256 of the job's full
  content (topology signature, faults, point spec, window, simulator
  config), so repeated figure runs are free and stale entries are
  impossible by construction.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import tempfile
import warnings
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..simulator.config import PAPER_CONFIG, SimConfig
from ..simulator.engine import Simulator
from ..simulator.metrics import SimResult
from ..simulator.schedule import FaultSchedule
from ..simulator.workload import WorkloadSchedule
from ..topology.base import Link, Network, Topology
from ..topology.fattree import FatTree
from ..topology.graph import NetworkDisconnected
from ..topology.hyperx import HyperX
from ..topology.torus import Torus
from .runner import ExperimentRunner, PointSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.collective import CollectiveInjection

#: Salt of the on-disk cache key.  Bump it, once per change, when a
#: change alters what a job produces without altering its payload below
#: (a simulator, routing or record-shape change), and when ``SimConfig``
#: gains or loses a field (``test_config_fields_are_pinned_to_the_cache_version``
#: pins the field list to this number), so no entry stored by an earlier
#: generation can answer a job of this one.  CHANGES.md records each bump.
CACHE_VERSION = 8

@dataclass(frozen=True)
class PointJob:
    """One fully-specified simulation point, ready to run anywhere.

    Jobs are plain data: they pickle across process boundaries and
    serialise to a canonical JSON payload for content-addressed caching.
    The seed travels inside ``spec`` — parallel scheduling can never
    change which seed a point gets.
    """

    topology: Topology
    faults: tuple[Link, ...]
    spec: PointSpec
    warmup: int
    measure: int
    config: SimConfig = PAPER_CONFIG
    #: Mid-run link failure/repair schedule; ``None`` for static points.
    schedule: FaultSchedule | None = None
    #: Slots per transient-series bin (only meaningful with a schedule).
    series_interval: int | None = None
    #: Mid-run workload (pattern/load) phase schedule; ``None`` for
    #: single-phase points.
    workload: WorkloadSchedule | None = None
    #: Presentation-only ``(column, value)`` pairs the sweep builders
    #: attach (topology / shape / microarchitecture names...).  The
    #: executor stamps them onto the record *after* the cache, so they
    #: enter neither :func:`job_key` nor a stored entry and cached and
    #: fresh records agree by construction.
    labels: tuple[tuple[str, Any], ...] = ()

    def network(self) -> Network:
        return Network(self.topology, self.faults)


#: Per-object memo of topology signatures: sweeps reuse one topology
#: across hundreds of jobs, and the generic (non-HyperX) signature walks
#: every neighbour list — worth computing once per object, not per job.
_SIGNATURE_MEMO: "weakref.WeakKeyDictionary[Topology, str]" = (
    weakref.WeakKeyDictionary()
)


def topology_signature(topo: Topology) -> str:
    """A content-complete signature of a topology (canonical JSON).

    The deterministically parametric families (HyperX, torus/mesh,
    fat-tree) get compact forms — their constructor parameters define
    the graph completely; any other topology falls back to its full
    neighbour lists (which define a :class:`Topology` entirely).
    RandomRegular deliberately takes the fallback: its ``(n, degree,
    seed)`` triple names a numpy *stream*, which numpy does not keep
    stable across versions, so only the drawn wiring itself can address
    a cache entry safely.
    """
    sig = _SIGNATURE_MEMO.get(topo)
    if sig is None:
        if isinstance(topo, HyperX):
            payload = ["HyperX", list(topo.sides), topo.servers_per_switch]
        elif isinstance(topo, Torus):
            payload = [
                "Torus", list(topo.sides), topo.wrap, topo.servers_per_switch
            ]
        elif isinstance(topo, FatTree):
            payload = ["FatTree", topo.k, topo.servers_per_switch]
        else:
            payload = [
                type(topo).__name__,
                topo.servers_per_switch,
                [list(topo.neighbours(s)) for s in range(topo.n_switches)],
            ]
        sig = json.dumps(payload, separators=(",", ":"))
        _SIGNATURE_MEMO[topo] = sig
    return sig


def job_key(job: PointJob) -> str:
    """SHA-256 over the job's canonical content — the cache address."""
    spec = job.spec
    payload = {
        "cache_version": CACHE_VERSION,
        "topology": topology_signature(job.topology),
        "faults": sorted([a, b] for a, b in job.faults),
        "mechanism": spec.mechanism,
        "traffic": spec.traffic,
        "offered": spec.offered,
        "seed": spec.seed,
        "n_vcs": spec.n_vcs,
        "root": spec.root,
        "warmup": job.warmup,
        "measure": job.measure,
        "config": asdict(job.config),
        "schedule": None if job.schedule is None else job.schedule.canonical(),
        "series_interval": job.series_interval,
        "workload": None if job.workload is None else job.workload.canonical(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_record(
    job: PointJob,
    result: SimResult | None = None,
    *,
    injection: Any = None,
    dropped: int = 0,
) -> dict:
    """Flatten one job's :class:`SimResult` into a sweep record.

    ``result`` ``None`` is a point whose network is (or became)
    disconnected.  Fault sweeps can legitimately cut a network apart; the
    point is real data — zero accepted load, no latency — not a crash, and
    its record says ``disconnected: True`` so reporting can tell "no
    throughput" from "no network".  Both kinds carry the standard keys
    (in this order: CSV and JSON columns follow it) and then the same
    collective / schedule / workload keys, so downstream consumers see
    one record shape regardless of *when* the network fell apart.
    ``injection`` is a collective's closed-loop process (for its
    retransmission count); ``dropped`` is what a run lost on failed links
    before its network split.
    """
    r, nan = result, float("nan")
    record: dict[str, Any] = {
        "mechanism": job.spec.mechanism,
        "traffic": job.spec.traffic,
        "offered": job.spec.offered if r is None else r.offered,
        "accepted": 0.0 if r is None else r.accepted,
        "latency_cycles": nan if r is None else r.avg_latency_cycles,
        "jain": 0.0 if r is None else r.jain,
        "faults": len(job.faults),
        "deadlocked": False if r is None else r.deadlocked,
        "stalled": 0 if r is None else r.stalled_packets,
        "escape_fraction": 0.0 if r is None else r.escape_hop_fraction,
        "avg_hops": nan if r is None else r.avg_hops,
    }
    if r is None:
        record["disconnected"] = True
    if job.config.collective != "none":
        done = None if r is None else r.completion_slot
        record["collective"] = job.config.collective
        record["chunk_packets"] = job.config.chunk_packets
        record["jct_cycles"] = None if r is None else r.jct_cycles
        record["completion_slot"] = done
        record["drained"] = done is not None
        record["retransmitted"] = (
            injection.retransmitted if injection is not None else 0
        )
    if job.schedule is not None:
        record["dropped"] = dropped if r is None else r.dropped_packets
        record["schedule_events"] = len(job.schedule)
        record["series"] = [] if r is None else r.transient_series
    if job.workload is not None:
        record["workload_events"] = len(job.workload)
        record["phase_series"] = [] if r is None else r.phase_series
    return record


# ----------------------------------------------------------------------
# Per-process runner cache
# ----------------------------------------------------------------------
#: Runners keyed by network content, so consecutive jobs on the same
#: (topology, faults, root, config) share routing tables and the escape
#: subnetwork — in the serial executor and inside every pool worker alike.
_RUNNER_CACHE: dict[tuple, ExperimentRunner] = {}
_RUNNER_CACHE_MAX = 4


def _runner_key(job: PointJob) -> tuple:
    return (
        topology_signature(job.topology),
        frozenset(job.faults),
        job.config,
        job.spec.root,
    )


def _get_runner(job: PointJob) -> ExperimentRunner:
    key = _runner_key(job)
    runner = _RUNNER_CACHE.get(key)
    if runner is None:
        if len(_RUNNER_CACHE) >= _RUNNER_CACHE_MAX:
            # Sweeps emit jobs grouped by network; dropping the oldest
            # entry keeps memory bounded without hurting that pattern.
            _RUNNER_CACHE.pop(next(iter(_RUNNER_CACHE)))
        runner = ExperimentRunner(
            job.network(), config=job.config, root=job.spec.root
        )
        _RUNNER_CACHE[key] = runner
    return runner


def build_job(job: PointJob) -> tuple[Simulator, CollectiveInjection | None] | None:
    """Assemble one job's simulator without stepping it, together with
    the collective injection driving it (``None`` for an open-loop job);
    ``None`` instead when the job's fault set disconnects the network.

    A fault schedule mutates its network in place (that is the point),
    so those jobs get a fresh :class:`Network` and routing tables rather
    than the shared per-process runner: their records are independent of
    job order and of which worker picked the job up.  A collective
    (``config.collective``) drives its own closed-loop injection and
    drains within the ``measure`` budget — ``warmup`` and
    ``spec.offered`` are nominal, and a workload (phase) schedule is
    meaningless for a DAG-driven point and rejected.
    """
    spec, config = job.spec, job.config
    if job.schedule is not None:
        runner = ExperimentRunner(job.network(), config=config, root=spec.root)
    else:
        runner = _get_runner(job)
    if not runner.network.is_connected:
        return None
    collective = config.collective != "none"
    if collective and job.workload is not None:
        raise ValueError(
            "collective jobs drive their own injection; a workload "
            "schedule cannot apply"
        )
    traffic: Any = spec.traffic
    injection = None
    if collective:
        from ..simulator.collective import CollectiveInjection, make_collective
        from ..traffic.collective import CollectiveTraffic

        n_servers = runner.network.n_servers
        injection = CollectiveInjection(
            n_servers,
            make_collective(
                config.collective, n_servers,
                chunk_packets=config.chunk_packets,
            ),
        )
        traffic = CollectiveTraffic(runner.network, injection)
    sim = runner.build_simulator(
        spec.mechanism,
        traffic,
        1.0 if collective else spec.offered,
        seed=spec.seed,
        n_vcs=spec.n_vcs,
        injection=injection,
        series_interval=job.series_interval,
        fault_schedule=job.schedule,
        workload_schedule=job.workload,
    )
    return sim, injection


def run_job(job: PointJob) -> dict:
    """Simulate one job (:func:`build_job`) and return its sweep record.

    A job whose fault set disconnects the network — or whose fault
    schedule does so mid-run — yields a disconnected :func:`make_record`
    instead of propagating :class:`NetworkDisconnected` out of a pool
    worker and killing the whole sweep.
    """
    built = build_job(job)
    if built is None:
        return make_record(job)
    sim, injection = built
    try:
        if injection is not None:
            result = sim.run_until_drained(max_slots=job.measure)
        else:
            result = sim.run(warmup=job.warmup, measure=job.measure)
    except NetworkDisconnected:
        # A scheduled event cut the network: record the point instead of
        # crashing the worker (the engine raises before any mechanism
        # sees the split topology).
        return make_record(job, dropped=sim.metrics.dropped_total)
    return make_record(job, result, injection=injection)


# ----------------------------------------------------------------------
# Strict-JSON record encoding
# ----------------------------------------------------------------------
#: Record keys whose ``null`` means "not a number" (a deadlocked,
#: zero-delivery or disconnected point has no latency / hop count).
#: Used to restore ``NaN`` on load.
NAN_KEYS = frozenset({"latency_cycles", "avg_hops"})


def encode_json_safe(obj: Any) -> Any:
    """Replace non-finite floats with ``None``, recursively.

    ``json.dumps`` emits the literal ``NaN`` for ``float("nan")``, which is
    not valid strict JSON (``json.loads`` with a rejecting
    ``parse_constant`` fails, as do most non-Python consumers).  Cache
    files and CLI ``--json`` outputs are encoded through this helper so
    every stored byte is strict JSON.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: encode_json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_json_safe(v) for v in obj]
    return obj


def decode_json_safe(obj: Any) -> Any:
    """Undo :func:`encode_json_safe`: ``null`` under a NaN-able key -> NaN."""
    if isinstance(obj, dict):
        return {
            k: (
                float("nan")
                if v is None and k in NAN_KEYS
                else decode_json_safe(v)
            )
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [decode_json_safe(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class Executor:
    """Runs job lists to record lists, with optional on-disk caching.

    Subclasses implement :meth:`_execute`; the base class handles the
    content-addressed cache so every strategy gets it for free.
    """

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None and self.cache_dir.exists() \
                and not self.cache_dir.is_dir():
            raise ValueError(
                f"cache dir {str(self.cache_dir)!r} exists and is not a directory"
            )

    # -- cache ---------------------------------------------------------
    def _cache_path(self, job: PointJob) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{job_key(job)}.json"

    def _cache_load(self, job: PointJob) -> dict | None:
        path = self._cache_path(job)
        try:
            with open(path) as f:
                return decode_json_safe(json.load(f)["record"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Not a miss like any other: say so, then recompute (the
            # fresh record overwrites the bad entry).
            warnings.warn(
                f"unreadable cache entry {path} ({exc!r}); recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def _cache_store(self, job: PointJob, record: dict) -> None:
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._cache_path(job)
        # One temporary per *writer*: two sweeps finishing the same point
        # each publish a whole file, and the atomic replace means readers
        # never see halves.
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=f"{path.stem}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                # allow_nan=False: a non-finite float slipping past the
                # encoder fails loudly here instead of writing invalid
                # strict JSON.
                json.dump(
                    {"key": path.stem, "record": encode_json_safe(record)},
                    f,
                    allow_nan=False,
                )
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    # -- driving -------------------------------------------------------
    def run(self, jobs: Iterable[PointJob]) -> list[dict]:
        """Run ``jobs``; the result list matches the job order.

        Each fresh record reaches the cache as soon as :meth:`_execute`
        yields it, so a sweep that dies part-way (a job raising, a
        Ctrl-C) keeps every point it finished and a rerun resumes there.
        """
        job_list = list(jobs)
        records: dict[int, dict] = {}
        # Misses grouped by cache address: jobs differing only in labels
        # (a sweep's shared healthy-reference points) are one simulation.
        misses: dict[str, list[int]] = {}
        for i, job in enumerate(job_list):
            hit = self._cache_load(job) if self.cache_dir else None
            if hit is not None:
                records[i] = hit
            else:
                misses.setdefault(job_key(job), []).append(i)
        if misses:
            groups = list(misses.values())
            fresh = self._execute([job_list[group[0]] for group in groups])
            # ``fresh`` first: zip then runs a generator to its end, so a
            # pool it holds shuts down here, not at garbage collection.
            for rec, (first, *rest) in zip(fresh, groups):
                if self.cache_dir:
                    self._cache_store(job_list[first], rec)
                records[first] = rec
                for i in rest:
                    records[i] = copy.deepcopy(rec)
        # Labels go on after the cache, so a stored entry never holds
        # them and a hit gets exactly the columns a fresh run does.
        for i, job in enumerate(job_list):
            records[i].update(job.labels)
        return [records[i] for i in range(len(job_list))]

    def _execute(self, jobs: Sequence[PointJob]) -> Iterable[dict]:
        """The strategy hook: ``jobs``' records, in job order."""
        raise NotImplementedError


class SerialExecutor(Executor):
    """In-process, in-order execution — the historical sweep behaviour."""

    def _execute(self, jobs: Sequence[PointJob]) -> Iterator[dict]:
        for job in jobs:
            yield run_job(job)


#: Minimum estimated sweep work, in switch-slots, that each pool worker
#: must have to amortise before forking beats staying in-process.  A
#: worker costs roughly an interpreter start plus unpickling the shared
#: topology and warming its routing tables; measured against the array
#: backend's throughput that overhead is on the order of tens of
#: thousands of switch-slots, so anything below this floor per worker
#: finishes faster serially (the quick bench preset — 36 jobs of 300
#: slots on 16 switches — lands below it on small machines).
PER_WORKER_OVERHEAD = 50_000


def estimated_sweep_work(jobs: Sequence[PointJob]) -> int:
    """Total sweep size in switch-slots: Σ (warmup + measure) × switches.

    Switch-slots — one switch stepped through one slot — are the unit
    the simulators' hot loops scale in, so the sum is a machine-free
    proxy for run time that needs nothing but the job list.
    """
    return sum(
        (job.warmup + job.measure) * job.topology.n_switches for job in jobs
    )


def should_parallelize(
    jobs: Sequence[PointJob],
    workers: int,
    cpu_count: int | None = None,
) -> bool:
    """Whether a process pool of ``workers`` beats running ``jobs`` serially.

    False when there is nothing to split (``workers <= 1`` or a single
    job), when the machine cannot actually run workers side by side
    (``cpu_count <= 1`` — pools on one core pay fork/pickle overhead for
    zero concurrency), or when the sweep is too small to repay the pool:
    each worker must have at least :data:`PER_WORKER_OVERHEAD`
    switch-slots of estimated work.  ``cpu_count`` defaults to the
    machine's; tests pass it explicitly.
    """
    if workers <= 1 or len(jobs) <= 1:
        return False
    if (cpu_count if cpu_count is not None else os.cpu_count() or 1) <= 1:
        return False
    return estimated_sweep_work(jobs) >= workers * PER_WORKER_OVERHEAD


class ParallelExecutor(Executor):
    """Process-pool execution of independent points.

    Jobs go out one at a time and their records come back in job order,
    so each reaches the cache as soon as every job before it has: a pool
    sweep that dies keeps its finished prefix, as a serial one does.  Not
    in chunks: a job that raises fails its whole chunk, finished jobs
    included, and chunking buys no speed (each worker keeps its runner
    cache across jobs; ``fig4`` and ``fig6`` at ``--scale tiny --jobs 2``
    take the same time either way on a 2-CPU host).

    Parameters
    ----------
    jobs:
        Worker count; defaults to the machine's CPU count.  Results are
        identical to :class:`SerialExecutor` for any value — every point
        carries its own seed and the pool preserves job order.  The pool
        is only spun up when :func:`should_parallelize` says the sweep
        repays it; undersized sweeps (and single-CPU machines) run the
        jobs in-process instead.
    cache_dir:
        Optional content-addressed result cache shared with every other
        executor.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        super().__init__(cache_dir)
        # Explicit validation: a truthiness check here used to turn
        # ``jobs=0`` into "use every CPU" while make_executor(jobs=0)
        # went serial.  Only ``None`` means "default to the CPU count";
        # any explicit worker count must be >= 1.
        if jobs is None:
            self.n_workers = os.cpu_count() or 1
        else:
            jobs = int(jobs)
            if jobs < 1:
                raise ValueError(f"jobs must be >= 1, got {jobs}")
            self.n_workers = jobs

    def _execute(self, jobs: Sequence[PointJob]) -> Iterator[dict]:
        if not should_parallelize(jobs, self.n_workers):
            yield from map(run_job, jobs)
            return
        with ProcessPoolExecutor(min(self.n_workers, len(jobs))) as pool:
            yield from pool.map(run_job, jobs)


def make_executor(
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> Executor:
    """The executor the CLI flags describe: serial unless ``jobs > 1``.

    Any other ``jobs`` goes to :class:`ParallelExecutor`, which rejects a
    count below 1 — so ``jobs=0`` is an error everywhere instead of
    meaning "serial" here and "all CPUs" there.
    """
    if jobs is None or jobs == 1:
        return SerialExecutor(cache_dir=cache_dir)
    return ParallelExecutor(jobs=jobs, cache_dir=cache_dir)
