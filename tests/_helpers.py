"""Test helpers shared across the suite (imported via conftest's path hook)."""

from __future__ import annotations

from repro.experiments.executor import Executor, _runner_key, build_job, make_record
from repro.routing.base import LadderRouting
from repro.routing.catalog import MECHANISMS, make_mechanism
from repro.routing.escape_only import EscapeOnlyRouting
from repro.routing.tables import TableMinimalRoutes
from repro.simulator.packet import Packet
from repro.topology.base import Network
from repro.updown.escape import EscapeSubnetwork


def make_packet(
    network: Network,
    src_switch: int,
    dst_switch: int,
    pid: int = 0,
) -> Packet:
    """A packet between the first servers of two switches."""
    sps = network.servers_per_switch
    return Packet(
        pid,
        src_switch * sps,
        dst_switch * sps,
        src_switch,
        dst_switch,
        birth_slot=0,
    )


def walk_route(mechanism, network: Network, src: int, dst: int, rng, max_hops=64):
    """Drive one packet hop by hop, picking a random candidate each time.

    Returns the list of visited switches; raises if the mechanism strands
    the packet (no candidates before arrival) or exceeds ``max_hops``.
    """
    pkt = make_packet(network, src, dst)
    mechanism.init_packet(pkt)
    current = src
    visited = [current]
    while current != dst:
        if len(visited) > max_hops:
            raise AssertionError(f"route from {src} to {dst} exceeded {max_hops} hops")
        cands = mechanism.candidates(pkt, current)
        if not cands:
            raise AssertionError(
                f"no candidates at {current} en route {src}->{dst} after "
                f"{len(visited) - 1} hops"
            )
        port, vc, _pen = cands[int(rng.integers(len(cands)))]
        nxt = network.port_neighbour[current][port]
        assert nxt >= 0, "mechanism offered a dead port"
        mechanism.on_hop(pkt, current, nxt, port, vc)
        current = nxt
        visited.append(current)
    return visited


#: Every mechanism under ``routing/``: the six of Table 4 by catalogue
#: name, plus the ablation / table-validation ones the catalogue omits.
ALL_MECHANISMS = MECHANISMS + ("EscapeOnly", "UpDownOnly", "Minimal(table)")


def build_mechanism(name: str, net: Network):
    """Build any name in :data:`ALL_MECHANISMS` on ``net``."""
    if name == "EscapeOnly":
        return EscapeOnlyRouting(net, n_vcs=2)
    if name == "UpDownOnly":
        escape = EscapeSubnetwork(net, 0, shortcuts=False)
        return EscapeOnlyRouting(net, n_vcs=2, shortcuts=False, escape=escape)
    if name == "Minimal(table)":
        return LadderRouting("Minimal(table)", TableMinimalRoutes(net), 4, 2)
    return make_mechanism(name, net, rng=1)



class BuildOnlyExecutor(Executor):
    """Builds every distinct job's simulator (:func:`build_job`, the first
    half of ``run_job``) and steps none of them.

    Jobs differing only in offered load or seed build once.  Each record
    is the job's unsimulated one (what a disconnected point records), so
    a figure's tables still print; :attr:`records` keeps the last run's.
    """

    def __init__(self):
        super().__init__()
        self.built: set[tuple] = set()
        self.records: list[dict] = []

    def run(self, jobs):
        self.records = super().run(jobs)
        return self.records

    def _execute(self, jobs):
        for job in jobs:
            spec = job.spec
            key = (
                _runner_key(job), spec.mechanism, spec.traffic, spec.n_vcs,
                job.schedule, job.workload,
            )
            if key not in self.built:
                self.built.add(key)
                build_job(job)
            yield make_record(job)
