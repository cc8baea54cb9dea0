"""Simulation parameters (paper §4, Table 2).

The paper simulates phit-level virtual cut-through with 16-phit packets.
This reproduction advances time in *slots* of one packet transmission
(= ``packet_phits`` cycles): every link moves at most one packet per slot
and all occupancies and penalties are accounted in phits so the paper's
penalty constants apply unchanged (see README.md, "Key substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the cycle(-slot)-level simulator.

    Defaults reproduce the paper's Table 2.

    Attributes
    ----------
    input_buffer_packets:
        Capacity of every input VC FIFO, in packets (paper: 8).
    output_buffer_packets:
        Capacity of every output VC FIFO, in packets (paper: 4).
    packet_phits:
        Packet length in phits (paper: 16); also the cycles-per-slot
        conversion factor for reported latencies.
    crossbar_speedup:
        Grants per output port and per input port per slot (paper: 2).
    source_queue_packets:
        Capacity of each server's source (generation) queue.  Finite so
        that saturated servers throttle generation, which is what the Jain
        index of *generated* load measures.  Not in Table 2; chosen to be
        deep enough not to limit sub-saturation injection.
    deadlock_threshold_slots:
        Watchdog: slots without any ejection or crossbar grant (while
        packets are in flight) after which the network is declared
        deadlocked/stalled.
    arbiter:
        Output-selection/grant-order policy, by registry name (see
        :data:`repro.simulator.arbiters.ARBITERS`).  ``"qp"`` is the
        paper's Q+P rule; ``"roundrobin"``, ``"age"`` and ``"random"``
        open the arbitration ablation axis.
    flow_control:
        Grant admission policy, by registry name (see
        :data:`repro.simulator.flowcontrol.FLOW_CONTROLS`): ``"vct"``
        (paper) or ``"saf"``.
    link_latency_slots:
        Slots a packet spends on each link: 1 (paper) uses the immediate
        :class:`~repro.simulator.links.UnitSlotLink`; ``k > 1`` the
        in-flight-tracking :class:`~repro.simulator.links.PipelinedLink`.
    injection:
        Generation regime, by registry name (see
        :data:`repro.simulator.injection.INJECTIONS`): ``"bernoulli"``
        (paper, steady-state) or ``"onoff"`` (Markov-modulated bursts at
        the same normalised offered load).
    burst_slots / idle_slots:
        Mean ON-burst and OFF-idle lengths of the ``"onoff"`` process
        (geometric sojourns); ignored by ``"bernoulli"``.
    rng_streams:
        ``"shared"`` (historical) draws arbiter tie-breaks, injection
        coins and traffic destinations from one generator — the paper
        reproduction's exact stream.  ``"split"`` gives traffic and
        injection their own spawned child generators, so swapping the
        injection model cannot perturb the destination sequence (the
        workload sweeps run split; the default stays shared so the
        golden fingerprint holds bit-for-bit).
    backend:
        Engine backend, by registry name (see
        :data:`repro.simulator.backends.ENGINE_BACKENDS`): ``"slot"``
        (default, the reference engine) or ``"array"`` (the same engine
        with a plan cache around the Q+P request scan — record-identical,
        faster on dense allocation-bound points).  The alias ``"event"`` is stored
        as ``"slot"``.  Flows into every sweep job's cache key like any
        other simulator parameter.
    collective:
        Closed-loop collective workload, by registry name (see
        :data:`repro.simulator.collective.COLLECTIVES`), or ``"none"``
        (default) for the open-loop ``injection`` regime.  A non-none
        value turns the point into a drain-until-complete run whose
        figure of merit is the job completion time
        (:attr:`~repro.simulator.metrics.SimResult.jct_cycles`); the
        executor then treats the job's ``measure`` as the max-slot
        budget and ignores ``offered``/``injection``.
    chunk_packets:
        Size of each collective chunk transfer, in 16-phit packets
        (ignored when ``collective == "none"``).
    """

    input_buffer_packets: int = 8
    output_buffer_packets: int = 4
    packet_phits: int = 16
    crossbar_speedup: int = 2
    source_queue_packets: int = 16
    deadlock_threshold_slots: int = 500
    arbiter: str = "qp"
    flow_control: str = "vct"
    link_latency_slots: int = 1
    injection: str = "bernoulli"
    burst_slots: int = 8
    idle_slots: int = 8
    rng_streams: str = "shared"
    backend: str = "slot"
    collective: str = "none"
    chunk_packets: int = 1

    def __post_init__(self) -> None:
        for name in (
            "input_buffer_packets",
            "output_buffer_packets",
            "packet_phits",
            "crossbar_speedup",
            "source_queue_packets",
            "deadlock_threshold_slots",
            "link_latency_slots",
            "burst_slots",
            "idle_slots",
            "chunk_packets",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # Late imports: the component registries import this module.
        # ``require`` (not ``canonical``): config fields travel verbatim
        # into cache keys, so only exact registry names are accepted —
        # "QP" and "qp" must never address two cache entries for one
        # physical configuration.
        from .arbiters import ARBITERS
        from .backends import ENGINE_BACKENDS
        from .flowcontrol import FLOW_CONTROLS
        from .injection import INJECTIONS

        ARBITERS.require(self.arbiter)
        FLOW_CONTROLS.require(self.flow_control)
        INJECTIONS.require(self.injection)
        # An exact alias ("event") is stored as the engine it names, so
        # one engine has one cache address.
        backend = ENGINE_BACKENDS.require(self.backend, aliases=True)
        object.__setattr__(self, "backend", backend)
        if self.collective != "none":
            from .collective import COLLECTIVES

            COLLECTIVES.require(self.collective)
        if self.rng_streams not in ("shared", "split"):
            raise ValueError(
                f"rng_streams must be 'shared' or 'split', got {self.rng_streams!r}"
            )

    def with_(self, **kw: Any) -> "SimConfig":
        """A copy with some fields replaced."""
        return replace(self, **kw)

    @property
    def cycles_per_slot(self) -> int:
        """Cycles represented by one simulation slot (= packet serialization)."""
        return self.packet_phits


#: The paper's Table 2 configuration.
PAPER_CONFIG = SimConfig()


def table2_rows(config: SimConfig = PAPER_CONFIG) -> list[tuple[str, str]]:
    """The rows of the paper's Table 2, for the table-regeneration bench.

    Derived from the config so a component ablation prints its actual
    microarchitecture; the defaults reproduce the paper's table verbatim.
    """
    from .flowcontrol import FLOW_CONTROLS

    c = config
    latency = (
        "1 cycle"
        if c.link_latency_slots == 1
        else f"{c.link_latency_slots} slots (pipelined)"
    )
    return [
        ("Input Buffer size", f"{c.input_buffer_packets} packets"),
        ("Output Buffer size", f"{c.output_buffer_packets} packets"),
        ("Flow control", FLOW_CONTROLS[c.flow_control].label),
        ("Packet length", f"{c.packet_phits} phits"),
        ("Link latency", latency),
        ("Crossbar latency", "1 cycle (link)"),
        ("Crossbar internal speedup", str(c.crossbar_speedup)),
    ]
