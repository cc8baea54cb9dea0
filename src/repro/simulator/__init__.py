"""Slot-level network simulator: the reproduction's CAMINOS substitute.

The router microarchitecture is composed from three pluggable component
families — :mod:`~repro.simulator.arbiters` (output selection + grant
order), :mod:`~repro.simulator.flowcontrol` (grant admission) and
:mod:`~repro.simulator.links` (link latency / in-flight transport) —
selected by :class:`SimConfig` and defaulting to the paper's
microarchitecture (Q+P, virtual cut-through, 1-slot links).

The *engine backend* — how the loop schedules switch visits each slot —
is a fourth pluggable axis (:mod:`~repro.simulator.backends`):
``SimConfig(backend=...)`` selects ``"slot"`` (the reference engine,
which visits only the switches on its busy agenda) or ``"array"`` (the
same engine with a Q+P plan cache), and :func:`make_simulator` is
the public construction façade that resolves it.
"""

from __future__ import annotations

from .arbiters import (
    ARBITERS,
    AgeBasedArbiter,
    Arbiter,
    QPArbiter,
    RandomArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from .backends import ENGINE_BACKENDS, make_simulator
from .collective import (
    COLLECTIVES,
    CollectiveEntry,
    CollectiveInjection,
    CollectivePolicy,
    CollectiveTooLarge,
    all_gather_ring,
    all_reduce_ring,
    all_reduce_tree,
    collective_entries,
    make_collective,
)
from .config import PAPER_CONFIG, SimConfig, table2_rows
from .engine import DeadlockError, Simulator
from .flowcontrol import (
    FLOW_CONTROLS,
    FlowControl,
    StoreAndForward,
    VirtualCutThrough,
    make_flow_control,
)
from .injection import (
    INJECTIONS,
    BatchInjection,
    BernoulliInjection,
    InjectionProcess,
    OnOffInjection,
    make_injection,
)
from .links import LinkModel, PipelinedLink, UnitSlotLink, make_link_model
from .metrics import MetricsCollector, SimResult, jain_index
from .packet import Packet
from .schedule import LINK_DOWN, LINK_UP, FaultEvent, FaultSchedule
from .switch import Switch
from .workload import SET_OFFERED, SET_PATTERN, WorkloadEvent, WorkloadSchedule

__all__ = [
    "ARBITERS",
    "AgeBasedArbiter",
    "Arbiter",
    "BatchInjection",
    "BernoulliInjection",
    "COLLECTIVES",
    "CollectiveEntry",
    "CollectiveInjection",
    "CollectivePolicy",
    "CollectiveTooLarge",
    "DeadlockError",
    "ENGINE_BACKENDS",
    "FLOW_CONTROLS",
    "FaultEvent",
    "FaultSchedule",
    "FlowControl",
    "INJECTIONS",
    "InjectionProcess",
    "LINK_DOWN",
    "LINK_UP",
    "LinkModel",
    "MetricsCollector",
    "OnOffInjection",
    "PAPER_CONFIG",
    "Packet",
    "PipelinedLink",
    "QPArbiter",
    "RandomArbiter",
    "RoundRobinArbiter",
    "SET_OFFERED",
    "SET_PATTERN",
    "SimConfig",
    "SimResult",
    "Simulator",
    "StoreAndForward",
    "Switch",
    "UnitSlotLink",
    "VirtualCutThrough",
    "WorkloadEvent",
    "WorkloadSchedule",
    "all_gather_ring",
    "all_reduce_ring",
    "all_reduce_tree",
    "collective_entries",
    "jain_index",
    "make_arbiter",
    "make_collective",
    "make_flow_control",
    "make_injection",
    "make_link_model",
    "make_simulator",
    "table2_rows",
]
