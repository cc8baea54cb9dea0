"""Flow-control policies: when may a packet be granted toward an output?

The engine's allocation phase admits a candidate ``(port, vc)`` only when
the flow-control policy accepts it.  Policies are deliberately expressed
as two *thresholds* the hot loop can read as plain integers —
``min_credits`` (downstream input slots that must be free) and
``output_capacity`` (output-FIFO depth the grant may fill up to) — so
that plugging a policy costs nothing on the paper's fast path: the
:class:`~repro.simulator.arbiters.QPArbiter` inlines the comparison
``credits[pv] >= min_credits and len(out_q[pv]) < output_capacity``
exactly as the monolithic engine used to.

Implementations
---------------
* :class:`VirtualCutThrough` (``"vct"``, the paper's Table 2 default) —
  allocation-time credit reservation: one free downstream slot suffices
  and the output FIFO may pipeline up to ``output_buffer_packets``.
* :class:`StoreAndForward` (``"saf"``) — the switch forwards a packet
  only when it can put it on the link in one piece: the output stage
  holds at most one packet, so back-to-back grants to the same output VC
  serialise.  At this simulator's packet-per-slot granularity that is
  where store-and-forward's lost pipelining shows up.

Adding a policy: subclass :class:`FlowControl`, implement
:meth:`configure`, and register it in :data:`FLOW_CONTROLS`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..registry import Registry
from .config import SimConfig


class FlowControl(ABC):
    """Admission policy for crossbar grants, as threshold values.

    ``attach`` is called once by the simulator; afterwards
    ``min_credits`` and ``output_capacity`` are plain ints the
    allocation loop reads directly.
    """

    #: Registry key and human label (subclasses override).
    name: str = "?"
    label: str = "?"

    def __init__(self) -> None:
        self.min_credits = 1
        self.output_capacity = 1

    def attach(self, cfg: SimConfig) -> None:
        """Bind to a simulator configuration (sizes the thresholds).

        Raises ``ValueError`` for thresholds that an empty output VC at
        full credit fails — more free slots than an input buffer holds,
        or no output-FIFO room.  Such a policy could never grant (the
        run would end as a watchdog "deadlock"), and the request scans
        admit every VC of an idle port without checking them.
        """
        min_credits, output_capacity = self.configure(cfg)
        if cfg.input_buffer_packets < min_credits or output_capacity < 1:
            raise ValueError(
                f"flow control {self.name!r} can never grant: it needs "
                f"{min_credits} free downstream slots of "
                f"input_buffer_packets={cfg.input_buffer_packets} and an "
                f"output capacity >= 1 (got {output_capacity})"
            )
        self.min_credits, self.output_capacity = min_credits, output_capacity

    @abstractmethod
    def configure(self, cfg: SimConfig) -> tuple[int, int]:
        """Return ``(min_credits, output_capacity)`` for this config."""

    def can_accept(self, sw, port: int, vc: int) -> bool:
        """Semantic form of the admission test (helpers/tests; the
        arbiters inline the same comparison on the raw arrays)."""
        pv = sw.pv(port, vc)
        return (
            sw.credits[pv] >= self.min_credits
            and len(sw.out_q[pv]) < self.output_capacity
        )

    def admission_mask(self, credits_row, occupancy_row, pv):
        """Vectorized form of :meth:`can_accept` over candidate flat
        ``pv`` indices: a boolean array against one switch's ``credits``
        store row and its output-FIFO occupancies.  Because policies are
        threshold pairs, every registered flow control vectorizes through
        this one expression — the array backend calls it instead of
        inlining the thresholds, so custom policies stay backend-portable."""
        return (credits_row[pv] >= self.min_credits) & (
            occupancy_row[pv] < self.output_capacity
        )


class VirtualCutThrough(FlowControl):
    """The paper's flow control: reserve one downstream slot per grant."""

    name = "vct"
    label = "Virtual cut-through"

    def configure(self, cfg: SimConfig) -> tuple[int, int]:
        return 1, cfg.output_buffer_packets


class StoreAndForward(FlowControl):
    """No output pipelining: at most one packet staged per output VC."""

    name = "saf"
    label = "Store-and-forward"

    def configure(self, cfg: SimConfig) -> tuple[int, int]:
        return 1, 1


#: Registry of flow-control policies by config name.
FLOW_CONTROLS = Registry("flow control")
for _cls in (VirtualCutThrough, StoreAndForward):
    FLOW_CONTROLS.register(_cls.name, _cls, display=_cls.label)
del _cls


def make_flow_control(name: str) -> FlowControl:
    """Instantiate a registered flow-control policy (fresh per simulator)."""
    return FLOW_CONTROLS.make(name)
