"""Single-point experiment runner shared by all figure drivers.

One *point* is (network, mechanism, traffic, offered load) simulated to a
:class:`~repro.simulator.metrics.SimResult`.  The runner caches the
expensive per-network artefacts — distance tables and the escape
subnetwork — so that sweeping six mechanisms over one topology computes
them once, like a real deployment would compute its routing tables once
per topology event.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..routing.catalog import MECHANISM_REGISTRY, make_mechanism
from ..simulator.backends import make_simulator
from ..simulator.config import PAPER_CONFIG, SimConfig
from ..simulator.engine import Simulator
from ..simulator.injection import BatchInjection
from ..simulator.metrics import SimResult
from ..topology.base import Network
from ..traffic import make_traffic
from ..traffic.base import TrafficPattern
from ..updown.escape import EscapeSubnetwork


@dataclass(frozen=True)
class PointSpec:
    """Everything identifying one simulated point."""

    mechanism: str
    traffic: str
    offered: float
    seed: int = 0
    n_vcs: int | None = None
    root: int = 0


class ExperimentRunner:
    """Runs points against one fixed network, sharing routing tables.

    Parameters
    ----------
    network:
        The network under test (faults already applied).
    config:
        Simulator parameters; defaults to the paper's Table 2.
    root:
        Escape-subnetwork root for the SurePath mechanisms.
    """

    def __init__(
        self,
        network: Network,
        config: SimConfig = PAPER_CONFIG,
        root: int = 0,
    ):
        self.network = network
        self.config = config
        self.root = root
        self._escape: EscapeSubnetwork | None = None
        self._traffic_cache: dict[tuple[str, int], TrafficPattern] = {}

    @property
    def escape(self) -> EscapeSubnetwork:
        """The shared escape subnetwork (built on first SurePath point)."""
        if self._escape is None:
            self._escape = EscapeSubnetwork(self.network, self.root)
        return self._escape

    def traffic(self, name: str, seed: int = 0) -> TrafficPattern:
        """Traffic pattern, cached per (name, seed).

        Accepts a ready :class:`TrafficPattern` instance as well (passed
        through uncached) — the hook closed-loop workloads use to drive
        the shared ``build_simulator`` path with adapters that carry live
        state (e.g. :class:`~repro.traffic.collective.CollectiveTraffic`).
        """
        if isinstance(name, TrafficPattern):
            return name
        key = (name.lower(), seed)
        if key not in self._traffic_cache:
            self._traffic_cache[key] = make_traffic(name, self.network, seed)
        return self._traffic_cache[key]

    def build_simulator(
        self,
        mechanism: str,
        traffic: str | TrafficPattern,
        offered: float,
        *,
        seed: int = 0,
        n_vcs: int | None = None,
        injection=None,
        series_interval: int | None = None,
        fault_schedule=None,
        workload_schedule=None,
    ) -> Simulator:
        """Assemble a simulator for one point (exposed for batch runs).

        The engine backend comes from ``self.config.backend``, resolved
        through :func:`repro.simulator.make_simulator` — so a runner
        built with an ``"array"`` config drives plan-cache engines
        everywhere without any caller changing.

        With a ``fault_schedule`` the simulation mutates ``self.network``
        in place as events fire — share the runner across such runs only
        when the schedule restores every link it fails.  A
        ``workload_schedule`` never mutates the network; it swaps the
        pattern / retargets the load inside the simulator only.
        """
        escape = self.escape if MECHANISM_REGISTRY[mechanism].surepath else None
        mech = make_mechanism(
            mechanism, self.network, n_vcs, escape=escape, root=self.root,
            rng=seed + 1,
        )
        return make_simulator(
            self.config,
            self.network,
            mech,
            self.traffic(traffic, seed),
            offered=offered,
            injection=injection,
            seed=seed,
            series_interval=series_interval,
            fault_schedule=fault_schedule,
            workload_schedule=workload_schedule,
        )

    def run_point(
        self,
        mechanism: str,
        traffic: str,
        offered: float,
        *,
        warmup: int = 300,
        measure: int = 600,
        seed: int = 0,
        n_vcs: int | None = None,
    ) -> SimResult:
        """Simulate one steady-state point."""
        sim = self.build_simulator(
            mechanism, traffic, offered, seed=seed, n_vcs=n_vcs
        )
        return sim.run(warmup=warmup, measure=measure)

    def run_batch(
        self,
        mechanism: str,
        traffic: str,
        packets_per_server: int,
        *,
        seed: int = 0,
        n_vcs: int | None = None,
        series_interval: int = 50,
        max_slots: int = 500_000,
    ) -> SimResult:
        """Simulate a fixed batch until completion (Figure 10 mode)."""
        injection = BatchInjection(self.network.n_servers, packets_per_server)
        sim = self.build_simulator(
            mechanism, traffic, offered=1.0, seed=seed, n_vcs=n_vcs,
            injection=injection, series_interval=series_interval,
        )
        return sim.run_until_drained(max_slots=max_slots)
