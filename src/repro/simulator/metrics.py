"""Performance metrics (paper §4): throughput, latency, Jain fairness.

The three metrics the paper reports, plus the diagnostics this
reproduction adds (escape-hop share, stall counts):

* **Accepted throughput** — packets ejected per server per slot during the
  measurement window; with 16-phit packets and 16-cycle slots this equals
  the paper's phits/cycle/server load unit.
* **Average message latency** — generation-to-delivery time in cycles, for
  packets generated inside the measurement window.
* **Jain index of generated load** — ``(Σx)² / (n·Σx²)`` over the
  per-server counts of packets actually *generated* (enqueued) during
  measurement; saturated source queues throttle unlucky servers and drop
  the index below 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def jain_index(loads: np.ndarray) -> float:
    """Jain fairness index of a non-negative load vector (1.0 = equity)."""
    x = np.asarray(loads, dtype=np.float64)
    if x.size == 0:
        return 1.0
    if (x < 0).any():
        raise ValueError("loads must be non-negative")
    total = x.sum()
    if total == 0.0:
        return 1.0  # nobody generated anything: trivially fair
    return float(total * total / (x.size * np.square(x).sum()))


@dataclass
class SimResult:
    """Outcome of one simulation run (steady-state or batch)."""

    offered: float
    accepted: float
    avg_latency_cycles: float
    jain: float
    n_servers: int
    measure_slots: int
    cycles_per_slot: int
    generated: int
    delivered: int
    delivered_measured: int
    in_flight_end: int
    avg_hops: float
    escape_hop_fraction: float
    #: Always 0: forced escape hops are not told apart from voluntary
    #: ones, so nothing is counted.  The field stays because the golden
    #: and ``perfbench/expected`` fingerprints hash it; dropping it (or
    #: counting it) belongs with the next regeneration of both.
    forced_hop_count: int
    stalled_packets: int
    deadlocked: bool
    completion_slot: int | None = None
    #: Job completion time in cycles — first-class for closed-loop runs
    #: (batch drains, collective DAGs): the slot the last packet was
    #: consumed, in cycles.  ``None`` when the run did not complete (open
    #: loop, deadlock, or the ``max_slots`` budget ran out).
    jct_cycles: int | None = None
    time_series: list[tuple[int, float]] = field(default_factory=list)
    #: Packets destroyed by a scheduled link failure (buffered on the link).
    dropped_packets: int = 0
    #: Per-interval transient records (accepted load, latency, stalls,
    #: drops) around scheduled fault events; empty without a series.
    transient_series: list[dict] = field(default_factory=list)
    #: Per-phase records around workload-schedule events (one per phase
    #: that overlaps the measurement window); empty without a schedule.
    phase_series: list[dict] = field(default_factory=list)

    @property
    def completion_cycles(self) -> int | None:
        """Batch completion time in cycles (Figure 10's x-axis).

        Alias of :attr:`jct_cycles`, kept for the historical name."""
        if self.completion_slot is None:
            return None
        return self.completion_slot * self.cycles_per_slot

    def summary(self) -> str:
        """One-line human-readable summary."""
        bits = [
            f"offered={self.offered:.3f}",
            f"accepted={self.accepted:.3f}",
            f"latency={self.avg_latency_cycles:.1f}cy",
            f"jain={self.jain:.4f}",
        ]
        if self.stalled_packets:
            bits.append(f"stalled={self.stalled_packets}")
        if self.dropped_packets:
            bits.append(f"dropped={self.dropped_packets}")
        if self.deadlocked:
            bits.append("DEADLOCK")
        if self.completion_slot is not None:
            bits.append(f"completion={self.completion_cycles}cy")
        return " ".join(bits)


class MetricsCollector:
    """Accumulates events during a run; the engine drives the windowing."""

    def __init__(self, n_servers: int, cycles_per_slot: int, series_interval: int | None = None):
        self.n_servers = n_servers
        self.cycles_per_slot = cycles_per_slot
        #: Per-server packets generated (enqueued) during measurement.
        self.generated_measured = [0] * n_servers
        self.generated_total = 0
        self.delivered_total = 0
        #: Ejections during the measurement window (any birth time).
        self.delivered_measured = 0
        #: Latency tally over packets *born* during measurement.
        self.latency_slots_sum = 0
        self.latency_count = 0
        self.hops_sum = 0
        self.escape_hops_sum = 0
        self.stalled_pids: set[int] = set()
        self.dropped_total = 0
        self.measuring = False
        self.measure_start = 0
        #: Optional accepted-load time series: (slot, packets in interval).
        self.series_interval = series_interval
        self._series_bins: dict[int, int] = {}
        #: Transient per-bin tallies (latency, stall events, drops).
        self._series_lat_slots: dict[int, int] = {}
        self._series_lat_count: dict[int, int] = {}
        self._series_stalls: dict[int, int] = {}
        self._series_drops: dict[int, int] = {}
        #: Workload phases (opened by the engine on schedule events);
        #: empty unless a workload schedule is driving the run.
        self._phases: list[dict] = []

    # ------------------------------------------------------------------
    # Event hooks (called by the engine)
    # ------------------------------------------------------------------
    def start_measurement(self, slot: int) -> None:
        self.measuring = True
        self.measure_start = slot

    def on_phase(self, slot: int, label: str) -> None:
        """Open a new workload phase (engine: workload-schedule events)."""
        self._phases.append(
            {
                "label": label,
                "start_slot": slot,
                "delivered": 0,
                "generated": 0,
                "lat_slots": 0,
                "lat_count": 0,
            }
        )

    def on_generated(self, server: int, slot: int) -> None:
        self.generated_total += 1
        if self.measuring:
            self.generated_measured[server] += 1
            if self._phases:
                self._phases[-1]["generated"] += 1

    def on_ejected(self, pkt, slot: int) -> None:
        self.delivered_total += 1
        self.hops_sum += pkt.hops
        self.escape_hops_sum += pkt.escape_hops
        if not self.measuring:
            # Warmup traffic: excluded from the series as well — binning
            # pre-measurement ejections polluted steady-state series with
            # warmup transients (regression-tested).
            return
        self.delivered_measured += 1
        if pkt.birth_slot >= self.measure_start:
            self.latency_slots_sum += slot - pkt.birth_slot
            self.latency_count += 1
        if self._phases:
            ph = self._phases[-1]
            ph["delivered"] += 1
            if pkt.birth_slot >= self.measure_start:
                ph["lat_slots"] += slot - pkt.birth_slot
                ph["lat_count"] += 1
        if self.series_interval:
            b = slot // self.series_interval
            self._series_bins[b] = self._series_bins.get(b, 0) + 1
            if pkt.birth_slot >= self.measure_start:
                self._series_lat_slots[b] = (
                    self._series_lat_slots.get(b, 0) + slot - pkt.birth_slot
                )
                self._series_lat_count[b] = self._series_lat_count.get(b, 0) + 1

    def on_stalled(self, pids, slot: int | None = None) -> None:
        """Head packets ``pids`` (sized) found no candidate this slot.

        One batch hook for every backend: the scalar allocation loops
        report a single head as ``(pkt.pid,)``, the array backend replays
        a switch's cached stalled-head pid list in one call.  The two are
        interchangeable only because both accumulators are
        order-insensitive: the pid set deduplicates and the series bin is
        a plain count.  Any future per-stall metric that depends on visit
        order would break backend equivalence; add it as ordered state
        here and the differential suite will catch the divergence.
        """
        self.stalled_pids.update(pids)
        if self.series_interval and self.measuring and slot is not None:
            b = slot // self.series_interval
            self._series_stalls[b] = self._series_stalls.get(b, 0) + len(pids)

    def on_dropped(self, pkt, slot: int) -> None:
        """A scheduled link failure destroyed a packet buffered on it."""
        self.dropped_total += 1
        if self.series_interval and self.measuring:
            b = slot // self.series_interval
            self._series_drops[b] = self._series_drops.get(b, 0) + 1

    # ------------------------------------------------------------------
    def time_series(self) -> list[tuple[int, float]]:
        """Accepted load (packets/server/slot) per series interval."""
        if not self.series_interval:
            return []
        out = []
        for bin_idx in sorted(self._series_bins):
            count = self._series_bins[bin_idx]
            load = count / (self.n_servers * self.series_interval)
            out.append((bin_idx * self.series_interval, load))
        return out

    def transient_series(self) -> list[dict]:
        """Per-interval transient records around fault events.

        Each record covers one ``series_interval``-slot bin of the
        measurement window: ``slot`` (bin start), ``accepted`` (packets per
        server per slot), ``latency_cycles`` (mean over packets delivered in
        the bin, ``NaN`` when none), ``stalls`` (candidate-less allocation
        rounds) and ``dropped`` (packets destroyed by link failures).  Bins
        with no activity at all between the first and last active bin are
        emitted as zero-accepted records, so a recovery dip is visible
        instead of silently skipped.
        """
        if not self.series_interval:
            return []
        bins = (
            set(self._series_bins)
            | set(self._series_stalls)
            | set(self._series_drops)
        )
        if not bins:
            return []
        norm = self.n_servers * self.series_interval
        out = []
        for b in range(min(bins), max(bins) + 1):
            n_lat = self._series_lat_count.get(b, 0)
            out.append(
                {
                    "slot": b * self.series_interval,
                    "accepted": self._series_bins.get(b, 0) / norm,
                    "latency_cycles": (
                        self._series_lat_slots[b] / n_lat * self.cycles_per_slot
                        if n_lat
                        else float("nan")
                    ),
                    "stalls": self._series_stalls.get(b, 0),
                    "dropped": self._series_drops.get(b, 0),
                }
            )
        return out

    def phase_series(self, measure_slots: int) -> list[dict]:
        """Per-workload-phase records over the measurement window.

        One record per phase that overlaps the window: ``label`` (the
        schedule event that opened it), ``start_slot`` (clipped to the
        window), ``slots`` (measured slots the phase covers),
        ``accepted`` (packets per server per slot ejected while the phase
        was live — deliveries attribute to the wall-clock phase, so a
        burst's backlog draining into the next phase is visible as
        elevated accepted load there), ``latency_cycles`` (mean over
        measurement-born packets delivered in the phase, NaN when none)
        and ``generated``.  Phases entirely outside the window — and any
        phase covering zero measured slots, even one that picked up
        wall-clock delivery tallies at the window edge — are dropped:
        a rate over a zero-slot denominator is not data.
        """
        if not self._phases:
            return []
        end = self.measure_start + measure_slots
        out = []
        for i, ph in enumerate(self._phases):
            start = max(ph["start_slot"], self.measure_start)
            stop = (
                self._phases[i + 1]["start_slot"]
                if i + 1 < len(self._phases)
                else end
            )
            slots = max(min(stop, end) - start, 0)
            if slots == 0:
                # A phase can land on the window edge with zero measured
                # slots yet still have tallies (deliveries attribute by
                # wall clock, e.g. around an early-stopped run).  An
                # accepted-load rate over a zero-slot denominator is
                # meaningless, so the record is dropped entirely — its
                # deliveries stay in the run totals.
                continue
            out.append(
                {
                    "phase": len(out),
                    "label": ph["label"],
                    "start_slot": start,
                    "slots": slots,
                    "accepted": ph["delivered"] / (self.n_servers * slots),
                    "latency_cycles": (
                        ph["lat_slots"] / ph["lat_count"] * self.cycles_per_slot
                        if ph["lat_count"]
                        else float("nan")
                    ),
                    "generated": ph["generated"],
                }
            )
        return out

    def result(
        self,
        offered: float,
        measure_slots: int,
        in_flight_end: int,
        deadlocked: bool,
        completion_slot: int | None = None,
    ) -> SimResult:
        accepted = (
            self.delivered_measured / (self.n_servers * measure_slots)
            if measure_slots > 0
            else 0.0
        )
        avg_lat = (
            self.latency_slots_sum / self.latency_count * self.cycles_per_slot
            if self.latency_count
            else float("nan")
        )
        avg_hops = self.hops_sum / self.delivered_total if self.delivered_total else 0.0
        esc_frac = self.escape_hops_sum / self.hops_sum if self.hops_sum else 0.0
        return SimResult(
            offered=offered,
            accepted=accepted,
            avg_latency_cycles=avg_lat,
            jain=jain_index(self.generated_measured),
            n_servers=self.n_servers,
            measure_slots=measure_slots,
            cycles_per_slot=self.cycles_per_slot,
            generated=self.generated_total,
            delivered=self.delivered_total,
            delivered_measured=self.delivered_measured,
            in_flight_end=in_flight_end,
            avg_hops=avg_hops,
            escape_hop_fraction=esc_frac,
            forced_hop_count=0,
            stalled_packets=len(self.stalled_pids),
            deadlocked=deadlocked,
            completion_slot=completion_slot,
            jct_cycles=(
                completion_slot * self.cycles_per_slot
                if completion_slot is not None
                else None
            ),
            time_series=self.time_series(),
            dropped_packets=self.dropped_total,
            transient_series=self.transient_series(),
            phase_series=self.phase_series(measure_slots),
        )
