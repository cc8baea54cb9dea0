"""The ``"array"`` engine backend: the reference engine plus a plan cache.

:class:`ArraySimulator` runs every phase on the slot reference's code
(:class:`~repro.simulator.engine.Simulator`) and leaves every *decision*
— RNG draws, grant-side credit feedback, routing-mechanism calls — on
that code path.  It is therefore byte-identical to ``"slot"`` (pinned by
the differential suite in ``tests/experiments/test_backend_equivalence.py``
and by the golden fingerprints).  What it adds is a *plan cache* around
the Q+P arbiter's request scan
(:meth:`~repro.simulator.arbiters.QPArbiter.allocate`), which pays off on
dense, congested points, where the reference spends most of its time
re-scoring head-of-line packets that cannot move.

The plan cache
--------------
Under congestion most visits score heads that cannot move and make no
request, and such a scan changes no state and draws no RNG.  So the
cache keeps, per switch, the plan "no request" of its last request-free
scan, and the switch skips its scan while the plan holds, that is while

1. no head of the switch changed (``Switch.dirty_heads`` is empty —
   every push onto an empty FIFO and every pop marks one);
2. no credit returned to it earlier in this allocation phase
   (``SimState.grant_feedback``, set by every upstream credit return
   and cleared at phase start: a grant at switch ``t`` credits an
   upstream ``u > t`` that allocates later in the same phase);
3. its admission-masked Q row, computed for all switches at phase
   start in one matrix expression, is byte-equal to the row its plan
   was built from — the scan reads credits, output occupancy and loads
   only through that row's verdicts and values.  Occupancy is read as
   ``load + credits - input_buffer_packets``, an identity every queue
   method keeps on every port (``SimState.verify`` checks it);
4. no topology event happened since (pinned routes are reset and the
   live ports changed).

A hit replays the switch's stalled heads in one ``on_stalled`` call, as
the scan would have reported them.  A scan that requests is never kept:
its first request is always granted, which changes a head, so its plan
could not be reused anyway.  Nor is a scan under credit feedback, since
the phase-start row does not describe what it read: either drops the
switch's stored plan.  ``grant_stats`` counts the hits and the two kinds
of scan, and :meth:`ArraySimulator.enable_grant_profile` times the
scans.

The other arbiters run the shared ``Arbiter.allocate`` with no plan
cache, so with them this backend is the reference engine.  Select with
``SimConfig(backend="array")`` — the config field is part of the
executor cache key, so array records never alias slot cache entries.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from .arbiters import QPArbiter
from .engine import Simulator
from .switch import Switch


class ArraySimulator(Simulator):
    """The ``"array"`` engine backend (see module docstring).

    Same constructor, same physics, same records as
    :class:`~repro.simulator.engine.Simulator`; the Q+P arbiter gets
    this simulator as its plan cache (:meth:`reuse` / :meth:`store`).
    Select it with ``SimConfig(backend="array")`` through
    :func:`~repro.simulator.backends.make_simulator`.
    """

    backend_name = "array"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._use_plans = type(self.arbiter) is QPArbiter
        state = self.state
        #: sid -> stalled pids (``None`` until first derived) of every
        #: switch whose last scan made no request: its stored plan.
        self._plans: dict[int, list[int] | None] = {}
        #: Per-switch snapshot of the admission-masked Q row each stored
        #: plan was built from (meaningless for a switch without one).
        self._combined_used = np.full(
            (state.n_switches, state.max_ports * state.n_vcs), np.nan
        )
        #: This phase's rows and per-switch staleness verdicts.
        self._combined_all = self._combined_used
        self._stale: list[bool] = []
        self._scan_t0 = 0.0
        #: Grant-path counters: plan reuses vs scans vs scans under
        #: credit feedback.  Cheap enough to keep always on; the
        #: differential suite uses them to prove both paths ran.
        self.grant_stats = {
            "plan_hits": 0, "select_rebuilds": 0, "fallback_rebuilds": 0,
        }
        #: Per-grant-subphase second counters, ``None`` unless a profiler
        #: opted in via :meth:`enable_grant_profile` — the hot loop must
        #: not pay ``perf_counter`` calls by default.
        self.grant_profile: dict[str, float] | None = None

    def enable_grant_profile(self) -> dict[str, float]:
        """Turn on timing of the allocate grant path and return the
        accumulator dict (seconds per subphase).

        ``select`` is the phase-start staleness pass plus every scan
        made without credit feedback, ``fallback`` every scan under
        credit feedback."""
        self.grant_profile = {"select": 0.0, "fallback": 0.0}
        return self.grant_profile

    def _refresh_inflight_packets(self) -> None:
        # Every pinned route is reset and the live ports changed: no
        # plan made before the event may be reused after it.
        super()._refresh_inflight_packets()
        self._plans.clear()

    # ------------------------------------------------------------------
    # Allocation: the reference scan plus a plan cache
    # ------------------------------------------------------------------
    def _allocate(self) -> int:
        if not self._use_plans:
            return self.arbiter.allocate(self)
        prof = self.grant_profile
        if prof is not None:
            t0 = perf_counter()
        state = self.state
        # One admission-masked Q row per switch (~8 whole-matrix ops on
        # [S, max_ports * n_vcs]), read from the phase-start state.
        # Padding columns of low-degree switches read credits 0 and are
        # never written, so they are never admitted and can never flip a
        # staleness verdict.
        credits = state.credits
        occupancy = state.load + credits - self.cfg.input_buffer_packets
        combined_all = np.where(
            self.flow_control.admission_mask(credits, occupancy, slice(None)),
            (state.load + np.repeat(state.port_load, self._n_vcs, axis=1))
            * float(self._phits),
            math.inf,
        )
        self._combined_all = combined_all
        self._stale = np.any(combined_all != self._combined_used, axis=1).tolist()
        # Credits returned before this phase (ejection, earlier slots)
        # are inside ``combined_all``; from here on, every grant's
        # upstream credit return flags its victim (condition 2).
        state.grant_feedback[:] = False
        if prof is not None:
            prof["select"] += perf_counter() - t0
        return self.arbiter.allocate(self, self)

    def reuse(self, sw: Switch) -> bool:
        """Whether ``sw``'s stored request-free plan still holds (module
        docstring); if so, replay its stalled heads."""
        sid = sw.sid
        plans = self._plans
        if (
            sid not in plans or sw.dirty_heads or self._grant_feedback[sid]
            or self._stale[sid]
        ):
            if self.grant_profile is not None:
                self._scan_t0 = perf_counter()
            return False
        self.grant_stats["plan_hits"] += 1
        pids = plans[sid]
        if pids is None:
            # The stalled heads are the ones the scan neither skipped
            # (awaiting ejection) nor pinned a route on.
            in_q = sw.in_q
            pids = plans[sid] = [
                pkt.pid
                for pkt in (in_q[idx][0] for idx in sw.active_inputs)
                if pkt.dst_switch != sid and pkt.cand_switch != sid
            ]
        if pids:
            self.metrics.on_stalled(pids, self.slot)
        return True

    def store(self, sw: Switch, idle: bool) -> None:
        """Take the outcome of ``sw``'s fresh scan, before its grants:
        keep a request-free one for :meth:`reuse`."""
        sid = sw.sid
        sw.dirty_heads.clear()
        fb = self._grant_feedback[sid]
        self.grant_stats["fallback_rebuilds" if fb else "select_rebuilds"] += 1
        if idle and not fb:
            self._plans[sid] = None  # stalled pids: derived on first reuse
            self._combined_used[sid] = self._combined_all[sid]
        else:
            self._plans.pop(sid, None)
        prof = self.grant_profile
        if prof is not None:
            prof["fallback" if fb else "select"] += perf_counter() - self._scan_t0
