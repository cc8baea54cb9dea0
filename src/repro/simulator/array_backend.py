"""Vectorized engine backend over the ``SimState`` array store.

The ``"array"`` backend replaces the slot reference's per-switch Python
scans with whole-array numpy kernels on the
:class:`~repro.simulator.state.SimState` columns, while leaving every
*decision* — RNG tie-breaks, grant-side credit feedback, routing-
mechanism calls — on the exact reference code path.  It is therefore
byte-identical to ``"slot"`` (pinned by the differential suite in
``tests/experiments/test_backend_equivalence.py`` and by the golden
fingerprints) and substantially faster on dense, allocation-heavy
points, where the reference spends most of its time re-scoring blocked
head-of-line packets.

What is vectorized, and why it is safe
--------------------------------------
Ejection, transmission and injection override only the *scan* — which
(switch, index) pairs act, in the reference's visit order — and hand
each to the reference's own per-item body
(:meth:`~repro.simulator.engine.Simulator._consume` / ``_send`` /
``_generate``), so hooks, draws and mutations are shared code.

* **Ejection** — the reference walks every active input of every switch
  to find heads destined locally.  Here one comparison ``hol_dst ==
  sid_col`` finds all of them at once; ``np.nonzero`` yields hits in
  row-major (ascending switch, ascending input) order — exactly the
  reference's ``active_sorted`` iteration order.  Heads of unvisited
  FIFOs cannot change during the phase (ejection only pops), so the
  pre-phase snapshot equals the reference's read-at-visit values.
* **Allocation** (the Q+P arbiter) — four layers remove the
  reference's per-slot re-walk of every head-of-line packet:

  1. *Kernel columns over the candidate table* — every shipped
     mechanism overrides
     :meth:`~repro.routing.base.RoutingMechanism.candidate_key`, so
     candidate lists come out of the simulator-wide table every backend
     shares (:meth:`~repro.simulator.engine.Simulator.lookup_candidates`;
     this module never calls ``mech.candidates``).  What this backend
     adds per key is the list in the form its kernel reads — one dense
     penalty row, or one pv-sorted walk — built once per route
     situation and dropped together with the table.
  2. *Head cache* — per switch, the derived state of every head-of-line
     packet (routable with its kernel columns, stalled, or awaiting
     ejection) is kept between slots and re-derived only for the
     inputs in ``Switch.dirty_heads`` (heads that actually changed).
     Each routable head owns one row of a dense penalty matrix
     ``pen_mat[input, output_vc]`` — its candidates' penalties at their
     output VCs, ``+inf`` elsewhere — so deriving a head is one row
     write and no per-slot data structure is rebuilt at all.
  3. *Fused select kernel* — the admission-masked Q-term for every
     output VC of *all* switches comes out of one whole-state matrix
     expression at phase start; per rebuilt switch, one broadcast add
     against ``pen_mat`` and a row-minimum then score every head in a
     single matrix pass, and the winning (port, VC) of untied heads
     falls out of the argmin arithmetically.  Scores are bit-exact:
     the per-element operation order ``(port_load + load) * phits +
     penalty`` is the scalar expression's, and masked or non-candidate
     entries are pinned at ``inf`` (never NaN: penalties are finite
     and non-negative).
  4. *Grant-plan cache with pre-drawn RNG replay* — the kernel's
     outcome per switch (its live heads in reference visit order, each
     with winning score and tied candidate set) is cached as a *plan*
     and replayed on later slots as a pure RNG pre-draw: one
     ``integers(n_ties)`` draw exactly when the reference would
     tie-break, then one ``random()`` per request — same draws, same
     order, same values.  A plan stays valid while the switch's heads
     are clean, its combined admission/Q row is byte-equal to the one
     the plan was built from, and no same-phase credit feedback landed
     on it.

  A truly global RNG pre-draw would be unsound: a grant at switch
  ``t`` returns a credit upstream, and an upstream switch ``u > t``
  allocates *later this same phase* with one more credit than any
  pre-computed plan assumed — which can change its number of draws and
  desynchronise every stream position after it.  So switches are
  processed in the reference's ascending order, the grant half is
  delegated per switch to the shared scalar
  :meth:`~repro.simulator.arbiters.QPArbiter._grant_requests` (which
  re-checks flow control live), and ``SimState.grant_feedback`` — a
  per-switch bitmask set by every upstream credit return, cleared at
  phase start — is the conflict detector: flagged switches abandon
  their plan and rebuild from a freshly-computed admission row.
  ``grant_stats`` counts the three paths (``plan_hits`` /
  ``select_rebuilds`` / ``fallback_rebuilds``) and
  :meth:`ArraySimulator.enable_grant_profile` times the
  predraw/select/commit/fallback sub-phases (surfaced by
  ``perfbench/bench.py --trace``).
  The round-robin arbiter shares the table and the head cache and
  swaps in its own selection kernel — pointer walks over pv-sorted
  candidate columns against one admission row per switch, no RNG, no
  score matrices.
* **Transmission** — the ``out_occ`` column, summed per port, finds
  every buffered (switch, port) pair in the reference's visit order.
* **Injection** — the capacity pre-check of all attempting servers is
  one gather ``in_occ[sids, inj_base[sids] + local]``; sound because
  attempts are distinct servers, each owning its private source queue,
  so no attempt can alter another's occupancy within the slot.  The
  shared body runs in attempt order — its draws are the RNG contract.

Anything without a kernel — the ``age``/``random`` arbiters, or a
mechanism that does not override ``candidate_key`` — runs the arbiter's
own (backend-agnostic) scalar ``allocate``; every other phase stays
vectorized.  The engine's busy agenda is inherited unchanged: the
request scan visits ``alloc_switches()``, and the whole-array scans
find work only where the agenda holds it.  Select with
``SimConfig(backend="array")`` — the config field is part of the
executor cache key, so array records never alias slot cache entries.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .arbiters import QPArbiter, RoundRobinArbiter
from .engine import Simulator
from .packet import Packet
from .switch import Switch


class _QPCols(NamedTuple):
    """What the Q+P kernel reads of one tabled candidate list (see
    :meth:`ArraySimulator._build_cols`)."""

    #: Penalty by output-VC index, ``inf`` off the list.
    pen_row: np.ndarray
    #: Output-VC index -> position in the candidate list.
    pos_map: dict[int, int]


class _SwCache:
    """Persistent allocation-request state of one switch.

    Routable heads own one row of ``pen_mat`` (their route situation's
    penalty-by-output-VC row) and one ``ent`` slot carrying ``(packet,
    kernel columns)``; stalled heads one ``stall`` slot; heads awaiting
    ejection are in neither.
    Only inputs named by ``Switch.dirty_heads`` are re-derived — a
    derive is a dict update plus one ``pen_mat`` row write, so there is
    no per-slot rebuild step at all.  ``sbuf`` is the kernel's
    preallocated score scratch (same shape as ``pen_mat``); the
    round-robin kernel walks its pv-sorted candidate columns instead,
    so it skips both matrices (``mats=False``).

    ``plan`` is the cached outcome of the whole request half: the
    switch's live heads in reference visit order, each with its winning
    score and tied candidates (see :meth:`ArraySimulator._build_plan`).
    It stays valid — and the per-slot matrix kernel is skipped entirely
    — while no head changed (``dirty_heads``), the switch's combined
    admission/Q row is byte-equal to the one the plan was built from,
    and no same-phase credit feedback landed on the switch.
    ``stall_pids`` caches the stalled heads' pid list for the batch
    metrics replay; any derive invalidates it.
    """

    __slots__ = (
        "ent", "stall", "pen_mat", "sbuf", "plan", "stall_pids",
    )

    def __init__(self, n_inputs: int, npv: int, mats: bool) -> None:
        self.ent: dict[int, tuple[Packet, _QPCols | tuple]] = {}
        self.stall: dict[int, Packet] = {}
        self.pen_mat = np.full((n_inputs, npv), math.inf) if mats else None
        self.sbuf = np.empty((n_inputs, npv)) if mats else None
        self.plan: tuple | list | None = None
        self.stall_pids: list[int] | None = None


class ArraySimulator(Simulator):
    """The ``"array"`` engine backend (see module docstring).

    Same constructor, same physics, same records as
    :class:`~repro.simulator.engine.Simulator` — only the phase *scans*
    are whole-array kernels.  Select it with
    ``SimConfig(backend="array")`` through
    :func:`~repro.simulator.backends.make_simulator`.
    """

    backend_name = "array"

    def __init__(self, *args, **kwargs):
        # The request-phase caches must exist before super().__init__
        # finishes (nothing touches them there, but hooks must be safe).
        #: sid -> :class:`_SwCache`: the per-switch head cache.
        self._qp_cache: dict[int, _SwCache] = {}
        #: candidate_key -> the active kernel's pre-built columns of the
        #: candidate list the simulator's table holds under that key
        #: (see :meth:`_build_cols`); dropped together with the table.
        self._kernel_cols: dict[tuple, _QPCols | tuple] = {}
        super().__init__(*args, **kwargs)
        # The kernels share columns per candidate key, so they serve
        # only mechanisms that declare one; anything else runs the
        # arbiter's own scalar ``allocate``.
        self._use_qp_kernel = self._keyed and type(self.arbiter) is QPArbiter
        self._use_rr_kernel = self._keyed and type(self.arbiter) is RoundRobinArbiter
        state = self.state
        #: Per-switch snapshot of the combined admission/Q row each
        #: cached plan was built from.  ``NaN`` rows never compare equal,
        #: so unbuilt switches always read as stale.
        self._combined_used = np.full(
            (state.n_switches, state.max_ports * state.n_vcs), np.nan
        )
        #: Grant-path counters: plan reuses vs rebuilds vs credit-
        #: feedback fallbacks.  Cheap enough to keep always on; the
        #: differential suite uses them to prove both paths ran.
        self.grant_stats = {
            "plan_hits": 0, "select_rebuilds": 0, "fallback_rebuilds": 0,
        }
        #: Per-grant-subphase second counters (pre-draw / select /
        #: commit / fallback), ``None`` unless a profiler opted in via
        #: :meth:`enable_grant_profile` — the hot loop must not pay
        #: ``perf_counter`` calls by default.
        self.grant_profile: dict[str, float] | None = None

    def enable_grant_profile(self) -> dict[str, float]:
        """Turn on per-subphase timing of the allocate grant path and
        return the accumulator dict (seconds per subphase)."""
        self.grant_profile = {
            "predraw": 0.0, "select": 0.0, "commit": 0.0, "fallback": 0.0,
        }
        return self.grant_profile

    def _drop_candidate_table(self) -> None:
        # The kernel columns and every per-switch head cache built on
        # them go with the table they were derived from.
        super()._drop_candidate_table()
        self._kernel_cols.clear()
        self._qp_cache.clear()

    # ------------------------------------------------------------------
    # Phase 1: ejection
    # ------------------------------------------------------------------
    def _eject(self) -> int:
        state = self.state
        rows, idxs = np.nonzero(state.hol_dst == state.sid_col)
        if rows.size == 0:
            return 0
        ejected = 0
        sps = self._sps
        switches = self.switches
        sw = None
        cur = -1
        served = 0
        for s, idx in zip(rows.tolist(), idxs.tolist()):
            if s != cur:
                cur = s
                sw = switches[s]
                served = 0  # bitmask over local servers
            pkt = sw.in_q[idx][0]
            bit = 1 << (pkt.dst_server - s * sps)
            if served & bit:
                continue  # this server already consumed its packet
            served |= bit
            self._consume(sw, idx, pkt)
            ejected += 1
        return ejected

    # ------------------------------------------------------------------
    # Phase 2: allocation (one request-building core, two kernels)
    # ------------------------------------------------------------------
    def _build_cols(self, pkt, sid: int, key: tuple, npv: int) -> _QPCols | tuple:
        """Build (and keep under ``key``) the active kernel's columns of
        one route situation's candidate list, read from the simulator's
        table.

        The Q+P kernel gets the dense penalty row the matrix kernel
        adds against — each candidate's penalty at its output-VC index,
        ``inf`` elsewhere — plus the map from output-VC index back to
        candidate-list position, through which tied columns recover the
        reference's list-order tie indices.  The round-robin kernel gets
        ``(pv, port, vc)`` sorted by flat ``(port, vc)`` index: the order
        the reference's per-head ``sorted(feasible)`` walk visits,
        shared across every head in the situation instead of re-sorted
        per head per slot.  An empty list (a stalled situation) gets
        ``()``.

        Both forms hold one value per output VC, so a list naming the
        same ``(port, vc)`` twice — which the ``candidates`` contract
        forbids — is rejected here, once per key.
        """
        cands = self.lookup_candidates(pkt, sid)
        n_vcs = self._n_vcs
        pvs = [port * n_vcs + vc for port, vc, _pen in cands]
        pos_map = {pv: i for i, pv in enumerate(pvs)}
        if len(pos_map) < len(pvs):
            raise ValueError(
                f"{self.mechanism.name} offered the same (port, vc) twice "
                f"at switch {sid}: {cands}"
            )
        cols: _QPCols | tuple
        if not cands:
            cols = ()
        elif self._use_rr_kernel:
            cols = tuple(
                sorted((pv, port, vc) for pv, (port, vc, _pen) in zip(pvs, cands))
            )
        else:
            pen_row = np.full(npv, math.inf)
            pen_row[pvs] = [pen for _port, _vc, pen in cands]
            cols = _QPCols(pen_row, pos_map)
        self._kernel_cols[key] = cols
        return cols

    def _derive_head(self, sc: _SwCache, sw, sid: int, idx: int) -> None:
        """Re-derive the cache entry of one (possibly changed) head from
        scratch: forget what input ``idx`` held, then file its current
        head — routable into ``ent`` (one ``pen_mat`` row write),
        stalled into ``stall``, awaiting ejection or absent into
        neither.  Membership churn elsewhere in the switch never
        invalidates anything.
        """
        sc.stall_pids = None  # any head change may touch the stalled set
        was_routable = sc.ent.pop(idx, None) is not None
        sc.stall.pop(idx, None)
        q = sw.in_q[idx]
        if q and q[0].dst_switch != sid:
            pkt = q[0]
            key = self.mechanism.candidate_key(pkt, sid)
            cols = self._kernel_cols.get(key)
            if cols is None:
                cols = self._build_cols(pkt, sid, key, sw.n_ports * self._n_vcs)
            # The reference's per-packet ``pkt.cand_*`` cache is left
            # untouched: the kernels read the shared columns instead.
            if cols:
                sc.ent[idx] = (pkt, cols)
                if sc.pen_mat is not None:
                    sc.pen_mat[idx] = cols.pen_row
                return
            sc.stall[idx] = pkt
        if was_routable and sc.pen_mat is not None:
            sc.pen_mat[idx] = math.inf

    def _synced_switches(self) -> Iterator[tuple[Switch, _SwCache, bool]]:
        """The request-building core both kernels consume: every switch
        with active inputs, in the reference's visit order, as ``(switch,
        head cache, dirty)``.

        Lazily, at each switch's turn (so after every earlier switch's
        grants, like the reference's visit): derive all heads on the
        first visit, re-derive only ``Switch.dirty_heads`` afterwards
        (``dirty`` says whether anything was derived), and count the
        stalled heads — every slot, like the reference.
        """
        cache = self._qp_cache
        derive = self._derive_head
        metrics = self.metrics
        slot = self.slot
        mats = self._use_qp_kernel
        n_vcs = self._n_vcs
        for sw in self.alloc_switches():
            if not sw.active_inputs:
                continue
            sid = sw.sid
            sc = cache.get(sid)
            if sc is None:
                sc = cache[sid] = _SwCache(
                    sw.n_inputs, sw.n_ports * n_vcs, mats
                )
                heads = sw.active_sorted
            else:
                heads = sw.dirty_heads
            dirty = bool(heads)
            if dirty:
                for idx in heads:
                    derive(sc, sw, sid, idx)
                sw.dirty_heads.clear()
            if sc.stall:
                pids = sc.stall_pids
                if pids is None:
                    pids = sc.stall_pids = [p.pid for p in sc.stall.values()]
                metrics.on_stalled(pids, slot)
            yield sw, sc, dirty

    def _allocate(self) -> int:
        if not self._use_qp_kernel:
            if self._use_rr_kernel:
                return self._allocate_rr()
            return self.arbiter.allocate(self)
        prof = self.grant_profile
        granted = 0
        arb = self.arbiter
        phits = float(self._phits)
        fc = self.flow_control
        rng = self.rng
        n_vcs = self._n_vcs
        inf = math.inf
        state = self.state
        credits_all = state.credits
        out_occ_all = state.out_occ
        load_all = state.load
        port_load_all = state.port_load
        full_row = slice(None)
        stats = self.grant_stats
        # ---- select, batch half: one admission-masked Q row per switch
        # (~6 whole-matrix ops on [S, max_ports * n_vcs]).  Element-wise
        # identical to the per-switch kernel's ``combined`` row — same
        # operation order ``(port_load + load) * phits``, inadmissible
        # VCs pinned at +inf — because both read the same phase-start
        # state.  Padding columns of low-degree switches are constant
        # (their credits/occupancy are never written), so they can never
        # flip a staleness verdict.
        if prof is not None:
            t0 = perf_counter()
        combined_all = np.where(
            fc.admission_mask(credits_all, out_occ_all, full_row),
            (load_all + np.repeat(port_load_all, n_vcs, axis=1)) * phits,
            inf,
        )
        used = self._combined_used
        # A switch whose combined row still byte-matches the row its
        # cached plan consumed (and whose heads are clean) must produce
        # the identical request set, scores, tie sets and draw counts —
        # the whole request half flows through (pen_mat, combined) only.
        stale = np.any(combined_all != used, axis=1).tolist()
        # Same-phase credit feedback starts clean each allocation phase:
        # everything returned earlier (ejection, previous slots) is
        # already inside the rows ``combined_all`` was computed from.
        # From here on, any grant's upstream credit return re-flags its
        # victim, and visiting a flagged switch abandons the batch row
        # for a live recompute (the fallback path).
        feedback = state.grant_feedback
        feedback[:] = False
        if prof is not None:
            t1 = perf_counter()
            prof["select"] += t1 - t0
        for sw, sc, dirty in self._synced_switches():
            sid = sw.sid
            plan = sc.plan
            fb = feedback[sid]
            if fb or dirty or plan is None or stale[sid]:
                # ---- select, per-switch half: (re)build the plan -----
                if not sc.ent:
                    sc.plan = ()
                    used[sid] = combined_all[sid]
                    continue
                if prof is not None:
                    t0 = perf_counter()
                npv = sw.n_ports * n_vcs
                if fb:
                    # Credit feedback from an earlier switch's grants
                    # landed here this phase: the batch row is stale by
                    # construction, so recompute it from the live rows —
                    # exactly what the reference reads at this visit.
                    stats["fallback_rebuilds"] += 1
                    r = sw.row
                    row = np.where(
                        fc.admission_mask(
                            credits_all[r, :npv],
                            out_occ_all[r, :npv],
                            full_row,
                        ),
                        (
                            load_all[r, :npv]
                            + np.repeat(
                                port_load_all[r, : sw.n_ports], n_vcs
                            )
                        )
                        * phits,
                        inf,
                    )
                    used[sid] = combined_all[sid]
                    used[sid, :npv] = row
                else:
                    stats["select_rebuilds"] += 1
                    row = combined_all[sid, :npv]
                    used[sid] = combined_all[sid]
                plan = self._build_plan(sc, sw, row)
                if prof is not None:
                    t1 = perf_counter()
                    prof["fallback" if fb else "select"] += t1 - t0
            else:
                stats["plan_hits"] += 1
            if not plan:
                continue  # every head flow-control blocked this slot
            # ---- the RNG pre-draw pass: reference draw order ---------
            # Materializes every tie-break and request draw for this
            # switch from the plan — same draws, same order, same
            # values as the reference's per-head walk.
            if prof is not None:
                t0 = perf_counter()
            requests: dict[int, list[tuple[float, float, int, int, Packet]]] = {}
            for idx, pkt, score, choices in plan:
                if len(choices) == 1:
                    port, vc = choices[0]
                else:
                    port, vc = choices[int(rng.integers(len(choices)))]
                requests.setdefault(port, []).append(
                    (score, rng.random(), idx, vc, pkt)
                )
            if prof is not None:
                t1 = perf_counter()
                prof["predraw"] += t1 - t0
            # ---- commit: the shared scalar grant half ----------------
            granted += arb._grant_requests(self, sw, requests)
            if prof is not None:
                prof["commit"] += perf_counter() - t1
        return granted

    def _build_plan(self, sc: _SwCache, sw, combined) -> tuple | list:
        """Run the matrix request kernel for one switch and cache its
        outcome as a *plan*: ``(input idx, packet, winning score, tied
        ``(port, vc)`` choices)`` per live head, in the reference's
        ``active_inputs`` set-iteration order.

        Replaying a plan is pure scalar pre-draw work — one
        ``integers(len(choices))`` draw exactly when the reference would
        tie-break, one ``random()`` per request — so a switch whose
        scoring inputs did not change skips admission, scoring and tie
        extraction entirely.  The plan's validity conditions (clean
        heads, byte-equal combined row, no same-phase feedback) are
        exactly the conditions under which the kernel would recompute
        identical choices, so replay-vs-rebuild can never change a
        record.
        """
        ent_map = sc.ent
        inf = math.inf
        n_vcs = self._n_vcs
        rank_src = sw.active_inputs
        sbuf = sc.sbuf
        # ---- matrix kernel: admission, score, row-minimise -----------
        # Broadcast-add the persistent penalty matrix against the
        # combined admission/Q row; a head's row minimum is the
        # reference's best admissible candidate score.  Bit-exact: the
        # per-element operation order ``(q) * phits + pen`` is the
        # scalar expression's, and masked or non-candidate entries are
        # pinned at ``inf`` (never NaN: penalties are finite).
        np.add(sc.pen_mat, combined, out=sbuf)
        mins = sbuf.min(axis=1)
        live = np.nonzero(mins != inf)[0]
        if live.size == 0:
            sc.plan = ()
            return ()
        live_l = live.tolist()
        lmins = mins[live]
        # Tie extraction stays in matrix space, one pass for the whole
        # switch: the tied columns of row ``j`` are the contiguous slice
        # ``tie_cols[tie_start[j] : +tc[j]]`` (in ascending output-VC
        # order), mapped back to candidate-list positions per head
        # through its columns' ``pos_map``.
        ties_mat = sbuf[live] == lmins[:, None]
        tcounts = np.count_nonzero(ties_mat, axis=1)
        tie_cols = np.nonzero(ties_mat)[1].tolist()
        tie_start = (np.cumsum(tcounts) - tcounts).tolist()
        tc_l = tcounts.tolist()
        mins_l = lmins.tolist()
        if len(live_l) > 1:
            # The reference visits heads in ``active_inputs`` set-
            # iteration order; ``live`` is in ascending-input order.
            # Re-rank so the plan's draws (and the requests dict's
            # insertion order) match the reference exactly.  The order
            # is stable across replays: set iteration only changes when
            # membership does, and every membership change marks a dirty
            # head, which rebuilds the plan.
            rank = {idx: i for i, idx in enumerate(rank_src)}
            order = sorted(
                range(len(live_l)), key=lambda j: rank[live_l[j]]
            )
        else:
            order = (0,)
        plan = []
        for j in order:
            idx = live_l[j]
            pkt, cols = ent_map[idx]
            t = tc_l[j]
            base = tie_start[j]
            if t == 1:
                choices = (divmod(tie_cols[base], n_vcs),)
            else:
                # The reference tie-breaks over the tied candidates in
                # list order: sorting the tied output VCs by list
                # position reproduces it exactly.
                pos_map = cols.pos_map
                tied = sorted(tie_cols[base : base + t], key=pos_map.__getitem__)
                choices = tuple(divmod(pv, n_vcs) for pv in tied)
            plan.append((idx, pkt, mins_l[j], choices))
        sc.plan = plan
        return plan

    def _allocate_rr(self) -> int:
        """The round-robin selection kernel: the head cache plus one
        vectorized admission row replace the reference's per-head
        candidate re-walk and per-head ``sorted(feasible)``.

        Round-robin draws no RNG and its grant half sorts requests, so
        byte-identity needs only the same request *set*, the same
        pointer updates and the same stall counts — all of which depend
        on the live admission row at visit time (computed here exactly
        like the reference's snapshot) and the pre-sorted candidate
        columns.  Pointer state lives on the arbiter instance,
        shared with the scalar path.
        """
        granted = 0
        arb = self.arbiter
        fc = self.flow_control
        n_vcs = self._n_vcs
        state = self.state
        credits_all = state.credits
        out_occ_all = state.out_occ
        full_row = slice(None)
        cand_ptr = arb._cand_ptr
        for sw, sc, _dirty in self._synced_switches():
            sid = sw.sid
            ent_map = sc.ent
            if not ent_map:
                continue
            r = sw.row
            npv = sw.n_ports * n_vcs
            # One live admission row per switch — the same values the
            # reference's per-candidate credit/occupancy checks read at
            # this visit (nothing mutates the switch between its request
            # scan and its grants).
            ok = fc.admission_mask(
                credits_all[r, :npv], out_occ_all[r, :npv], full_row
            ).tolist()
            requests: dict[int, list[tuple[int, int, Packet]]] = {}
            for idx, (pkt, cols) in ent_map.items():
                ptr = cand_ptr.get((sid, idx), 0)
                first = chosen = None
                # Ascending flat-(port, vc) walk over the pre-sorted
                # candidate columns: the first admissible entry is
                # the reference's ``keyed[0]``, the first admissible at
                # or past the pointer is its ``next(...)`` choice.
                for pv, port, vc in cols:
                    if not ok[pv]:
                        continue
                    if first is None:
                        first = (pv, port, vc)
                    if pv >= ptr:
                        chosen = (pv, port, vc)
                        break
                if first is None:
                    continue  # flow-control blocked: no request, no move
                pv, port, vc = chosen or first
                cand_ptr[(sid, idx)] = pv + 1
                requests.setdefault(port, []).append((idx, vc, pkt))
            if requests:
                granted += arb._grant_requests(self, sw, requests)
        return granted

    # ------------------------------------------------------------------
    # Phase 3: transmission
    # ------------------------------------------------------------------
    def _transmit(self) -> int:
        state = self.state
        # Scan *buffered* output ports (out_occ), not loaded ones:
        # ``port_load`` also counts consumed credits, so it flags ports
        # whose ``transmit`` would pop nothing.  Skipping those is exact —
        # an empty-port ``transmit`` mutates nothing (not even the
        # round-robin pointer) and draws no RNG.
        n_vcs = state.n_vcs
        occ = state.out_occ[:, : state.max_ports * n_vcs]
        busy = occ.reshape(occ.shape[0], state.max_ports, n_vcs).sum(axis=2)
        rows, ports = np.nonzero(busy)
        if rows.size == 0:
            return 0
        moved = 0
        switches = self.switches
        for s, port in zip(rows.tolist(), ports.tolist()):
            moved += self._send(switches[s], port)
        return moved

    # ------------------------------------------------------------------
    # Phase 4: injection
    # ------------------------------------------------------------------
    def _inject(self) -> int:
        attempts = np.asarray(
            self.injection.attempts(self.slot, self.inject_rng)
        )
        if attempts.size == 0:
            return 0
        state = self.state
        sps = self._sps
        cap = self.cfg.source_queue_packets
        sids = attempts // sps
        idxs = state.inj_base[sids] + (attempts - sids * sps)
        full = state.in_occ[sids, idxs] >= cap
        injected = 0
        on_blocked = self.injection.on_blocked
        switches = self.switches
        for srv, sid, idx, blocked in zip(
            attempts.tolist(), sids.tolist(), idxs.tolist(), full.tolist()
        ):
            if blocked:
                on_blocked(srv)
                continue
            self._generate(srv, switches[sid], idx)
            injected += 1
        return injected
