"""Output-selection and grant-order policies (the allocation phase).

The paper's router picks, for every head-of-line packet, the candidate
``(port, vc)`` with the lowest ``Q + P`` and lets every output port grant
the lowest-scoring requests first.  This module makes that *one policy
among several*: an :class:`Arbiter` owns phase 2 of the slot loop — which
candidate each packet requests, and in which order each output port
grants — while buffers, credits and the flow-control thresholds stay on
the :class:`~repro.simulator.switch.Switch` and
:class:`~repro.simulator.flowcontrol.FlowControl`.

Implementations
---------------
* :class:`QPArbiter` (``"qp"``, default) — the paper's rule, bit-for-bit:
  requests minimise ``(port_load + vc_load) * phits + penalty`` with
  uniform random tie-breaks; ports grant in ascending score order.  Its
  ``allocate`` keeps its own request scan, the monolithic engine's hot
  loop, walking candidate rows instead of triples (below), so the
  default composition stays record-identical to the historical engine.
* :class:`RoundRobinArbiter` (``"roundrobin"``) — rotating pointers: each
  input cycles through its feasible candidates, each output port grants
  inputs in cyclic order starting after the last winner.  No load
  awareness, no RNG.
* :class:`AgeBasedArbiter` (``"age"``) — requests take the minimal-penalty
  candidate; ports grant the oldest packet (birth slot, then pid) first.
* :class:`RandomArbiter` (``"random"``) — uniformly random feasible
  candidate and uniformly random grant order (the unloaded baseline an
  ablation compares the Q+P rule against).

Every arbiter grants through one loop, :meth:`Arbiter._grant`: each
output port sorts its requests and grants them in ascending order, up
to the crossbar speedup, re-checking flow control and the per-input win
cap.  A policy differs only in what each head requests and in the sort
key it gives the request.

Adding an arbiter: subclass :class:`Arbiter`, implement ``_requests``
(usually over the ``_hol_requests`` helper's feasible candidates), set
a unique ``name``, and register it in :data:`ARBITERS`; it is then
reachable from ``SimConfig(arbiter=...)``, every sweep, the cache key
and the CLI.

Arbiters iterate ``sim.alloc_switches()`` — this step's snapshot of the
engine's busy agenda, the switches worth visiting this slot in
ascending id — never ``sim.switches`` directly, so one arbiter
implementation serves every backend.  The array backend adds one hook,
the ``plans`` argument of :meth:`QPArbiter.allocate`: a cache that may
answer for a switch whose last scan made no request and whose inputs
have not changed since, so that the scan is skipped.  There is one
request scan and one draw order on every backend.

No arbiter asks the routing mechanism for candidates: a request scan
reads the list pinned on the packet (``pkt.cand_list``, valid while
``pkt.cand_switch`` is the current switch) and, once per packet-hop,
refills it from the simulator's candidate table through
:func:`_route_head`.

Request scans walk the list's rows
(:class:`~repro.routing.base.CandidateList`): runs of candidates on one
output port with one penalty.  A row on a *live* port whose
``port_load`` is 0 is admitted and scored in one step — every VC of that
port scores ``penalty`` and passes admission.  The virtual-cut-through
invariant :meth:`~repro.simulator.state.SimState.verify` audits on live
links, per VC ``load = 2 * out + wire + down`` and
``credits = capacity - down - wire - out``, makes a zero ``port_load``
mean every VC is empty at full credit, and :meth:`FlowControl.attach
<repro.simulator.flowcontrol.FlowControl.attach>` rejects any policy
that would refuse such a VC.  Every other row is scored VC by VC, so
the admitted candidates, their scores, the tie list, the RNG draws and
the request order are exactly the per-triple scan's.

Under congestion many heads of one switch offer the same few loaded
rows (SurePath's rule-1 row spans ``n_vcs - 1`` VCs on every base-route
port), so :meth:`QPArbiter.allocate` scores each loaded row once per
switch visit: keyed by its ``pvs`` tuple, the memo holds the row's
lowest admitted ``(port_load + vc_load) * phits`` and its tied VCs in
row order.  That entry reads only the visit's snapshot (credits,
loads, output-queue lengths), which nothing changes before the grants,
and the penalty is constant within a row, so "row minimum plus penalty
beats the best score: take the row's ties; equals it: append them"
picks exactly what the VC-by-VC walk picks.  The memo lives for one
visit (rows are interned per mechanism and recur at every switch), is
keyed by ``pvs`` rather than by port (one port can carry several rows)
and stores its ties as tuples, so merging them into a head's tie list
never alters the entry.
"""

from __future__ import annotations

from ..registry import Registry
from .packet import Packet


def _route_head(sim, pkt: Packet, sid: int) -> list:
    """The miss path of the per-packet candidate cache, shared by every
    request scan: ``pkt`` is a head of line at ``sid`` that has not been
    routed there yet (``pkt.cand_switch != sid`` — once per hop, never
    per re-scored head).

    Looks the candidates up in the simulator's table
    (:meth:`~repro.simulator.engine.Simulator.lookup_candidates`) and
    pins them on the packet until it moves.  An empty list is reported
    as a stall and *not* pinned, so a stalled head comes back here — and
    is counted — every slot it stays stalled.
    """
    cands = sim.lookup_candidates(pkt, sid)
    if cands:
        pkt.cand_switch = sid
        pkt.cand_list = cands
    else:
        sim.metrics.on_stalled((pkt.pid,), sim.slot)
    return cands


class Arbiter:
    """Phase-2 policy: candidate selection + per-output grant order.

    One instance serves one :class:`~repro.simulator.engine.Simulator`
    (arbiters may keep per-switch pointers), driven once per slot via
    :meth:`allocate`.  A policy states its rule once, in
    :meth:`_requests`; the grant loop, :meth:`_grant`, is shared.
    """

    #: Registry key (subclasses override).
    name: str = "?"

    #: Where :meth:`_grant` records each ``(sid, port)``'s last winning
    #: input, or ``None`` for a policy that does not look (round-robin's
    #: grant pointer does).
    _last_win: dict[tuple[int, int], int] | None = None

    def allocate(self, sim) -> int:
        """Run the allocation phase over every switch; return the number
        of crossbar grants made this slot.  Each switch's requests are
        granted port by port, in ascending port order."""
        granted = 0
        for sw in sim.alloc_switches():
            if sw.active_inputs:
                requests = self._requests(sim, sw)
                if requests:
                    granted += self._grant(sim, sw, requests, sorted(requests))
        return granted

    def _requests(self, sim, sw) -> dict[int, list[tuple]]:
        """``port -> [(key, tie, idx, vc, pkt), ...]``: the request each
        head of ``sw`` makes (usually one of :meth:`_hol_requests`'
        feasible candidates), keyed by the output port it asks for.  A
        port grants its requests in ascending tuple order; ``idx`` after
        ``(key, tie)`` makes that order total."""
        raise NotImplementedError

    def _hol_requests(self, sim, sw) -> list[tuple[int, Packet, list]]:
        """``(input_idx, packet, feasible)`` for every head-of-line packet.

        ``feasible`` is the flow-control-filtered candidate list
        ``[(port, vc, penalty), ...]``, in candidate-list order, read
        row by row (module docstring); packets with no candidates at all
        are counted as stalled, exactly like the default path does.
        """
        sid = sw.sid
        n_vcs = sw.n_vcs
        # List snapshots (see QPArbiter.allocate): exact until the first
        # commit, and every commit happens after the request scan.
        credits = sw.credits.tolist()
        port_load = sw.port_load.tolist()
        live = sim.network.port_neighbour[sid]
        out_q = sw.out_q
        fc = sim.flow_control
        min_cred = fc.min_credits
        out_cap = fc.output_capacity
        out = []
        for idx in sw.active_inputs:
            pkt = sw.in_q[idx][0]
            if pkt.dst_switch == sid:
                continue  # waiting for ejection
            if pkt.cand_switch == sid:
                cands = pkt.cand_list
            else:
                cands = _route_head(sim, pkt, sid)
                if not cands:
                    continue  # stalled (reported by _route_head)
            feasible = []
            for port, pen, pvs in cands.rows:
                base = port * n_vcs
                if port_load[port] == 0 and live[port] >= 0:
                    feasible += [(port, pv - base, pen) for pv in pvs]
                    continue
                for pv in pvs:
                    if credits[pv] >= min_cred and len(out_q[pv]) < out_cap:
                        feasible.append((port, pv - base, pen))
            if feasible:
                out.append((idx, pkt, feasible))
        return out

    def _grant(self, sim, sw, requests, ports) -> int:
        """The grant loop of every arbiter: for each port of ``ports``,
        in that order, sort its ``(key, tie, idx, vc, pkt)`` requests and
        grant up to ``crossbar_speedup`` of them in ascending order,
        re-checking flow control live (an earlier grant may have consumed
        the last slot) and the per-input win cap.  A grant moves the
        packet input -> output VC, returns the freed input credit and
        advances the routing mechanism.  Returns the grants made."""
        granted = 0
        sid = sw.sid
        n_vcs = sw.n_vcs
        npv = sw.n_ports * n_vcs
        credits = sw.credits
        out_q = sw.out_q
        mech = sim.mechanism
        speedup = sim.cfg.crossbar_speedup
        fc = sim.flow_control
        min_cred = fc.min_credits
        out_cap = fc.output_capacity
        neighbour = sim.network.port_neighbour[sid]
        last_win = self._last_win
        input_wins: dict[int, int] = {}
        for port in ports:
            reqs = requests[port]
            reqs.sort()
            grants_here = 0
            for _key, _tie, idx, vc, pkt in reqs:
                if grants_here >= speedup:
                    break
                in_port = idx // n_vcs if idx < npv else sw.n_ports + (idx - npv)
                if input_wins.get(in_port, 0) >= speedup:
                    continue
                pv = port * n_vcs + vc
                if credits[pv] < min_cred or len(out_q[pv]) >= out_cap:
                    continue  # an earlier grant consumed the last slot
                sw.pop_input(idx)
                sim._return_input_credit(sw, idx)
                sw.grant(pv, pkt)
                mech.on_hop(pkt, sid, neighbour[port], port, vc)
                pkt.cand_switch = -1
                input_wins[in_port] = input_wins.get(in_port, 0) + 1
                grants_here += 1
                if last_win is not None:
                    last_win[sid, port] = idx
            granted += grants_here
        return granted


class QPArbiter(Arbiter):
    """The paper's ``Q + P`` output selection (default, record-identical).

    ``allocate`` is the engine's inlined loop: flow control and the
    ``Q`` term are inlined on the switch's raw credit/occupancy arrays,
    candidates are pinned on the packet per hop and scanned row by row
    (an idle live port scores all its VCs at once, see the module
    docstring), and the RNG is consulted in the exact historical order
    (request tie-breaks, then grant-order tie-breaks) so
    default-composition records stay byte-identical.
    """

    name = "qp"

    def allocate(self, sim, plans=None) -> int:
        """Run the allocation phase; ``plans`` is an optional plan cache.

        A switch's scan scores each head and, if the head can request,
        draws for it (``integers`` over its ties when there are several,
        then ``random``), in ``active_inputs`` order; a head that cannot
        request draws nothing.  ``plans`` (the array backend passes
        itself) sees every visit.  ``reuse(sw)`` is true when ``sw``'s
        last scan made no request and nothing it read has changed: the
        scan is skipped, after the cache replays its stall reports.
        ``store(sw, idle)`` receives each fresh scan's outcome before the
        grants (``idle``: no request).  Only request-free outcomes are
        reusable: the first request of a scan is always granted, which
        changes a head.  The slot reference passes no cache.

        Within one visit, each loaded row is scored once and its
        ``(row minimum, tied pvs)`` reused by every later head offering
        the same ``pvs`` (module docstring: why this is exact).
        """
        granted = 0
        phits = sim._phits
        fc = sim.flow_control
        min_cred = fc.min_credits
        out_cap = fc.output_capacity
        rng = sim.rng
        n_vcs = sim._n_vcs
        port_neighbour = sim.network.port_neighbour
        for sw in sim.alloc_switches():
            if not sw.active_inputs:
                continue
            if plans is not None and plans.reuse(sw):
                continue  # nothing it reads changed since a request-free scan
            sid = sw.sid
            in_q = sw.in_q
            out_q = sw.out_q
            live = port_neighbour[sid]
            # Plain-list snapshots of the store rows: nothing mutates
            # this switch's credit/load state between here and its grant
            # phase (grants at earlier switches already happened), so
            # the request loop reads exact values at list-index speed;
            # the grant phase re-checks the *live* rows.
            credits = sw.credits.tolist()
            load = sw.load.tolist()
            port_load = sw.port_load.tolist()
            # ---- requests -------------------------------------------------
            requests: dict[int, list[tuple[float, float, int, int, Packet]]] = {}
            # pvs -> (lowest admitted (q + load) * phits, its tied pvs):
            # one score per loaded row per visit (docstring).
            row_best: dict[tuple[int, ...], tuple[int | None, tuple[int, ...]]] = {}
            for idx in sw.active_inputs:
                pkt = in_q[idx][0]
                if pkt.dst_switch == sid:
                    continue  # waiting for ejection
                if pkt.cand_switch == sid:
                    cands = pkt.cand_list
                else:
                    cands = _route_head(sim, pkt, sid)
                    if not cands:
                        continue  # stalled (reported by _route_head)
                best_score = None
                # Tied output VCs, in list order: a list this head owns
                # or a memoised tuple (``+=`` then builds a new tuple, so
                # no merge alters the memo).
                best: list[int] | tuple[int, ...] = []
                for port, pen, pvs in cands.rows:
                    q = port_load[port]
                    if q == 0 and live[port] >= 0:
                        # Idle live port: every VC admitted, scoring pen.
                        if best_score is None or pen < best_score:
                            best_score = pen
                            best = list(pvs)
                        elif pen == best_score:
                            best += pvs
                        continue
                    scored = row_best.get(pvs)
                    if scored is None:
                        row_min = None
                        tied: list[int] = []
                        for pv in pvs:
                            if credits[pv] < min_cred or len(out_q[pv]) >= out_cap:
                                continue
                            score = (q + load[pv]) * phits
                            if row_min is None or score < row_min:
                                row_min = score
                                tied = [pv]
                            elif score == row_min:
                                tied.append(pv)
                        scored = row_best[pvs] = (row_min, tuple(tied))
                    row_min, row_tied = scored
                    if not row_tied:
                        continue  # flow control admits none of the row
                    score = row_min + pen
                    if best_score is None or score < best_score:
                        best_score = score
                        best = row_tied
                    elif score == best_score:
                        best += row_tied
                if not best:
                    continue  # flow-control blocked this slot
                port, vc = divmod(
                    best[0] if len(best) == 1
                    else best[int(rng.integers(len(best)))],
                    n_vcs,
                )
                requests.setdefault(port, []).append(
                    (best_score, rng.random(), idx, vc, pkt)
                )
            if plans is not None:
                plans.store(sw, not requests)
            if not requests:
                continue
            # ---- grants: ports in request-arrival order ---------------------
            granted += self._grant(sim, sw, requests, requests)
        return granted


class RoundRobinArbiter(Arbiter):
    """Rotating-pointer arbitration, oblivious to load and penalties.

    Each input cycles a pointer over the flat ``(port, vc)`` space and
    requests the first feasible candidate at or after it; each output
    port grants inputs in cyclic index order starting just past the
    previous slot's last winner.  Deterministic — no RNG draws.
    """

    name = "roundrobin"

    def __init__(self) -> None:
        self._cand_ptr: dict[tuple[int, int], int] = {}
        self._last_win = {}

    def _requests(self, sim, sw):
        sid = sw.sid
        n_vcs = sw.n_vcs
        n_inputs = sw.n_inputs
        last_win = self._last_win
        requests: dict[int, list[tuple[int, int, int, int, Packet]]] = {}
        for idx, pkt, feasible in self._hol_requests(sim, sw):
            ptr = self._cand_ptr.get((sid, idx), 0)
            pvs = [port * n_vcs + vc for port, vc, _pen in feasible]
            pv = min((p for p in pvs if p >= ptr), default=min(pvs))
            self._cand_ptr[sid, idx] = pv + 1
            port, vc = divmod(pv, n_vcs)
            # Cyclic grant order: distance from just past the last winner.
            key = (idx - last_win.get((sid, port), -1) - 1) % n_inputs
            requests.setdefault(port, []).append((key, 0, idx, vc, pkt))
        return requests


class AgeBasedArbiter(Arbiter):
    """Oldest-packet-first arbitration (global age order, deterministic).

    Requests take the minimal-penalty feasible candidate (ties to the
    lowest ``(port, vc)``); every output port grants the oldest packet —
    earliest birth slot, then lowest pid — first.
    """

    name = "age"

    def _requests(self, sim, sw):
        requests: dict[int, list[tuple[int, int, int, int, Packet]]] = {}
        for idx, pkt, feasible in self._hol_requests(sim, sw):
            port, vc, _pen = min(feasible, key=lambda c: (c[2], c[0], c[1]))
            requests.setdefault(port, []).append(
                (pkt.birth_slot, pkt.pid, idx, vc, pkt)
            )
        return requests


class RandomArbiter(Arbiter):
    """Uniformly random candidate choice and grant order.

    The null hypothesis of the arbitration ablation: any structure the
    Q+P rule buys shows up as the gap against this baseline.  Draws from
    the simulator's RNG, so runs stay reproducible per seed.
    """

    name = "random"

    def _requests(self, sim, sw):
        rng = sim.rng
        requests: dict[int, list[tuple[float, int, int, int, Packet]]] = {}
        for idx, pkt, feasible in self._hol_requests(sim, sw):
            port, vc, _pen = feasible[
                0 if len(feasible) == 1 else int(rng.integers(len(feasible)))
            ]
            requests.setdefault(port, []).append((rng.random(), 0, idx, vc, pkt))
        return requests


#: Registry of arbiters by config name.
ARBITERS = Registry("arbiter")
for _cls in (QPArbiter, RoundRobinArbiter, AgeBasedArbiter, RandomArbiter):
    ARBITERS.register(_cls.name, _cls)
del _cls


def make_arbiter(name: str) -> Arbiter:
    """Instantiate a registered arbiter (fresh per simulator — arbiters
    may carry per-switch pointer state)."""
    return ARBITERS.make(name)
