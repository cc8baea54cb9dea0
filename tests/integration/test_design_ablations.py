"""Integration: what the design choices README.md ("Key substitutions")
calls out each buy, as saturation throughput on the 4x4 HyperX.

Not figures from the paper; these check claims the paper makes in prose:

* §3.2 "the escape subnetwork is actually able to use most minimal
  routes and can accept a reasonably high amount of load": escape-only
  routing with shortcuts against the classic shortcut-free Up*/Down*
  (whose "marginal throughput of a tree" motivated the shortcuts).
* Table 4's cost claim: PolSP at 2, 4 and 6 VCs.
* §3 "there are large regions of similar performance, so the specific
  [penalty] values have little importance": PolSP with every penalty
  halved and doubled.

40 + 80 slots is the shortest window whose readings match a 100 + 200
slot run (within 0.02); shorter ones still read the buffer-fill
transient.
"""

import repro.routing.polarized as polarized
import repro.updown.escape as escape
from repro.routing.catalog import make_mechanism
from repro.routing.escape_only import EscapeOnlyRouting
from repro.simulator.engine import Simulator
from repro.traffic import make_traffic


def saturation(net, mech):
    sim = Simulator(net, mech, make_traffic("uniform", net, 0), offered=1.0, seed=0)
    return sim.run(warmup=40, measure=80).accepted


def test_escape_shortcuts_ablation(net2d):
    """Opportunistic shortcuts against the bare Up*/Down* tree."""
    with_shortcuts = saturation(net2d, EscapeOnlyRouting(net2d, n_vcs=2))
    tree_only = saturation(
        net2d, EscapeOnlyRouting(net2d, n_vcs=2, shortcuts=False)
    )
    # The shortcuts are the contribution: a clear multiple of the tree.
    assert with_shortcuts > 1.5 * tree_only
    # ... and the enhanced escape carries a "reasonably high" load alone.
    assert with_shortcuts > 0.25


def test_vc_budget_ablation(net2d):
    """PolSP with 2 / 4 / 6 VCs: the paper's low-cost claim."""
    acc = {
        n: saturation(net2d, make_mechanism("PolSP", net2d, n_vcs=n, rng=1))
        for n in (2, 4, 6)
    }
    # 2 VCs already works; more VCs never hurt much.
    assert acc[2] > 0.4
    assert acc[6] >= acc[2] - 0.05


def scale_penalties(monkeypatch, factor: float) -> None:
    """Scale every Polarized and escape penalty by ``factor`` until the
    test ends.  Both modules read these constants at candidate time."""

    def f(value: int) -> int:
        return int(value * factor)

    monkeypatch.setattr(polarized, "PENALTY_BY_DELTA_MU", {2: 0, 1: f(64), 0: f(80)})
    monkeypatch.setattr(escape, "UP_PENALTY", f(112))
    monkeypatch.setattr(escape, "DOWN_PENALTY", f(96))
    monkeypatch.setattr(escape, "SHORTCUT_PENALTIES", {1: f(80), 2: f(64)})
    monkeypatch.setattr(escape, "SHORTCUT_PENALTY_FLOOR", f(48))


def test_penalty_sensitivity(net2d, monkeypatch):
    """Halving or doubling every penalty: performance plateaus."""
    acc = {}
    for factor in (0.5, 1.0, 2.0):
        scale_penalties(monkeypatch, factor)
        acc[factor] = saturation(net2d, make_mechanism("PolSP", net2d, rng=1))
    # The scaled tables are in force: the readings differ ...
    assert len(set(acc.values())) == 3
    # ... but stay in "large regions of similar performance".
    assert max(acc.values()) - min(acc.values()) < 0.15
