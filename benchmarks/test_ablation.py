"""Ablation benches for the design choices README.md ("Key substitutions") calls out.

Not figures from the paper — these quantify the claims the paper makes in
prose:

* §3.2 "the escape subnetwork is actually able to use most minimal routes
  and can accept a reasonably high amount of load" — escape-only routing
  with shortcuts versus the classic shortcut-free Up*/Down* (whose
  "marginal throughput of a tree" motivated the shortcuts).
* §3 "there are large regions of similar performance, so the specific
  [penalty] values have little importance" — PolSP with the paper's
  penalties versus halved and zeroed penalty tables.
* Table 4's cost claim — PolSP at 2, 4 and 6 VCs.
"""

from conftest import BENCH, once
from repro.experiments.reporting import ascii_table
from repro.routing.catalog import make_mechanism
from repro.routing.escape_only import EscapeOnlyRouting
from repro.simulator.engine import Simulator
from repro.topology.base import Network
from repro.traffic import make_traffic


def saturation(net, mech, traffic="uniform", seed=0):
    sim = Simulator(net, mech, make_traffic(traffic, net, seed),
                    offered=1.0, seed=seed)
    return sim.run(warmup=BENCH.warmup, measure=BENCH.measure).accepted


def test_escape_shortcuts_ablation(benchmark):
    """Opportunistic shortcuts versus the bare Up*/Down* tree."""
    net = Network(BENCH.hyperx_2d())

    def run():
        return {
            "with_shortcuts": saturation(net, EscapeOnlyRouting(net, n_vcs=2)),
            "tree_only": saturation(
                net, EscapeOnlyRouting(net, n_vcs=2, shortcuts=False)
            ),
        }

    res = once(benchmark, run)
    print("\nAblation — escape-only saturation throughput (uniform):")
    print(f"  with shortcuts: {res['with_shortcuts']:.3f}")
    print(f"  Up*/Down* tree: {res['tree_only']:.3f}")
    # The shortcuts are the contribution: a clear multiple of the tree.
    assert res["with_shortcuts"] > 1.5 * res["tree_only"]
    # ... and the enhanced escape carries a "reasonably high" load alone.
    assert res["with_shortcuts"] > 0.25


def test_vc_budget_ablation(benchmark):
    """PolSP with 2 / 4 / 6 VCs: the paper's low-cost claim."""
    net = Network(BENCH.hyperx_2d())

    def run():
        return {
            n: saturation(net, make_mechanism("PolSP", net, n_vcs=n, rng=1))
            for n in (2, 4, 6)
        }

    res = once(benchmark, run)
    print("\nAblation — PolSP saturation by VC budget (uniform):")
    print(ascii_table([{"vcs": n, "accepted": a} for n, a in res.items()]))
    # 2 VCs already works; more VCs never hurt much and help some.
    assert res[2] > 0.4
    assert res[6] >= res[2] - 0.05


def test_penalty_sensitivity(benchmark):
    """Scaling every penalty: performance plateaus, per the paper."""
    import repro.routing.base as rb
    import repro.updown.escape as esc_mod

    net = Network(BENCH.hyperx_2d())

    def run_with_scale(scale: float) -> float:
        # Penalties enter only through module constants consumed at
        # candidate time; patch, run, restore.
        saved = (
            rb.DEROUTE_PENALTY, rb.POLARIZED_FLAT_PENALTY,
            esc_mod.UP_PENALTY, esc_mod.DOWN_PENALTY,
            dict(esc_mod.SHORTCUT_PENALTIES), esc_mod.SHORTCUT_PENALTY_FLOOR,
        )
        try:
            import repro.routing.polarized as pol_mod

            pol_mod.PENALTY_BY_DELTA_MU = {
                2: 0, 1: int(64 * scale), 0: int(80 * scale)
            }
            esc_mod.UP_PENALTY = int(112 * scale)
            esc_mod.DOWN_PENALTY = int(96 * scale)
            esc_mod.SHORTCUT_PENALTIES = {
                1: int(80 * scale), 2: int(64 * scale)
            }
            esc_mod.SHORTCUT_PENALTY_FLOOR = int(48 * scale)
            mech = make_mechanism("PolSP", net, rng=1)
            return saturation(net, mech)
        finally:
            import repro.routing.polarized as pol_mod

            (rb.DEROUTE_PENALTY, rb.POLARIZED_FLAT_PENALTY,
             esc_mod.UP_PENALTY, esc_mod.DOWN_PENALTY,
             esc_mod.SHORTCUT_PENALTIES, esc_mod.SHORTCUT_PENALTY_FLOOR) = saved
            pol_mod.PENALTY_BY_DELTA_MU = {2: 0, 1: 64, 0: 80}

    def run():
        return {s: run_with_scale(s) for s in (0.5, 1.0, 2.0)}

    res = once(benchmark, run)
    print("\nAblation — PolSP saturation by penalty scale (uniform):")
    print(ascii_table([{"scale": s, "accepted": a} for s, a in res.items()]))
    vals = list(res.values())
    # "Large regions of similar performance": within a modest band.
    assert max(vals) - min(vals) < 0.15
