"""RNG discipline: every draw comes from an explicitly seeded generator,
and the draw sites no golden record covers are pinned to their streams.

Records are byte-identical across backends and against the goldens only
while every backend makes the same draws in the same order.  The golden
suites already pin the engine's draw sites (Q+P, injection, traffic,
Valiant's intermediate); ``test_faults.py`` pins the connected fault
sampler.  The pins below cover the remaining sites, so a change to any
site's draws fails a test named after it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.experiments.figures import fig1_diameter_under_failures
from repro.routing.catalog import make_mechanism
from repro.simulator.backends import make_simulator
from repro.simulator.config import PAPER_CONFIG
from repro.topology.base import Network
from repro.topology.faults import random_fault_sequence, random_switch_fault_sequence
from repro.topology.hyperx import HyperX
from repro.topology.random_regular import RandomRegular
from repro.traffic import make_traffic

SRC = Path(repro.__file__).parent
#: The only modules that may construct a generator: the engine's seeding
#: root and ``repro.seeding.as_generator``.
SEEDING_MODULES = {"seeding.py", "simulator/engine.py"}
CONSTRUCTORS = {"default_rng", "SeedSequence"}
#: ``numpy.random`` names a module may import: the generator type, and
#: the constructors, whose calls are checked where they are made.
IMPORTABLE = CONSTRUCTORS | {"Generator"}


def _violations(rel, tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "random" for a in node.names):
                yield f"{rel}:{node.lineno}: stdlib random"
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield f"{rel}:{node.lineno}: stdlib random"
            elif node.module == "numpy.random":
                for a in node.names:
                    if a.name not in IMPORTABLE:
                        yield f"{rel}:{node.lineno}: imports numpy.random.{a.name}"
        elif isinstance(node, ast.Call):
            *owner, fn = ast.unparse(node.func).split(".")
            if fn in CONSTRUCTORS:
                if rel not in SEEDING_MODULES:
                    yield f"{rel}:{node.lineno}: {fn}() outside the seeding modules"
            elif owner in (["np", "random"], ["numpy", "random"]):
                # numpy's hidden global generator, or an unsanctioned one.
                yield f"{rel}:{node.lineno}: np.random.{fn}()"


MODULES = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))


def test_seeding_modules_exist():
    # A moved seeding module would leave the allowance naming nothing.
    assert SEEDING_MODULES <= set(MODULES)


@pytest.mark.parametrize("rel", MODULES)
def test_every_draw_comes_from_a_seeded_generator(rel):
    assert not list(_violations(rel, ast.parse((SRC / rel).read_text())))


class TestPinnedDrawSites:
    """Literal streams, captured once; a change to a site's draws must
    re-pin its literal in the same change."""

    def test_random_arbiter_allocate(self):
        net = Network(HyperX((4, 4), 2))
        sim = make_simulator(
            PAPER_CONFIG.with_(arbiter="random"), net,
            make_mechanism("PolSP", net, rng=1), make_traffic("uniform", net, 0),
            offered=0.7, seed=0,
        )
        for _ in range(60):
            sim.step()
        assert (
            sim.metrics.delivered_total, int(sim.state.link_tx.sum()),
            int(sim.rng.integers(1 << 30)),
        ) == (1112, 3382, 337963009)

    def test_random_fault_sequence(self):
        assert random_fault_sequence(HyperX((4, 4), 1), 4, rng=0) == [
            (2, 6), (5, 7), (9, 13), (6, 14),
        ]

    def test_random_switch_fault_sequence(self):
        assert random_switch_fault_sequence(HyperX((4, 4), 1), 4, rng=0) == [
            4, 7, 11, 8,
        ]

    def test_random_regular_draw(self):
        topo = RandomRegular(8, 3, 1, seed=0)
        assert [topo.neighbours(s) for s in range(8)] == [
            [3, 5, 6], [5, 6, 7], [4, 5, 7], [0, 4, 7],
            [2, 3, 6], [0, 1, 2], [0, 1, 4], [1, 2, 3],
        ]

    def test_fig1_diameter_under_failures(self):
        curves = fig1_diameter_under_failures((4, 4), n_sequences=2, step=1)
        # Per curve: the first fault count at each diameter, and where
        # the network disconnects.
        assert [
            ({d: n for n, d in reversed(c["points"])}, c["disconnect_at"])
            for c in curves
        ] == [
            ({2: 0, 3: 3, 4: 10, 5: 14}, 16),
            ({2: 0, 3: 5, 4: 14, 5: 21, 6: 25, 7: 29}, 31),
        ]
