"""Every sweep command builds every distinct job of its default sweep.

For each :data:`~repro.experiments.cli.COMMANDS` row with a driver, the
CLI runs with no flag but ``--scale``, through an executor that builds
each job's simulator and steps none (:class:`BuildOnlyExecutor`).  So
every routing mechanism, traffic pattern, topology and schedule a figure
names by default is constructed on that figure's own networks, at every
scale, in seconds.
"""

from __future__ import annotations

import pytest

from repro.experiments import cli
from repro.experiments.sweeps import DEFAULT_INJECTIONS

from _helpers import BuildOnlyExecutor

SCALES = ("tiny", "small", "paper")

#: ``fig-collectives`` builds at ``tiny`` only: at ``small`` its 54 jobs
#: build 512-server policies, 18 of them a 523 264-entry ring all-reduce
#: (about 3.3 s a job) and 18 a 261 632-entry all-gather (about 1.5 s),
#: 78 s for the row on a 2-CPU x86-64 host (py3.11).
CASES = [
    (name, scale)
    for name, cmd in cli.COMMANDS.items()
    if cmd.driver is not None
    for scale in SCALES
    if name != "fig-collectives" or scale == "tiny"
]


@pytest.mark.parametrize("name,scale", CASES)
def test_default_sweep_builds(name, scale, monkeypatch, capsys):
    executor = BuildOnlyExecutor()
    monkeypatch.setattr(cli, "make_executor", lambda jobs, cache_dir: executor)
    assert cli.main([name, "--scale", scale]) == 0
    assert executor.built
    if name == "fig-workloads":
        # The default loads stay within the on-off duty cycle, so the
        # on-off points are in the sweep (and built) too.
        injections = {r["injection"] for r in executor.records}
        assert injections == set(DEFAULT_INJECTIONS)
