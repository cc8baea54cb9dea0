"""The example scripts run, each with small flags.

The examples are user-facing documentation and build mechanisms,
patterns and topologies by name, so a renamed or broken catalog entry
fails here before it ships.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: Each example's flags: small runs, about a second each.
FLAGS = {
    "quickstart.py": ["--side", "4", "--offered", "0.3", "0.6"],
    "fault_recovery.py": ["--days", "2"],
    "escape_anatomy.py": [],
    "routing_comparison.py": ["--dims", "2", "--warmup", "10", "--measure", "20"],
}


def test_every_example_is_covered():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(FLAGS)


@pytest.mark.parametrize("script", sorted(FLAGS))
def test_example_runs(script, monkeypatch, capsys):
    path = EXAMPLES / script
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path), *FLAGS[script]])
    module.main()
    assert capsys.readouterr().out
