"""CLI tests (parser wiring and fast subcommands)."""

import inspect
import json

import pytest

from repro.experiments.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = [a for a in parser._actions if a.dest == "command"][0]
        expected = {
            "table2", "table3", "table4", "fig1", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig-transient",
            "fig-workloads", "fig-topologies", "fig-collectives",
            "point",
        }
        assert expected <= set(sub.choices)

    def test_docstring_lists_transient_subcommand(self):
        from repro.experiments import cli

        assert "fig-transient" in cli.__doc__

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4", "--scale", "gigantic"])

    @pytest.mark.parametrize("argv", [
        ["fig4", "--jobs", "0"],
        ["fig1", "--step", "0"],
        ["fig1", "--sequences", "0"],
        ["fig-transient", "--links", "-1"],
        ["fig-collectives", "--links", "-1"],
        ["point", "--traffic", "bogus"],
    ])
    def test_bad_argument_exits_with_usage(self, argv, capsys):
        """Out-of-range / unknown values are usage errors (exit 2), not
        tracebacks or silently-accepted zeros."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", sorted(n for n, c in COMMANDS.items() if c.driver is not None)
)
def test_sweep_flag_defaults_match_the_driver(name):
    """Every sweep flag but ``--repair`` feeds a driver parameter (through
    ``rename``), and a run with no flags passes that parameter's default."""
    cmd = COMMANDS[name]
    params = inspect.signature(cmd.driver).parameters
    args = build_parser().parse_args([name])
    for arg in ("scale", "seed") + cmd.args:
        if arg == "repair":  # the fig-transient adapter's own switch
            continue
        dest = arg.replace("-", "_")
        param = cmd.rename.get(dest, dest)
        assert param in params, f"--{arg} feeds no parameter of the driver"
        value = getattr(args, dest)
        value = tuple(value) if isinstance(value, list) else value
        assert value == params[param].default, arg


@pytest.mark.parametrize(
    "name,dims", [("fig4", 2), ("fig5", 3), ("fig8", 2), ("fig9", 3)]
)
def test_figure_pairs_bind_dims(name, dims):
    """Figures 4/5 and 8/9 share a driver each; the command binds dims."""
    cmd = COMMANDS[name]
    assert inspect.signature(cmd.driver).parameters["dims"].default == dims
    assert f"{dims}D" in cmd.title


class TestFastCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Virtual cut-through" in out

    def test_table3_tiny(self, capsys):
        assert main(["table3", "--scale", "tiny"]) == 0
        assert "2D HyperX" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "PolSP" in capsys.readouterr().out

    def test_fig2_tiny(self, capsys):
        assert main(["fig2", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "black" in out and "shortcut" in out

    def test_fig3_tiny(self, capsys):
        assert main(["fig3", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "confined pairs" in out
        assert ">" in out

    def test_fig7_tiny(self, capsys):
        assert main(["fig7", "--scale", "tiny"]) == 0
        assert "cross" in capsys.readouterr().out

    def test_point_runs(self, capsys):
        assert main([
            "point", "--mechanism", "Minimal", "--traffic", "uniform",
            "--offered", "0.1", "--warmup", "30", "--measure", "60",
        ]) == 0
        assert "accepted=" in capsys.readouterr().out

    def test_fig_transient_runs(self, tmp_path, capsys):
        json_path = tmp_path / "transient.json"
        assert main([
            "fig-transient", "--scale", "tiny", "--repair",
            "--mechanisms", "PolSP", "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out and "dropped" in out
        # --json output must be strict JSON even with NaN latencies.
        def reject(token):
            raise AssertionError(f"non-strict JSON token {token!r}")
        records = json.loads(json_path.read_text(), parse_constant=reject)
        assert records[0]["schedule_events"] == 4  # 2 links down + up

    def test_fig_workloads_runs(self, tmp_path, capsys):
        json_path = tmp_path / "workloads.json"
        assert main([
            "fig-workloads", "--scale", "tiny", "--mechanisms", "PolSP",
            "--patterns", "uniform", "shift", "--loads", "0.3",
            "--burst", "4", "--idle", "4", "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        # The mechanism x pattern matrix plus the record table.
        assert "PolSP:bernoulli" in out and "PolSP:onoff(4/4)" in out
        assert "uniform" in out and "shift" in out
        records = json.loads(json_path.read_text())
        assert {r["injection"] for r in records} == {"bernoulli", "onoff"}

    def test_fig_workloads_rejects_bad_burst(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig-workloads", "--burst", "0"])

    def test_fig_topologies_runs(self, tmp_path, capsys):
        json_path = tmp_path / "topologies.json"
        assert main([
            "fig-topologies", "--scale", "tiny", "--mechanisms", "PolSP",
            "--topologies", "torus", "fattree", "random",
            "--patterns", "uniform", "--loads", "0.3",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        # The (mechanism, traffic) x topology matrix plus the record table.
        assert "PolSP:uniform" in out
        assert "torus" in out and "fattree" in out and "random" in out
        records = json.loads(json_path.read_text())
        assert {r["topology"] for r in records} == {"torus", "fattree", "random"}
        assert all(not r["deadlocked"] for r in records)

    def test_fig_topologies_rejects_unknown_family(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig-topologies", "--topologies", "moebius"])

    def test_fig_collectives_runs(self, tmp_path, capsys):
        json_path = tmp_path / "collectives.json"
        assert main([
            "fig-collectives", "--scale", "tiny", "--mechanisms", "PolSP",
            "--topologies", "hyperx", "--collectives", "allreduce_tree",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "PolSP:allreduce_tree" in out  # the JCT matrix row
        assert "jct_cycles" in out            # the record table
        records = json.loads(json_path.read_text())
        # One healthy + one faulted run, both completing with finite JCT.
        assert {r["schedule"] for r in records} == {"none", "downup"}
        assert all(r["drained"] for r in records)
        assert all(r["jct_cycles"] > 0 for r in records)

    def test_fig_collectives_rejects_unknown_collective(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fig-collectives", "--collectives", "alltoall_hypercube"]
            )

    def test_csv_and_json_output(self, tmp_path, capsys):
        csv_path = tmp_path / "t3.csv"
        json_path = tmp_path / "t3.json"
        assert main([
            "table3", "--scale", "tiny",
            "--csv", str(csv_path), "--json", str(json_path),
        ]) == 0
        assert csv_path.read_text().startswith("topology,")
        data = json.loads(json_path.read_text())
        assert len(data) == 2
