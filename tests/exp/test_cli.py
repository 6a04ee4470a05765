"""Unit tests for the repro-exp command-line interface."""

import json

import pytest

from repro.exp.cli import _build_parser, run_experiment
from repro.exp.runner import ExperimentConfig, Runner
from repro.topology.presets import tiny_two_node


@pytest.fixture(scope="module")
def runner():
    return Runner(
        ExperimentConfig(seeds=2, timesteps=3, with_noise=False), topology=tiny_two_node()
    )


class TestParser:
    def test_experiment_choices(self):
        parser = _build_parser()
        args = parser.parse_args(["fig2", "--seeds", "3"])
        assert args.experiment == "fig2"
        assert args.seeds == 3

    def test_benchmark_subset(self):
        args = _build_parser().parse_args(["table1", "--benchmarks", "cg", "sp"])
        assert args.benchmarks == ["cg", "sp"]

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fig9"])

    def test_no_noise_flag(self):
        args = _build_parser().parse_args(["fig2", "--no-noise"])
        assert args.no_noise

    def test_engine_flag_is_unknown(self, capsys):
        """One production engine: there is nothing left to select."""
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["fig2", "--engine", "reference"])
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


class TestRunExperiment:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "fig6", "table1"])
    def test_each_experiment_renders(self, runner, name):
        text = run_experiment(name, runner, ["matmul"])
        assert "matmul" in text

    def test_unknown_raises(self, runner):
        with pytest.raises(ValueError):
            run_experiment("fig9", runner, None)


class TestSaveOption:
    def test_save_writes_json(self, tmp_path, monkeypatch):
        from repro.exp import cli as cli_mod
        from repro.exp.persistence import load_results

        out = tmp_path / "cells.json"
        monkeypatch.setenv("REPRO_SEEDS", "1")
        monkeypatch.setenv("REPRO_ITERS", "2")
        # patch the default topology to the tiny machine to keep this fast
        import repro.exp.runner as runner_mod

        monkeypatch.setattr(runner_mod, "zen4_9354", tiny_two_node)
        rc = cli_mod.main(["fig2", "--benchmarks", "matmul", "--no-noise",
                           "--save", str(out)])
        assert rc == 0
        payload = load_results(out)
        assert payload["cells"]


class TestTraceOutOption:
    def test_trace_out_writes_a_chrome_trace(self, tmp_path, monkeypatch, capsys):
        from repro.exp import cli as cli_mod

        out = tmp_path / "t.json"
        monkeypatch.setenv("REPRO_SEEDS", "1")
        monkeypatch.setenv("REPRO_ITERS", "2")
        rc = cli_mod.main(["fig3", "--benchmarks", "cg", "matmul", "--no-noise",
                           "--machine", "tiny", "--trace-out", str(out)])
        assert rc == 0
        assert f"chrome trace of (cg, ilan) written to {out}" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        # slices of the traced run, not only the process/thread metadata
        assert any(event["ph"] == "X" for event in events)


class TestMachineOption:
    def test_presets_resolve(self):
        from repro.exp.cliopts import resolve_machine

        assert resolve_machine("zen4").num_cores == 64
        assert resolve_machine("tiny").num_cores == 4
        assert resolve_machine("uma").num_nodes == 1

    def test_topology_file(self, tmp_path):
        from repro.exp.cliopts import resolve_machine
        from repro.topology.hwloc import format_topology

        path = tmp_path / "m.topo"
        path.write_text(format_topology(tiny_two_node()))
        assert resolve_machine(str(path)).num_cores == 4

    def test_unknown_machine_exits(self):
        from repro.exp.cliopts import resolve_machine

        with pytest.raises(SystemExit):
            resolve_machine("cray-1")

    def test_machine_flag_end_to_end(self, monkeypatch, capsys):
        from repro.exp import cli as cli_mod

        monkeypatch.setenv("REPRO_SEEDS", "1")
        monkeypatch.setenv("REPRO_ITERS", "2")
        rc = cli_mod.main(["fig2", "--benchmarks", "matmul", "--no-noise",
                           "--machine", "tiny"])
        assert rc == 0
        assert "matmul" in capsys.readouterr().out
