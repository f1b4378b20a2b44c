"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def _envelope(capsys):
    """Parse and schema-check one ``--json`` envelope from stdout."""
    from repro.obs import validate_envelope

    envelope = json.loads(capsys.readouterr().out)
    validate_envelope(envelope)
    return envelope


class TestCosts:
    def test_costs_output(self, capsys):
        assert main(["costs", "-c", "8", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "C=8 N=5" in out
        assert "GOPS peak" in out
        assert "intercluster" in out

    def test_costs_json_matches_api(self, capsys):
        from repro.api import CostQuery, run_cost_query

        assert main(["costs", "-c", "16", "-n", "5", "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "costs"
        direct = run_cost_query(CostQuery(16, 5)).to_dict()
        assert envelope["data"] == direct


class TestCompile:
    def test_compile_kernel(self, capsys):
        assert main(["compile", "blocksad", "-c", "8", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "initiation interval 12" in out

    def test_unknown_kernel(self, capsys):
        assert main(["compile", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_compile_json_matches_api(self, capsys):
        from repro.api import CompileRequest, run_compile

        assert main(["compile", "blocksad", "-c", "8", "-n", "5",
                     "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "compile"
        assert envelope["data"]["ii"] == 12
        direct = run_compile(CompileRequest("blocksad", 8, 5)).to_dict()
        assert envelope["data"] == direct


class TestSimulate:
    def test_simulate_application(self, capsys):
        assert main(["simulate", "fft1k", "-c", "8", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "GOPS" in out
        assert "SRF spills" in out

    def test_timeline(self, capsys):
        assert main(["simulate", "fft1k", "--timeline"]) == 0
        assert "kernel fft stage 0" in capsys.readouterr().out

    def test_unknown_application(self, capsys):
        assert main(["simulate", "doom"]) == 2
        assert "unknown application" in capsys.readouterr().err


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "--only", "fig9"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_cost_figures_all(self, capsys):
        assert main(
            ["figures", "--only", "fig6", "fig7", "fig8", "fig10", "fig11"]
        ) == 0
        out = capsys.readouterr().out
        for fig in ("Figure 6", "Figure 7", "Figure 8", "Figure 10",
                    "Figure 11"):
            assert fig in out


class TestHeadline:
    def test_headline_without_apps(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "kernel speedup" in out
        assert "paper 15.3x" in out

    def test_headline_json(self, capsys):
        assert main(["headline", "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "headline"
        machines = {row["machine"] for row in envelope["data"]["rows"]}
        assert machines == {"640alu", "1280alu"}
        assert "engine" in envelope["meta"]


class TestReportJson:
    def test_report_json_studies(self, capsys):
        assert main(["report", "--json"]) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "report"
        studies = envelope["data"]["studies"]
        assert set(studies) == {"fig13", "fig14", "table5"}
        assert studies["table5"]["rows"]
        assert "compile_cache" in envelope["meta"]

    def test_report_json_matches_sweep_api(self, capsys):
        from repro.api import SweepRequest, run_sweep

        assert main(["report", "--json"]) == 0
        envelope = _envelope(capsys)
        direct = run_sweep(SweepRequest("table5")).to_dict()
        assert envelope["data"]["studies"]["table5"] == direct


class TestAnalyticalMode:
    def test_simulate_analytical_matches_simulated(self, capsys):
        assert main(["simulate", "fft1k", "--mode", "analytical"]) == 0
        analytical = capsys.readouterr().out
        assert "(analytical model)" in analytical
        assert main(["simulate", "fft1k"]) == 0
        simulated = capsys.readouterr().out
        # Same cycle count through either backend.
        cycles = [line for line in simulated.splitlines()
                  if "cycles:" in line]
        assert cycles and all(line in analytical for line in cycles)

    def test_simulate_analytical_json_meta(self, capsys):
        assert main(
            ["simulate", "fft1k", "--mode", "analytical", "--json"]
        ) == 0
        envelope = _envelope(capsys)
        assert envelope["kind"] == "simulate"
        assert envelope["meta"]["mode"] == "analytical"
        assert envelope["data"]["cycles"] > 0

    def test_analytical_rejects_timeline(self, capsys):
        assert main(
            ["simulate", "fft1k", "--mode", "analytical", "--timeline"]
        ) == 2
        assert "--mode simulated" in capsys.readouterr().err

    def test_figures_analytical(self, capsys):
        assert main(
            ["figures", "--only", "fig13", "--mode", "analytical"]
        ) == 0
        assert "Figure 13" in capsys.readouterr().out

    def test_report_analytical_prints_mode_line(self, capsys):
        assert main(["report", "--mode", "analytical"]) == 0
        out = capsys.readouterr().out
        assert "mode: analytical" in out
        assert "closed-form model" in out

    def test_report_analytical_json_matches_simulated(self, capsys):
        assert main(["report", "--json"]) == 0
        simulated = _envelope(capsys)
        assert main(["report", "--mode", "analytical", "--json"]) == 0
        analytical = _envelope(capsys)
        # Identical study payloads; the mode only shows up in meta.
        assert analytical["data"] == simulated["data"]
        assert analytical["meta"]["mode"] == "analytical"


class TestNewerCommands:
    def test_floorplan_flag(self, capsys):
        assert main(["costs", "-c", "8", "-n", "5", "--floorplan"]) == 0
        out = capsys.readouterr().out
        assert "floorplan" in out
        assert "tracks/side" in out

    def test_gantt_flag(self, capsys):
        assert main(["simulate", "fft1k", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_bandwidth_line(self, capsys):
        assert main(["simulate", "fft1k"]) == 0
        out = capsys.readouterr().out
        assert "on-chip" in out

    def test_schedules_report(self, capsys):
        assert main(["schedules"]) == 0
        out = capsys.readouterr().out
        assert "ResMII" in out
        assert "blocksad" in out

    def test_validate_fast(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "claims reproduced" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path / "csv")]) == 0
        out = capsys.readouterr().out
        assert "wrote 12 CSV files" in out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2",
             "--max-batch", "4", "--max-queue", "8",
             "--timeout", "10", "--trace-out", "t.json"]
        )
        assert args.func.__name__ == "cmd_serve"
        assert args.port == 0
        assert args.workers == 2
        assert args.max_batch == 4
        assert args.max_queue == 8
        assert args.timeout == 10.0
        assert args.trace_out == "t.json"
