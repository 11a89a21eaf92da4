"""CLI smoke tests: every ``python -m repro`` subcommand in quick mode.

Each figure/report command runs at a deliberately tiny scenario scale
(via ``--scenario`` with a generated spec file) so the whole module
stays CI-friendly; the point is that no subcommand can silently rot,
not numeric fidelity (the experiments suites cover that).
"""

import json

import pytest

from repro.cli import main
from repro.scenario import ScenarioSpec, get_scenario, scenario_names


@pytest.fixture(scope="module")
def tiny_scenario_file(tmp_path_factory):
    """A quickstart-derived spec small enough for figure sweeps."""
    spec = get_scenario("quickstart").with_workload(
        slots=12, validate=True, sample_slots=(6, 12), run_until_quiet=True
    )
    path = tmp_path_factory.mktemp("cli") / "tiny.json"
    spec.save(path)
    return str(path)


class TestSimulate:
    def test_inline_args(self, capsys):
        code = main(["simulate", "--nodes", "9", "--slots", "5",
                     "--gamma", "2", "--body-mb", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "blocks generated: 45" in out
        assert "trace sha256:" in out

    def test_named_scenario(self, capsys):
        code = main(["simulate", "--scenario", "quickstart"])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario quickstart" in out

    def test_scenario_file_reproduces_named_digest(self, capsys, tmp_path):
        code = main(["scenarios", "show", "quickstart"])
        exported = capsys.readouterr().out
        assert code == 0
        path = tmp_path / "s.json"
        path.write_text(exported)

        assert main(["simulate", "--scenario", str(path)]) == 0
        from_file = capsys.readouterr().out
        assert main(["simulate", "--scenario", "quickstart"]) == 0
        from_name = capsys.readouterr().out
        digest = [l for l in from_file.splitlines() if "trace sha256" in l]
        assert digest and digest == [
            l for l in from_name.splitlines() if "trace sha256" in l
        ]

    def test_unknown_scenario_errors(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", "no-such-preset"])


class TestFaultInjection:
    def test_simulate_with_fault_preset(self, capsys):
        code = main(["simulate", "--scenario", "quickstart",
                     "--faults", "mid-crash"])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults applied: 2 event(s)" in out
        assert "node-crash" in out and "node-rejoin" in out

    def test_simulate_with_fault_file_on_baseline_backend(self, capsys, tmp_path):
        from repro.faults import build_fault_preset

        path = tmp_path / "faults.json"
        build_fault_preset("stress", 9, 30).save(path)
        code = main(["simulate", "--scenario", "quickstart",
                     "--backend", "pbft", "--faults", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend pbft" in out
        assert "partition" in out

    def test_fault_preset_overrides_spec_churn(self, capsys):
        code = main(["simulate", "--scenario", "churn",
                     "--faults", "partition-heal"])
        out = capsys.readouterr().out
        assert code == 0
        assert "partition" in out and "node-crash" not in out

    def test_unknown_fault_preset_errors(self):
        with pytest.raises(SystemExit, match="unknown fault preset"):
            main(["simulate", "--scenario", "quickstart", "--faults", "nope"])

    def test_missing_fault_file_errors(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["simulate", "--scenario", "quickstart",
                  "--faults", "missing/faults.json"])

    def test_validate_reports_declared_timeline(self, capsys, tmp_path):
        code = main(["scenarios", "show", "fault-demo"])
        exported = capsys.readouterr().out
        assert code == 0
        assert '"faults"' in exported
        path = tmp_path / "fd.json"
        path.write_text(exported)
        assert main(["scenarios", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "declared timeline" in out
        assert "link-degrade" in out

    def test_validate_reports_churn_as_a_declared_timeline(self, capsys, tmp_path):
        assert main(["scenarios", "show", "churn"]) == 0
        path = tmp_path / "churn.json"
        path.write_text(capsys.readouterr().out)
        assert main(["scenarios", "validate", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "fault schedule (2 event(s), declared timeline):",
            "  slot 15: node-crash (nodes=3,6,9,12,15,17)",
            "  slot 25: node-rejoin (nodes=3,6,9,12,15,17)",
        ]


class TestVerify:
    def test_verify_quick(self, capsys):
        code = main(["verify", "--nodes", "9", "--slots", "12",
                     "--gamma", "2", "--body-mb", "0.01", "--target-slot", "0"])
        assert code == 0
        assert "SUCCESS" in capsys.readouterr().out

    def test_verify_scenario(self, capsys):
        code = main(["verify", "--scenario", "quickstart", "--target-slot", "1"])
        assert code == 0
        assert "consensus set" in capsys.readouterr().out


class TestScenarios:
    def test_list_names_every_preset(self, capsys):
        code = main(["scenarios", "list"])
        out = capsys.readouterr().out
        assert code == 0
        for name in scenario_names():
            assert name in out

    def test_show_round_trips(self, capsys):
        code = main(["scenarios", "show", "attack-majority"])
        out = capsys.readouterr().out
        assert code == 0
        spec = ScenarioSpec.from_dict(json.loads(out))
        assert spec == get_scenario("attack-majority")

    def test_show_unknown_exits_2(self, capsys):
        code = main(["scenarios", "show", "nope"])
        assert code == 2
        assert "known:" in capsys.readouterr().err


class TestFigures:
    def test_fig7(self, capsys, tiny_scenario_file):
        code = main(["fig7", "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "2LDAG" in out and "PBFT" in out

    def test_fig8(self, capsys, tiny_scenario_file):
        code = main(["fig8", "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig. 8(a)" in out and "2LDAG-33%" in out

    def test_fig9(self, capsys, tiny_scenario_file):
        code = main(["fig9", "--panel", "a", "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "consensus failure probability" in out

    def test_headline(self, capsys, tiny_scenario_file):
        code = main(["headline", "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "storage: PBFT/2LDAG" in out

    def test_report(self, capsys, tiny_scenario_file, tmp_path):
        out_path = tmp_path / "report.md"
        code = main(["report", "--quick", "--scenario", tiny_scenario_file,
                     "--output", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "# 2LDAG reproduction report" in text
        assert "## Headline claims" in text


class TestTelemetryCLI:
    def test_simulate_records_a_validated_stream(self, capsys, tmp_path):
        telemetry_dir = tmp_path / "tel"
        code = main(["simulate", "--scenario", "quickstart",
                     "--telemetry", str(telemetry_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry stream:" in out
        streams = list(telemetry_dir.glob("*.jsonl"))
        assert len(streams) == 1

        assert main(["telemetry", "validate", str(telemetry_dir)]) == 0
        assert "OK:" in capsys.readouterr().out

        assert main(["telemetry", "summarize", str(telemetry_dir)]) == 0
        table = capsys.readouterr().out
        assert "quickstart" in table and "2ldag" in table

    def test_env_var_enables_telemetry(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "tel"))
        assert main(["simulate", "--scenario", "quickstart"]) == 0
        assert "telemetry stream:" in capsys.readouterr().out
        assert main(["telemetry", "validate"]) == 0

    def test_validate_flags_schema_violations(self, capsys, tmp_path):
        (tmp_path / "bad.jsonl").write_text('{"v": 1, "event": "nope"}\n')
        code = main(["telemetry", "validate", str(tmp_path)])
        assert code == 1
        assert "INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["[]", "{}"])
    def test_validate_survives_an_unhashable_event(self, capsys, tmp_path, kind):
        (tmp_path / "run-bad.jsonl").write_text(
            '{"v": 1, "event": "fault", "slot": 1, "kind": "k", "detail": "d"}\n'
            f'{{"v": 1, "event": {kind}}}\n'
        )
        assert main(["telemetry", "validate", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "run-bad.jsonl: line 2: unknown event kind" in err
        assert "INVALID: 1 schema violation(s)" in err
        assert "Traceback" not in err

    def test_missing_paths_without_env_exit(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        with pytest.raises(SystemExit, match="REPRO_TELEMETRY"):
            main(["telemetry", "summarize"])


class TestCampaignObservability:
    def test_status_json_is_the_pinned_document(self, capsys, tmp_path):
        code = main(["campaign", "status", "fault-grid", "--json",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == 1
        assert document["campaign"] == "fault-grid"
        assert document["total"] == len(document["cells"])
        assert set(document["counts"]) == {
            "done", "failing", "pending", "quarantined"
        }

    def test_dashboard_writes_self_contained_html(self, capsys, tmp_path):
        out_path = tmp_path / "dash.html"
        code = main(["campaign", "dashboard", "fault-grid",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_path)])
        assert code == 0
        assert "dashboard written to" in capsys.readouterr().out
        page = out_path.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "fault-grid" in page and "<script" not in page


class TestRetiredBenchCommand:
    """The in-package bench harness is gone; speed is ``benchmarks/perf/``'s."""

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "history"]])
    def test_bench_is_an_invalid_choice(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_the_subcommand_list_is_pinned(self):
        from repro.cli import build_parser

        (subparsers,) = [
            action for action in build_parser()._actions
            if action.dest == "command"
        ]
        assert list(subparsers.choices) == [
            "simulate", "verify", "scenarios", "campaign", "lint",
            "telemetry", "fig7", "fig8", "fig9", "headline", "report",
        ]


class TestRetiredExportCommand:
    """A run's stream and a campaign's journal are its only records."""

    #: SHA-256 of what ``campaign run smoke --telemetry tel --monitors
    #: report`` writes, run from the directory holding ``tel``; equal to
    #: the bytes written while the metrics exposition still existed.
    SMOKE_FILES = {
        "monitors-smoke.json":
            "d3c2287ded6f38bbc927064036ee12d2dd5e288118c75724c4676232f698fe3f",
        "run-ledger-comparison-seed-0--2ldag-seed0.jsonl":
            "52cab7595607b56ebfe55d568bb1dacf853567056a249f2a836fdda7485770bc",
        "run-ledger-comparison-seed-1--2ldag-seed1.jsonl":
            "2bbdcdd9b2a818de3cef5ad5337312723f395fa4ae06a105133ca5f6ac474a2e",
        "run-ledger-comparison-seed-2--2ldag-seed2.jsonl":
            "85faf14669822902b25644c03fbbbfc0b8daeb45c343411bbd08e5de44f79e85",
        "run-ledger-comparison-seed-3--2ldag-seed3.jsonl":
            "703e320fa7502ad00c24fb6d83953372b7a146e19ddb40e0061baa0d07f9c563",
    }

    def test_export_is_an_invalid_choice(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main(["telemetry", "export", str(tmp_path)])
        assert raised.value.code == 2
        assert "invalid choice: 'export'" in capsys.readouterr().err

    def test_the_telemetry_actions_are_pinned(self):
        from repro.cli import build_parser

        (subparsers,) = [
            action for action in build_parser()._actions
            if action.dest == "command"
        ]
        (actions,) = [
            action for action in subparsers.choices["telemetry"]._actions
            if action.dest == "action"
        ]
        assert sorted(actions.choices) == ["summarize", "trace", "validate"]

    def test_campaign_run_writes_streams_and_verdicts_only(
        self, capsys, tmp_path, monkeypatch
    ):
        import hashlib

        monkeypatch.chdir(tmp_path)
        # the command exports --telemetry for its workers; undo that
        monkeypatch.setenv("REPRO_TELEMETRY", "tel")
        code = main(["campaign", "run", "smoke", "--cache-dir", "cache",
                     "--telemetry", "tel", "--monitors", "report"])
        assert code == 0
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "tel").iterdir()
        }
        assert written == self.SMOKE_FILES

        # all cached: nothing streams, the verdicts still land in a new dir
        assert main(["campaign", "run", "smoke", "--cache-dir", "cache",
                     "--telemetry", "warm", "--monitors", "report"]) == 0
        assert [p.name for p in (tmp_path / "warm").iterdir()] == [
            "monitors-smoke.json"
        ]


class TestTracingCLI:
    @pytest.fixture(scope="class")
    def traced_dir(self, tmp_path_factory, tiny_scenario_file):
        """One traced run every test in this class reads."""
        directory = tmp_path_factory.mktemp("traced")
        code = main(["simulate", "--scenario", tiny_scenario_file,
                     "--telemetry", str(directory),
                     "--trace-sample", "1.0"])
        assert code == 0
        return directory

    def test_simulate_reports_trace_stream(self, capsys, tmp_path,
                                           tiny_scenario_file):
        code = main(["simulate", "--scenario", tiny_scenario_file,
                     "--telemetry", str(tmp_path),
                     "--trace-sample", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace stream:" in out
        assert "sample 0.5" in out
        assert list(tmp_path.glob("trace-*.jsonl"))

    def test_trace_sample_without_telemetry_dir_exits_2(self, capsys,
                                                        monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        code = main(["simulate", "--scenario", "quickstart",
                     "--trace-sample", "0.5"])
        assert code == 2
        assert "telemetry directory" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "-1", "inf", "1.5"])
    def test_bad_trace_sample_exits_2_naming_it(self, rate, capsys, tmp_path):
        code = main(["simulate", "--scenario", "quickstart",
                     "--telemetry", str(tmp_path), "--trace-sample", rate])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("--trace-sample must be 0 (off) or a sample rate")
        assert f"got {float(rate)!r}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["simulate", "--scenario", "quickstart"],
        ["campaign", "run", "smoke", "--no-cache"],
    ])
    def test_bad_trace_sample_env_exits_2(self, command, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "nan")
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path))
        code = main(command)
        assert code == 2
        assert "$REPRO_TRACE_SAMPLE must be 0 (off)" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.jsonl"))

    def test_validate_partitions_trace_streams(self, capsys, traced_dir):
        assert main(["telemetry", "validate", str(traced_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 trace stream(s)" in out

    def test_trace_report_text_and_json(self, capsys, traced_dir):
        assert main(["telemetry", "trace", str(traced_dir)]) == 0
        text = capsys.readouterr().out
        assert "2ldag" in text

        assert main(["telemetry", "trace", str(traced_dir), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runs"][0]["backend"] == "2ldag"

    def test_trace_block_waterfall(self, capsys, traced_dir):
        assert main(["telemetry", "trace", str(traced_dir), "--json"]) == 0
        # Any traced block key works; recover one from the stream.
        stream = next(traced_dir.glob("trace-*.jsonl"))
        capsys.readouterr()
        key = next(
            json.loads(l)["block"] for l in stream.read_text().splitlines()
            if '"block-trace"' in l
        )
        assert main(["telemetry", "trace", str(traced_dir),
                     "--block", key]) == 0
        assert f"block {key}" in capsys.readouterr().out

        assert main(["telemetry", "trace", str(traced_dir),
                     "--block", "no-such-block"]) == 1

    def test_trace_svg_export(self, capsys, traced_dir, tmp_path):
        out_path = tmp_path / "waterfall.svg"
        assert main(["telemetry", "trace", str(traced_dir),
                     "--svg", str(out_path)]) == 0
        assert out_path.read_text().startswith("<svg")

    def test_trace_on_empty_dir_exits_1(self, capsys, tmp_path):
        code = main(["telemetry", "trace", str(tmp_path)])
        assert code == 1
        assert "no trace streams" in capsys.readouterr().err

    def test_summarize_json_skips_trace_streams(self, capsys, traced_dir):
        assert main(["telemetry", "summarize", str(traced_dir),
                     "--json"]) == 0
        summaries = json.loads(capsys.readouterr().out)
        assert len(summaries) == 1  # the v1 stream only
        assert summaries[0]["backend"] == "2ldag"


class TestMonitorsCLI:
    def test_campaign_run_with_monitors_reports_and_gates(self, capsys,
                                                          tmp_path):
        telemetry = tmp_path / "tel"
        code = main(["campaign", "run", "smoke",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", str(telemetry),
                     "--trace-sample", "1.0",
                     "--monitors", "strict"])
        out = capsys.readouterr().out
        assert code == 0
        assert "monitors: pass" in out
        document = json.loads((telemetry / "monitors-smoke.json").read_text())
        assert document["status"] == "pass"

        # status surfaces the persisted verdicts
        assert main(["campaign", "status", "smoke",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", str(telemetry)]) == 0
        assert "invariant monitors: pass" in capsys.readouterr().out

        # the dashboard embeds the monitor panel and a waterfall
        out_path = tmp_path / "dash.html"
        assert main(["campaign", "dashboard", "smoke",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--telemetry", str(telemetry),
                     "--out", str(out_path)]) == 0
        page = out_path.read_text()
        assert "Invariant monitors" in page
        assert "<svg" in page

    def test_monitors_without_telemetry_dir_exits_2(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        code = main(["campaign", "run", "smoke",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--monitors", "report"])
        assert code == 2
        assert "telemetry" in capsys.readouterr().err
