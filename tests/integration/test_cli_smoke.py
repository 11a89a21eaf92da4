"""CLI smoke tests: every ``python -m repro`` subcommand in quick mode.

Each ``report`` section runs at a deliberately tiny scenario scale
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
        code = main(["report", "--only", "fig7", "--body-mb", "0.001",
                     "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "## Fig. 7 — storage, C = 0.001 MB" in out
        assert "2LDAG" in out and "PBFT" in out
        assert "## Headline claims" not in out

    def test_fig8(self, capsys, tiny_scenario_file):
        code = main(["report", "--only", "fig8",
                     "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        for panel in "abc":
            assert f"Fig. 8({panel})" in out
        assert "2LDAG-33%" in out

    def test_fig9(self, capsys, tiny_scenario_file):
        code = main(["report", "--only", "fig9", "--panel", "a",
                     "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "## Fig. 9(a) — consensus time" in out
        assert "## Fig. 9(d)" not in out

    def test_headline(self, capsys, tiny_scenario_file):
        code = main(["report", "--only", "headline",
                     "--scenario", tiny_scenario_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "storage: PBFT/2LDAG" in out
        assert "## Fig." not in out

    def test_report(self, capsys, tiny_scenario_file, tmp_path):
        out_path = tmp_path / "report.md"
        code = main(["report", "--quick", "--scenario", tiny_scenario_file,
                     "--output", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert "# 2LDAG reproduction report" in text
        assert "## Headline claims" in text


def submitted_cells(monkeypatch):
    """Record the digest of every cell any campaign executor is handed."""
    from repro.campaign.executor import CampaignExecutor

    submitted = []
    run = CampaignExecutor.run

    def recording_run(self, campaign, **kwargs):
        submitted.extend(cell.digest() for cell in campaign.cells)
        return run(self, campaign, **kwargs)

    monkeypatch.setattr(CampaignExecutor, "run", recording_run)
    return submitted


class TestReportOnlyFold:
    """``report --only`` runs what ``fig7``/``fig8``/``fig9``/``headline``
    ran: the same cells, in the same order, printing the same rows.

    The digests were recorded on the tiny spec from the retired
    commands and re-pinned twice: once when campaign code version 2
    changed every cell digest, and once when version 3 took the
    scenario's labels out of the digest, which also made the headline's
    C = 0.5 MB cell and Fig. 8's 33% cell one cell, submitted once.
    ``ROWS_SHA256`` hashes the lines of their stdout that carry a ``|``
    (every table row and chart row, no titles); it did not change.
    """

    FOLD = {
        "fig7": (
            ["--only", "fig7", "--body-mb", "0.001"],
            ["6a5d392513e1fdf757b46113e38c90ed3c8000339dbf147433fb4ce64b8f67e7"],
            "037a84e820d3e1ad8beb8d0576fff32fcf0e38d409ed6bf01cc63bd4fee172c2",
        ),
        "fig8": (
            ["--only", "fig8"],
            ["c6e6653400c43619a722a7c639bdb22e68bc33ffd8fc40e7cd651d86a8bea431",
             "9087dd51a59a083d02778c95645340eff3344bdb526bce9421e731a5dbb5496a"],
            "a7cc5ac766182060a70eb1d941fdd02def64ecdc7f73a4ad84e35a09b864c395",
        ),
        "fig9": (
            ["--only", "fig9", "--panel", "a"],
            ["d9a8025fe6226a255639145868c64a0a593718f14114196df8dcd83657d71620",
             "58a11beeb95bdd5bf0f0942e06b6687ff142c8eab2368900195948010f85fe31",
             "d15f42ce80d66547d8058be66be098e44df3c0b4ed35438fc512db3343580176"],
            "733a0753cad85925d369bce0b04ec7d5cb1b59e416226106c112dbd19e98b481",
        ),
        "headline": (
            ["--only", "headline"],
            # the model gate's PBFT and IOTA cells, then C = 0.5 MB, which
            # is also Fig. 8's 33% run, and Fig. 8's 49% run
            ["bcc865567ab2178dc86fce56dba3993863af745aba786f8d72f61398beeb89d4",
             "9cf449fb5fa332e181e5970248f8be07ab1c7776c86e175f271c02897ee7d9f5",
             "c6e6653400c43619a722a7c639bdb22e68bc33ffd8fc40e7cd651d86a8bea431",
             "9087dd51a59a083d02778c95645340eff3344bdb526bce9421e731a5dbb5496a"],
            # sha256 of no lines: the headline summary has no table
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
    }

    HEADLINE = [
        "storage: PBFT/2LDAG = 9x (1.0 orders), IOTA/2LDAG = 9x",
        "communication: PBFT/2LDAG = 11736x (4.1 orders), IOTA/2LDAG = 58520x",
        "model gate [pbft]: storage 0.0%, traffic 0.0% from the cost model "
        "(tolerance 5%)",
        "model gate [iota]: storage 0.0%, traffic 0.0% from the cost model "
        "(tolerance 5%)",
    ]

    @pytest.mark.parametrize("retired", sorted(FOLD))
    def test_same_cells_and_rows_as_the_retired_command(
        self, retired, capsys, monkeypatch, tiny_scenario_file
    ):
        import hashlib

        argv, cells, rows_sha256 = self.FOLD[retired]
        submitted = submitted_cells(monkeypatch)
        assert main(["report", *argv, "--scenario", tiny_scenario_file]) == 0
        out = capsys.readouterr().out
        assert submitted == cells
        rows = "\n".join(line for line in out.splitlines() if "|" in line)
        assert hashlib.sha256(rows.encode()).hexdigest() == rows_sha256
        if retired == "headline":
            lines = out.splitlines()
            start = lines.index(self.HEADLINE[0])
            assert lines[start:start + 4] == self.HEADLINE

    def test_one_fig9_panel_submits_nothing_else(
        self, capsys, monkeypatch, tiny_scenario_file
    ):
        submitted = submitted_cells(monkeypatch)
        assert main(["report", "--only", "fig9", "--panel", "a",
                     "--scenario", tiny_scenario_file]) == 0
        capsys.readouterr()
        _, fig9_cells, _ = self.FOLD["fig9"]
        assert submitted == fig9_cells
        others = {c for name in ("fig7", "fig8", "headline")
                  for c in self.FOLD[name][1]}
        assert not others & set(submitted)


class TestRetiredFigureCommands:
    """``report --only`` is the one figure command, with no alias."""

    @pytest.mark.parametrize("command", ["fig7", "fig8", "fig9", "headline"])
    def test_is_an_invalid_choice(self, command, capsys):
        with pytest.raises(SystemExit) as raised:
            main([command, "--quick"])
        assert raised.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_monitors_takes_no_mode(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["campaign", "run", "smoke", "--monitors", "strict"])
        assert raised.value.code == 2
        assert "unrecognized arguments: strict" in capsys.readouterr().err


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
        code = main(["--cache-dir", str(tmp_path / "cache"),
                     "campaign", "status", "fault-grid", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == 1
        assert document["campaign"] == "fault-grid"
        assert document["total"] == len(document["cells"])
        assert set(document["counts"]) == {
            "done", "failing", "pending", "quarantined"
        }


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
            "simulate", "verify", "scenarios", "campaign", "telemetry",
            "report",
        ]


class TestRetiredLintCommand:
    """The determinism and architecture rules are a tier-1 test module
    (``tests/invariants/test_rules.py``), not a subcommand."""

    def test_lint_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["lint", "src"])
        assert raised.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestRetiredExportCommand:
    """A run's stream and a campaign's journal are its only records."""

    #: SHA-256 of what ``campaign run smoke --telemetry tel --monitors``
    #: writes, run from the directory holding ``tel``; equal to the
    #: bytes written while the metrics exposition still existed.
    SMOKE_FILES = {
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
        assert sorted(actions.choices) == [
            "diff", "summarize", "trace", "validate"
        ]

    def test_campaign_run_writes_streams_and_verdicts_only(
        self, capsys, tmp_path, monkeypatch
    ):
        import hashlib

        monkeypatch.chdir(tmp_path)
        # the command exports --telemetry for its workers; undo that
        monkeypatch.setenv("REPRO_TELEMETRY", "tel")
        code = main(["--cache-dir", "cache", "campaign", "run", "smoke",
                     "--telemetry", "tel", "--monitors"])
        assert code == 0
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "tel").iterdir()
        }
        assert written == self.SMOKE_FILES

        # all cached: nothing streams, and the verdicts are not kept
        assert main(["--cache-dir", "cache", "campaign", "run", "smoke",
                     "--telemetry", "warm", "--monitors"]) == 0
        assert list((tmp_path / "warm").iterdir()) == []


class TestRetiredCampaignClean:
    """Campaigns share cache entries, so none deletes "its own": there is
    no ``campaign clean`` (``run --force`` recomputes; removing the
    ``--cache-dir`` directory drops everything)."""

    def test_is_an_invalid_choice(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main(["--cache-dir", str(tmp_path), "campaign", "clean", "smoke"])
        assert raised.value.code == 2
        assert "invalid choice: 'clean'" in capsys.readouterr().err


class TestRetiredViews:
    """The HTML dashboard and the SVG waterfalls are gone, with no stub."""

    def test_campaign_dashboard_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["campaign", "dashboard", "smoke"])
        assert raised.value.code == 2
        assert "invalid choice: 'dashboard'" in capsys.readouterr().err

    def test_trace_svg_is_an_unknown_option(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as raised:
            main(["telemetry", "trace", str(tmp_path), "--svg", "w.svg"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --svg" in capsys.readouterr().err


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
        ["campaign", "run", "smoke"],
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

    @pytest.mark.parametrize("block", [[], ["--block", "3#7"]])
    def test_trace_without_trace_start_exits_2(self, block, capsys, tmp_path):
        # a lone block-trace line validates (a headerless fragment) but
        # names no backend to attribute its spans to
        stream = tmp_path / "trace-frag-2ldag-seed0.jsonl"
        stream.write_text(json.dumps({
            "v": 2, "event": "block-trace", "block": "3#7", "origin": 3,
            "confirmed": False, "faults": [],
            "spans": [{"phase": "created", "node": 3, "slot": 7,
                       "start": 7.0, "end": 7.0}],
        }) + "\n")
        assert main(["telemetry", "validate", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "trace", str(tmp_path), *block]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{stream}: stream carries no trace-start\n")

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
                                                          tmp_path,
                                                          monkeypatch):
        telemetry = tmp_path / "tel"
        # the command exports both for its cells; undo that
        monkeypatch.setenv("REPRO_TELEMETRY", str(telemetry))
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "1")
        code = main(["--cache-dir", str(tmp_path / "cache"),
                     "campaign", "run", "smoke",
                     "--telemetry", str(telemetry),
                     "--trace-sample", "1.0",
                     "--monitors"])
        out = capsys.readouterr().out
        assert code == 0
        assert "monitors: pass (12 pass, 0 fail, 4 skip)" in out
        assert not list(telemetry.glob("monitors-*"))

        # status reads the verdicts from the streams themselves
        assert main(["--cache-dir", str(tmp_path / "cache"),
                     "campaign", "status", "smoke",
                     "--telemetry", str(telemetry)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "invariant monitors: pass (12 pass, 0 fail, 4 skip)"
        )

    @pytest.mark.parametrize(
        "content", [b"{", b'{"v": 1, "event": "sl', b"\xff\xfe{}"],
        ids=["torn", "half-record", "not-utf8"],
    )
    def test_status_names_a_torn_stream(self, content, capsys, tmp_path):
        telemetry = tmp_path / "tel"
        telemetry.mkdir()
        stream = telemetry / "run-smoke-2ldag-seed0.jsonl"
        stream.write_bytes(content)
        code = main(["--cache-dir", str(tmp_path / "cache"),
                     "campaign", "status", "smoke",
                     "--telemetry", str(telemetry)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"monitor evaluation failed: {stream}: ")
        assert "Traceback" not in err

    def test_monitors_without_telemetry_dir_exits_2(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        code = main(["--cache-dir", str(tmp_path / "cache"),
                     "campaign", "run", "smoke",
                     "--monitors"])
        assert code == 2
        assert "telemetry" in capsys.readouterr().err
