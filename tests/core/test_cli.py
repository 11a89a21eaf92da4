"""CLI tests: argument parsing and command execution."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = Path(__file__).resolve().parents[2] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.nodes == 25
        assert args.gamma == 8
        assert not args.validate

    def test_report_panel_choices(self):
        args = build_parser().parse_args(["report", "--panel", "d"])
        assert args.panel == "d"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--panel", "z"])

    def test_report_only_choices(self):
        args = build_parser().parse_args(
            ["report", "--only", "fig7", "--only", "headline"]
        )
        assert args.only == ["fig7", "headline"]
        assert build_parser().parse_args(["report"]).only is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--only", "fig6"])

    def test_global_workers_defaults_to_serial(self):
        args = build_parser().parse_args(["report"])
        assert args.workers == 0

    def test_global_workers_before_subcommand(self):
        args = build_parser().parse_args(["--workers", "4", "report"])
        assert args.workers == 4

    def test_campaign_run_inherits_global_workers(self):
        args = build_parser().parse_args(["--workers", "2", "campaign", "run", "smoke"])
        assert args.workers == 2

    @pytest.mark.parametrize("argv, flag", [
        (["campaign", "run", "smoke", "--cell-timeout", "0"], "--cell-timeout"),
        (["campaign", "run", "smoke", "--cell-timeout", "-1"], "--cell-timeout"),
        (["campaign", "run", "smoke", "--cell-timeout", "nan"], "--cell-timeout"),
        (["campaign", "run", "smoke", "--cell-timeout", "inf"], "--cell-timeout"),
        (["campaign", "run", "smoke", "--retries", "-1"], "--retries"),
        (["--workers", "-2", "campaign", "run", "smoke"], "--workers"),
        (["--workers", "-1", "report"], "--workers"),
        # A body size is a finite number of MB, 0 or more; nan and inf
        # used to die in mb_to_bits with a traceback.
        (["simulate", "--body-mb", "nan"], "--body-mb"),
        (["simulate", "--body-mb", "-1"], "--body-mb"),
        (["verify", "--body-mb", "-0.5"], "--body-mb"),
        (["report", "--quick", "--body-mb", "-1"], "--body-mb"),
        (["report", "--only", "fig7", "--body-mb", "inf"], "--body-mb"),
        (["verify", "--body-mb", "-inf"], "--body-mb"),
        (["report", "--body-mb", "half"], "--body-mb"),
    ])
    def test_bad_execution_values_are_refused_at_parse_time(
        self, capsys, argv, flag
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        (line,) = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert f"argument {flag}:" in line

    @pytest.mark.parametrize("argv, body_mb", [
        (["simulate", "--body-mb", "0"], 0.0),
        (["verify", "--body-mb", "1e-3"], 0.001),
        (["report", "--quick", "--body-mb", "1"], 1.0),
    ])
    def test_a_finite_body_size_of_zero_or_more_is_accepted(self, argv, body_mb):
        assert build_parser().parse_args(argv).body_mb == body_mb

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "smoke", "--no-cache"],
        ["campaign", "run", "smoke", "--workers", "2"],
        ["campaign", "run", "smoke", "--cache-dir", "x"],
        ["campaign", "status", "smoke", "--cache-dir", "x"],
    ])
    def test_campaign_has_no_flags_of_its_own_for_cache_or_workers(
        self, capsys, argv
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro 1." in capsys.readouterr().out


class TestScenariosValidate:
    def test_valid_file(self, capsys, tmp_path):
        from repro.scenario import get_scenario

        path = tmp_path / "spec.json"
        get_scenario("quickstart").save(path)
        assert main(["scenarios", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "quickstart" in out

    def test_invalid_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"protocol": {"gamma": -3}}')
        assert main(["scenarios", "validate", str(path)]) == 2
        assert "INVALID" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["scenarios", "validate", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_backend_field_accepted(self, capsys, tmp_path):
        from repro.scenario import get_scenario

        path = tmp_path / "spec.json"
        get_scenario("ledger-comparison").with_backend("iota").save(path)
        assert main(["scenarios", "validate", str(path)]) == 0
        assert "iota backend" in capsys.readouterr().out

    def test_unknown_backend_lists_registered(self, capsys, tmp_path):
        import json

        from repro.scenario import get_scenario

        payload = get_scenario("quickstart").to_dict()
        payload["backend"] = "hashgraph"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert main(["scenarios", "validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown ledger backend" in err
        assert "2ldag" in err and "pbft" in err and "iota" in err


class TestBackendFlag:
    def test_simulate_on_baseline_backend(self, capsys):
        code = main(["simulate", "--scenario", "quickstart",
                     "--backend", "pbft"])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend pbft" in out
        assert "trace sha256:" in out

    def test_unknown_backend_flag_exits(self, capsys):
        with pytest.raises(SystemExit, match="registered"):
            main(["simulate", "--scenario", "quickstart", "--backend", "nano"])

    def test_verify_rejects_baseline_backend(self, capsys):
        code = main(["verify", "--scenario", "quickstart",
                     "--backend", "iota", "--target-slot", "1"])
        assert code == 2
        assert "only the '2ldag' backend" in capsys.readouterr().err

    def test_scenarios_list_shows_backend_column(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            assert "2ldag" in line


class TestCampaignCommands:
    @pytest.fixture
    def campaign_file(self, tmp_path):
        from repro.campaign import CampaignSpec, replicate_seeds
        from repro.scenario import get_scenario

        campaign = CampaignSpec(
            name="cli-test",
            cells=replicate_seeds(
                get_scenario("quickstart").with_workload(slots=5), (0, 1)
            ),
        )
        path = tmp_path / "campaign.json"
        campaign.save(path)
        return str(path)

    def test_list_names_every_preset(self, capsys):
        from repro.campaign import campaign_names

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        for name in campaign_names():
            assert name in out

    def test_show_round_trips(self, capsys):
        import json

        from repro.campaign import CampaignSpec, get_campaign

        assert main(["campaign", "show", "smoke"]) == 0
        out = capsys.readouterr().out
        assert CampaignSpec.from_dict(json.loads(out)) == get_campaign("smoke")

    def test_run_status_cycle(self, capsys, tmp_path, campaign_file):
        cache = str(tmp_path / "cache")
        assert main(["--cache-dir", cache, "campaign", "run", campaign_file]) == 0
        out = capsys.readouterr().out
        assert "2 computed, 0 cached" in out
        assert "trace" in out

        assert main(["--cache-dir", cache, "campaign", "status", campaign_file]) == 0
        assert "2/2 cells cached" in capsys.readouterr().out

        assert main(["--cache-dir", cache, "campaign", "run", campaign_file]) == 0
        assert "0 computed, 2 cached" in capsys.readouterr().out

    def test_without_cache_dir_nothing_is_written_or_read(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main(["campaign", "run", "smoke"]) == 0
            assert "4 computed, 0 cached" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

        assert main(["campaign", "status", "smoke"]) == 0
        status = capsys.readouterr().out
        assert status.count("pending") == 4
        assert "0/4 cells cached (4 to compute)" in status
        assert list(tmp_path.iterdir()) == []

    def test_unknown_cell_kind_is_refused_when_the_file_is_read(
        self, capsys, tmp_path
    ):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"name": "bad", "cells": [{"kind": "warp-drive", "preset": "quickstart"}]}
        ))
        for action in ("show", "run"):
            with pytest.raises(SystemExit) as exc:
                main(["campaign", action, str(path)])
            # other tests in this process may have registered kinds too
            assert str(exc.value).startswith(
                f"invalid campaign file {path}: cell entry 0: unknown cell kind "
                "'warp-drive'; known: attack-audit, fig9-series, scenario, "
                "sweep-point"
            )
        assert "attempt" not in capsys.readouterr().out

    def test_unknown_campaign_errors(self):
        with pytest.raises(SystemExit):
            main(["campaign", "run", "no-such-campaign"])

    def test_invalid_campaign_file_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x", "cells": []}')
        with pytest.raises(SystemExit):
            main(["campaign", "run", str(path)])

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args([
            "campaign", "run", "smoke",
            "--retries", "1", "--cell-timeout", "30", "--keep-going",
        ])
        assert args.retries == 1
        assert args.cell_timeout == 30.0
        assert args.keep_going
        defaults = build_parser().parse_args(["campaign", "run", "smoke"])
        assert defaults.retries == 2
        assert defaults.cell_timeout is None
        assert not defaults.keep_going


class TestCampaignResilienceCLI:
    @pytest.fixture
    def campaign_file(self, tmp_path):
        from repro.campaign import CampaignSpec, replicate_seeds
        from repro.scenario import get_scenario

        campaign = CampaignSpec(
            name="cli-chaos",
            cells=replicate_seeds(
                get_scenario("quickstart").with_workload(slots=5), (0, 1)
            ),
        )
        path = tmp_path / "campaign.json"
        campaign.save(path)
        return str(path)

    def chaos_env(self, monkeypatch, **fields):
        import json

        monkeypatch.setenv("REPRO_CHAOS", json.dumps(fields))

    def test_bad_chaos_spec_exits_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "{nope")
        with pytest.raises(SystemExit, match="bad chaos spec"):
            main(["campaign", "run", "smoke"])

    @pytest.mark.parametrize("document, field", [
        ('{"hang_s": NaN}', "hang_s"),
        ('{"hang_s": Infinity}', "hang_s"),
        ('{"hang_s": "5"}', "hang_s"),
        ('{"seed": "x"}', "seed"),
        ('{"seed": 1.5}', "seed"),
        ('{"max_attempt": true}', "max_attempt"),
    ])
    def test_a_badly_typed_chaos_field_is_one_located_line(
        self, monkeypatch, document, field
    ):
        monkeypatch.setenv("REPRO_CHAOS", document)
        with pytest.raises(SystemExit) as raised:
            main(["campaign", "run", "smoke"])
        message = str(raised.value.code)
        assert message.startswith(f"bad chaos spec: chaos.{field} must be ")
        assert "\n" not in message

    def test_keep_going_quarantines_and_rerun_heals(
        self, capsys, tmp_path, campaign_file, monkeypatch
    ):
        # chaos on every attempt + retries 1: one cell cannot heal
        self.chaos_env(monkeypatch, seed=3, exceptions=1, max_attempt=99)
        cache = str(tmp_path / "cache")
        code = main(["--cache-dir", cache, "campaign", "run", campaign_file,
                     "--retries", "1", "--keep-going"])
        out = capsys.readouterr().out
        assert code == 1
        assert "QUARANTINED" in out
        assert "1 quarantined" in out

        assert main(["--cache-dir", cache, "campaign", "status",
                     campaign_file]) == 0
        status = capsys.readouterr().out
        assert "quarantined" in status
        assert "failed attempt" in status

        # chaos off: the rerun retries only the quarantined cell
        monkeypatch.delenv("REPRO_CHAOS")
        assert main(["--cache-dir", cache, "campaign", "run",
                     campaign_file]) == 0
        assert "1 computed, 1 cached" in capsys.readouterr().out

        assert main(["--cache-dir", cache, "campaign", "status",
                     campaign_file]) == 0
        status = capsys.readouterr().out
        assert "2/2 cells cached" in status


class TestGlobalCacheDirOnExperiments:
    def test_cache_dir_enables_caching_for_figure_commands(
        self, capsys, tmp_path
    ):
        from repro.scenario import get_scenario

        spec_path = tmp_path / "tiny.json"
        get_scenario("quickstart").with_workload(
            slots=6, sample_slots=(3, 6)
        ).save(spec_path)
        cache = tmp_path / "cache"
        argv = ["--cache-dir", str(cache), "report", "--only", "fig7",
                "--body-mb", "0.5", "--scenario", str(spec_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(cache.glob("cells/*/*.json"))  # cell persisted
        assert main(argv) == 0  # second run replays from cache
        assert capsys.readouterr().out == first

    def test_without_flags_no_cache_is_written(self, capsys, tmp_path, monkeypatch):
        from repro.scenario import get_scenario

        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "tiny.json"
        get_scenario("quickstart").with_workload(
            slots=6, sample_slots=(3, 6)
        ).save(spec_path)
        assert main(["report", "--only", "fig7", "--body-mb", "0.5",
                     "--scenario", str(spec_path)]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == [spec_path]


class TestCommands:
    def test_simulate_prints_summary(self, capsys):
        code = main([
            "simulate", "--nodes", "9", "--slots", "6",
            "--gamma", "2", "--body-mb", "0.01",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "blocks generated: 54" in out
        assert "mean storage/node" in out

    def test_simulate_with_validation(self, capsys):
        code = main([
            "simulate", "--nodes", "9", "--slots", "12",
            "--gamma", "2", "--body-mb", "0.01", "--validate",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "validations:" in out

    def test_verify_success(self, capsys):
        code = main([
            "verify", "--nodes", "9", "--slots", "12",
            "--gamma", "2", "--body-mb", "0.01", "--target-slot", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SUCCESS" in out

    def test_verify_missing_slot(self, capsys):
        code = main([
            "verify", "--nodes", "9", "--slots", "3",
            "--gamma", "2", "--body-mb", "0.01", "--target-slot", "99",
        ])
        assert code == 1

    def test_verify_on_a_single_node_says_why(self, capsys):
        code = main(["verify", "--nodes", "1", "--slots", "3",
                     "--gamma", "0"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "no node but block 0#0's origin to verify it\n"


class TestNonFiniteBodySize:
    """``--body-mb nan``/``inf`` once ended in a traceback from
    ``mb_to_bits``; now the process exits 2 before anything runs."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--body-mb", "nan", "--slots", "3", "--nodes", "9", "--gamma", "2"],
        ["verify", "--body-mb", "inf", "--nodes", "9", "--gamma", "2"],
        ["report", "--only", "fig7", "--body-mb", "inf", "--quick"],
    ], ids=" ".join)
    def test_exits_2_with_one_error_line_naming_the_flag(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert "argument --body-mb: must be a finite number" in line


class TestArgvSpecErrors:
    """A flag that makes an invalid spec exits with one line, not a
    traceback, wherever argv becomes a spec."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--nodes", "0"],
        ["simulate", "--slots", "0"],
        ["simulate", "--gamma", "-1"],
        ["verify", "--nodes", "0"],
    ], ids=" ".join)
    def test_exits_with_one_line(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "must be" in proc.stderr
