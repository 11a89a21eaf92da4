"""Executor resilience tests: retries, quarantine, crash and timeout
recovery, flaky detection, and the journal's terminal-record guarantee.

The cell kinds registered here misbehave on purpose, coordinating
across attempts (and across pool worker processes) through marker
files, so every failure is real — real exceptions, a real SIGKILL'd
worker, a really hung cell — and every recovery is observable in the
journal.
"""

import os
import signal
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.cells import register_cell_kind
from repro.campaign.executor import (
    FAIL_EXCEPTION,
    FAIL_TIMEOUT,
    FAIL_WORKER_CRASH,
    CampaignExecutor,
    _cell_worker,
    seeded_backoff,
)
from repro.campaign.spec import CampaignError, CampaignSpec, CellSpec, replicate_seeds
from repro.scenario import get_scenario
from repro.scenario.runner import ScenarioRunner

from campaign.cell_faults import HANG, KILL, RAISE, inject_faults


def tiny_spec():
    """Seed-sensitive (PoP validation on) and fast (~tens of ms)."""
    return get_scenario("ledger-comparison").with_workload(
        slots=8, validation_min_age_slots=4
    )


def _count_attempt(marker_dir: str) -> int:
    """Record one attempt in the shared marker dir; returns its 0-based no."""
    root = Path(marker_dir)
    root.mkdir(parents=True, exist_ok=True)
    attempt = len(list(root.glob("attempt-*")))
    (root / f"attempt-{attempt}").write_text("")
    return attempt


@register_cell_kind("test-transient-kind")
def transient_kind(cell):
    """Fails its first ``fail_times`` attempts, then succeeds forever."""
    attempt = _count_attempt(cell.params["marker_dir"])
    if attempt < int(cell.params.get("fail_times", 0)):
        raise ValueError(f"transient failure #{attempt}")
    return {"ok": True, "seed": cell.scenario.seed}


@register_cell_kind("test-counter-kind")
def counter_kind(cell):
    """Nondeterministic on purpose: the payload embeds the attempt number."""
    attempt = _count_attempt(cell.params["marker_dir"])
    if cell.params.get("slow_first") and attempt == 0:
        time.sleep(0.3)
    return {"attempt": attempt}


@register_cell_kind("test-killer-kind")
def killer_kind(cell):
    """SIGKILLs its own worker once, then computes the real scenario."""
    marker = Path(cell.params["marker"])
    if not marker.exists():
        marker.write_text("")
        os.kill(os.getpid(), signal.SIGKILL)
    return ScenarioRunner(cell.scenario).run().to_dict()


@register_cell_kind("test-hang-kind")
def hang_kind(cell):
    """Hangs far past any reasonable budget once, then returns fast."""
    marker = Path(cell.params["marker"])
    if not marker.exists():
        marker.write_text("")
        time.sleep(float(cell.params.get("hang_s", 30.0)))
    return {"ok": True, "seed": cell.scenario.seed}


def overrun_worker(cell_payload):
    """The cell worker, but a first attempt reports a minute of wall clock.

    Module-level so pool workers (forked after this module is imported)
    can unpickle it; the counter kind's payload says which attempt ran.
    """
    payload, elapsed = _cell_worker(cell_payload)
    return payload, 60.0 if payload["attempt"] == 0 else elapsed


def one_cell(kind: str, **params) -> CampaignSpec:
    return CampaignSpec(
        name="resilience",
        cells=(CellSpec(scenario=tiny_spec(), kind=kind, params=params),),
    )


class TestSeededBackoff:
    def test_deterministic_and_exponential(self):
        digest = "ab" * 32
        first = seeded_backoff(0.1, digest, 1)
        assert first == seeded_backoff(0.1, digest, 1)
        assert 0.05 <= first < 0.15  # base x [0.5, 1.5) jitter
        assert 0.1 <= seeded_backoff(0.1, digest, 2) < 0.3
        assert seeded_backoff(0.1, digest, 1) != seeded_backoff(0.1, "cd" * 32, 1)

    def test_zero_base_means_no_wait(self):
        assert seeded_backoff(0.0, "ab" * 32, 3) == 0.0


class TestRetries:
    def test_transient_failure_retries_to_success(self, tmp_path):
        campaign = one_cell(
            "test-transient-kind",
            marker_dir=str(tmp_path / "m"), fail_times=2,
        )
        executor = CampaignExecutor(cache_dir=tmp_path / "cache", backoff_s=0.01)
        result = executor.run(campaign)
        cell = result.cells[0]
        assert cell.ok and not cell.flaky
        assert cell.attempts == 3
        assert [f.kind for f in cell.failures] == ["exception", "exception"]
        assert "transient failure #1" in cell.failures[1].error

        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        kinds = [event["event"] for event in events]
        assert kinds == [
            "start", "cell-failed", "cell-retry",
            "cell-failed", "cell-retry", "cell", "end",
        ]
        success = [e for e in events if e["event"] == "cell"][0]
        assert success["attempts"] == 3

    def test_exhausted_retries_abort_with_terminal_journal_record(self, tmp_path):
        campaign = one_cell(
            "test-transient-kind",
            marker_dir=str(tmp_path / "m"), fail_times=99,
        )
        executor = CampaignExecutor(
            cache_dir=tmp_path / "cache", retries=1, backoff_s=0.01
        )
        with pytest.raises(CampaignError, match="after 2 attempt"):
            executor.run(campaign)
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        assert events[0]["event"] == "start"
        assert events[-1]["event"] == "abort"
        assert "transient failure" in events[-1]["reason"]
        assert "wall_s" in events[-1]

    def test_retries_zero_restores_fail_fast_on_first_error(self, tmp_path):
        campaign = one_cell(
            "test-transient-kind",
            marker_dir=str(tmp_path / "m"), fail_times=1,
        )
        executor = CampaignExecutor(retries=0)
        with pytest.raises(CampaignError, match="after 1 attempt"):
            executor.run(campaign)


class TestSerialBackoff:
    def test_healthy_cells_run_while_a_failed_one_backs_off(self, tmp_path):
        sick = CellSpec(
            scenario=tiny_spec(), kind="test-transient-kind",
            params={"marker_dir": str(tmp_path / "m"), "fail_times": 1},
        )
        campaign = CampaignSpec(
            name="backoff", cells=(sick,) + replicate_seeds(tiny_spec(), (0,))
        )
        result = CampaignExecutor(cache_dir=tmp_path / "cache", backoff_s=0.01).run(
            campaign
        )
        assert [cell.index for cell in result.cells] == [0, 1]
        assert [cell.attempts for cell in result.cells] == [2, 1]
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        assert [(e["event"], e.get("index")) for e in events] == [
            ("start", None), ("cell-failed", 0), ("cell-retry", 0),
            ("cell", 1), ("cell", 0), ("end", None),
        ]


class TestKeepGoing:
    def grid(self, tmp_path, fail_times):
        healthy = replicate_seeds(tiny_spec(), (0, 1))
        sick = CellSpec(
            scenario=tiny_spec(), kind="test-transient-kind",
            params={"marker_dir": str(tmp_path / "m"), "fail_times": fail_times},
        )
        return CampaignSpec(name="mixed", cells=healthy + (sick,))

    def test_quarantines_the_sick_cell_and_finishes_the_rest(self, tmp_path):
        campaign = self.grid(tmp_path, fail_times=3)
        executor = CampaignExecutor(
            cache_dir=tmp_path / "cache", retries=1, backoff_s=0.01
        )
        result = executor.run(campaign, keep_going=True)
        assert not result.ok
        assert result.computed_count == 2
        assert result.quarantined_count == 1
        sick = result.cells[2]
        assert sick.quarantined and not sick.ok
        assert sick.payload == {}
        assert sick.attempts == 2
        assert "1 quarantined" in result.summary()
        assert [c.trace_sha256 for c in result.cells[:2]] == [
            c.trace_sha256
            for c in CampaignExecutor()
            .run(CampaignSpec(name="ref", cells=campaign.cells[:2]))
            .cells
        ]

        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "end"
        assert "cell-quarantined" in kinds
        end = events[-1]
        assert end["computed"] == 2 and end["quarantined"] == 1

    def test_rerun_retries_only_the_quarantined_cell(self, tmp_path):
        campaign = self.grid(tmp_path, fail_times=3)
        executor = CampaignExecutor(
            cache_dir=tmp_path / "cache", retries=1, backoff_s=0.01
        )
        first = executor.run(campaign, keep_going=True)
        assert first.quarantined_count == 1

        # attempts 0 and 1 failed above; attempt 2 fails, attempt 3 heals
        second = executor.run(campaign, keep_going=True)
        assert second.ok
        assert [cell.cached for cell in second.cells] == [True, True, False]
        assert second.cells[2].payload["ok"] is True

    def test_status_document_tracks_quarantine_and_resolution(self, tmp_path):
        campaign = self.grid(tmp_path, fail_times=3)
        executor = CampaignExecutor(
            cache_dir=tmp_path / "cache", retries=1, backoff_s=0.01
        )
        executor.run(campaign, keep_going=True)
        rows = executor.status_document(campaign)["cells"]
        assert [row["state"] for row in rows] == ["done", "done", "quarantined"]
        sick = rows[2]
        assert sick["failed_attempts"] == 2
        assert "transient failure" in sick["last_error"]

        executor.run(campaign, keep_going=True)  # heals on attempt 3
        rows = executor.status_document(campaign)["cells"]
        assert [row["state"] for row in rows] == ["done", "done", "done"]
        assert not rows[2]["quarantined"]


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_respawns_and_result_matches_serial(self, tmp_path):
        """ISSUE satellite: SIGKILL a pool worker mid-cell; the pool
        respawns, lost cells are resubmitted, and the final result is
        byte-identical to serial."""
        marker = tmp_path / "killed-once"
        healthy = replicate_seeds(tiny_spec(), (1, 2))
        assassin = CellSpec(
            scenario=tiny_spec(), kind="test-killer-kind",
            params={"marker": str(marker)},
        )
        campaign = CampaignSpec(name="crashy", cells=(assassin,) + healthy)

        result = CampaignExecutor(
            workers=2, cache_dir=tmp_path / "cache", backoff_s=0.01
        ).run(campaign)
        assert result.ok
        assert marker.exists()  # the kill really happened

        # marker now exists, so the serial reference computes cleanly
        serial = CampaignExecutor().run(campaign)
        assert result.payloads() == serial.payloads()
        assert all(cell.trace_sha256 for cell in result.cells)

        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        kinds = [event["event"] for event in events]
        assert "pool-respawn" in kinds
        failed = [e for e in events if e["event"] == "cell-failed"]
        assert "worker-crash" in {e["kind"] for e in failed}
        assert kinds.count("cell") == 3
        assert kinds[-1] == "end"


class TestCellTimeouts:
    def test_parallel_hung_cell_is_killed_and_retried(self, tmp_path):
        campaign = one_cell(
            "test-hang-kind", marker=str(tmp_path / "hung-once"), hang_s=30.0
        )
        result = CampaignExecutor(
            workers=2, cache_dir=tmp_path / "cache",
            cell_timeout=1.0, backoff_s=0.01,
        ).run(campaign)
        cell = result.cells[0]
        assert cell.ok and cell.attempts == 2
        assert [f.kind for f in cell.failures] == ["timeout"]
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        respawns = [e for e in events if e["event"] == "pool-respawn"]
        assert respawns and respawns[0]["timed_out"] == [0]

    def test_serial_timeout_is_post_hoc_discard_and_retry(self, tmp_path):
        campaign = one_cell(
            "test-counter-kind",
            marker_dir=str(tmp_path / "m"), slow_first=True,
        )
        result = CampaignExecutor(
            cell_timeout=0.05, backoff_s=0.01
        ).run(campaign)
        cell = result.cells[0]
        assert cell.ok and cell.attempts == 2
        assert [f.kind for f in cell.failures] == ["timeout"]
        assert "post-hoc" in cell.failures[0].error
        # the discarded first payload ({"attempt": 0}) seeds the
        # determinism cross-check; the retry produced {"attempt": 1}
        assert cell.payload == {"attempt": 1}
        assert cell.flaky

    @pytest.mark.parametrize("workers", [0, 2])
    def test_an_over_budget_result_fails_as_a_timeout(
        self, workers, tmp_path, monkeypatch
    ):
        import repro.campaign.executor as executor_module

        monkeypatch.setattr(executor_module, "_cell_worker", overrun_worker)
        campaign = one_cell("test-counter-kind", marker_dir=str(tmp_path / "m"))
        result = CampaignExecutor(
            workers=workers, cache_dir=tmp_path / "cache",
            cell_timeout=30.0, backoff_s=0.01,
        ).run(campaign)
        cell = result.cells[0]
        assert cell.ok and cell.attempts == 2
        assert [f.kind for f in cell.failures] == ["timeout"]
        assert cell.failures[0].error == (
            "cell took 60.00s, over the 30s budget (judged post-hoc)"
        )
        # the discarded {"attempt": 0} seeds the determinism cross-check
        assert cell.payload == {"attempt": 1}
        assert cell.flaky
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        assert "pool-respawn" not in [e["event"] for e in events]

    def test_serial_injected_hang_is_journalled_as_a_timeout(self, tmp_path):
        # The clock starts before the injected hang, so an in-process
        # hang counts against the budget like any slow cell.
        campaign = CampaignSpec(name="hang", cells=replicate_seeds(tiny_spec(), (0,)))
        executor = CampaignExecutor(
            cache_dir=tmp_path / "cache", cell_timeout=0.5, backoff_s=0.01,
        )
        with inject_faults(campaign.cells, {0: HANG}, hang_s=0.8):
            result = executor.run(campaign)
        cell = result.cells[0]
        assert cell.ok and cell.attempts == 2 and not cell.flaky
        assert cell.payload == CampaignExecutor().run(campaign).payloads()[0]
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        failed = [e for e in events if e["event"] == "cell-failed"]
        assert [e["kind"] for e in failed] == ["timeout"]


class TestFlakyDetection:
    def test_force_recompute_cross_checks_against_cached_payload(self, tmp_path):
        campaign = one_cell(
            "test-counter-kind", marker_dir=str(tmp_path / "m")
        )
        executor = CampaignExecutor(cache_dir=tmp_path / "cache")
        first = executor.run(campaign)
        assert first.cells[0].payload == {"attempt": 0}
        assert not first.cells[0].flaky

        forced = executor.run(campaign, force=True)
        assert forced.cells[0].payload == {"attempt": 1}
        assert forced.cells[0].flaky
        assert forced.flaky_count == 1
        assert "1 FLAKY" in forced.summary()
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        flaky = [e for e in events if e["event"] == "cell-flaky"]
        assert len(flaky) == 1
        assert flaky[0]["expected"] != flaky[0]["got"]

    def test_deterministic_cell_is_not_flagged(self, tmp_path):
        campaign = CampaignSpec(
            name="det", cells=replicate_seeds(tiny_spec(), (0,))
        )
        executor = CampaignExecutor(cache_dir=tmp_path / "cache")
        executor.run(campaign)
        forced = executor.run(campaign, force=True)
        assert not forced.cells[0].flaky
        assert forced.flaky_count == 0


class TestInjectedFaultsConverge:
    """Runs under injected faults converge byte-identical to clean serial runs."""

    @pytest.fixture
    def campaign(self):
        return CampaignSpec(name="grid", cells=replicate_seeds(tiny_spec(), (0, 1, 2)))

    def clean_payloads(self, campaign):
        return CampaignExecutor().run(campaign).payloads()

    def test_serial_run_converges_and_a_kill_raises_in_process(self, campaign):
        with inject_faults(campaign.cells, {0: RAISE, 1: KILL, 2: RAISE}):
            result = CampaignExecutor().run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert result.ok and result.flaky_count == 0
        assert [cell.attempts for cell in result.cells] == [2, 2, 2]
        kinds = {f.kind for cell in result.cells for f in cell.failures}
        assert kinds == {"exception"}

    def test_parallel_run_with_a_real_worker_kill_converges(self, campaign, tmp_path):
        with inject_faults(campaign.cells, {0: KILL, 2: RAISE}):
            result = CampaignExecutor(workers=2, cache_dir=tmp_path).run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert result.ok and result.flaky_count == 0

        events = ResultCache(tmp_path).read_journal(campaign.digest())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start" and kinds[-1] == "end"
        assert "pool-respawn" in kinds  # the SIGKILL'd worker
        failed = [event for event in events if event["event"] == "cell-failed"]
        assert "worker-crash" in {event["kind"] for event in failed}
        assert {event["kind"] for event in failed} <= {"exception", "worker-crash"}
        assert kinds.count("cell") == 3  # every cell eventually landed

    def test_parallel_hang_is_killed_at_timeout_and_converges(self, campaign, tmp_path):
        with inject_faults(campaign.cells, {1: HANG}, hang_s=30.0):
            result = CampaignExecutor(
                workers=2, cache_dir=tmp_path, cell_timeout=1.5
            ).run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert result.ok
        events = ResultCache(tmp_path).read_journal(campaign.digest())
        respawns = [e for e in events if e["event"] == "pool-respawn"]
        assert any(e.get("timed_out") for e in respawns)
        failed = [e for e in events if e["event"] == "cell-failed"]
        assert "timeout" in {e["kind"] for e in failed}

    def test_only_the_first_attempt_is_afflicted(self, campaign):
        # an exception on every cell still converges with retries=1
        plan = dict.fromkeys(range(3), RAISE)
        with inject_faults(campaign.cells, plan):
            result = CampaignExecutor(retries=1).run(campaign)
        assert result.ok
        assert all(cell.attempts == 2 for cell in result.cells)


    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_a_plan_afflicts_exactly_the_cell_at_its_position(self, campaign, position):
        with inject_faults(campaign.cells, {position: RAISE}):
            result = CampaignExecutor().run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert [cell.attempts for cell in result.cells] == [
            2 if index == position else 1 for index in range(3)
        ]

    def test_a_chaos_variable_in_the_environment_is_not_read(self, campaign, monkeypatch):
        # fault injection lives in tests alone: no variable afflicts a run
        monkeypatch.setenv("REPRO_CHAOS", '{"seed": 11, "exceptions": 3}')
        result = CampaignExecutor().run(campaign)
        assert result.payloads() == self.clean_payloads(campaign)
        assert [cell.attempts for cell in result.cells] == [1, 1, 1]


class TestFailureKinds:
    """An attempt fails as one of three kinds, whatever went wrong."""

    @pytest.mark.parametrize("fault, workers, kind", [
        (RAISE, 0, FAIL_EXCEPTION),
        (KILL, 0, FAIL_EXCEPTION),  # in process a kill raises
        (HANG, 0, FAIL_TIMEOUT),  # judged over budget when it returns
        (RAISE, 2, FAIL_EXCEPTION),
        (KILL, 2, FAIL_WORKER_CRASH),
        (HANG, 2, FAIL_TIMEOUT),  # killed at the cell timeout
    ], ids=["raise-serial", "kill-serial", "hang-serial",
            "raise-pool", "kill-pool", "hang-pool"])
    def test_each_fault_is_charged_as_its_kind(self, tmp_path, fault, workers, kind):
        campaign = CampaignSpec(name="kinds", cells=replicate_seeds(tiny_spec(), (0,)))
        executor = CampaignExecutor(
            workers=workers, cache_dir=tmp_path, cell_timeout=1.0, backoff_s=0.01
        )
        with inject_faults(campaign.cells, {0: fault}, hang_s=1.5):
            result = executor.run(campaign)
        cell = result.cells[0]
        assert cell.ok and cell.attempts == 2 and not cell.flaky
        assert [failure.kind for failure in cell.failures] == [kind]
        assert result.payloads() == CampaignExecutor().run(campaign).payloads()
        events = ResultCache(tmp_path).read_journal(campaign.digest())
        assert [e["kind"] for e in events if e["event"] == "cell-failed"] == [kind]

    def test_the_start_record_carries_no_fault_schedule(self, tmp_path):
        campaign = CampaignSpec(name="start", cells=replicate_seeds(tiny_spec(), (0, 1)))
        CampaignExecutor(workers=2, cache_dir=tmp_path).run(campaign)
        start = ResultCache(tmp_path).read_journal(campaign.digest())[0]
        assert start == {
            "event": "start", "campaign": "start", "cells": 2, "pending": 2, "workers": 2,
        }


def journal_figures(events):
    """Every harness figure of one run, read from its journal alone."""
    start, end = events[0], events[-1]
    assert (start["event"], end["event"]) == ("start", "end")
    kinds = Counter(event["event"] for event in events)
    assert kinds["cell"] == end["computed"]
    assert kinds["cell-quarantined"] == end.get("quarantined", 0)
    return {
        "computed": end["computed"],
        "cached": start["cells"] - start["pending"],
        "quarantined": end.get("quarantined", 0),
        "failed": Counter(
            event["kind"] for event in events if event["event"] == "cell-failed"
        ),
        "retries": kinds["cell-retry"],
        "respawns": kinds["pool-respawn"],
        "flaky": kinds["cell-flaky"],
        "elapsed_s": {
            event["index"]: event["elapsed_s"]
            for event in events if event["event"] == "cell"
        },
    }


class TestJournalIsTheRecord:
    def test_journal_alone_gives_every_harness_figure(self, tmp_path):
        """A parallel run under one injected exception, kill and hang:
        the journal yields every count the campaign's harness reports.
        The pinned numbers are the ones the retired metrics exposition
        recorded for this very run (an injected exception then counted
        as ``chaos``)."""
        light = tiny_spec()
        (kill, hang, exception), (clean,) = (
            replicate_seeds(light, (0, 1, 2)),
            replicate_seeds(light.with_workload(slots=24), (3,)),
        )
        # The slow clean cell at 1 shares the first window with the kill
        # at 0, so it is surely in flight (and charged a worker-crash)
        # when the worker dies; the hang and the exception run after the
        # respawn.
        warm = replicate_seeds(light, (4,))
        campaign = CampaignSpec(
            name="journal-only", cells=(kill, clean, hang, exception) + warm
        )
        CampaignExecutor(cache_dir=tmp_path).run(CampaignSpec(name="warm", cells=warm))
        executor = CampaignExecutor(
            workers=2, cache_dir=tmp_path, cell_timeout=2.0, backoff_s=0.01
        )
        with inject_faults(campaign.cells, {0: KILL, 2: HANG, 3: RAISE}):
            result = executor.run(campaign)
        assert result.ok

        figures = journal_figures(ResultCache(tmp_path).read_journal(campaign.digest()))
        assert {k: v for k, v in figures.items() if k != "elapsed_s"} == {
            "computed": 4,
            "cached": 1,
            "quarantined": 0,
            "failed": {"worker-crash": 2, "timeout": 1, "exception": 1},
            "retries": 4,
            "respawns": 2,
            "flaky": 0,
        }
        assert figures["computed"] == result.computed_count
        assert figures["cached"] == result.cached_count
        assert figures["failed"] == Counter(
            failure.kind for cell in result.cells for failure in cell.failures
        )
        computed = [cell for cell in result.cells if not cell.cached]
        assert figures["elapsed_s"] == {
            cell.index: round(cell.elapsed_s, 6) for cell in computed
        }
        assert all(seconds > 0 for seconds in figures["elapsed_s"].values())

        status = executor.status_document(campaign)
        assert status["counts"]["done"] == 5
        assert sum(cell["failed_attempts"] for cell in status["cells"]) == 4


class TestTerminalJournalRecords:
    def test_parallel_abort_also_journals_and_kills_the_pool(self, tmp_path):
        campaign = CampaignSpec(
            name="bad",
            cells=(CellSpec(scenario=tiny_spec(), kind="warp-drive"),),
        )
        executor = CampaignExecutor(
            workers=2, cache_dir=tmp_path / "cache", retries=0
        )
        start = time.monotonic()
        with pytest.raises(CampaignError, match="warp-drive"):
            executor.run(campaign)
        assert time.monotonic() - start < 30  # no hang waiting on workers
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        assert events[-1]["event"] == "abort"
        assert "warp-drive" in events[-1]["reason"]

    def test_unexpected_exception_still_journals_abort(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor_module

        campaign = CampaignSpec(
            name="det", cells=replicate_seeds(tiny_spec(), (0,))
        )

        def bomb(_cell):
            raise KeyboardInterrupt()

        monkeypatch.setattr(executor_module, "execute_cell", bomb)
        executor = CampaignExecutor(cache_dir=tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            executor.run(campaign)
        events = ResultCache(tmp_path / "cache").read_journal(campaign.digest())
        assert events[-1]["event"] == "abort"
        assert "KeyboardInterrupt" in events[-1]["reason"]
