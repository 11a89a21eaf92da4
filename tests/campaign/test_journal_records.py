"""The campaign journal as a campaign's only record.

A campaign's history lives in one append-only JSONL journal per
campaign digest.  These tests pin its three layers: the file itself
(:class:`ResultCache` append/read/remove), the per-cell history
distilled from it (:func:`summarize_cell_events`), and the standing
``campaign status`` derives from that history
(:meth:`CampaignExecutor.status_document`).  Most
journals here are written by hand, so each figure is checked against a
known event sequence without running a cell.
"""

from collections import Counter

from repro.campaign.cache import ResultCache, summarize_cell_events
from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import CampaignSpec, CellSpec, replicate_seeds
from repro.scenario import get_scenario


def tiny_spec():
    """Seed-sensitive (PoP validation on) and fast (~tens of ms)."""
    return get_scenario("ledger-comparison").with_workload(
        slots=8, validation_min_age_slots=4
    )


def grid(name="journal", seeds=(0, 1, 2)):
    return CampaignSpec(name=name, cells=replicate_seeds(tiny_spec(), seeds))


def failed(digest, attempt, error, kind="exception"):
    return {
        "event": "cell-failed", "digest": digest, "attempt": attempt,
        "kind": kind, "error": error,
    }


class TestSummarizeCellEvents:
    def test_no_events_no_history(self):
        assert summarize_cell_events([]) == {}

    def test_events_without_a_cell_digest_are_ignored(self):
        events = [
            {"event": "start", "campaign": "g", "cells": 2, "pending": 2},
            {"event": "pool-respawn", "respawn": 1, "lost": [0, 1]},
            {"event": "cell-failed", "digest": "", "kind": "exception"},
            {"event": "cell-failed", "digest": 7, "kind": "timeout"},
            {"event": "end", "computed": 2, "wall_s": 0.5},
            {"event": "abort", "reason": "boom", "wall_s": 0.1},
        ]
        assert summarize_cell_events(events) == {}

    def test_failures_count_and_keep_the_last_error(self):
        history = summarize_cell_events([
            failed("d1", 0, "first", kind="exception"),
            failed("d1", 1, "second", kind="timeout"),
            failed("d1", 2, "third", kind="worker-crash"),
        ])
        assert history == {"d1": {
            "failed_attempts": 3,
            "quarantined": False,
            "flaky": False,
            "last_error": "worker-crash: third",
        }}

    def test_failure_kind_defaults_to_exception(self):
        history = summarize_cell_events([
            {"event": "cell-failed", "digest": "d1", "error": "bare"},
        ])
        assert history["d1"]["last_error"] == "exception: bare"

    def test_retry_events_are_not_failures(self):
        history = summarize_cell_events([
            failed("d1", 0, "once"),
            {"event": "cell-retry", "digest": "d1", "attempt": 1, "backoff_s": 0.01},
            {"event": "cell", "digest": "d1", "elapsed_s": 0.2, "attempts": 2},
        ])
        assert history["d1"]["failed_attempts"] == 1
        assert not history["d1"]["quarantined"]

    def test_success_clears_quarantine_but_not_flakiness(self):
        quarantined = [
            failed("d1", 0, "boom"),
            {"event": "cell-quarantined", "digest": "d1", "attempts": 1},
        ]
        assert summarize_cell_events(quarantined)["d1"]["quarantined"]
        healed = summarize_cell_events(quarantined + [
            {"event": "cell-flaky", "digest": "d1", "expected": "a", "got": "b"},
            {"event": "cell", "digest": "d1", "elapsed_s": 0.2},
        ])["d1"]
        assert not healed["quarantined"]
        assert healed["flaky"]
        assert healed["failed_attempts"] == 1

    def test_each_digest_keeps_its_own_history_across_runs(self):
        first_run = [
            {"event": "start", "cells": 2, "pending": 2},
            failed("d1", 0, "a"),
            {"event": "cell-quarantined", "digest": "d1", "attempts": 1},
            {"event": "cell", "digest": "d2", "elapsed_s": 0.1},
            {"event": "end", "computed": 1, "quarantined": 1},
        ]
        second_run = [
            {"event": "start", "cells": 2, "pending": 1},
            failed("d1", 1, "b"),
            {"event": "end", "computed": 0, "quarantined": 1},
        ]
        history = summarize_cell_events(first_run + second_run)
        assert history["d1"]["failed_attempts"] == 2
        assert history["d1"]["last_error"] == "exception: b"
        assert history["d2"] == {
            "failed_attempts": 0, "quarantined": False,
            "flaky": False, "last_error": "",
        }


class TestJournalFile:
    def test_append_then_read_round_trips_in_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        records = [
            {"event": "start", "campaign": "g", "cells": 1, "pending": 1},
            {"event": "cell", "index": 0, "digest": "d1", "elapsed_s": 0.25},
            {"event": "end", "computed": 1, "wall_s": 0.3},
        ]
        for record in records:
            cache.append_journal("c1", record)
        assert cache.read_journal("c1") == records

    def test_lines_are_canonical_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.append_journal("c1", {"z": 1, "event": "end", "a": [1, 2]})
        text = cache.journal_path("c1").read_text()
        assert text == '{"a":[1,2],"event":"end","z":1}\n'

    def test_missing_journal_reads_empty(self, tmp_path):
        assert ResultCache(tmp_path).read_journal("never-ran") == []

    def test_blank_and_non_object_lines_are_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.journal_path("c1")
        path.parent.mkdir(parents=True)
        path.write_text('\n[1, 2]\n"text"\n   \n{"event": "end"}\n')
        assert cache.read_journal("c1") == [{"event": "end"}]

    def test_journals_are_per_campaign(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.append_journal("c1", {"event": "start"})
        cache.append_journal("c2", {"event": "end"})
        assert cache.read_journal("c1") == [{"event": "start"}]
        assert cache.read_journal("c2") == [{"event": "end"}]


class TestStatusFromJournal:
    def journal(self, tmp_path, campaign, *records):
        cache = ResultCache(tmp_path)
        for record in records:
            cache.append_journal(campaign.digest(), record)
        return cache

    def test_failed_attempts_make_a_cell_failing(self, tmp_path):
        campaign = grid()
        sick = campaign.cells[1].digest()
        self.journal(
            tmp_path, campaign,
            failed(sick, 0, "one", kind="timeout"), failed(sick, 1, "two"),
        )
        document = CampaignExecutor(cache_dir=tmp_path).status_document(campaign)
        assert document["counts"] == {
            "done": 0, "failing": 1, "pending": 2, "quarantined": 0,
        }
        row = document["cells"][1]
        assert row["state"] == "failing"
        assert row["failed_attempts"] == 2
        assert row["last_error"] == "exception: two"

    def test_journalled_quarantine_reads_quarantined(self, tmp_path):
        campaign = grid()
        sick = campaign.cells[0].digest()
        self.journal(
            tmp_path, campaign,
            failed(sick, 0, "boom"),
            {"event": "cell-quarantined", "digest": sick, "attempts": 1},
        )
        rows = CampaignExecutor(cache_dir=tmp_path).status_document(campaign)["cells"]
        assert [row["state"] for row in rows] == ["quarantined", "pending", "pending"]
        assert rows[0]["quarantined"] and not rows[0]["cached"]

    def test_a_cached_cell_is_done_even_after_quarantine(self, tmp_path):
        campaign = grid()
        cell = campaign.cells[0]
        cache = self.journal(
            tmp_path, campaign,
            failed(cell.digest(), 0, "boom"),
            {"event": "cell-quarantined", "digest": cell.digest(), "attempts": 1},
        )
        cache.store(cell.digest(), cell, {"ok": True}, 0.5)
        rows = CampaignExecutor(cache_dir=tmp_path).status_document(campaign)["cells"]
        assert rows[0]["state"] == "done"
        assert not rows[0]["quarantined"]
        assert rows[0]["failed_attempts"] == 1

    def test_flaky_flag_surfaces_in_the_document(self, tmp_path):
        campaign = grid()
        cell = campaign.cells[2]
        cache = self.journal(tmp_path, campaign, {
            "event": "cell-flaky", "digest": cell.digest(),
            "expected": "a", "got": "b",
        })
        cache.store(cell.digest(), cell, {"ok": True}, 0.5)
        document = CampaignExecutor(cache_dir=tmp_path).status_document(campaign)
        assert [row["flaky"] for row in document["cells"]] == [False, False, True]
        assert document["counts"]["done"] == 1

    def test_without_a_cache_every_cell_is_pending(self, tmp_path):
        campaign = grid()
        self.journal(tmp_path, campaign, failed(campaign.cells[0].digest(), 0, "x"))
        document = CampaignExecutor().status_document(campaign)
        assert document["counts"] == {
            "done": 0, "failing": 0, "pending": 3, "quarantined": 0,
        }


class TestRunsWriteTheJournal:
    def test_start_and_end_give_the_cached_and_computed_split(self, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(grid(seeds=(0,)))
        campaign = grid()
        result = executor.run(campaign)
        events = ResultCache(tmp_path).read_journal(campaign.digest())
        start, end = events[0], events[-1]
        assert (start["cells"], start["pending"], start["workers"]) == (3, 2, 0)
        assert start["cells"] - start["pending"] == result.cached_count == 1
        assert end["computed"] == result.computed_count == 2
        assert "quarantined" not in end
        cells = [event for event in events if event["event"] == "cell"]
        assert [event["index"] for event in cells] == [1, 2]
        assert all(event["elapsed_s"] > 0 for event in cells)
        assert all("attempts" not in event for event in cells)

    def test_quarantine_is_journalled_and_read_back_by_status(self, tmp_path):
        campaign = CampaignSpec(
            name="doomed",
            cells=(CellSpec(scenario=tiny_spec(), kind="warp-drive"),),
        )
        executor = CampaignExecutor(cache_dir=tmp_path, retries=2, backoff_s=0.0)
        result = executor.run(campaign, keep_going=True)
        assert result.quarantined_count == 1

        events = ResultCache(tmp_path).read_journal(campaign.digest())
        assert Counter(event["event"] for event in events) == {
            "start": 1, "cell-failed": 3, "cell-retry": 2,
            "cell-quarantined": 1, "end": 1,
        }
        assert events[-1] == {
            "event": "end", "computed": 0, "quarantined": 1,
            "wall_s": events[-1]["wall_s"],
        }
        quarantine = [e for e in events if e["event"] == "cell-quarantined"][0]
        assert quarantine["attempts"] == 3
        assert "warp-drive" in quarantine["error"]

        (row,) = executor.status_document(campaign)["cells"]
        assert row["state"] == "quarantined"
        assert row["failed_attempts"] == 3
        assert row["last_error"].startswith("exception: ")
