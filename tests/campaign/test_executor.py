"""Campaign executor tests: determinism, caching, resume, journaling.

The ISSUE-level guarantees pinned here:

* a multi-worker run of a grid produces per-cell trace digests
  byte-identical to the serial run;
* a second invocation is served entirely from cache (zero cell
  executions — enforced by replacing the cell runner with a bomb);
* mutating one cell's spec invalidates exactly that cell;
* an interrupted/extended campaign only computes missing cells.
"""

import json

import pytest

import repro.campaign.executor as executor_module
from repro.campaign.cache import CACHE_FORMAT_VERSION, ResultCache
from repro.campaign.executor import CampaignExecutor, run_campaign
from repro.campaign.spec import (
    CampaignError,
    CampaignSpec,
    CellSpec,
    apply_override,
    replicate_seeds,
)
from repro.scenario import get_scenario


def tiny_spec():
    """Seed-sensitive (PoP validation on) and fast (~tens of ms)."""
    return get_scenario("ledger-comparison").with_workload(
        slots=8, validation_min_age_slots=4
    )


@pytest.fixture
def campaign():
    return CampaignSpec(name="grid", cells=replicate_seeds(tiny_spec(), (0, 1, 2)))


class TestDeterminism:
    def test_parallel_run_matches_serial_byte_for_byte(self, campaign, tmp_path):
        serial = CampaignExecutor().run(campaign)
        parallel = CampaignExecutor(
            workers=2, cache_dir=tmp_path / "cache"
        ).run(campaign)
        serial_traces = [cell.trace_sha256 for cell in serial.cells]
        parallel_traces = [cell.trace_sha256 for cell in parallel.cells]
        assert all(serial_traces)
        assert serial_traces == parallel_traces
        # seeds genuinely matter in this workload
        assert len(set(serial_traces)) == len(serial_traces)
        # full payload equality, not just traces
        assert serial.payloads() == parallel.payloads()

    def test_results_come_back_in_campaign_order(self, campaign, tmp_path):
        result = CampaignExecutor(workers=2, cache_dir=tmp_path).run(campaign)
        assert [cell.index for cell in result.cells] == [0, 1, 2]
        assert [cell.cell.scenario.seed for cell in result.cells] == [0, 1, 2]


class TestCaching:
    def test_second_invocation_runs_zero_cells(self, campaign, tmp_path, monkeypatch):
        executor = CampaignExecutor(cache_dir=tmp_path)
        first = executor.run(campaign)
        assert first.computed_count == 3

        def bomb(_cell):
            raise AssertionError("a cached campaign must not execute cells")

        monkeypatch.setattr(executor_module, "execute_cell", bomb)
        second = executor.run(campaign)
        assert second.cached_count == 3
        assert second.computed_count == 0
        assert second.payloads() == first.payloads()

    def test_mutating_one_cell_invalidates_exactly_that_cell(
        self, campaign, tmp_path
    ):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)

        cells = list(campaign.cells)
        cells[1] = CellSpec(
            scenario=apply_override(cells[1].scenario, "protocol.gamma", 3)
        )
        mutated = CampaignSpec(name="grid", cells=tuple(cells))
        result = executor.run(mutated)
        assert [cell.cached for cell in result.cells] == [True, False, True]

    def test_resume_computes_only_missing_cells(self, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        partial = CampaignSpec(
            name="grid", cells=replicate_seeds(tiny_spec(), (0, 1))
        )
        executor.run(partial)  # "interrupted" after two cells
        full = CampaignSpec(
            name="grid", cells=replicate_seeds(tiny_spec(), (0, 1, 2))
        )
        resumed = executor.run(full)
        assert [cell.cached for cell in resumed.cells] == [True, True, False]

    def test_force_recomputes_everything(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)
        forced = executor.run(campaign, force=True)
        assert forced.computed_count == 3

    def test_corrupt_cache_entry_is_a_miss_and_heals(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)
        cache = ResultCache(tmp_path)
        digest = campaign.cells[0].digest()
        path = cache.cell_path(digest)
        path.write_text(path.read_text()[:40])  # truncate: torn write
        assert cache.load(digest) is None
        healed = executor.run(campaign)
        assert [cell.cached for cell in healed.cells] == [False, True, True]
        assert cache.load(digest) is not None

    def test_foreign_code_version_is_a_miss(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)
        cache = ResultCache(tmp_path)
        digest = campaign.cells[0].digest()
        document = json.loads(cache.cell_path(digest).read_text())
        document["code_version"] = 999
        cache.cell_path(digest).write_text(json.dumps(document))
        assert cache.load(digest) is None

    @pytest.mark.parametrize("tamper", [
        lambda document: [document],
        lambda document: {**document, "format_version": CACHE_FORMAT_VERSION + 1},
        lambda document: {**document, "code_version": 999},
        lambda document: {**document, "cell_digest": "0" * 64},
        lambda document: {**document, "payload": [document["payload"]]},
    ], ids=["non-object", "format-version", "code-version", "cell-digest", "payload"])
    def test_rejected_entry_is_a_miss_and_is_overwritten(self, tmp_path, tamper):
        single = CampaignSpec(name="one", cells=replicate_seeds(tiny_spec(), (0,)))
        executor = CampaignExecutor(cache_dir=tmp_path)
        first = executor.run(single)
        cache = ResultCache(tmp_path)
        digest = single.cells[0].digest()
        path = cache.cell_path(digest)
        stored = json.loads(path.read_text())
        path.write_text(json.dumps(tamper(stored)))
        assert cache.load(digest) is None
        again = executor.run(single)
        assert [cell.cached for cell in again.cells] == [False]
        assert again.payloads() == first.payloads()
        assert cache.load(digest)["payload"] == stored["payload"]

    def test_executor_without_cache_dir_never_persists(
        self, campaign, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        executor = CampaignExecutor()
        assert executor.cache is None
        assert executor.run(campaign).computed_count == 3
        assert executor.run(campaign).computed_count == 3
        assert list(tmp_path.iterdir()) == []


class TestJournal:
    def test_run_journals_start_cells_end(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)
        events = ResultCache(tmp_path).read_journal(campaign.digest())
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert kinds.count("cell") == 3
        cell_events = [event for event in events if event["event"] == "cell"]
        assert {event["digest"] for event in cell_events} == {
            cell.digest() for cell in campaign.cells
        }

    def test_fully_cached_run_appends_nothing(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)
        before = ResultCache(tmp_path).read_journal(campaign.digest())
        executor.run(campaign)
        after = ResultCache(tmp_path).read_journal(campaign.digest())
        assert after == before

    def test_torn_journal_line_is_skipped(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)
        cache = ResultCache(tmp_path)
        with open(cache.journal_path(campaign.digest()), "a") as handle:
            handle.write('{"event": "cel')  # torn write mid-crash
        events = cache.read_journal(campaign.digest())
        assert events[-1]["event"] == "end"


def cached_flags(executor, campaign):
    return [cell["cached"] for cell in executor.status_document(campaign)["cells"]]


class TestStatusAndClean:
    def test_status_reports_cached_and_pending(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        assert cached_flags(executor, campaign) == [False, False, False]
        executor.run(campaign)
        assert cached_flags(executor, campaign) == [True, True, True]

    def test_clean_drops_cells_and_journal(self, campaign, tmp_path):
        executor = CampaignExecutor(cache_dir=tmp_path)
        executor.run(campaign)
        assert executor.clean(campaign) == 3
        cache = ResultCache(tmp_path)
        assert cache.read_journal(campaign.digest()) == []
        assert cached_flags(executor, campaign) == [False, False, False]

    def test_without_a_cache_status_is_pending_and_clean_removes_nothing(
        self, campaign, tmp_path
    ):
        CampaignExecutor(cache_dir=tmp_path).run(campaign)
        executor = CampaignExecutor()
        assert cached_flags(executor, campaign) == [False, False, False]
        assert executor.clean(campaign) == 0


class TestErrors:
    def test_unknown_kind_fails_the_run(self, tmp_path):
        campaign = CampaignSpec(
            name="bad", cells=(CellSpec(scenario=tiny_spec(), kind="warp-drive"),)
        )
        with pytest.raises(CampaignError, match="unknown cell kind"):
            CampaignExecutor().run(campaign)

    def test_worker_failure_is_wrapped(self, tmp_path):
        campaign = CampaignSpec(
            name="bad", cells=(CellSpec(scenario=tiny_spec(), kind="warp-drive"),)
        )
        with pytest.raises(CampaignError, match="warp-drive"):
            CampaignExecutor(workers=2, cache_dir=tmp_path).run(campaign)

    def test_serial_failure_is_wrapped_like_parallel(self):
        from repro.campaign.cells import register_cell_kind

        @register_cell_kind("test-exploding-kind")
        def exploding(cell):
            raise ValueError("boom")

        campaign = CampaignSpec(
            name="bad",
            cells=(CellSpec(scenario=tiny_spec(), kind="test-exploding-kind"),),
        )
        with pytest.raises(CampaignError, match="boom"):
            CampaignExecutor().run(campaign)


class TestRunCampaignHelper:
    def test_default_is_serial_and_cache_free(self, campaign, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_campaign(campaign)
        assert result.workers == 0
        assert result.computed_count == 3
        assert list(tmp_path.iterdir()) == []
