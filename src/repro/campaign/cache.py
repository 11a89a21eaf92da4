"""Content-addressed on-disk cache of cell results, plus run journals.

This is the repository's first durable artifact store.  Layout under
the cache root (``$REPRO_CACHE_DIR`` or ``.repro_cache/``)::

    cells/<d2>/<digest>.json       one finished cell's payload envelope
    journal/<campaign>.jsonl       append-only per-run completion log

Cell entries are keyed purely by the cell's content digest (spec +
kind + params + code version — see
:meth:`~repro.campaign.spec.CellSpec.digest`), so the cache needs no
invalidation logic: changing anything about a cell changes its key,
and stale entries are simply never read again.  Envelopes that are
unreadable, truncated, or carry a different format/code version load
as misses — a killed worker can at worst waste one recompute, never
poison a result (writes are atomic via
:func:`~repro.experiments.persistence.atomic_write_text`).

Journals are the resume/status record: one JSON line per event.
Appends are single ``write`` calls of one line; a torn final line from
a crash is skipped on read.  The event schema (see
``docs/campaigns.md``):

``start``
    A run began with uncached work: campaign name, cell counts,
    worker count (plus the active ``chaos`` schedule, if any).
``cell``
    One cell computed successfully: index, digest, label, wall time
    (plus ``attempts`` when retries were consumed).
``cell-failed``
    One attempt of one cell failed: ``attempt`` (0-based), ``kind``
    (``exception`` / ``chaos`` / ``timeout`` / ``worker-crash``) and
    the error text.
``cell-retry``
    A failed cell was rescheduled: the next attempt number and the
    deterministic backoff applied.
``cell-quarantined``
    A cell exhausted its retries under ``--keep-going``: total
    attempts and the final error.
``cell-flaky``
    A recomputed cell's payload digest disagreed with an earlier
    successful attempt — the determinism cross-check tripped.
``pool-respawn``
    The worker pool died (or was killed to stop a hung cell) and was
    respawned: which in-flight cells were lost / timed out / requeued.
``end``
    The run finished: computed count, wall time (plus ``quarantined``
    when cells were left behind).
``abort``
    The run raised out of the executor (fail-fast cell failure,
    Ctrl-C, …): the reason and wall time.  Every run that journalled a
    ``start`` terminates with exactly one ``end`` or ``abort``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.campaign.spec import CAMPAIGN_CODE_VERSION, CellSpec
from repro.canonical import canonical_json, sha256_lines
from repro.experiments.persistence import atomic_write_text

#: Format marker for cache envelopes; mismatches load as cache misses.
CACHE_FORMAT_VERSION = 1

#: Environment override for the cache root.
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIRNAME = ".repro_cache"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``./.repro_cache``."""
    override = os.environ.get(CACHE_ENV_VAR)
    return Path(override) if override else Path(DEFAULT_CACHE_DIRNAME)


def payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of one cell payload.

    The determinism cross-check currency: two successful computations
    of the same cell must produce the same payload digest, or the
    executor flags the cell flaky (``cell-flaky`` journal event).
    """
    return sha256_lines([canonical_json(payload)])


def summarize_cell_events(events: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per-cell-digest failure history distilled from journal events.

    Returns ``digest -> {failed_attempts, quarantined, flaky,
    last_error}`` aggregated across every run the journal records (the
    journal is append-only, so counts are historical totals).  A
    ``cell`` success event supersedes an earlier quarantine — the
    rerun-retries-only-failures loop resolved it.
    """
    summary: Dict[str, Dict[str, Any]] = {}
    for event in events:
        digest = event.get("digest")
        if not isinstance(digest, str) or not digest:
            continue
        record = summary.setdefault(digest, {
            "failed_attempts": 0,
            "quarantined": False,
            "flaky": False,
            "last_error": "",
        })
        kind = event.get("event")
        if kind == "cell-failed":
            record["failed_attempts"] += 1
            record["last_error"] = (
                f"{event.get('kind', 'exception')}: {event.get('error', '')}"
            )
        elif kind == "cell-quarantined":
            record["quarantined"] = True
        elif kind == "cell-flaky":
            record["flaky"] = True
        elif kind == "cell":
            record["quarantined"] = False
    return summary


class ResultCache:
    """Durable store of finished cell payloads, keyed by content digest."""

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    @property
    def cells_dir(self) -> Path:
        return self.root / "cells"

    @property
    def journal_dir(self) -> Path:
        return self.root / "journal"

    def cell_path(self, digest: str) -> Path:
        """Where the envelope for ``digest`` lives (2-char shard dirs)."""
        return self.cells_dir / digest[:2] / f"{digest}.json"

    # -- cell entries ------------------------------------------------------
    def load(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored envelope for ``digest``, or ``None`` on any miss.

        Anything wrong — absent file, truncated JSON, foreign format or
        code version, digest mismatch — is a miss, never an error: the
        executor recomputes and overwrites.
        """
        try:
            document = json.loads(self.cell_path(digest).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        if document.get("format_version") != CACHE_FORMAT_VERSION:
            return None
        if document.get("code_version") != CAMPAIGN_CODE_VERSION:
            return None
        if document.get("cell_digest") != digest:
            return None
        if not isinstance(document.get("payload"), dict):
            return None
        return document

    def store(
        self, digest: str, cell: CellSpec, payload: Dict[str, Any], elapsed_s: float
    ) -> None:
        """Atomically persist one finished cell's payload."""
        document = {
            "format_version": CACHE_FORMAT_VERSION,
            "code_version": CAMPAIGN_CODE_VERSION,
            "cell_digest": digest,
            "kind": cell.kind,
            "scenario": cell.scenario.name,
            "elapsed_s": elapsed_s,
            "payload": payload,
        }
        path = self.cell_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")

    def remove(self, digest: str) -> bool:
        """Drop one entry; ``True`` if it existed."""
        try:
            self.cell_path(digest).unlink()
            return True
        except OSError:
            return False

    # -- journals ----------------------------------------------------------
    def journal_path(self, campaign_digest: str) -> Path:
        return self.journal_dir / f"{campaign_digest}.jsonl"

    def append_journal(self, campaign_digest: str, record: Dict[str, Any]) -> None:
        """Append one event line to the campaign's journal."""
        path = self.journal_path(campaign_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")

    def read_journal(self, campaign_digest: str) -> List[Dict[str, Any]]:
        """Every parseable journal event, oldest first."""
        try:
            text = self.journal_path(campaign_digest).read_text()
        except OSError:
            return []
        events: List[Dict[str, Any]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn final line from a crash
            if isinstance(event, dict):
                events.append(event)
        return events

    def remove_journal(self, campaign_digest: str) -> bool:
        """Drop one campaign's journal; ``True`` if it existed."""
        try:
            self.journal_path(campaign_digest).unlink()
            return True
        except OSError:
            return False
