"""Chaos-tolerant parallel, cached, resumable execution of campaign cells.

:class:`CampaignExecutor` is a service object (construct once, run
many campaigns) with four independent capabilities:

* **parallelism** — with ``workers >= 2``, pending cells fan out
  across a :class:`~concurrent.futures.ProcessPoolExecutor`.  Every
  cell is a pure function of its spec (its scenario carries its own
  master seed, and all randomness flows through
  :class:`~repro.sim.rng.RandomStreams`), so results — trace digests
  included — are byte-identical to a serial run; only wall-clock
  changes.  The default ``workers=0`` runs cells in-process, one at a
  time, under the same supervision loop.
* **caching** — with ``use_cache=True`` each finished cell's payload
  is persisted to the content-addressed :class:`ResultCache`; a later
  run of any campaign containing that cell (same digest) is served
  from disk without executing.  ``force=True`` recomputes and
  overwrites.
* **resumability** — because completion is journalled and cached
  per-cell, an interrupted campaign re-run computes only the cells
  that never finished; completed cells replay from the cache.  Failed
  and quarantined cells are never cached, so a rerun retries exactly
  them — resumability covers failures, not just cache hits.
* **resilience** — failed attempts retry with deterministic seeded
  backoff (``retries``, default 2); hung cells are killed at
  ``cell_timeout`` and retried; a dead worker process
  (:class:`~concurrent.futures.process.BrokenProcessPool`) respawns
  the pool and resubmits only the lost cells; ``keep_going=True``
  completes every healthy cell and quarantines the rest with
  structured journal events instead of aborting.  A seeded
  :class:`~repro.campaign.chaos.ChaosSpec` (``$REPRO_CHAOS``) drives
  the self-tests that pin all of this.

Results always come back in campaign order, regardless of worker
completion order, so downstream consumers see deterministic output.

Failure semantics
-----------------
An attempt can fail four ways, all journalled as ``cell-failed``
events: its own exception (``exception``, or ``chaos`` when injected),
a wall-clock overrun (``timeout``), or its worker dying
(``worker-crash``).  One timeout rule holds in process and in a
pool: a result whose elapsed time is over ``cell_timeout`` fails as a
timeout (the payload is discarded, but its digest seeds the flaky
cross-check).  A pool cell still running past its deadline is stopped
too: the pool is killed — ``Future.cancel`` cannot stop a running
cell — and respawned.  When a worker dies, *every* in-flight cell is
charged one ``worker-crash`` attempt — the culprit cannot be
identified, and charging all of them bounds crash loops — whereas
cells killed as collateral of a *timeout* are requeued free of charge
(the overdue cell is known).  A cell that exhausts ``retries`` either aborts the
run (default: ``CampaignError`` after an ``abort`` journal event, with
queued cells cancelled and in-flight workers killed) or, under
``keep_going``, is quarantined and reported in the
:class:`CampaignResult`.

Every computed payload is cross-checked against any earlier successful
attempt of the same cell (a pre-``force`` cache envelope, or a
discarded over-budget payload): a digest mismatch flags the
cell *flaky* — nondeterministic — via ``cell-flaky`` journal events
and :attr:`CellResult.flaky`, rather than passing silently.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.campaign.cache import ResultCache, payload_digest, summarize_cell_events
from repro.campaign.cells import execute_cell
from repro.campaign.chaos import (
    CHAOS_HANG,
    CHAOS_KILL,
    ChaosInjectedError,
    ChaosSpec,
    chaos_from_env,
    perform_chaos,
    seeded_backoff,
)
from repro.campaign.spec import CampaignError, CampaignSpec, CellSpec

#: Failure kinds recorded on attempts (``cell-failed`` journal events).
FAIL_EXCEPTION = "exception"
FAIL_CHAOS = "chaos"
FAIL_TIMEOUT = "timeout"
FAIL_WORKER_CRASH = "worker-crash"

#: Pinned schema version of :meth:`CampaignExecutor.status_document`.
STATUS_SCHEMA_VERSION = 1


def _cell_worker(
    cell_payload: Dict[str, Any], chaos: Optional[Dict[str, Any]] = None
) -> Tuple[Dict[str, Any], float]:
    """Execute one serialized cell; module-level so workers can pickle it.

    ``chaos`` is an optional directive from the seeded
    :class:`~repro.campaign.chaos.ChaosSpec` plan, inflicted *before*
    the cell executes (raise / SIGKILL / sleep) so an afflicted attempt
    can fail or stall but never alter a payload.  The clock starts
    before the chaos, so a hang counts against the cell timeout.  An
    in-process run calls this same function, which is what guarantees
    parallel and serial runs compute byte-identical payloads.
    """
    start = time.perf_counter()
    if chaos is not None:
        perform_chaos(chaos)
    payload = execute_cell(CellSpec.from_dict(cell_payload))
    return payload, time.perf_counter() - start


class _InProcess:
    """The serial stand-in for a pool: ``submit`` runs the cell here.

    It returns an already-finished future, so the supervision loop
    sweeps an in-process result exactly like a pool result.  Nothing
    runs in the background, so :meth:`shutdown` has nothing to stop.
    """

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


def _terminate_pool(pool: Union[ProcessPoolExecutor, _InProcess]) -> None:
    """Hard-stop a pool: cancel queued cells, SIGKILL running workers.

    ``Future.cancel`` is a no-op once a cell is running, so the only
    way to stop a hung or no-longer-wanted in-flight cell is to kill
    its worker process.  Partial work is discarded; the result cache
    cannot be poisoned because payloads are persisted (atomically) by
    the *parent*, only after a clean result arrives.
    """
    # grab the worker handles first: shutdown() drops its reference
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - worker already gone
            pass


def _classify(error: BaseException) -> str:
    """The journal failure kind for one attempt's exception."""
    return FAIL_CHAOS if isinstance(error, ChaosInjectedError) else FAIL_EXCEPTION


class _Abort(Exception):
    """Internal fail-fast signal; carries the error to raise and its cause."""

    def __init__(self, error: CampaignError, cause: Optional[BaseException] = None):
        super().__init__(str(error))
        self.error = error
        self.cause = cause


@dataclass(frozen=True)
class CellFailure:
    """One failed execution attempt of one cell."""

    attempt: int  # 0-based attempt number that failed
    kind: str  # exception | chaos | timeout | worker-crash
    error: str


@dataclass
class CellResult:
    """One cell's outcome within a finished campaign run."""

    index: int
    cell: CellSpec
    digest: str
    payload: Dict[str, Any]
    cached: bool
    elapsed_s: float
    attempts: int = 1
    failures: Tuple[CellFailure, ...] = ()
    quarantined: bool = False
    flaky: bool = False

    @property
    def ok(self) -> bool:
        """Whether this cell finished with a usable payload."""
        return not self.quarantined

    @property
    def trace_sha256(self) -> str:
        """The canonical trace digest, when the payload carries one."""
        value = self.payload.get("trace_sha256", "")
        return value if isinstance(value, str) else ""


@dataclass(frozen=True)
class CellStatus:
    """One cell's standing, from the cache plus the journal history."""

    cell: CellSpec
    digest: str
    cached: bool
    failed_attempts: int = 0
    quarantined: bool = False
    flaky: bool = False
    last_error: str = ""

    @property
    def state(self) -> str:
        """``done`` / ``quarantined`` / ``failing`` / ``pending``."""
        if self.cached:
            return "done"
        if self.quarantined:
            return "quarantined"
        if self.failed_attempts:
            return "failing"
        return "pending"


@dataclass
class CampaignResult:
    """Everything a finished campaign run produced, in campaign order."""

    campaign: CampaignSpec
    digest: str
    workers: int
    wall_s: float
    cells: List[CellResult] = field(default_factory=list)

    @property
    def computed_count(self) -> int:
        return sum(1 for cell in self.cells if not cell.cached and cell.ok)

    @property
    def cached_count(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def quarantined_count(self) -> int:
        return sum(1 for cell in self.cells if cell.quarantined)

    @property
    def flaky_count(self) -> int:
        return sum(1 for cell in self.cells if cell.flaky)

    @property
    def ok(self) -> bool:
        """Whether every cell finished with a usable payload."""
        return self.quarantined_count == 0

    def payloads(self) -> List[Dict[str, Any]]:
        """The raw cell payloads, in campaign order (``{}`` if quarantined)."""
        return [cell.payload for cell in self.cells]

    def summary(self) -> str:
        """One line for humans: cells, hit/compute split, wall time."""
        mode = f"{self.workers} workers" if self.workers >= 2 else "serial"
        split = f"{self.computed_count} computed, {self.cached_count} cached"
        if self.quarantined_count:
            split += f", {self.quarantined_count} quarantined"
        if self.flaky_count:
            split += f", {self.flaky_count} FLAKY"
        return (
            f"campaign {self.campaign.name}: {len(self.cells)} cells "
            f"({split}) in {self.wall_s:.2f}s ({mode})"
        )


class _RunState:
    """Mutable bookkeeping for one ``CampaignExecutor.run`` invocation."""

    def __init__(
        self,
        campaign: CampaignSpec,
        digests: List[str],
        campaign_digest: str,
        emit: Callable[[str], None],
        keep_going: bool,
    ) -> None:
        self.campaign = campaign
        self.digests = digests
        self.campaign_digest = campaign_digest
        self.emit = emit
        self.keep_going = keep_going
        self.total = len(campaign.cells)
        self.results: Dict[int, CellResult] = {}
        self.attempts: Dict[int, int] = {}  # index -> failed attempts so far
        self.failures: Dict[int, List[CellFailure]] = {}
        self.prior_payload: Dict[int, str] = {}  # index -> earlier success digest
        self.chaos_plan: Dict[str, str] = {}
        self.journal_on = False


class CampaignExecutor:
    """Runs campaigns: fan-out across workers, memoise on disk, journal.

    Parameters
    ----------
    workers:
        Process count for pending cells; ``0``/``1`` run them one at
        a time in this process (the default; payloads and golden
        digests are the same either way).
    cache_dir:
        Result-cache root; defaults to ``$REPRO_CACHE_DIR`` or
        ``./.repro_cache``.
    use_cache:
        ``False`` disables both the cache and the journal — every cell
        computes, nothing is persisted (what experiment entry points
        use unless the caller opts in).
    retries:
        How many times one cell may be re-attempted after a failed
        attempt (exception, timeout, or worker crash) before the run
        aborts — or, under ``keep_going``, the cell is quarantined.
        Each retry waits a deterministic seeded backoff
        (:func:`~repro.campaign.chaos.seeded_backoff` over
        ``backoff_s``) while other cells run.
    cell_timeout:
        Wall-clock budget per cell attempt, in seconds.  A result
        that took longer is discarded and the cell retried.  In a pool
        an overdue cell's worker is also killed (the pool respawns;
        innocent in-flight cells are requeued without being charged an
        attempt); a cell running in process cannot be pre-empted.
        ``None`` (default) disables the budget.
    chaos:
        A :class:`~repro.campaign.chaos.ChaosSpec` of harness faults
        to inject (self-test/CI instrumentation).  Defaults to the
        ``$REPRO_CHAOS`` schedule, or no chaos.
    """

    def __init__(
        self,
        workers: int = 0,
        cache_dir: Union[str, None] = None,
        use_cache: bool = True,
        retries: int = 2,
        cell_timeout: Optional[float] = None,
        backoff_s: float = 0.05,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        self.workers = max(0, int(workers or 0))
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        self.retries = max(0, int(retries))
        self.cell_timeout = float(cell_timeout) if cell_timeout else None
        self.backoff_s = max(0.0, float(backoff_s))
        self.chaos = chaos if chaos is not None else chaos_from_env()

    # -- execution ---------------------------------------------------------
    def run(
        self,
        campaign: CampaignSpec,
        force: bool = False,
        log: Optional[Callable[[str], None]] = None,
        keep_going: bool = False,
    ) -> CampaignResult:
        """Execute ``campaign``; cached cells replay, the rest compute.

        ``force=True`` ignores (and overwrites) cached entries — each
        recomputed payload is cross-checked against the overwritten one
        and digest mismatches are flagged flaky.  ``keep_going=True``
        completes every healthy cell and quarantines cells that exhaust
        their retries instead of aborting.  ``log`` receives one
        progress line per cell event.

        Every exit path that journalled a ``start`` appends a terminal
        record: ``end`` on completion (quarantine count included) or
        ``abort`` with the failure reason when the run raises.
        """
        emit = log or (lambda _message: None)
        start = time.perf_counter()
        total = len(campaign.cells)
        digests = [cell.digest() for cell in campaign.cells]
        state = _RunState(
            campaign=campaign,
            digests=digests,
            campaign_digest=campaign.digest(),
            emit=emit,
            keep_going=keep_going,
        )

        pending: List[int] = []
        for index, (cell, digest) in enumerate(zip(campaign.cells, digests)):
            document = self.cache.load(digest) if self.cache is not None else None
            if document is not None and not force:
                state.results[index] = CellResult(
                    index=index,
                    cell=cell,
                    digest=digest,
                    payload=document["payload"],
                    cached=True,
                    elapsed_s=float(document.get("elapsed_s") or 0.0),
                )
                emit(f"[{index + 1}/{total}] {cell.label}: cached ({digest[:12]})")
                continue
            if document is not None:
                # force-recompute: the overwritten payload seeds the
                # determinism cross-check for the fresh computation
                state.prior_payload[index] = payload_digest(document["payload"])
            pending.append(index)

        state.journal_on = self.cache is not None and bool(pending)
        if self.chaos is not None and pending:
            state.chaos_plan = self.chaos.plan(digests[index] for index in pending)
            if state.chaos_plan:
                emit(self.chaos.describe())
        if state.journal_on:
            record = {
                "event": "start",
                "campaign": campaign.name,
                "cells": total,
                "pending": len(pending),
                "workers": self.workers,
            }
            if state.chaos_plan:
                record["chaos"] = self.chaos.to_dict()
            self._journal(state, record)

        try:
            if pending:
                self._supervise(state, pending)
        except _Abort as stop:
            self._journal(state, {
                "event": "abort",
                "reason": str(stop.error),
                "wall_s": round(time.perf_counter() - start, 6),
            })
            raise stop.error from stop.cause
        except BaseException as error:
            # Ctrl-C, MemoryError, ... — the journal still gets its
            # terminal record with the cause and wall time.
            self._journal(state, {
                "event": "abort",
                "reason": f"{type(error).__name__}: {error}",
                "wall_s": round(time.perf_counter() - start, 6),
            })
            raise

        wall = time.perf_counter() - start
        quarantined = sum(
            1 for index in pending if state.results[index].quarantined
        )
        if state.journal_on:
            record = {
                "event": "end",
                "computed": len(pending) - quarantined,
                "wall_s": round(wall, 6),
            }
            if quarantined:
                record["quarantined"] = quarantined
            self._journal(state, record)
        return CampaignResult(
            campaign=campaign,
            digest=state.campaign_digest,
            workers=self.workers,
            wall_s=wall,
            cells=[state.results[index] for index in range(total)],
        )

    # -- the supervision loop ----------------------------------------------
    def _supervise(self, state: _RunState, pending: List[int]) -> None:
        """Run every pending cell: timeouts, crash recovery, retries.

        With ``workers >= 2`` cells go to a process pool in a window of
        at most ``workers`` at a time, so every outstanding future is
        genuinely running and its deadline is meaningful; otherwise
        :class:`_InProcess` runs each one here as it is submitted.  A
        failed cell waits out its backoff on the heap while other cells
        run.  The pool is killed and respawned to stop overdue cells or
        recover from a dead worker; queued cells are cancelled via
        ``shutdown(cancel_futures=True)`` and in-flight workers killed
        on abort (cancelling a running future is a no-op — see
        :func:`_terminate_pool`).
        """
        in_process = self.workers < 2
        window = 1 if in_process else min(self.workers, len(pending))

        def spawn() -> Union[ProcessPoolExecutor, _InProcess]:
            return _InProcess() if in_process else ProcessPoolExecutor(window)

        ready: Deque[int] = deque(pending)
        retries_due: List[Tuple[float, int]] = []  # (monotonic due time, index)
        inflight: Dict[Future, Tuple[int, float]] = {}  # future -> (index, deadline)
        pool = spawn()
        respawns = 0
        try:
            while ready or retries_due or inflight:
                now = time.monotonic()
                while retries_due and retries_due[0][0] <= now:
                    ready.append(heapq.heappop(retries_due)[1])
                while ready and len(inflight) < window:
                    index = ready.popleft()
                    future = pool.submit(
                        _cell_worker,
                        state.campaign.cells[index].to_dict(),
                        self._chaos_directive(state, index, in_process),
                    )
                    deadline = (
                        now + self.cell_timeout if self.cell_timeout else float("inf")
                    )
                    inflight[future] = (index, deadline)
                if not inflight:
                    # nothing running: wait out the next backoff timer
                    time.sleep(max(0.0, retries_due[0][0] - time.monotonic()))
                    continue

                horizon = min(deadline for _i, deadline in inflight.values())
                if retries_due:
                    horizon = min(horizon, retries_due[0][0])
                timeout = (
                    None if horizon == float("inf")
                    else max(0.0, horizon - time.monotonic()) + 0.01
                )
                wait(set(inflight), timeout=timeout, return_when=FIRST_COMPLETED)

                # Sweep everything finished *now* (completions may race
                # the deadline check), then judge the stragglers.
                pool_broken = False
                crash_lost: List[int] = []
                for future in [f for f in list(inflight) if f.done()]:
                    index, _deadline = inflight.pop(future)
                    try:
                        payload, elapsed = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        crash_lost.append(index)
                    except Exception as error:
                        self._fail_attempt(
                            state, retries_due, index,
                            _classify(error), str(error), cause=error,
                        )
                    else:
                        if self.cell_timeout is None or elapsed <= self.cell_timeout:
                            self._complete(state, index, payload, elapsed)
                            continue
                        # Over budget: the payload is discarded, but its
                        # digest seeds the flaky cross-check.
                        state.prior_payload.setdefault(index, payload_digest(payload))
                        self._fail_attempt(
                            state, retries_due, index, FAIL_TIMEOUT,
                            f"cell took {elapsed:.2f}s, over the "
                            f"{self.cell_timeout:g}s budget (judged post-hoc)",
                        )

                if pool_broken or getattr(pool, "_broken", False):
                    # A worker died (SIGKILL, OOM, segfault).  Everything
                    # still in flight is lost with it; each lost cell is
                    # charged one worker-crash attempt (the culprit is
                    # unknowable, and charging all bounds crash loops).
                    crash_lost.extend(index for index, _d in inflight.values())
                    inflight.clear()
                    respawns += 1
                    self._journal(state, {
                        "event": "pool-respawn",
                        "respawn": respawns,
                        "lost": sorted(crash_lost),
                    })
                    state.emit(
                        f"worker process died; respawning pool and resubmitting "
                        f"{len(crash_lost)} lost cell(s)"
                    )
                    _terminate_pool(pool)
                    pool = spawn()
                    for index in sorted(crash_lost):
                        self._fail_attempt(
                            state, retries_due, index, FAIL_WORKER_CRASH,
                            "worker process died mid-cell (killed or crashed)",
                        )
                    continue

                now = time.monotonic()
                overdue = {
                    future: index
                    for future, (index, deadline) in inflight.items()
                    if deadline <= now
                }
                if not overdue:
                    continue
                # A hung cell can only be stopped by killing its worker,
                # which takes the pool down with it: innocent in-flight
                # cells are requeued without being charged an attempt.
                requeued = sorted(
                    index for future, (index, _d) in inflight.items()
                    if future not in overdue
                )
                inflight.clear()
                respawns += 1
                self._journal(state, {
                    "event": "pool-respawn",
                    "respawn": respawns,
                    "timed_out": sorted(overdue.values()),
                    "requeued": requeued,
                })
                _terminate_pool(pool)
                pool = spawn()
                for index in sorted(overdue.values()):
                    self._fail_attempt(
                        state, retries_due, index, FAIL_TIMEOUT,
                        f"exceeded the {self.cell_timeout:g}s cell timeout "
                        "(worker killed)",
                    )
                ready.extend(requeued)
        except BaseException:
            # Fail-fast abort or unexpected error: cancel queued cells,
            # kill in-flight workers, then let run() journal the abort.
            _terminate_pool(pool)
            raise
        pool.shutdown(wait=True)

    # -- per-cell bookkeeping ----------------------------------------------
    def _chaos_directive(
        self, state: _RunState, index: int, in_process: bool
    ) -> Optional[Dict[str, Any]]:
        """The chaos to inflict on this attempt of this cell, if any."""
        if self.chaos is None or not state.chaos_plan:
            return None
        kind = state.chaos_plan.get(state.digests[index])
        if kind is None or state.attempts.get(index, 0) > self.chaos.max_attempt:
            return None
        directive: Dict[str, Any] = {"kind": kind}
        if kind == CHAOS_HANG:
            directive["hang_s"] = self.chaos.hang_s
        elif kind == CHAOS_KILL and in_process:
            directive["simulate_kill"] = True
        return directive

    def _journal(self, state: _RunState, record: Dict[str, Any]) -> None:
        if state.journal_on and self.cache is not None:
            self.cache.append_journal(state.campaign_digest, record)

    def _complete(
        self, state: _RunState, index: int, payload: Dict[str, Any], elapsed: float
    ) -> None:
        """Record one successful computation (cache, journal, flaky check)."""
        cell, digest = state.campaign.cells[index], state.digests[index]
        attempts = state.attempts.get(index, 0) + 1
        fresh_digest = payload_digest(payload)
        earlier = state.prior_payload.get(index)
        flaky = earlier is not None and earlier != fresh_digest
        if flaky:
            self._journal(state, {
                "event": "cell-flaky",
                "index": index,
                "digest": digest,
                "label": cell.label,
                "expected": earlier,
                "got": fresh_digest,
            })
            state.emit(
                f"[{index + 1}/{state.total}] {cell.label}: FLAKY — payload "
                f"digest {fresh_digest[:12]} != earlier successful attempt "
                f"{earlier[:12]}"
            )
        if self.cache is not None:
            self.cache.store(digest, cell, payload, elapsed)
            record = {
                "event": "cell",
                "index": index,
                "digest": digest,
                "label": cell.label,
                "elapsed_s": round(elapsed, 6),
            }
            if attempts > 1:
                record["attempts"] = attempts
            self._journal(state, record)
        state.results[index] = CellResult(
            index=index,
            cell=cell,
            digest=digest,
            payload=payload,
            cached=False,
            elapsed_s=elapsed,
            attempts=attempts,
            failures=tuple(state.failures.get(index, ())),
            flaky=flaky,
        )
        suffix = f", attempt {attempts}" if attempts > 1 else ""
        state.emit(
            f"[{index + 1}/{state.total}] {cell.label}: "
            f"computed in {elapsed:.2f}s ({digest[:12]}{suffix})"
        )

    def _fail_attempt(
        self,
        state: _RunState,
        retries_due: List[Tuple[float, int]],
        index: int,
        kind: str,
        error: str,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Record one failed attempt; decide what happens to the cell.

        A cell with retries left goes on the ``retries_due`` heap, due
        after its deterministic seeded backoff; an exhausted one is
        quarantined under ``keep_going``.  In fail-fast mode
        (``keep_going=False``) an exhausted cell raises :class:`_Abort`
        instead, which ``run()`` turns into a journal ``abort`` event
        plus a :class:`CampaignError`.
        """
        attempt = state.attempts.get(index, 0)
        state.attempts[index] = attempt + 1
        cell, digest = state.campaign.cells[index], state.digests[index]
        failure = CellFailure(attempt=attempt, kind=kind, error=error)
        state.failures.setdefault(index, []).append(failure)
        self._journal(state, {
            "event": "cell-failed",
            "index": index,
            "digest": digest,
            "label": cell.label,
            "attempt": attempt,
            "kind": kind,
            "error": error[:500],
        })
        state.emit(
            f"[{index + 1}/{state.total}] {cell.label}: attempt {attempt + 1} "
            f"failed ({kind}: {error})"
        )
        next_attempt = state.attempts[index]
        if next_attempt <= self.retries:
            delay = seeded_backoff(self.backoff_s, digest, next_attempt)
            self._journal(state, {
                "event": "cell-retry",
                "index": index,
                "digest": digest,
                "attempt": next_attempt,
                "backoff_s": round(delay, 6),
            })
            heapq.heappush(retries_due, (time.monotonic() + delay, index))
            return
        if state.keep_going:
            self._quarantine(state, index)
            return
        raise _Abort(
            CampaignError(
                f"cell {cell.label!r} failed after {next_attempt} attempt(s): {error}"
            ),
            cause=cause,
        )

    def _quarantine(self, state: _RunState, index: int) -> None:
        """Give up on one cell under ``keep_going``; the run continues."""
        cell, digest = state.campaign.cells[index], state.digests[index]
        failures = tuple(state.failures.get(index, ()))
        last = failures[-1].error if failures else ""
        self._journal(state, {
            "event": "cell-quarantined",
            "index": index,
            "digest": digest,
            "label": cell.label,
            "attempts": state.attempts.get(index, 0),
            "error": last[:500],
        })
        state.results[index] = CellResult(
            index=index,
            cell=cell,
            digest=digest,
            payload={},
            cached=False,
            elapsed_s=0.0,
            attempts=state.attempts.get(index, 0),
            failures=failures,
            quarantined=True,
        )
        state.emit(
            f"[{index + 1}/{state.total}] {cell.label}: QUARANTINED after "
            f"{state.attempts.get(index, 0)} attempt(s) ({last})"
        )

    # -- inspection / maintenance -----------------------------------------
    def status(self, campaign: CampaignSpec) -> List[Tuple[CellSpec, str, bool]]:
        """Per-cell ``(cell, digest, cached)`` without executing anything."""
        rows: List[Tuple[CellSpec, str, bool]] = []
        for cell in campaign.cells:
            digest = cell.digest()
            cached = self.cache is not None and self.cache.load(digest) is not None
            rows.append((cell, digest, cached))
        return rows

    def status_report(self, campaign: CampaignSpec) -> List[CellStatus]:
        """Per-cell standing including journalled failure history.

        Extends :meth:`status` with what the campaign's journal records
        about failed attempts, quarantines and flakiness, so ``campaign
        status`` can show *why* a cell is missing, not just that it is.
        """
        history: Dict[str, Dict[str, Any]] = {}
        if self.cache is not None:
            history = summarize_cell_events(
                self.cache.read_journal(campaign.digest())
            )
        rows: List[CellStatus] = []
        for cell, digest, cached in self.status(campaign):
            record = history.get(digest, {})
            rows.append(CellStatus(
                cell=cell,
                digest=digest,
                cached=cached,
                failed_attempts=int(record.get("failed_attempts", 0)),
                quarantined=bool(record.get("quarantined")) and not cached,
                flaky=bool(record.get("flaky")),
                last_error=str(record.get("last_error", "")),
            ))
        return rows

    def status_document(self, campaign: CampaignSpec) -> Dict[str, Any]:
        """:meth:`status_report` as a pinned-schema JSON document.

        The machine face of ``campaign status --json``: CI and
        scripts consume this instead of screen-scraping the text report.
        Schema (version :data:`STATUS_SCHEMA_VERSION`; any key addition
        or semantic change bumps it)::

            {schema, campaign, campaign_digest, total,
             counts: {done, failing, pending, quarantined},
             cells: [{index, label, digest, state, cached,
                      failed_attempts, quarantined, flaky, last_error}]}
        """
        rows = self.status_report(campaign)
        counts = {"done": 0, "failing": 0, "pending": 0, "quarantined": 0}
        cells = []
        for index, row in enumerate(rows):
            counts[row.state] += 1
            cells.append({
                "index": index,
                "label": row.cell.label,
                "digest": row.digest,
                "state": row.state,
                "cached": row.cached,
                "failed_attempts": row.failed_attempts,
                "quarantined": row.quarantined,
                "flaky": row.flaky,
                "last_error": row.last_error,
            })
        return {
            "schema": STATUS_SCHEMA_VERSION,
            "campaign": campaign.name,
            "campaign_digest": campaign.digest(),
            "total": len(rows),
            "counts": counts,
            "cells": cells,
        }

    def clean(self, campaign: CampaignSpec) -> int:
        """Drop the campaign's cached cells and journal; entries removed."""
        if self.cache is None:
            return 0
        removed = sum(
            1 for cell in campaign.cells if self.cache.remove(cell.digest())
        )
        self.cache.remove_journal(campaign.digest())
        return removed


def run_campaign(
    campaign: CampaignSpec,
    executor: Optional[CampaignExecutor] = None,
    **run_kwargs: Any,
) -> CampaignResult:
    """Run ``campaign``; without an executor, serially and cache-free.

    The helper every experiment entry point calls: passing no executor
    reproduces the historical single-process behaviour exactly, while a
    configured executor layers in parallelism, caching, retries and
    journaling.
    """
    runner = executor if executor is not None else CampaignExecutor(use_cache=False)
    return runner.run(campaign, **run_kwargs)
