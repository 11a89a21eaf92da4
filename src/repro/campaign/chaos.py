"""Deterministic chaos for the campaign harness itself.

:mod:`repro.faults` teaches the *ledgers under test* to suffer
declarative fault timelines; this module points the same philosophy at
the measurement infrastructure (in the PBFT spirit: the harness should
tolerate the faults it exists to study).  A :class:`ChaosSpec` is a
seeded schedule of harness faults — injected cell exceptions,
SIGKILL'd pool workers, artificial hangs — that the
:class:`~repro.campaign.executor.CampaignExecutor` replays while
running a campaign.

Chaos never touches what a cell computes: an afflicted attempt fails,
dies, or stalls *before* the cell executes, so a chaos-ridden run that
converges must converge to payloads byte-identical to a clean serial
run.  That property is what the chaos self-tests
(``tests/campaign/test_chaos.py``) and the CI chaos gate pin.

Determinism
-----------
Which cells suffer which fault is a pure function of the chaos seed
and the cells' positions in the campaign (ranked via
:func:`repro.sim.rng.derive_seed`, the same seeding idiom the fault
layer and retry backoff use), so a chaos schedule replays identically
regardless of worker count, completion order, or wall-clock — and a
change to the cell digests leaves it alone.  Faults apply only to
attempts ``<= max_attempt`` (default: the first attempt only), which
is what lets bounded retries always converge.

Enable chaos by passing ``chaos=ChaosSpec(...)`` to the executor, or
globally via the ``REPRO_CHAOS`` environment variable (inline JSON or
a path to a JSON file) — the hook the CI chaos gate and the test
fixtures use.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.faults.spec import read_section
from repro.sim.rng import derive_seed, derive_unit

#: Environment variable enabling chaos globally (inline JSON or a path).
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: The harness fault kinds a chaos plan can assign to a cell.
CHAOS_EXCEPTION = "exception"
CHAOS_KILL = "kill"
CHAOS_HANG = "hang"
CHAOS_KINDS = (CHAOS_EXCEPTION, CHAOS_KILL, CHAOS_HANG)


class ChaosError(ValueError):
    """A chaos schedule that cannot describe a runnable plan."""


class ChaosInjectedError(RuntimeError):
    """The transient failure an afflicted cell attempt raises.

    Defined at module level so it pickles cleanly across the process
    boundary and the parent can classify it (journal kind ``chaos``).
    """


@dataclass(frozen=True)
class ChaosSpec:
    """A seeded schedule of harness faults for one campaign run.

    ``exceptions`` / ``kills`` / ``hangs`` count how many distinct
    pending cells suffer each fault kind; *which* cells is decided by
    :meth:`plan`, a pure function of ``seed`` and the cell positions.
    ``hang_s`` is how long a hung attempt sleeps before executing
    normally (pair it with the executor's ``cell_timeout`` to exercise
    the kill-and-retry path).  Attempts numbered above ``max_attempt``
    run chaos-free, so retried cells converge.
    """

    seed: int = 0
    exceptions: int = 0
    kills: int = 0
    hangs: int = 0
    hang_s: float = 30.0
    max_attempt: int = 0

    def __post_init__(self) -> None:
        for name in ("exceptions", "kills", "hangs"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ChaosError(
                    f"chaos {name} must be a non-negative int, got {value!r}"
                )
        if not 0 < self.hang_s < float("inf"):
            raise ChaosError(
                f"chaos hang_s must be positive and finite, got {self.hang_s!r}"
            )
        if not isinstance(self.max_attempt, int) or self.max_attempt < 0:
            raise ChaosError(
                f"chaos max_attempt must be a non-negative int, got {self.max_attempt!r}"
            )

    @property
    def total(self) -> int:
        """How many cells the plan afflicts (at most)."""
        return self.exceptions + self.kills + self.hangs

    def plan(self, positions: Iterable[int]) -> Dict[int, str]:
        """``position -> chaos kind`` for this run's pending cells.

        Positions (indices in the campaign's cell list) are ranked by a
        seeded hash, then the first ``kills`` suffer worker kills, the
        next ``hangs`` hang, and the next ``exceptions`` raise.  The
        ranking depends only on ``seed`` and the position *set* — never
        on the cells' digests, submission or completion order — so
        serial and parallel runs afflict the same cells, and two cells
        that share a digest are afflicted independently.  With fewer
        pending cells than faults, the plan truncates.
        """
        ranked = sorted(
            set(positions), key=lambda p: (derive_seed(self.seed, f"chaos:{p}"), p)
        )
        plan: Dict[int, str] = {}
        cursor = 0
        for kind, count in (
            (CHAOS_KILL, self.kills),
            (CHAOS_HANG, self.hangs),
            (CHAOS_EXCEPTION, self.exceptions),
        ):
            for position in ranked[cursor:cursor + count]:
                plan[position] = kind
            cursor += count
        return plan

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (round-trips through :meth:`from_dict`)."""
        return {
            "seed": self.seed,
            "exceptions": self.exceptions,
            "kills": self.kills,
            "hangs": self.hangs,
            "hang_s": self.hang_s,
            "max_attempt": self.max_attempt,
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "ChaosSpec":
        """Read a chaos document; every field is a typed spec leaf."""
        return cls(**read_section(cls, "chaos", payload, ChaosError))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ChaosSpec":
        try:
            payload = json.loads(Path(path).read_text())
        except OSError as error:
            raise ChaosError(f"cannot read chaos spec {path}: {error}")
        except ValueError as error:
            raise ChaosError(f"chaos spec {path} is not valid JSON: {error}")
        return cls.from_dict(payload)

    def describe(self) -> str:
        """One line for logs: what this schedule will inflict."""
        return (
            f"chaos seed={self.seed}: {self.exceptions} exception(s), "
            f"{self.kills} worker kill(s), {self.hangs} hang(s) of {self.hang_s:g}s "
            f"(attempts <= {self.max_attempt})"
        )


def chaos_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[ChaosSpec]:
    """The ``$REPRO_CHAOS`` schedule, or ``None`` when chaos is off.

    The value is inline JSON (starts with ``{``) or a path to a JSON
    file; anything unparsable raises :class:`ChaosError` rather than
    silently running without chaos.
    """
    value = (environ if environ is not None else os.environ).get(CHAOS_ENV_VAR, "")
    value = value.strip()
    if not value:
        return None
    if value.startswith("{"):
        try:
            payload = json.loads(value)
        except ValueError as error:
            raise ChaosError(f"${CHAOS_ENV_VAR} is not valid JSON: {error}")
        return ChaosSpec.from_dict(payload)
    return ChaosSpec.from_file(value)


def seeded_backoff(base_s: float, digest: str, attempt: int) -> float:
    """Deterministic exponential backoff before retry ``attempt`` (1-based).

    ``base_s * 2**(attempt-1)``, jittered into ``[0.5x, 1.5x)`` by a
    unit draw seeded from the cell digest and attempt number — the same
    :func:`~repro.sim.rng.derive_unit` idiom chaos planning uses — so a
    retried cell backs off identically in every run, on every worker.
    """
    if base_s <= 0:
        return 0.0
    jitter = 0.5 + derive_unit(int(digest[:16], 16), f"backoff:{attempt}")
    return base_s * (2 ** max(0, attempt - 1)) * jitter


def perform_chaos(directive: Mapping[str, Any]) -> None:
    """Inflict one chaos directive inside a worker, *before* the cell runs.

    ``exception`` raises :class:`ChaosInjectedError`; ``kill`` SIGKILLs
    the worker process (simulated as an injected exception in process,
    where the "worker" is the main process); ``hang`` sleeps ``hang_s``
    and then lets the cell execute normally — under a cell timeout a
    pool attempt is killed mid-sleep and an in-process one is judged
    over budget when it returns; without one it merely finishes late.
    None of these paths can alter a cell's payload.
    """
    kind = directive.get("kind")
    if kind == CHAOS_HANG:
        time.sleep(float(directive.get("hang_s", 30.0)))
    elif kind == CHAOS_KILL:
        if directive.get("simulate_kill"):
            raise ChaosInjectedError(
                "chaos: worker kill (simulated in process)"
            )
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == CHAOS_EXCEPTION:
        raise ChaosInjectedError("chaos: injected cell exception")
    else:  # pragma: no cover - directives are built by the executor
        raise ChaosError(f"unknown chaos directive kind {kind!r}")
