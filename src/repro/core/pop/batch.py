"""Batch verification: auditing many blocks with one warm cache.

Digital twins audit in bursts (e.g. all of last hour's readings from a
production line).  Running the verifications sequentially from one
validator lets every success seed ``H_i`` for the next — this module
packages that pattern and reports aggregate statistics, which the
TPS-ablation benchmarks also use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.block import BlockId
from repro.core.pop.validator import PopOutcome, PopValidator, _completed, _PopRun


@dataclass
class BatchReport:
    """Aggregate results of a verification batch."""

    outcomes: List[Tuple[BlockId, PopOutcome]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of verifications attempted."""
        return len(self.outcomes)

    @property
    def successes(self) -> int:
        """Number that reached consensus."""
        return sum(1 for _, o in self.outcomes if o.success)

    @property
    def success_rate(self) -> float:
        """Fraction that reached consensus."""
        return self.successes / self.total if self.total else 0.0

    @property
    def total_messages(self) -> int:
        """PoP messages across the batch."""
        return sum(o.message_total for _, o in self.outcomes)

    @property
    def total_cache_hits(self) -> int:
        """TPS steps across the batch."""
        return sum(o.tps_steps for _, o in self.outcomes)

    def messages_per_verification(self) -> List[int]:
        """Message cost sequence — typically sharply decreasing as the
        cache warms (the TPS amortisation claim of §IV-B)."""
        return [o.message_total for _, o in self.outcomes]

    def failed_blocks(self) -> List[BlockId]:
        """Targets that could not be verified."""
        return [b for b, o in self.outcomes if not o.success]


class _BatchRun:
    """A batch in progress and the caller's handle on it.

    Each run is started in the frame that ended the one before, so the
    whole batch costs one start and one completion kernel event.
    """

    ok = True

    def __init__(
        self, validator: PopValidator, targets: Sequence[Tuple[int, BlockId]], fetch_body: bool
    ) -> None:
        self.triggered = False
        self.value: Optional[BatchReport] = None
        self._validator = validator
        self._targets = targets
        self._fetch_body = fetch_body
        self._report = BatchReport()
        validator.interface.network.sim.call_in(0.0, self._next)

    def _next(self, outcome: Optional[PopOutcome] = None) -> None:
        """Record the run that just ended (none at the start), begin the next."""
        outcomes, targets = self._report.outcomes, self._targets
        if outcome is not None:
            outcomes.append((targets[len(outcomes)][1], outcome))
        if len(outcomes) < len(targets):
            verifier, block_id = targets[len(outcomes)]
            _PopRun(self._validator, verifier, block_id, self._fetch_body, self._next)._start()
        else:
            self.value = self._report
            self.triggered = True
            self._validator.interface.network.sim.call_in(0.0, _completed)


def verify_batch(
    validator: PopValidator,
    targets: Sequence[Tuple[int, BlockId]],
    fetch_body: bool = False,
) -> _BatchRun:
    """Verify ``(verifier, block_id)`` targets sequentially.

    Returns at once with a handle like :meth:`PopValidator.run`'s; its
    ``value`` is the :class:`BatchReport` once ``triggered``.  Usage::

        batch = verify_batch(node.validator(), targets)
        sim.run()
        report = batch.value
    """
    return _BatchRun(validator, targets, fetch_body)
