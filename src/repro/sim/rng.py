"""Deterministic named random streams.

Every stochastic component of the simulation (topology placement, block
generation jitter, WPS tie-breaking, adversary behaviour, ...) draws from
its own named stream derived from a single master seed.  Adding a new
consumer therefore never perturbs the draws seen by existing ones — a
property the reproduction relies on when comparing protocol variants on
"the same" workload.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    payload = f"{master_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def derive_unit(master_seed: int, name: str) -> float:
    """Derive a deterministic unit-interval value in ``[0, 1)``.

    The seeding idiom for infrastructure-level jitter (the campaign
    executor's retry backoff): like
    :func:`derive_seed` it is a pure function of its inputs, never of
    global RNG state, so decisions built on it replay identically
    across processes and runs.
    """
    return derive_seed(master_seed, name) / 2.0**64


class RandomStreams:
    """A factory of independent, reproducible :class:`random.Random` streams.

    Example
    -------
    >>> streams = RandomStreams(42)
    >>> a = streams.get("topology")
    >>> b = streams.get("topology")
    >>> a is b
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child factory whose streams are independent of ours."""
        return RandomStreams(derive_seed(self.master_seed, f"spawn:{name}"))

    # -- convenience draws ---------------------------------------------------
    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw on the named stream."""
        return self.get(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """One integer draw (inclusive bounds) on the named stream."""
        return self.get(name).randint(low, high)

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Choose one element of ``options`` on the named stream."""
        return self.get(name).choice(options)

    def sample(self, name: str, options: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements on the named stream."""
        return self.get(name).sample(options, k)

    def shuffled(self, name: str, items: Iterable[T]) -> List[T]:
        """Return a new shuffled list of ``items`` on the named stream."""
        out = list(items)
        self.get(name).shuffle(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self.master_seed} streams={sorted(self._streams)}>"
