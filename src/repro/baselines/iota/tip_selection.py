"""Tip selection strategies.

IOTA's whitepaper describes two: uniform random selection among current
tips, and the Markov-chain Monte Carlo weighted walk, where a walker
starts deep in the tangle and steps toward approvers with probability
proportional to ``exp(alpha * delta_weight)``, favouring the heavy
(honest-majority) subtangle.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.baselines.iota.tangle import Tangle


def select_tips_uniform(tangle: Tangle, rng: random.Random) -> List[bytes]:
    """Two uniform random tips (with replacement when fewer exist)."""
    tips = tangle.tips()
    if not tips:
        return []
    if len(tips) >= 2:
        return rng.sample(tips, 2)
    return [rng.choice(tips) for _ in range(2)]


def _walk_once(tangle: Tangle, rng: random.Random, alpha: float, start: bytes) -> bytes:
    """One weighted walk from ``start`` to a tip."""
    current = start
    while True:
        approvers = tangle.approvers(current)
        if not approvers:
            return current
        if alpha <= 0:
            current = rng.choice(approvers)
            continue
        weights = [tangle.cumulative_weight(a) for a in approvers]
        top = max(weights)
        # exp normalised against the max to avoid overflow.
        probabilities = [math.exp(alpha * (w - top)) for w in weights]
        total = sum(probabilities)
        draw = rng.uniform(0.0, total)
        accumulated = 0.0
        for approver, probability in zip(approvers, probabilities):
            accumulated += probability
            if draw <= accumulated:
                current = approver
                break
        else:  # numeric edge: fall back to the last approver
            current = approvers[-1]


def select_tips_mcmc(
    tangle: Tangle,
    rng: random.Random,
    count: int = 2,
    alpha: float = 0.01,
) -> List[bytes]:
    """Weighted-random-walk (MCMC) tip selection.

    Walkers start from a genesis transaction; ``alpha`` controls how
    strongly the walk prefers heavy branches (0 degenerates to an
    unweighted walk).
    """
    starts = tangle.genesis_digests()
    if not starts:
        return []
    selected: List[bytes] = []
    for _ in range(count):
        start = rng.choice(starts)
        selected.append(_walk_once(tangle, rng, alpha, start))
    return selected
