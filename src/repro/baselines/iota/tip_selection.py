"""Tip selection: uniform random choice among the current tips.

IOTA's whitepaper also describes a Markov-chain Monte Carlo walk that
steps toward approvers weighted by cumulative weight; no scenario runs
it, so the baseline draws its two parents uniformly.
"""

from __future__ import annotations

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
