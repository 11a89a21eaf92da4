"""Weighted Path Selection — Algorithm 1.

When the validator must extend the path past verifying block ``b_v``,
it chooses which neighbour ``j' ∈ N(v)`` to ask for a child.  Asking a
node already in ``R_i`` cannot enlarge the consensus set, so WPS scores
each candidate by Eq. (7):

    w_v = |R_i ∩ (N(v) ∪ {v})| / (|N(v)| + 1)

— the fraction of the candidate's *closed neighbourhood* already
counted — and picks the minimum.  Ties are broken in favour of nodes
not yet in ``R_i``, then uniformly at random (we use a seeded stream so
runs are reproducible).

Performance note: the closed neighbourhoods come from the topology's
precomputed table (:attr:`~repro.net.topology.Topology.closed_neighborhoods`),
so no candidate's neighbourhood set is ever rebuilt — scoring is one
C-level intersection count against the frozen table entry.  The weight
values are exactly the same integer-ratio floats as the definitional
formula, so selections (including tie-breaks) are bit-identical;
``tests/pop/test_wps_equivalence.py`` holds the two implementations
equal on randomised consensus sets.  Within one path extension ``R_i``
does not change, so :func:`wps_order` scores every candidate once and
serves all of the extension's picks from that one ranking;
``tests/pop/test_wps.py`` holds it equal to repeated single picks, the
state of ``rng`` after a partial walk included.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Iterable, Iterator, List, Optional, Sequence

from repro.net.topology import Topology


def closed_neighborhood_weight(
    candidate: int, consensus_set: AbstractSet[int], topology: Topology
) -> float:
    """Eq. (7): fraction of ``candidate``'s closed neighbourhood in ``R_i``."""
    closed = topology.closed_neighborhoods[candidate]
    return len(closed & consensus_set) / len(closed)


def wps_order(
    consensus_set: AbstractSet[int],
    candidates: Iterable[int],
    topology: Topology,
    rng: Optional[random.Random] = None,
) -> Iterator[int]:
    """Algorithm 1 run to exhaustion: every candidate, best first.

    Yields what repeated picks with removal would — within one path
    extension ``R_i`` is fixed, so Eq. (7) is evaluated once per
    candidate, not once per candidate per pick.  Lazy: a tie is broken
    (and ``rng`` drawn from) only when that pick is asked for, so a
    caller that stops early leaves ``rng`` where single picks would.

    Parameters
    ----------
    consensus_set:
        ``R_i`` — physical nodes already on the path; must not change
        while the iterator is in use.
    candidates:
        ``N'`` — neighbours of the verifying node still to ask.
    topology:
        Shared knowledge ``G(V, E)`` (every node knows it, §III-A).
    rng:
        Tie-break randomness; deterministic (smallest id) when omitted.
    """
    # The weight expression is inlined — this runs for every live
    # path-extension of every PoP run.  What a pick then costs is three
    # C-level scans of a short float list.
    closed_table = topology.closed_neighborhoods
    pool = sorted(set(candidates))
    weights = [len((closed := closed_table[c]) & consensus_set) / len(closed) for c in pool]
    while pool:
        minimum = min(weights)
        index = weights.index(minimum)
        if weights.count(minimum) > 1:
            tied = [c for c, weight in zip(pool, weights) if weight == minimum]
            # Lines 8-13: prefer candidates outside R_i when the tie is mixed.
            outside = [c for c in tied if c not in consensus_set]
            if outside and len(outside) != len(tied):
                tied = outside
            index = pool.index(tied[0] if rng is None else rng.choice(tied))
        yield pool[index]
        del pool[index], weights[index]


def weighted_path_selection(
    consensus_set: AbstractSet[int],
    candidates: Iterable[int],
    topology: Topology,
    rng: Optional[random.Random] = None,
) -> int:
    """Algorithm 1: the next responder, the first of :func:`wps_order`.

    Raises ``ValueError`` on an empty candidate set — Algorithm 3 never
    calls WPS with one.
    """
    for chosen in wps_order(consensus_set, candidates, topology, rng):
        return chosen
    raise ValueError("WPS called with no candidates")


def rank_candidates(
    consensus_set: AbstractSet[int], candidates: Sequence[int], topology: Topology
) -> List[int]:
    """All candidates ordered as WPS would prefer them (diagnostics)."""
    return list(wps_order(consensus_set, candidates, topology))
