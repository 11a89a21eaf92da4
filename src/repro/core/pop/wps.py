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

Performance note: each closed neighbourhood is an integer bitmask from
the topology's precomputed table
(:attr:`~repro.net.topology.Topology.closed_masks`), and ``R_i`` is
turned into one mask per extension, so a candidate's score is one AND
and one popcount, with no set built.  The popcount is the same integer
as ``|R_i ∩ (N(v) ∪ {v})|`` and the divisor the same ``|N(v)| + 1``, so
the weights are bit-identical floats and selections (tie-breaks
included) do not change; ``tests/pop/test_wps_equivalence.py`` holds
the table and the weights equal to the definitional sets on randomised
consensus sets.  Within one path extension ``R_i`` does not change, so
:func:`wps_order` scores every candidate once and serves all of the
extension's picks from that one ranking; ``tests/pop/test_wps.py``
holds it equal to repeated single picks, the state of ``rng`` after a
partial walk included.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Iterator, Optional, Sequence

from repro.net.topology import Topology


def wps_order(
    consensus_set: AbstractSet[int],
    candidates: Sequence[int],
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
        ``N'`` — neighbours of the verifying node still to ask, in
        ascending id order without repeats (the validator filters
        :attr:`~repro.net.topology.Topology.sorted_neighbors`, so no
        ranking sorts).
    topology:
        Shared knowledge ``G(V, E)`` (every node knows it, §III-A).
    rng:
        Tie-break randomness; deterministic (smallest id) when omitted.
    """
    # The weight expression is inlined — this runs for every live
    # path-extension of every PoP run.  What a pick then costs is three
    # C-level scans of a short float list.
    bit, closed = topology.closed_masks
    # R_i's nodes are distinct, so the sum of their bits is their OR.
    r = sum(map(bit.__getitem__, consensus_set))
    pool = list(candidates)
    weights = [(mask & r).bit_count() / size for mask, size in map(closed.__getitem__, pool)]
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

