"""Trust Path Selection — Algorithm 2.

Extends the verification path using only the validator's local cache
``H_i``: while some cached header contains the digest of the current
verifying block, adopt it as the next path element.  No messages are
exchanged — this is where reactive consensus amortises.

Each step's ``current.digest(hash_bits)`` is served from the header's
identity cache, so a whole TPS walk hashes nothing that has been
digested before anywhere in the process.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.block import BlockHeader, BlockId
from repro.core.pop.cache import HeaderCache


def trust_path_selection(
    cache: HeaderCache,
    consensus_set: Set[int],
    path: List[BlockHeader],
    verifying_header: BlockHeader,
    hash_bits: int = 256,
    skip_ids: Optional[Set[BlockId]] = None,
) -> Tuple[BlockHeader, int]:
    """Algorithm 2, operating in place on ``consensus_set`` and ``path``.

    Parameters mirror the algorithm's inputs (``H_i``, ``R_i``,
    ``P_i``, ``b_{v,t}``); ``skip_ids`` holds blocks the validator has
    already rolled back past this run (dead ends) — re-adopting one
    from the cache would loop the pop/re-add cycle forever.  The
    caller's ``consensus_set`` and ``path`` are extended; the result is
    the new verifying block ``b_{v,t}`` (the given one if no step was
    taken) and the number of free steps.

    ``consensus_set`` must hold the origin of every header on ``path``
    (it is the ``R_i`` of ``P_i``).  That is what keeps a path member
    from being adopted twice, with no per-call set of path ids: only
    free steps that enlarge ``R_i`` are taken — a cached child from an
    origin already on the path burns DAG runway without advancing
    consensus (micro-loop traversal is the live protocol's job, via the
    self-candidate fallback) — so every step excludes its own origin
    from the next lookup and the walk ends within ``|V|`` steps on any
    cache, even a poisoned one.
    """
    current, steps = verifying_header, 0
    while True:
        child = cache.find_child(
            current.digest(hash_bits),
            skip_ids=skip_ids,
            exclude_origins=consensus_set,
        )
        if child is None:
            break
        consensus_set.add(child.origin)
        path.append(child)
        current = child
        steps += 1
    return current, steps
