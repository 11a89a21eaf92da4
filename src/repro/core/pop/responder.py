"""The responder role — Algorithm 4.

On ``REQ_CHILD(H(b^h_v))`` a node searches its own storage ``S_{j'}``
for blocks whose header contains the requested digest (the child set
``C_{j'}(b_v)`` of Eq. 10) and answers with the header of the *oldest*
one (Eq. 11).  Oldest matters: when the requesting node's rate is low
relative to the responder's, several of the responder's blocks embed
the same digest (Fig. 3: B1's digest appears in both A2 and A3), and
replying with a newer one would lengthen micro-loops (Fig. 6).
"""

from __future__ import annotations

from repro.core.pop.messages import ReqChild, RpyChild
from repro.core.storage import BlockStore


#: The one "no child" reply: frozen, so every miss can share it.
NO_CHILD = RpyChild(header=None)


def serve_req_child(store: BlockStore, request: ReqChild) -> RpyChild:
    """Algorithm 4: build the reply for a ``REQ_CHILD`` payload.

    The oldest own block referencing the digest (Eqs. 10-11) is one
    lookup in the store's incrementally kept index.  Returns
    :data:`NO_CHILD` (``header=None``) when no own block references the
    digest; the transport still sends it (a real node answers "not
    found" rather than staying silent — silence is the *malicious*
    behaviour, §IV-D-1).
    """
    child = store.oldest_child_of(request.digest)
    return NO_CHILD if child is None else RpyChild(header=child.header)
