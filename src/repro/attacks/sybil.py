"""Sybil attack: fake identities (§IV-D-3).

A Sybil attacker fabricates node identities to inflate its apparent
count.  2LDAG defeats this two ways, both modelled here:

1. ``R_i`` is a *set of unique physical nodes* — replaying the same
   malicious node under one identity cannot grow it (this falls out of
   the validator's set semantics, tested directly);
2. nodes know the topology and all public keys — an identity outside
   the :class:`~repro.crypto.keys.KeyRegistry` fails verification, so
   headers signed by fabricated keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.block import BlockHeader
from repro.crypto.keys import KeyPair
from repro.crypto.signature import sign


@dataclass(frozen=True)
class SybilIdentity:
    """A fabricated identity with a self-generated (unregistered) key."""

    claimed_id: int
    keypair: KeyPair

    def forge_header(self, template: BlockHeader) -> BlockHeader:  # repro: allow[test-only-public-name] test fixture: a forgery validators reject
        """Re-sign a header under the fabricated identity.

        The forgery is internally consistent (signature verifies under
        the Sybil's own public key) — but that key is not in the
        registry, so validators reject it.
        """
        from dataclasses import replace

        unsigned = replace(template, origin=self.claimed_id, signature=b"")
        signature = sign(unsigned.signing_payload(), self.keypair)
        return replace(unsigned, signature=signature)


#: The first fabricated id, far above any real node id.
_SYBIL_ID_BASE = 10_000


def sybil_identities(attacker: int, count: int) -> List[SybilIdentity]:
    """Fabricate ``count`` identities controlled by ``attacker``.

    Ids start at 10,000 to avoid colliding with real nodes; keys
    are derived from the attacker's id so the attack is reproducible.
    """
    return [
        SybilIdentity(
            claimed_id=_SYBIL_ID_BASE + i,
            keypair=KeyPair.generate(_SYBIL_ID_BASE + i, seed=attacker),
        )
        for i in range(count)
    ]
