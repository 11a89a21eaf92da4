"""Cryptographic substrate.

Real SHA-256 is used for all digests (truncated to the configured digest
width, ``f_H`` in the paper), so corruption genuinely changes hashes and
the DAG's tamper-evidence is exercised for real.  Signatures are a
*simulated* keyed-hash scheme (see :mod:`repro.crypto.signature`): they
are unforgeable within the simulation's trust model and have the byte
sizes the paper accounts for, without pulling in an external ECC
dependency.

Modules
-------
``hashing``
    Digest primitives and the :class:`~repro.crypto.hashing.Digest` value
    type.
``merkle``
    Merkle tree over block-body chunks; ``Root`` field of headers.
``keys`` / ``signature``
    Key pairs, registry, sign/verify.
``puzzle``
    The nonce difficulty puzzle of Eq. (5).
"""
