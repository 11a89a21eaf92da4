"""Unit tests for the simulated signature scheme."""

import hashlib

import pytest

from repro.crypto.keys import KeyPair, KeyRegistry
from repro.crypto.signature import sign, verify


class TestSignVerify:
    def test_roundtrip(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert verify(b"message", signature, pair.public)

    def test_wrong_message_rejected(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert not verify(b"other", signature, pair.public)

    def test_wrong_key_rejected(self):
        pair1 = KeyPair.generate(1)
        pair2 = KeyPair.generate(2)
        sign(b"message", pair2)  # ensure pair2 is known to the oracle
        signature = sign(b"message", pair1)
        assert not verify(b"message", signature, pair2.public)

    def test_unknown_public_key_rejected(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert not verify(b"message", signature, b"\x00" * 32)

    def test_truncated_signature_rejected(self):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert not verify(b"message", signature[:-1], pair.public)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda sig: bytes([sig[0] ^ 0x01]) + sig[1:],
            lambda sig: sig[:-1] + bytes([sig[-1] ^ 0x80]),
            lambda sig: sig + b"\x00",
            lambda sig: b"",
        ],
        ids=["first-byte", "last-byte", "one-byte-longer", "empty"],
    )
    def test_tampered_signature_rejected(self, tamper):
        pair = KeyPair.generate(1)
        signature = sign(b"message", pair)
        assert verify(b"message", signature, pair.public)
        assert verify(b"message", tamper(signature), pair.public) is False

    def test_unregistered_public_key_verifies_false_even_with_valid_tag(self):
        # A pair that never signed is unknown to the oracle: its own
        # correctly computed tag must still verify as exactly False.
        stranger = KeyPair.generate(424242, seed=13)
        message = b"message"
        tag = hashlib.sha256(b"sig:" + stranger.private + message).digest()
        assert verify(message, tag, stranger.public) is False

    def test_deterministic_keys(self):
        assert KeyPair.generate(3, seed=9) == KeyPair.generate(3, seed=9)

    def test_seed_changes_keys(self):
        assert KeyPair.generate(3, seed=1) != KeyPair.generate(3, seed=2)


class TestRegistry:
    def test_register_and_lookup(self):
        registry = KeyRegistry()
        pair = KeyPair.generate(7)
        registry.register(pair)
        assert registry.public_key(7) == pair.public
        assert registry.is_registered(7)

    def test_unregistered_lookup_raises(self):
        registry = KeyRegistry()
        assert not registry.is_registered(7)
        try:
            registry.public_key(7)
            assert False, "expected KeyError"
        except KeyError:
            pass

    def test_conflicting_reregistration_rejected(self):
        registry = KeyRegistry()
        registry.register(KeyPair.generate(7, seed=1))
        try:
            registry.register(KeyPair.generate(7, seed=2))
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_idempotent_reregistration_allowed(self):
        registry = KeyRegistry()
        pair = KeyPair.generate(7)
        registry.register(pair)
        registry.register(pair)
        assert len(registry) == 1

    def test_iteration_sorted(self):
        registry = KeyRegistry()
        for node in (5, 1, 3):
            registry.register(KeyPair.generate(node))
        assert list(registry) == [1, 3, 5]
