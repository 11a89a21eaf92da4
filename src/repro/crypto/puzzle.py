"""The nonce difficulty puzzle of Eq. (5).

A node must find a nonce ``n`` such that
``H(M(b^d), Δ, n) ≤ ρ`` before publishing a block.  The paper uses the
puzzle purely as a rate limiter ("a malicious node is not able to
generate a large number of blocks within a short time", §IV-D-5 — the
same strategy as IOTA), with ρ chosen so honest devices solve it in
seconds.

We express difficulty as *leading zero bits* (equivalent to a threshold
ρ = 2^(bits - difficulty)); difficulty 0 disables the search, which the
large experiment sweeps use since puzzle wall-time is not a measured
metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.crypto.hashing import DIGEST_BITS_DEFAULT, Digest, frame_fields, hash_bytes


@dataclass(frozen=True)
class PuzzleSolution:
    """A found nonce and the digest witnessing it."""

    nonce: int
    digest: Digest
    attempts: int


class NoncePuzzle:
    """Leading-zero-bits proof-of-work puzzle.

    Parameters
    ----------
    difficulty_bits:
        Required number of leading zero bits; 0 means "accept nonce 0".
    bits:
        Digest width used for the puzzle hash.
    max_attempts:
        Safety cap; exceeded only if difficulty is set absurdly high.
    """

    def __init__(
        self,
        difficulty_bits: int = 0,
        bits: int = DIGEST_BITS_DEFAULT,
        max_attempts: int = 1_000_000,
    ) -> None:
        if difficulty_bits < 0 or difficulty_bits > bits:
            raise ValueError(f"difficulty must be in [0, {bits}], got {difficulty_bits}")
        self.difficulty_bits = difficulty_bits
        self.bits = bits
        self.max_attempts = max_attempts

    def _digest(self, framed: bytes, nonce: int) -> Digest:
        """Eq. (5)'s hash of already framed fields and one nonce."""
        return hash_bytes(framed + frame_fields((nonce.to_bytes(8, "big"),)), self.bits)

    def meets_difficulty(self, digest: Digest) -> bool:
        """Whether a digest satisfies the threshold (H ≤ ρ)."""
        return digest.leading_zero_bits() >= self.difficulty_bits

    def solve(self, fields: Iterable[bytes], start_nonce: int = 0) -> PuzzleSolution:
        """Search nonces from ``start_nonce`` until Eq. (5) is satisfied."""
        framed = frame_fields(fields)
        nonce = start_nonce
        attempts = 0
        while attempts < self.max_attempts:
            digest = self._digest(framed, nonce)
            attempts += 1
            if self.meets_difficulty(digest):
                return PuzzleSolution(nonce=nonce, digest=digest, attempts=attempts)
            nonce += 1
        raise RuntimeError(
            f"no nonce found within {self.max_attempts} attempts at "
            f"difficulty {self.difficulty_bits}"
        )

    def check(self, fields: Iterable[bytes], nonce: int) -> bool:
        """Verify a claimed nonce — what a receiving neighbour does."""
        return self.meets_difficulty(self._digest(frame_fields(fields), nonce))

    def expected_attempts(self) -> float:
        """Expected number of hash attempts (2^difficulty)."""
        return float(2 ** self.difficulty_bits)
