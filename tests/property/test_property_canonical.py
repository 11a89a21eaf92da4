"""``sha256_lines`` hashes the joined text without building it."""

import hashlib

from hypothesis import example, given
from hypothesis import strategies as st

from repro.canonical import sha256_lines


def joined_digest(lines):
    """The reference: one ``\\n``-joined copy, encoded and hashed."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@given(st.lists(st.text()))
@example([])
@example([""])
@example(["", ""])
@example(["one line"])
@example(["trailing\n", "\nleading"])
@example(["päth ✓", "雪", "\U0001f600"])
def test_streamed_digest_equals_the_joined_one(lines):
    want = joined_digest(lines)
    assert sha256_lines(line for line in lines) == want
    assert sha256_lines(lines) == want
