"""The one canonical-JSON and SHA-256 framing every digest is taken over.

Campaign cell digests, cache envelopes' payload digests, journal
lines, seeded trace digests and both telemetry stream families must
agree byte for byte on how a document becomes text and how text lines
become a digest — so one function defines each.  An import-light leaf
(``json``, ``hashlib`` and ``functools`` only): anything may import it.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Iterable

#: ``canonical_json(obj)``: ``obj`` as sorted-key, compact-separator
#: JSON text (one line).  A ``partial`` rather than a ``def`` so the
#: encoder runs in the caller's frame: a profile keeps charging the
#: work to the layer that asked for it, not to this leaf.
canonical_json = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def sha256_lines(lines: Iterable[str]) -> str:
    """Hex SHA-256 over ``lines`` joined by ``\\n`` (no trailing newline)."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
