"""Atomic persistence of result artefacts.

All writes go through :func:`atomic_write_text` (same-directory temp
file + ``os.replace``) so a killed process — a campaign worker, an
interrupted CI job — can never leave a truncated or half-written JSON
file behind: readers observe either the old content or the new one.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The content lands in a temporary file in the same directory (so the
    final rename never crosses a filesystem boundary) and is moved into
    place with ``os.replace``, which is atomic on POSIX and Windows.
    The temp file is fsynced before the rename, so after a crash the
    destination holds either the previous content or the new content —
    never a prefix of it.
    """
    target = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=str(target.parent),
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
            # NamedTemporaryFile creates 0600; give the artifact the
            # umask-derived permissions a plain open() would have.
            if hasattr(os, "fchmod"):
                umask = os.umask(0)
                os.umask(umask)
                os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
