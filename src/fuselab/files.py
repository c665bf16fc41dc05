"""Crash-safe artifact writes."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same directory.

    The temp file is moved over the target with ``os.replace``, so a reader
    sees the old file or the complete new one, never a partial write. On any
    failure the temp file is removed and the target is left as it was. The
    text is encoded as UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
