"""Crash-safe artifact writes and checked artifact reads."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import ContractError


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


def read_json_object(path, what: str) -> dict:
    """The JSON object stored in ``path``, a ``what`` file.

    A file that is not JSON (truncated, or not UTF-8) or holds something
    other than an object raises ``ContractError`` naming the file.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ContractError(f"{path} is not a {what} file: {e}") from e
    if not isinstance(payload, dict):
        raise ContractError(f"{path} is not a {what} file: it holds no JSON object")
    return payload
