"""Crash-safe artifact writes, the artifact JSON and CSV formats, the JSON
digest, the kind rule for JSON leaves, and checked, memoised artifact reads.

An artifact CSV is an optional ``# comment`` line, a header line and one line
per row, each newline-terminated, cells joined by commas. A string cell is
written as it is, an int (numpy's too) as ``%d`` and any other number as
``%.17g``, which a float64 reads back bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections import OrderedDict
from dataclasses import fields
from numbers import Integral
from pathlib import Path

from .errors import ContractError

# Verified parses kept per process, least recently used evicted first. A
# run reads 4 task files and 16 checkpoints at the default config.
MEMO_ENTRIES = 64
_memo: OrderedDict = OrderedDict()


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


def write_json(path, value) -> None:
    """Write ``value`` to ``path`` in the artifact JSON format:
    ``json.dumps(value, sort_keys=True, indent=1)`` and a newline."""
    write_atomic(path, json.dumps(value, sort_keys=True, indent=1) + "\n")


def write_csv(path, comment: str, header, rows) -> None:
    """Write an artifact CSV (see the module docstring); no comment line when ``comment`` is empty."""
    lines = [f"# {comment}"] if comment else []
    lines += (",".join(map(_cell, cells)) for cells in (header, *rows))
    write_atomic(path, "\n".join(lines) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):  # np.float64 too; first, as the commonest cell and cheapest check
        return "%.17g" % value
    if isinstance(value, str):
        return value
    return ("%d" if isinstance(value, Integral) else "%.17g") % value


def read_csv(path) -> list[list[str]]:
    """The cells of each line of an artifact CSV but the comment and empty lines."""
    return [l.split(",") for l in Path(path).read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")]


def canonical_digest(value) -> str:
    """``"sha256:"`` and the hex sha256 of ``value``'s compact, key-sorted JSON."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def kind_matches(value, default) -> bool:
    """True when ``value`` has the kind of ``default``: int, float, str or list of those.

    Booleans are never numbers here, and an int is a valid float.
    """
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, str):
        return isinstance(value, str)
    return isinstance(value, list) and all(kind_matches(v, default[0]) for v in value)


def leaf_problem(value, default) -> str | None:
    """Why ``value`` may not stand for ``default`` in a JSON file, or None: it must have
    its kind (``kind_matches``), each float in it be finite and each int fit 64 bits."""
    if not kind_matches(value, default):
        return f"does not have the kind of {default!r}"
    kind = default[0] if isinstance(default, list) else default
    items = value if isinstance(value, list) else [value]
    # abs(v) <= max is exact for any int, and false for NaN and the infinities
    if isinstance(kind, float) and not all(abs(v) <= sys.float_info.max for v in items):
        return "is not a finite float"
    if isinstance(kind, int) and not all(-2**63 <= v < 2**63 for v in items):
        return "does not fit a 64-bit integer"
    return None


def require_kinds(owner, *unbounded: str, **kinds) -> None:
    """Raise ``ContractError`` naming the first field of the dataclass ``owner`` whose value,
    a tuple read as a list, ``leaf_problem`` refuses for ``kinds[field]``, or for the field's
    default where ``kinds`` names none. A field in ``unbounded`` need only have the kind.

    The rule a config file's leaves pass, so an owner a library caller builds
    refuses what a config file may not hold.
    """
    for f in fields(owner):
        value = getattr(owner, f.name)
        leaf, kind = list(value) if isinstance(value, tuple) else value, kinds.get(f.name, f.default)
        if f.name in unbounded:
            problem = None if kind_matches(leaf, kind) else f"does not have the kind of {kind!r}"
        else:
            problem = leaf_problem(leaf, kind)
        if problem:
            raise ContractError(f"{f.name} = {value!r} {problem}")


def read_memoized(path, parse):
    """``parse(path, data)`` of the bytes ``data`` stored in ``path``, memoised.

    The memo key is ``(parse, sha256(data))``: the file is read on every
    call, and bytes never parsed before (an edited file, say) always run
    ``parse`` with all its checks. Identical bytes at any path share one
    result. A parse that raises is not stored. Results are shared between
    callers, so ``parse`` must return values nobody mutates; callers copy
    whatever they hand out as mutable.
    """
    data = Path(path).read_bytes()
    key = (parse, hashlib.sha256(data).digest())
    if key in _memo:
        _memo.move_to_end(key)
        return _memo[key]
    value = parse(path, data)
    _memo[key] = value
    if len(_memo) > MEMO_ENTRIES:
        _memo.popitem(last=False)
    return value


def json_object(path, data: bytes, what: str) -> dict:
    """The JSON object encoded in ``data``, the bytes of ``path``, a ``what`` file.

    Bytes that are not JSON (truncated, or not UTF-8) or hold something
    other than an object raise ``ContractError`` naming the file.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ContractError(f"{path} is not a {what} file: {e}") from e
    if not isinstance(payload, dict):
        raise ContractError(f"{path} is not a {what} file: it holds no JSON object")
    return payload


def read_json_object(path, what: str) -> dict:
    """The JSON object stored in ``path``, a ``what`` file (see ``json_object``)."""
    return json_object(path, Path(path).read_bytes(), what)
