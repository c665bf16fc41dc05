"""Crash-safe artifact writes and checked, memoised artifact reads."""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
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


def indented_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=1)``, byte for byte, without its slow path.

    With an indent, ``json`` falls back from its C encoder to pure-Python
    generators; this writes the same layout in one recursive pass, with
    json's own string escaper and float and int spellings. Values other
    than str-keyed dicts, lists, tuples, strings, ints, floats, booleans and
    None go to ``json.dumps`` itself, which formats or rejects them as it
    always did.
    """
    out: list[str] = []
    try:
        _indented(value, "\n", out)
    except _Unsupported:
        return json.dumps(value, sort_keys=True, indent=1)
    return "".join(out)


class _Unsupported(Exception):
    pass


_escape = json.encoder.encode_basestring_ascii
_ESCAPED_ASCII = bytes(range(0x20)) + b'\x7f"\\'  # the ASCII bytes json escapes
_INFINITY = float("inf")


def _string(s: str) -> str:
    # A long ASCII string with nothing to escape, such as a base64 payload, is
    # quoted as it is: checking it takes about a third of the time escaping does.
    if len(s) > 64 and s.isascii():
        data = s.encode("ascii")
        if len(data.translate(None, _ESCAPED_ASCII)) == len(data):
            return '"' + s + '"'
    return _escape(s)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY or x == -_INFINITY:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# Encoders of the leaf types, by exact type; subclasses take the slower
# isinstance route in ``_indented``, with the same result.
_LEAVES = {str: _string, float: _float, int: int.__repr__, bool: lambda b: "true" if b else "false",
           type(None): lambda _: "null"}


def _indented(value, newline: str, out: list) -> None:
    """Append ``value``'s indented JSON to ``out``; ``newline`` ends with the current indent."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        out.append(leaf(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise _Unsupported
        inner = newline + " "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _escape(key) + ": ")
            item = value[key]
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                _indented(item, inner, out)
            else:
                out.append(leaf(item))
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + " "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            leaf = _LEAVES.get(type(item))
            if leaf is None:
                _indented(item, inner, out)
            else:
                out.append(leaf(item))
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float(value))
    else:
        raise _Unsupported


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
