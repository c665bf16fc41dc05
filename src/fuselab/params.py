"""Ordered path-to-array containers stored as one flat vector, and their arithmetic."""

from __future__ import annotations

import hashlib
import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ContractError


class ParamTree(Mapping[str, np.ndarray]):
    """Immutable ordered mapping from parameter path to array, stored flat.

    One read-only float64 vector holds the paths in lexicographic order,
    each row-major, which fixes the flattening used for gradients,
    task-vector geometry and serialization. Trees derived from one another
    share one ``(path, start, stop, shape)`` layout. Two trees are
    congruent when they share the same paths with the same per-path shapes;
    all arithmetic requires congruence. The constructor takes int or float
    arrays, or nested lists of numbers of one shape. Every construction
    checks once that all values are finite; a value it cannot take raises
    ``ContractError`` naming its path. ``tree[path]`` is a read-only view of
    the flat vector, shaped as the path's array.
    """

    __slots__ = ("_flat", "_layout", "_spans")

    def __init__(self, entries: Mapping[str, np.ndarray]):
        arrays = {path: _float_array(path, v) for path, v in sorted(entries.items())}
        flat = np.concatenate([a.reshape(-1) for a in arrays.values()]) if arrays else np.zeros(0)
        self._set(flat, *_layout_of({p: a.shape for p, a in arrays.items()}))

    def _set(self, flat: np.ndarray, layout, spans) -> "ParamTree":
        size = layout[-1][2] if layout else 0
        if flat.shape != (size,):
            raise ContractError(f"flat vector of length {flat.shape} does not match tree size {size}")
        if not np.isfinite(flat).all():
            path = next(p for p, start, stop, _ in layout if not np.isfinite(flat[start:stop]).all())
            raise ContractError(f"parameter {path!r} holds a NaN or Inf: tree values must be finite")
        flat.setflags(write=False)
        self._flat, self._layout, self._spans = flat, layout, spans
        return self

    def _like(self, flat: np.ndarray) -> "ParamTree":
        """A tree with this tree's layout over ``flat``, a float64 vector it keeps."""
        return ParamTree.__new__(ParamTree)._set(flat, self._layout, self._spans)

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: Mapping[str, tuple[int, ...]]) -> "ParamTree":
        """The tree laid out as ``shapes`` over ``flat``, kept uncopied: pass a vector nothing else writes."""
        return cls.__new__(cls)._set(flat, *_layout_of(shapes))

    def __getitem__(self, path: str) -> np.ndarray:
        start, stop, shape = self._spans[path]
        return self._flat[start:stop].reshape(shape)

    def __iter__(self) -> Iterator[str]:
        return iter(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {path: shape for path, _, _, shape in self._layout}

    @property
    def num_values(self) -> int:
        return self._flat.size

    def congruent_with(self, other: "ParamTree") -> bool:
        return self._layout == other._layout

    def require_congruent(self, other: "ParamTree", what: str = "parameter trees"):
        if not self.congruent_with(other):
            raise ContractError(f"{what} are not congruent: {self.shapes()} vs {other.shapes()}")

    def flatten(self) -> np.ndarray:
        """The stored read-only vector (lexicographic path order, row-major)."""
        return self._flat

    def layout(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """Per-path (path, start, stop, shape) offsets into the flat vector."""
        return self._layout

    def with_flat(self, flat: np.ndarray) -> "ParamTree":
        """A congruent tree holding a copy of the flat vector ``flat``."""
        return self._like(np.array(flat, dtype=np.float64))

    def sub(self, other: "ParamTree") -> "ParamTree":
        self.require_congruent(other)
        return self._like(self._flat - other._flat)

    def equal_bits(self, other: "ParamTree") -> bool:
        """True when both trees hold bit-identical values."""
        return self.congruent_with(other) and np.array_equal(self._flat, other._flat)

    def __eq__(self, other) -> bool:
        """Equal layouts and equal values; ``Mapping``'s per-path comparison
        would compare arrays, whose ``==`` is elementwise."""
        if not isinstance(other, ParamTree):
            return NotImplemented
        return self.equal_bits(other)

    __hash__ = None  # value equality without a value hash: trees are not dict keys or set members

    def digest(self) -> str:
        """Content digest over paths, shapes, and little-endian float64 bytes."""
        h = hashlib.sha256()
        flat = self._flat.astype("<f8", copy=False)
        for path, start, stop, shape in self._layout:
            h.update(path.encode())
            h.update(repr(shape).encode())
            h.update(flat[start:stop].tobytes())
        return "sha256:" + h.hexdigest()

    def __repr__(self) -> str:
        return f"ParamTree({len(self)} paths, {self.num_values} values)"


def _float_array(path: str, value) -> np.ndarray:
    """``value`` as a contiguous float64 array, a 0-d value shaped (1,)."""
    try:
        array = np.asarray(value)
    except ValueError as e:  # a ragged nesting
        raise ContractError(f"parameter {path!r} is not an array of numbers: {e}") from e
    if array.dtype.kind not in "iuf":  # bools, strings, None and other objects
        raise ContractError(f"parameter {path!r} is not an array of numbers: "
                            f"a {type(value).__name__} of dtype {array.dtype}")
    return np.ascontiguousarray(array, dtype=np.float64)


def _layout_of(shapes: Mapping[str, tuple[int, ...]]):
    """``(layout, spans)`` of ``shapes`` laid out in lexicographic path order."""
    layout, offset = [], 0
    for path in sorted(shapes):
        shape = tuple(int(s) for s in shapes[path])
        size = math.prod(shape)
        layout.append((path, offset, offset + size, shape))
        offset += size
    return tuple(layout), {path: (start, stop, shape) for path, start, stop, shape in layout}


def combine(base: np.ndarray, deltas: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """base + Σ wᵢ·δᵢ over flat float64 vectors, the one weighted-sum route.

    Terms accumulate left to right in the order given, each as
    ``acc + float(w) * delta``, so a caller fixes the float summation order
    by how it orders ``deltas`` (fusion sorts by task id). Callers check
    tree congruence where they flatten.
    """
    if len(deltas) != len(weights):
        raise ContractError(f"{len(deltas)} deltas but {len(weights)} weights")
    acc = np.asarray(base, dtype=np.float64)
    for delta, w in zip(deltas, weights):
        acc = acc + float(w) * delta
    return acc
