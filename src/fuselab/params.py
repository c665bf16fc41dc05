"""Ordered path-to-tensor containers and their elementwise arithmetic."""

from __future__ import annotations

import hashlib
from typing import Iterator, Mapping, Sequence

import numpy as np

from .autodiff import Tensor
from .errors import ContractError


class ParamTree(Mapping[str, Tensor]):
    """Immutable ordered mapping from parameter path to Tensor.

    Iteration order is lexicographic by path, which fixes the flattening
    order used for gradients, task-vector geometry, and serialization.
    Two trees are congruent when they share the same paths with the same
    per-path shapes; all arithmetic requires congruence.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, Tensor | np.ndarray]):
        store: dict[str, Tensor] = {}
        for path in sorted(entries):
            value = entries[path]
            store[path] = value if isinstance(value, Tensor) else Tensor(value)
        self._entries = store

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def paths(self) -> list[str]:
        return list(self._entries)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {p: t.shape for p, t in self._entries.items()}

    @property
    def num_values(self) -> int:
        return sum(t.size for t in self._entries.values())

    def congruent_with(self, other: "ParamTree") -> bool:
        return self.shapes() == other.shapes()

    def require_congruent(self, other: "ParamTree", what: str = "parameter trees"):
        if not self.congruent_with(other):
            raise ContractError(
                f"{what} are not congruent: {self.shapes()} vs {other.shapes()}"
            )

    def flatten(self) -> np.ndarray:
        """Concatenate all tensors (lexicographic path order, row-major)."""
        if not self._entries:
            return np.zeros(0)
        return np.concatenate([t.values for t in self._entries.values()])

    def layout(self) -> list[tuple[str, int, int, tuple[int, ...]]]:
        """Per-path (path, start, stop, shape) offsets into the flat vector."""
        out = []
        offset = 0
        for path, t in self._entries.items():
            out.append((path, offset, offset + t.size, t.shape))
            offset += t.size
        return out

    def with_flat(self, flat: np.ndarray) -> "ParamTree":
        """Rebuild a congruent tree from a flat vector."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_values,):
            raise ContractError(
                f"flat vector of length {flat.shape} does not match tree size {self.num_values}"
            )
        entries = {}
        for path, start, stop, shape in self.layout():
            entries[path] = Tensor(flat[start:stop], shape=shape)
        return ParamTree(entries)

    def add(self, other: "ParamTree") -> "ParamTree":
        self.require_congruent(other)
        return ParamTree({p: Tensor(t.array + other[p].array) for p, t in self._entries.items()})

    def sub(self, other: "ParamTree") -> "ParamTree":
        self.require_congruent(other)
        return ParamTree({p: Tensor(t.array - other[p].array) for p, t in self._entries.items()})

    def scale(self, factor: float) -> "ParamTree":
        return ParamTree({p: Tensor(t.array * float(factor)) for p, t in self._entries.items()})

    def equal_bits(self, other: "ParamTree") -> bool:
        """True when both trees hold bit-identical values."""
        if self.shapes() != other.shapes():
            return False
        return all(
            np.array_equal(t.array, other[p].array) for p, t in self._entries.items()
        )

    def digest(self) -> str:
        """Content digest over paths, shapes, and little-endian float64 bytes."""
        h = hashlib.sha256()
        for path, t in self._entries.items():
            h.update(path.encode())
            h.update(repr(t.shape).encode())
            h.update(t.array.astype("<f8").tobytes())
        return "sha256:" + h.hexdigest()

    def __repr__(self) -> str:
        return f"ParamTree({len(self._entries)} paths, {self.num_values} values)"


def zeros_like(tree: ParamTree) -> ParamTree:
    return ParamTree({p: Tensor(np.zeros(t.shape)) for p, t in tree.items()})


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
