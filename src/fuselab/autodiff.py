"""Dense float64 tensors with reverse-mode gradients and dual-number JVPs.

Everything here is 64-bit and deterministic: the same inputs produce
bit-identical outputs. Functions passed to :func:`grad`, :func:`vjp`, or
:func:`jvp` receive a traced stand-in for their flat parameter vector and
must be written in terms of the operations exported by this module (the
operators on traced values plus ``tanh``, ``log_softmax``, ``pick_rows``,
``mean_all``, ``slice1d``, ``reshape``, ``transpose2d``). Plain numpy
arrays and scalars mix in freely as constants.

Reverse mode runs a taped backward pass over the recorded graph; forward
mode (``jvp``) carries a (primal, tangent) pair through a single forward
pass and never materializes a Jacobian.

This module is fuselab's public differentiation API and the test oracle
for the network: no runtime path traces the network. Training, merging
and analysis run ``models.Network``, a hand-written forward, JVP and VJP
of the tanh MLP, and ``tests/test_network.py`` checks that it equals this
module's ``jvp`` and ``vjp`` of the same network written in these ops, bit
for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

# A differentiable program: receives a traced flat vector, returns a traced
# scalar (losses) or vector/matrix (logits) built from this module's ops.
TracedFunction = Callable[[object], object]


def _as_array(x) -> Array:
    if isinstance(x, Tensor):
        return x.array
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """Immutable dense tensor of 64-bit floats, stored row-major.

    Construction validates that every value is finite, so NaN/Inf cannot
    propagate silently through public tensor arithmetic.
    """

    __slots__ = ("_a",)
    __array_ufunc__ = None

    def __init__(self, data, shape=None):
        a = np.asarray(data, dtype=np.float64)
        if shape is not None:
            a = a.reshape(tuple(int(s) for s in shape))
        a = np.ascontiguousarray(a)
        if not np.all(np.isfinite(a)):
            raise ContractError("tensor values must be finite (no NaN/Inf)")
        a.setflags(write=False)
        self._a = a

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self._a.shape)

    @property
    def array(self) -> Array:
        """The underlying read-only ndarray."""
        return self._a

    @property
    def values(self) -> Array:
        """Row-major flat view of the values."""
        return self._a.reshape(-1)

    @property
    def size(self) -> int:
        return int(self._a.size)

    def reshape(self, shape) -> "Tensor":
        return Tensor(self._a, shape=shape)

    def tanh(self) -> "Tensor":
        return Tensor(np.tanh(self._a))

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    def __rmatmul__(self, other) -> "Tensor":
        return matmul(other, self)

    def __add__(self, other) -> "Tensor":
        return Tensor(self._a + _as_array(other))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return Tensor(self._a - _as_array(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor(_as_array(other) - self._a)

    def __mul__(self, other) -> "Tensor":
        return Tensor(self._a * _as_array(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return Tensor(-self._a)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Rev:
    """Node in a reverse-mode trace: a value plus its backward rule."""

    __slots__ = ("a", "parents", "backward")
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None):
        self.a = np.asarray(value, dtype=np.float64)
        self.parents = parents
        self.backward = backward

    # operators defined after the op functions below
    def __repr__(self) -> str:
        return f"Rev(shape={self.a.shape})"


class Dual:
    """Forward-mode value: primal and tangent arrays of identical shape."""

    __slots__ = ("p", "t")
    __array_ufunc__ = None

    def __init__(self, primal, tangent):
        self.p = np.asarray(primal, dtype=np.float64)
        self.t = np.asarray(tangent, dtype=np.float64)
        if self.p.shape != self.t.shape:
            raise DimensionError(
                f"primal shape {self.p.shape} does not match tangent shape {self.t.shape}"
            )

    def __repr__(self) -> str:
        return f"Dual(shape={self.p.shape})"


def _value(x) -> Array:
    if isinstance(x, Rev):
        return x.a
    if isinstance(x, Dual):
        return x.p
    return _as_array(x)


def _check_no_mixing(*xs):
    has_rev = any(isinstance(x, Rev) for x in xs)
    has_dual = any(isinstance(x, Dual) for x in xs)
    if has_rev and has_dual:
        raise ContractError("cannot mix reverse-mode and forward-mode traces")


def _check_addable(sa: tuple, sb: tuple):
    if sa == sb or sa == () or sb == ():
        return
    # bias-add over the batch dimension is the only broadcast allowed
    if len(sa) == 2 and sb == (sa[1],):
        return
    if len(sb) == 2 and sa == (sb[1],):
        return
    raise DimensionError(f"cannot add shapes {sa} and {sb}")


def _reduce_to(g: Array, shape: tuple) -> Array:
    """Sum a gradient back down to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    if len(shape) == 1 and g.ndim == 2 and g.shape[1] == shape[0]:
        return g.sum(axis=0)
    raise DimensionError(f"cannot reduce gradient of shape {g.shape} to {shape}")


def _rev_node(value, traced_parents, backward) -> Rev:
    return Rev(value, parents=tuple(traced_parents), backward=backward)


def add(a, b):
    _check_no_mixing(a, b)
    va, vb = _value(a), _value(b)
    _check_addable(va.shape, vb.shape)
    if isinstance(a, Rev) or isinstance(b, Rev):
        parents = [x for x in (a, b) if isinstance(x, Rev)]

        def backward(g):
            out = []
            if isinstance(a, Rev):
                out.append(_reduce_to(g, va.shape))
            if isinstance(b, Rev):
                out.append(_reduce_to(g, vb.shape))
            return out

        return _rev_node(va + vb, parents, backward)
    if isinstance(a, Dual) or isinstance(b, Dual):
        ta = a.t if isinstance(a, Dual) else 0.0
        tb = b.t if isinstance(b, Dual) else 0.0
        return Dual(va + vb, np.broadcast_to(ta + tb, (va + vb).shape).copy())
    return va + vb


def sub(a, b):
    return add(a, mul(b, -1.0))


def mul(a, b):
    """Elementwise product; operands must match shapes or one must be scalar."""
    _check_no_mixing(a, b)
    va, vb = _value(a), _value(b)
    if va.shape != vb.shape and va.shape != () and vb.shape != ():
        raise DimensionError(f"cannot multiply shapes {va.shape} and {vb.shape} elementwise")
    if isinstance(a, Rev) or isinstance(b, Rev):
        parents = [x for x in (a, b) if isinstance(x, Rev)]

        def backward(g):
            out = []
            if isinstance(a, Rev):
                out.append(_reduce_to(g * vb, va.shape))
            if isinstance(b, Rev):
                out.append(_reduce_to(g * va, vb.shape))
            return out

        return _rev_node(va * vb, parents, backward)
    if isinstance(a, Dual) or isinstance(b, Dual):
        ta = a.t if isinstance(a, Dual) else np.float64(0.0)
        tb = b.t if isinstance(b, Dual) else np.float64(0.0)
        return Dual(va * vb, ta * vb + va * tb)
    return va * vb


def neg(a):
    return mul(a, -1.0)


def matmul(a, b):
    """Matrix product of two rank-2 operands (or public Tensors)."""
    _check_no_mixing(a, b)
    if not isinstance(a, (Rev, Dual)) and not isinstance(b, (Rev, Dual)):
        va, vb = _as_array(a), _as_array(b)
        _check_matmul_shapes(va.shape, vb.shape)
        out = va @ vb
        if isinstance(a, Tensor) or isinstance(b, Tensor):
            return Tensor(out)
        return out
    va, vb = _value(a), _value(b)
    _check_matmul_shapes(va.shape, vb.shape)
    if isinstance(a, Rev) or isinstance(b, Rev):
        parents = [x for x in (a, b) if isinstance(x, Rev)]

        def backward(g):
            out = []
            if isinstance(a, Rev):
                out.append(g @ vb.T)
            if isinstance(b, Rev):
                out.append(va.T @ g)
            return out

        return _rev_node(va @ vb, parents, backward)
    ta = a.t if isinstance(a, Dual) else None
    tb = b.t if isinstance(b, Dual) else None
    t = np.zeros_like(va @ vb)
    if ta is not None:
        t = t + ta @ vb
    if tb is not None:
        t = t + va @ tb
    return Dual(va @ vb, t)


def _check_matmul_shapes(sa: tuple, sb: tuple):
    if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
        raise DimensionError(f"cannot matrix-multiply shapes {sa} and {sb}")


def tanh(x):
    if isinstance(x, Rev):
        t = np.tanh(x.a)

        def backward(g):
            return [g * (1.0 - t * t)]

        return _rev_node(t, [x], backward)
    if isinstance(x, Dual):
        t = np.tanh(x.p)
        return Dual(t, (1.0 - t * t) * x.t)
    if isinstance(x, Tensor):
        return x.tanh()
    return np.tanh(_as_array(x))


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if isinstance(x, Rev):
        orig = x.a.shape

        def backward(g):
            return [g.reshape(orig)]

        return _rev_node(x.a.reshape(shape), [x], backward)
    if isinstance(x, Dual):
        return Dual(x.p.reshape(shape), x.t.reshape(shape))
    return _as_array(x).reshape(shape)


def transpose2d(x):
    v = _value(x)
    if v.ndim != 2:
        raise DimensionError(f"transpose2d requires a rank-2 operand, got shape {v.shape}")
    if isinstance(x, Rev):

        def backward(g):
            return [g.T]

        return _rev_node(x.a.T, [x], backward)
    if isinstance(x, Dual):
        return Dual(x.p.T, x.t.T)
    return v.T


def slice1d(x, start: int, stop: int):
    """Contiguous slice of a flat vector."""
    v = _value(x)
    if v.ndim != 1:
        raise DimensionError(f"slice1d requires a rank-1 operand, got shape {v.shape}")
    if not (0 <= start <= stop <= v.shape[0]):
        raise DimensionError(f"slice [{start}:{stop}] out of range for length {v.shape[0]}")
    if isinstance(x, Rev):
        n = v.shape[0]

        def backward(g):
            z = np.zeros(n)
            z[start:stop] = g
            return [z]

        return _rev_node(x.a[start:stop], [x], backward)
    if isinstance(x, Dual):
        return Dual(x.p[start:stop], x.t[start:stop])
    return v[start:stop]


def log_softmax(x):
    """Row-wise log-softmax of a rank-2 operand, numerically stable."""
    v = _value(x)
    if v.ndim != 2:
        raise DimensionError(f"log_softmax requires a rank-2 operand, got shape {v.shape}")
    shifted = v - v.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    if isinstance(x, Rev):
        sm = np.exp(out)

        def backward(g):
            return [g - sm * g.sum(axis=1, keepdims=True)]

        return _rev_node(out, [x], backward)
    if isinstance(x, Dual):
        sm = np.exp(out)
        return Dual(out, x.t - (sm * x.t).sum(axis=1, keepdims=True))
    return out


def pick_rows(x, indices):
    """Select one entry per row: out[i] = x[i, indices[i]]."""
    v = _value(x)
    idx = np.asarray(indices, dtype=np.int64)
    if v.ndim != 2 or idx.ndim != 1 or idx.shape[0] != v.shape[0]:
        raise DimensionError(
            f"pick_rows requires rank-2 input and one index per row, got {v.shape} and {idx.shape}"
        )
    if np.any(idx < 0) or np.any(idx >= v.shape[1]):
        raise ContractError("pick_rows index out of range")
    rows = np.arange(v.shape[0])
    if isinstance(x, Rev):
        shape = v.shape

        def backward(g):
            z = np.zeros(shape)
            z[rows, idx] = g
            return [z]

        return _rev_node(x.a[rows, idx], [x], backward)
    if isinstance(x, Dual):
        return Dual(x.p[rows, idx], x.t[rows, idx])
    return v[rows, idx]


def mean_all(x):
    """Mean over every element, producing a scalar."""
    v = _value(x)
    if isinstance(x, Rev):
        shape, size = v.shape, v.size

        def backward(g):
            return [np.full(shape, g / size)]

        return _rev_node(v.mean(), [x], backward)
    if isinstance(x, Dual):
        return Dual(x.p.mean(), x.t.mean())
    return v.mean()


def _install_operators(cls):
    cls.__add__ = lambda self, other: add(self, other)
    cls.__radd__ = lambda self, other: add(other, self)
    cls.__sub__ = lambda self, other: sub(self, other)
    cls.__rsub__ = lambda self, other: sub(other, self)
    cls.__mul__ = lambda self, other: mul(self, other)
    cls.__rmul__ = lambda self, other: mul(other, self)
    cls.__neg__ = lambda self: neg(self)
    cls.__matmul__ = lambda self, other: matmul(self, other)
    cls.__rmatmul__ = lambda self, other: matmul(other, self)


_install_operators(Rev)
_install_operators(Dual)


def _topo_order(root: Rev) -> list[Rev]:
    order: list[Rev] = []
    seen: set[int] = set()
    stack: list[tuple[Rev, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede children


def _backprop(root: Rev, seed: Array) -> dict[int, Array]:
    grads: dict[int, Array] = {id(root): np.asarray(seed, dtype=np.float64)}
    for node in reversed(_topo_order(root)):
        g = grads.get(id(node))
        if g is None or node.backward is None:
            continue
        for parent, contrib in zip(node.parents, node.backward(g)):
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + contrib
            else:
                grads[pid] = contrib
    return grads


def grad(f: TracedFunction, p) -> Array:
    """Gradient of a scalar-valued function at the flat parameter vector p."""
    p = _as_array(p)
    leaf = Rev(p.copy())
    out = f(leaf)
    if not isinstance(out, Rev):
        # f never touched its argument: constant function, zero gradient
        if _as_array(out).shape != ():
            raise ContractError("grad requires a scalar-valued function")
        return np.zeros_like(p)
    if out.a.shape != ():
        raise ContractError(
            f"grad requires a scalar-valued function, got output shape {out.a.shape}"
        )
    grads = _backprop(out, np.float64(1.0))
    g = grads.get(id(leaf))
    if g is None:
        return np.zeros_like(p)
    return np.array(g, dtype=np.float64)


def vjp(f: TracedFunction, p, cotangent) -> Array:
    """Vector-Jacobian product: J_f(p)^T · cotangent, via one reverse pass."""
    p = _as_array(p)
    ct = _as_array(cotangent)
    leaf = Rev(p.copy())
    out = f(leaf)
    if not isinstance(out, Rev):
        if _as_array(out).shape != ct.shape:
            raise DimensionError(
                f"cotangent shape {ct.shape} does not match output shape {_as_array(out).shape}"
            )
        return np.zeros_like(p)
    if out.a.shape != ct.shape:
        raise DimensionError(
            f"cotangent shape {ct.shape} does not match output shape {out.a.shape}"
        )
    grads = _backprop(out, ct)
    g = grads.get(id(leaf))
    if g is None:
        return np.zeros_like(p)
    return np.array(g, dtype=np.float64)


def jvp(f: TracedFunction, p0, d) -> tuple[Array, Array]:
    """Value and Jacobian-vector product of f at p0 in direction d.

    Both come out of a single dual-number forward pass; no Jacobian is
    ever materialized.
    """
    p0 = _as_array(p0)
    d = _as_array(d)
    if p0.shape != d.shape:
        raise DimensionError(
            f"direction shape {d.shape} does not match parameter shape {p0.shape}"
        )
    out = f(Dual(p0.copy(), d.copy()))
    if isinstance(out, Dual):
        return np.array(out.p), np.array(out.t)
    val = _as_array(out)
    return np.array(val), np.zeros_like(val)
