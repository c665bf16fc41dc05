"""MLP classifier zoo covering the four fine-tuning paradigms.

The backbone is a tanh MLP. Adapters follow the standard low-rank recipe:
each linear layer's effective weight is W0 + (alpha/r) * B @ A with A of
shape (r, in) and B of shape (out, r). The two linearized paradigms
replace the network with its first-order Taylor expansion around the
trainable parameters' initial values (a tangent model): for the partially
linearized adapter mode the expansion is over adapter parameters only and
the frozen backbone stays exactly nonlinear.

``Network`` is the one hand-written kernel of the network: forward, JVP and
VJP. ``Scorer`` is the one route from parameters to a paradigm's logits and
their gradient, and the only code that builds a ``Network`` or chooses
between the tangent model and the network.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum

import numpy as np

from .errors import ContractError, DimensionError
from .files import kind_matches, require_kinds
from .params import ParamTree, combine


class ModeTag(str, Enum):
    """Fine-tuning paradigm."""

    FULL_FT = "full_ft"          # update all backbone weights, nonlinear
    FULL_LINEAR = "full_linear"  # tangent model over all backbone weights
    LORA = "lora"                # low-rank adapters, nonlinear
    LLORA = "l_lora"             # low-rank adapters trained in tangent space

    @property
    def is_peft(self) -> bool:
        return self in (ModeTag.LORA, ModeTag.LLORA)

    @property
    def is_linearized(self) -> bool:
        return self in (ModeTag.FULL_LINEAR, ModeTag.LLORA)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture plus fine-tuning paradigm."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    lora_rank: int = 2
    lora_alpha: float = 2.0
    mode: ModeTag = ModeTag.LORA

    def __post_init__(self):
        require_kinds(self, input_dim=0, hidden_dims=[0], num_classes=0)
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        object.__setattr__(self, "mode", ModeTag(self.mode))
        if self.input_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ContractError("layer dimensions must be positive")
        if self.num_classes < 2:
            raise ContractError("num_classes must be at least 2")
        if self.lora_rank < 1 or not 0 < self.lora_alpha < math.inf:
            raise ContractError("lora_rank must be positive and lora_alpha finite and > 0")
        if self.mode.is_peft:
            for din, dout in self.layer_dims():
                if self.lora_rank > min(din, dout):
                    raise ContractError(
                        f"lora_rank {self.lora_rank} exceeds layer dims ({din}, {dout})"
                    )

    def layer_dims(self) -> list[tuple[int, int]]:
        """(in_features, out_features) for each linear layer."""
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def with_mode(self, mode: ModeTag) -> "ModelSpec":
        return replace(self, mode=mode)  # __post_init__ makes it a ModeTag

    def backbone_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes = {}
        for i, (din, dout) in enumerate(self.layer_dims()):
            shapes[f"layers.{i}.weight"] = (dout, din)
            shapes[f"layers.{i}.bias"] = (dout,)
        return shapes

    def adapter_shapes(self) -> dict[str, tuple[int, ...]]:
        shapes = {}
        r = self.lora_rank
        for i, (din, dout) in enumerate(self.layer_dims()):
            shapes[f"layers.{i}.lora_a"] = (r, din)
            shapes[f"layers.{i}.lora_b"] = (dout, r)
        return shapes

    def trainable_shapes(self) -> dict[str, tuple[int, ...]]:
        return self.adapter_shapes() if self.mode.is_peft else self.backbone_shapes()

    def to_dict(self) -> dict:
        """Each field by name, as JSON: a tuple as a list and the mode as its value."""
        return {k: list(v) if isinstance(v, tuple) else v.value if isinstance(v, Enum) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d) -> "ModelSpec":
        """The spec whose ``to_dict`` is ``d``; ``ContractError`` unless ``d`` holds exactly
        the fields, each of its kind (``__post_init__``), mode a ``ModeTag``."""
        if not isinstance(d, dict):
            raise ContractError(f"spec {d!r} is not a JSON object")
        wrong = sorted(set(d) ^ {f.name for f in fields(cls)})
        if wrong:
            raise ContractError(f"spec fields {wrong} are missing or unknown")
        return cls(**d)


def build_model(spec: ModelSpec, seed: int) -> tuple[ParamTree, ParamTree]:
    """Seeded initialization: returns (backbone theta0, initial trainable tree).

    Backbone weights are Gaussian with std 1/sqrt(fan_in), biases zero.
    All backbone draws happen before adapter draws, so every mode built
    from the same seed shares a bit-identical backbone. Adapter A matrices
    are Gaussian(0, 0.02); B matrices start at zero, which makes a freshly
    adapted model equal to its backbone. This is the one source of the
    initial point: the last 128 ``(spec, seed)`` pairs are memoised, so
    equal calls return the same two read-only trees. A seed that is not a
    non-negative int (``files.kind_matches``) raises ``ContractError``.
    """
    if not (kind_matches(seed, 0) and seed >= 0):
        raise ContractError(f"seed = {seed!r} is not a non-negative int")
    return _initial_point(spec, seed)


@functools.lru_cache(maxsize=128)
def _initial_point(spec: ModelSpec, seed: int) -> tuple[ParamTree, ParamTree]:
    rng = np.random.default_rng(seed)
    backbone: dict[str, np.ndarray] = {}
    for i, (din, dout) in enumerate(spec.layer_dims()):
        backbone[f"layers.{i}.weight"] = rng.standard_normal((dout, din)) / np.sqrt(din)
        backbone[f"layers.{i}.bias"] = np.zeros(dout)
    theta0 = ParamTree(backbone)
    if not spec.mode.is_peft:
        return theta0, theta0
    adapters: dict[str, np.ndarray] = {}
    r = spec.lora_rank
    for i, (din, dout) in enumerate(spec.layer_dims()):
        adapters[f"layers.{i}.lora_a"] = 0.02 * rng.standard_normal((r, din))
        adapters[f"layers.{i}.lora_b"] = np.zeros((dout, r))
    return theta0, ParamTree(adapters)


def require_trees(spec: ModelSpec, theta0: ParamTree, *trainable: ParamTree):
    """Raise ContractError unless ``theta0`` is the spec's backbone and each
    ``trainable`` tree the paradigm's trainable set."""
    if theta0.shapes() != spec.backbone_shapes():
        raise ContractError("backbone tree does not match the architecture")
    expected = spec.trainable_shapes()
    for tree in trainable:
        if tree.shapes() != expected:
            raise ContractError(
                f"trainable tree does not match the {spec.mode.value} trainable set: "
                f"{tree.shapes()} vs {expected}"
            )


class Network:
    """The spec's tanh MLP as a function of a flat trainable vector and input rows.

    The flat vectors are laid out like ``template``. One hand-written
    kernel, built once per (spec, θ₀, layout), with three methods:
    ``activations(flat, x)`` on the rows ``x``, and ``jvp(anchor, d, acts)
    -> (f(anchor), J(anchor)·d)`` and ``vjp(point, ct, acts) -> J(point)ᵀ·ct``
    on the rows of ``acts``, the activations at their point. Adapter
    paradigms run the frozen backbone with ``W₀ + (α/r)·B·A`` per layer.
    Each method repeats the numpy operations of the same network written in
    ``autodiff`` ops and traced, in their order and on operands of the same
    layouts, so it equals that traced program's forward, ``autodiff.jvp`` and
    ``autodiff.vjp`` bit for bit (``tests/test_network.py`` holds the
    traced program and checks this). The ``+ 0.0`` and ``· 0.0`` terms
    exist only for that: the traced JVP starts every matmul tangent from a
    zero accumulator and gives frozen operands a zero tangent, and the
    traced VJP sums zero-padded per-path gradients. A ``+ 0.0`` turns a
    ``-0.0`` into ``+0.0``; ``BA·0.0`` is NaN where ``B·A`` overflowed.
    """

    def __init__(self, spec: ModelSpec, theta0: ParamTree, template: ParamTree):
        spans = {path: (start, stop, shape) for path, start, stop, shape in template.layout()}
        self.size = template.num_values
        self.peft = spec.mode.is_peft
        self.scale = spec.lora_alpha / spec.lora_rank
        first, second = ("lora_b", "lora_a") if self.peft else ("weight", "bias")
        w0 = theta0.flatten()
        frozen = {path: w0[start:stop].reshape(shape) for path, start, stop, shape in theta0.layout()}
        # Per layer: the flat spans of (B, A) or (W, b), and the frozen (W₀, b₀).
        self.layers = [
            (spans[f"layers.{i}.{first}"], spans[f"layers.{i}.{second}"],
             frozen[f"layers.{i}.weight"], frozen[f"layers.{i}.bias"])
            for i in range(len(spec.layer_dims()))
        ]

    def _parts(self, flat: np.ndarray, i: int):
        (s0, e0, shape0), (s1, e1, shape1), _, _ = self.layers[i]
        return flat[s0:e0].reshape(shape0), flat[s1:e1].reshape(shape1)

    def _weights(self, flat: np.ndarray, i: int):
        """Layer ``i``'s effective ``(W, b)`` at ``flat``."""
        p, q = self._parts(flat, i)
        if self.peft:
            w0, b0 = self.layers[i][2:]
            return w0 + (p @ q) * self.scale, b0
        return p, q

    def activations(self, flat: np.ndarray, x: np.ndarray):
        """``(logits, inputs, weights)`` at ``flat`` on the rows ``x``: the
        network's output, and each layer's input and effective weight
        matrix. ``jvp`` and ``vjp`` at ``flat`` take them as ``acts``."""
        inputs, weights = [], []
        h = x
        last = len(self.layers) - 1
        for i in range(len(self.layers)):
            w, b = self._weights(flat, i)
            inputs.append(h)
            weights.append(w)
            z = h @ w.T + b
            h = z if i == last else np.tanh(z)
        return h, inputs, weights

    def jvp(self, anchor: np.ndarray, d: np.ndarray, acts) -> tuple[np.ndarray, np.ndarray]:
        if d.shape != anchor.shape:
            raise DimensionError(
                f"direction shape {d.shape} does not match parameter shape {anchor.shape}"
            )
        out, inputs, weights = acts
        t = None
        last = len(self.layers) - 1
        for i in range(len(self.layers)):
            dp, dq = self._parts(d, i)
            if self.peft:
                # traced rules: matmul tangent 0 + dB·A + B·dA, scale tangent
                # dBA·s + BA·0, frozen W₀ and b₀ tangents 0
                p, q = self._parts(anchor, i)
                ba = p @ q
                dba = (dp @ q + 0.0) + p @ dq
                dw = 0.0 + (dba * self.scale + ba * 0.0)
                db = 0.0
            else:
                dw, db = dp, dq
            acc = 0.0 if t is None else t @ weights[i].T + 0.0  # the traced matmul's zero accumulator
            t = (acc + inputs[i] @ dw.T) + db
            if i != last:
                h = inputs[i + 1]
                t = (1.0 - h * h) * t
        return out, t

    def vjp(self, point: np.ndarray, ct, acts) -> np.ndarray:
        ct = np.asarray(ct, dtype=np.float64)
        out, inputs, weights = acts
        if ct.shape != out.shape:
            raise DimensionError(f"cotangent shape {ct.shape} does not match output shape {out.shape}")
        grad = np.zeros(self.size)
        g = ct
        for i in range(len(self.layers) - 1, -1, -1):
            (s0, e0, _), (s1, e1, _), _, _ = self.layers[i]
            h = inputs[i]
            gw = (h.T @ g).T
            if self.peft:
                p, q = self._parts(point, i)
                gd = gw * self.scale
                grad[s0:e0] = (gd @ q.T).reshape(-1)
                grad[s1:e1] = (p.T @ gd).reshape(-1)
            else:
                grad[s0:e0] = gw.reshape(-1)
                grad[s1:e1] = g.sum(axis=0)
            if i:
                g = (g @ weights[i]) * (1.0 - h * h)
        return grad + 0.0


class Scorer:
    """A paradigm's logits on the input rows ``x`` as a function of flat trainable vectors.

    The one definition of "logits for this paradigm at these parameters":
    linearized paradigms evaluate the tangent model
    ``f(anchor) + J(anchor)·(flat − anchor)``, the others the network
    ``f(flat)``. It checks ``theta0`` and ``anchor`` against the spec and
    ``x``'s width, and builds the ``Network`` once, for the anchor's
    layout. A linearized scorer runs the network at the anchor once in its
    lifetime and keeps those activations for every route. Two routes:

    - ``at(flat)``, for training and evaluation, returns
      ``(logits, pullback)``; ``pullback(dloss/dlogits)`` is the gradient of
      any loss of the logits: the VJP at the expansion point (the anchor or
      ``flat``), reusing the forward activations. It checks nothing for
      finiteness.
    - ``candidates(flats, directions, weights)``, for merge scoring, returns
      the logits of a stack of C candidates, shape ``(C, rows, classes)``.
      Candidate ``c`` is ``flats[c] = anchor + Σ wᵢ·dᵢ`` over
      ``weights[c]`` and the list of vectors ``directions[c]``. Nonlinear
      paradigms run the network at each flat; linearized ones form each
      candidate as ``combine(f(anchor), [J·dᵢ], w)``, with ``J·d`` cached
      under ``d``'s bytes, so each distinct vector's JVP is taken once
      until ``release`` drops it. Any non-finite flat raises
      ``ContractError`` before anything is scored; non-finite logits raise
      it too. A one-row batch serves a sequential search: a candidate has
      the same bits in any batch.

    ``release(vectors)`` drops the cached JVPs of vectors no later call
    will score; one that comes back is recomputed, with the same bits.
    ``jacobian()`` gives the explicit per-row output Jacobian at the anchor.
    ``on(x)`` is the same scorer on the rows ``x``, with empty caches,
    without checking the trees or building the ``Network`` again.
    """

    def __init__(self, spec: ModelSpec, theta0: ParamTree, anchor: ParamTree, x):
        require_trees(spec, theta0, anchor)
        self.spec, self.template = spec, anchor
        self.net = Network(spec, theta0, anchor)
        self.anchor = anchor.flatten()
        self.linearized = spec.mode.is_linearized
        self._take(x)

    def _take(self, x) -> "Scorer":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise ContractError(f"input batch must have shape (batch, {self.spec.input_dim})")
        self.x, self._acts, self._jds = x, None, {}
        return self

    def on(self, x) -> "Scorer":
        return copy.copy(self)._take(x)

    def _anchor_acts(self):
        if self._acts is None:
            self._acts = self.net.activations(self.anchor, self.x)
        return self._acts

    def _jvp(self, d: np.ndarray, acts) -> np.ndarray:
        """``J(anchor)·d``; the one place the network's JVP is taken."""
        return self.net.jvp(self.anchor, d, acts)[1]

    def _cached_jvp(self, d: np.ndarray) -> np.ndarray:
        """``J(anchor)·d``, keyed by ``d``'s bytes: equal keys are bit-identical vectors."""
        key = d.tobytes()
        if key not in self._jds:
            self._jds[key] = self._jvp(d, self._anchor_acts())
        return self._jds[key]

    def release(self, vectors) -> None:
        for d in vectors:
            self._jds.pop(d.tobytes(), None)

    def at(self, flat: np.ndarray):
        if self.linearized:
            acts = self._anchor_acts()
            logits = combine(acts[0], [self._jvp(flat - self.anchor, acts)], [1.0])
            return logits, lambda ct: self.net.vjp(self.anchor, ct, acts)
        acts = self.net.activations(flat, self.x)
        return acts[0], lambda ct: self.net.vjp(flat, ct, acts)

    def candidates(self, flats, directions, weights) -> np.ndarray:
        flats = np.asarray(flats, dtype=np.float64)
        if not np.isfinite(flats).all():
            raise ContractError("candidate parameters must be finite")
        out = np.empty((len(flats), self.x.shape[0], self.spec.num_classes))
        if self.linearized:
            f0 = self._anchor_acts()[0]
            for c in range(len(flats)):
                out[c] = combine(f0, [self._cached_jvp(d) for d in directions[c]], weights[c])
        else:
            for c, flat in enumerate(flats):
                out[c] = self.net.activations(flat, self.x)[0]
        if not np.isfinite(out).all():
            raise ContractError("candidate logits must be finite")
        return out

    def jacobian(self) -> np.ndarray:
        """``J(anchor)`` per input row, shape ``(rows, num_classes, P)``.

        Entry ``[i, c]`` is the VJP at the anchor of the one-hot cotangent
        of class ``c``, through the network on row ``i`` alone.
        """
        x, one_hot = self.x, np.eye(self.spec.num_classes)
        jac = np.zeros((x.shape[0], len(one_hot), self.anchor.size))
        for i in range(x.shape[0]):
            acts = self.net.activations(self.anchor, x[i : i + 1])
            for c in range(len(one_hot)):
                jac[i, c] = self.net.vjp(self.anchor, one_hot[c : c + 1], acts)
        return jac


def predict_logits(spec: ModelSpec, theta0: ParamTree, anchor: ParamTree, trainable: ParamTree, x) -> np.ndarray:
    """The paradigm's logits at ``trainable`` expanded about ``anchor`` (``Scorer.at``)."""
    require_trees(spec, theta0, trainable)
    return Scorer(spec, theta0, anchor, x).at(trainable.flatten())[0]


def forward(spec: ModelSpec, theta0: ParamTree, trainable: ParamTree, x) -> np.ndarray:
    """The network's logits at ``trainable`` under the spec's paradigm.

    Expanded about itself, a tangent model is the network, so this is
    ``predict_logits`` with ``trainable`` as its own anchor.
    """
    return predict_logits(spec, theta0, trainable, trainable, x)


def forward_linearized(spec: ModelSpec, theta0: ParamTree, anchor: ParamTree, trainable: ParamTree, x) -> np.ndarray:
    """Tangent-model forward: f(x; anchor) plus the JVP in direction trainable - anchor.

    For the adapter paradigm the Taylor expansion covers adapter parameters
    only; the backbone enters as a frozen constant.
    """
    if not spec.mode.is_linearized:
        raise ContractError(f"mode {spec.mode.value} is not a linearized paradigm")
    return predict_logits(spec, theta0, anchor, trainable, x)
