"""The hand-written network kernel against the same network traced by autodiff.

``traced_program`` is the network written in ``autodiff`` ops, exactly as
fuselab ran it before the kernel existed. The kernel repeats its numpy
operations in the same order on operands of the same layouts, so its
forward, JVP and VJP must equal the traced ones bit for bit, not within a
tolerance.
"""

import numpy as np
import pytest

from fuselab import autodiff as ad
from fuselab.errors import DimensionError
from fuselab.models import ModeTag, ModelSpec, Network, build_model
from fuselab.params import ParamTree

MODES = list(ModeTag)
BATCHES = (1, 32, 256)


def traced_program(spec: ModelSpec, theta0: ParamTree, x: np.ndarray, template: ParamTree):
    """f(flat trainable vector) -> logits, written in autodiff ops."""
    layout = template.layout()
    peft = spec.mode.is_peft
    scale = spec.lora_alpha / spec.lora_rank
    layer_dims = spec.layer_dims()

    def f(flat):
        parts = {
            path: ad.reshape(ad.slice1d(flat, start, stop), shape)
            for path, start, stop, shape in layout
        }
        h = x
        last = len(layer_dims) - 1
        for i in range(len(layer_dims)):
            if peft:
                w0 = theta0[f"layers.{i}.weight"]
                b0 = theta0[f"layers.{i}.bias"]
                delta = ad.mul(ad.matmul(parts[f"layers.{i}.lora_b"], parts[f"layers.{i}.lora_a"]), scale)
                w_eff = ad.add(w0, delta)
                z = ad.add(ad.matmul(h, ad.transpose2d(w_eff)), b0)
            else:
                z = ad.add(
                    ad.matmul(h, ad.transpose2d(parts[f"layers.{i}.weight"])),
                    parts[f"layers.{i}.bias"],
                )
            h = z if i == last else ad.tanh(z)
        return h

    return f


def setup(mode: ModeTag, batch: int, seed: int = 0):
    """Spec, backbone, a trained-looking point (lora_b ≠ 0), a direction and inputs."""
    spec = ModelSpec(16, (32, 32), 3, mode=mode)
    theta0, init = build_model(spec, seed)
    rng = np.random.default_rng(seed + 1)
    point = init.flatten() + 0.1 * rng.standard_normal(init.num_values)
    direction = 0.05 * rng.standard_normal(init.num_values)
    x = rng.standard_normal((batch, spec.input_dim))
    return spec, theta0, init, point, direction, x


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    # array_equal treats -0.0 and +0.0 as equal; the bytes do not
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_kernel_equals_the_traced_program(mode, batch):
    spec, theta0, init, point, direction, x = setup(mode, batch)
    if mode.is_peft:
        assert all(np.all(point[start:stop] != 0.0)
                   for path, start, stop, _ in init.layout() if path.endswith("lora_b"))
    net = Network(spec, theta0, init)
    f = traced_program(spec, theta0, x, init)

    acts = net.activations(point, x)
    assert_bits_equal(acts[0], f(point))

    f0, jd = net.jvp(point, direction, acts)
    want_f0, want_jd = ad.jvp(f, point, direction)
    assert_bits_equal(f0, want_f0)
    assert_bits_equal(jd, want_jd)

    ct = np.random.default_rng(batch).standard_normal((batch, spec.num_classes))
    assert_bits_equal(net.vjp(point, ct, acts), ad.vjp(f, point, ct))


@pytest.mark.parametrize("kind", ["signed_zeros", "overflow"])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_kernel_equals_the_traced_program_on_edge_values(mode, kind):
    # signed_zeros: zero rows, directions and cotangents, where the traced
    # zero accumulators decide the sign of each zero. overflow: products
    # overflow to inf, and inf·0 terms of the traced rules (such as the
    # tangent of the adapter scale, dBA·s + BA·0) turn into NaN.
    spec, theta0, init, point, direction, x = setup(mode, 4)
    ct = np.random.default_rng(4).standard_normal((4, spec.num_classes))
    if kind == "signed_zeros":
        x[0], x[1] = 0.0, -0.0
        direction, ct = -np.zeros_like(direction), -np.zeros_like(ct)
    else:
        point, direction, ct = point * 1e300, direction * 1e300, ct * 1e300
    net = Network(spec, theta0, init)
    f = traced_program(spec, theta0, x, init)
    with np.errstate(over="ignore", invalid="ignore"):
        acts = net.activations(point, x)
        got = (acts[0], *net.jvp(point, direction, acts), net.vjp(point, ct, acts))
        want = (f(point), *ad.jvp(f, point, direction), ad.vjp(f, point, ct))
    for g, w in zip(got, want):
        assert_bits_equal(g, w)


def test_kernel_rejects_mismatched_shapes():
    spec, theta0, init, point, direction, x = setup(ModeTag.FULL_FT, 2)
    net = Network(spec, theta0, init)
    acts = net.activations(point, x)
    with pytest.raises(DimensionError):
        net.jvp(point, direction[:-1], acts)
    with pytest.raises(DimensionError):
        net.vjp(point, np.zeros((3, spec.num_classes)), acts)
