"""ParamTree stores one read-only vector plus its layout: per-path references."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from fuselab.analysis import disentanglement_grid
from fuselab.autodiff import Tensor
from fuselab.errors import ContractError
from fuselab.fusion import ALGORITHMS, FusionConfig, sweep_and_select
from fuselab.models import ModeTag, ModelSpec, build_model
from fuselab.params import ParamTree
from fuselab.task_vectors import compute_task_vector, similarity_matrix
from fuselab.tasks import make_task_suite
from fuselab.training import TrainConfig, finetune
from test_fusion import merge_cases


def reference_digest(tree) -> str:
    h = hashlib.sha256()
    for path in sorted(tree):
        array = tree[path]
        h.update(path.encode())
        h.update(repr(array.shape).encode())
        h.update(array.astype("<f8").tobytes())
    return "sha256:" + h.hexdigest()


def per_path(tree) -> dict:
    return {path: tree[path] for path in tree}


def same_bits(tree, reference: dict) -> bool:
    got = per_path(tree)
    return got.keys() == reference.keys() and all(
        got[p].shape == reference[p].shape and got[p].tobytes() == reference[p].tobytes()
        for p in reference)


@settings(max_examples=60, deadline=None)
@given(merge_cases())
def test_tree_operations_match_per_path_references(case):
    initial, trained, _ = case
    a, b = initial, trained[0]
    assert a.digest() == reference_digest(a)
    assert b.digest() == reference_digest(b)
    pa, pb = per_path(a), per_path(b)
    assert same_bits(a.sub(b), {p: pa[p] - pb[p] for p in pa})
    assert a.equal_bits(b) == all(np.array_equal(pa[p], pb[p]) for p in pa)
    assert a.equal_bits(a.with_flat(a.flatten()))


def test_flatten_is_the_stored_read_only_vector():
    _, tree = build_model(ModelSpec(4, (6,), 3, mode=ModeTag.FULL_FT), seed=1)
    flat = tree.flatten()
    assert tree.flatten() is flat
    with pytest.raises(ValueError):
        flat[0] = 1.0


def test_a_path_is_a_read_only_view_of_the_flat_vector():
    _, tree = build_model(ModelSpec(4, (6,), 3, mode=ModeTag.LORA), seed=1)
    for path, start, stop, shape in tree.layout():
        value = tree[path]
        assert type(value) is np.ndarray and value.shape == shape
        assert np.shares_memory(value, tree.flatten())
        assert value.tobytes() == tree.flatten()[start:stop].tobytes()
        with pytest.raises(ValueError):
            value[(0,) * len(shape)] = 1.0


def test_with_flat_copies_its_input_and_checks_it():
    _, tree = build_model(ModelSpec(4, (6,), 3, mode=ModeTag.LORA), seed=1)
    v = np.arange(tree.num_values, dtype=np.float64)
    copy = tree.with_flat(v)
    v[0] = 99.0
    assert copy.flatten()[0] == 0.0
    assert copy.layout() is tree.layout()
    with pytest.raises(ContractError):
        tree.with_flat(v[:-1])
    v[3] = np.nan
    with pytest.raises(ContractError):
        tree.with_flat(v)


def test_equality_compares_layout_and_values():
    theta0, tree = build_model(ModelSpec(4, (6,), 3, mode=ModeTag.FULL_FT), seed=1)
    _, adapters = build_model(ModelSpec(4, (6,), 3, mode=ModeTag.LORA), seed=1)
    assert tree == tree
    assert tree == tree.with_flat(tree.flatten())
    assert tree == theta0  # full fine-tuning trains the backbone tree itself
    assert tree != tree.with_flat(tree.flatten() * 2.0)
    assert tree != adapters
    assert tree != ParamTree({"w": tree.flatten()})  # same values, other layout
    assert tree != dict(tree.items())
    with pytest.raises(TypeError):
        hash(tree)


@pytest.mark.parametrize("value", [
    [[1.0, 2.0], [3.0]],
    "1.5",
    None,
    Tensor(np.ones(2)),
    np.array([True, False]),
    [1.0, np.nan],
], ids=["ragged_list", "string", "none", "tensor", "bools", "nan"])
def test_a_value_the_tree_cannot_take_raises_naming_its_path(value):
    # A ragged list or a string used to raise numpy's ValueError, None the
    # finiteness message naming no path and a Tensor a raw TypeError.
    with pytest.raises(ContractError, match="'layers.0.bias'"):
        ParamTree({"layers.0.weight": np.ones((2, 2)), "layers.0.bias": value})


@pytest.mark.parametrize("mode", list(ModeTag))
def test_hot_paths_construct_no_tensor(mode, monkeypatch):
    suite = make_task_suite(n_tasks=2, input_dim=4, samples_per_split=24, seed=2)
    spec = ModelSpec(4, (6,), 3, mode=mode)
    theta0, init = build_model(spec, seed=3)  # the initial point finetune reads is cached
    constructed = []
    original = Tensor.__init__

    def counting(self, *args, **kwargs):
        constructed.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    cks = [finetune(spec, task, TrainConfig(steps=3), init_seed=3)[0]
           for task in suite.tasks]
    validation = {t.id: t.val for t in suite.tasks}
    for algorithm in ALGORITHMS:
        config = FusionConfig(algorithm, lambda_grid=(0.0, 1.0), ties_k_grid=(0.5,),
                              ties_lambda_grid=(1.0,), lorahub_max_steps=2)
        sweep_and_select(config, cks, validation, fewshot=suite.tasks[0].train)
    vectors = [compute_task_vector(c) for c in cks]
    similarity_matrix(vectors)
    disentanglement_grid(spec, theta0, init, vectors[0], vectors[1],
                         (suite.tasks[0].val, suite.tasks[1].val), resolution=2)
    assert constructed == []
