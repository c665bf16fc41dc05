"""Versioned checkpoint containers with content digests.

A checkpoint file is JSON holding the architecture spec, paradigm, init
seed, the digests of the backbone and the initial trainable tree, and the
trained trainable tree as a base64-wrapped little-endian float64 payload.
The trailing digest covers every other field, so any corruption is
detectable. The seed is the initial point: the file stores no initial
tree, and it loads only when both digests are those of the trees
``models.build_model`` makes from its spec and seed.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError
from .files import canonical_digest, json_object, kind_matches, leaf_problem, read_memoized, write_json
from .models import ModelSpec, build_model, require_trees
from .params import ParamTree

FORMAT = "fuselab-checkpoint"
VERSION = 2


@dataclass(frozen=True)
class Checkpoint:
    """A fine-tuning result: the trained trainable tree of a spec and init seed.

    The initial point is ``build_model(spec, init_seed)``. Construction
    raises ``ContractError`` unless ``task_id`` is a string, ``build_model``
    accepts the seed, ``trained`` holds the spec's trainable shapes and
    ``metrics`` maps strings to finite numbers.
    """

    spec: ModelSpec
    task_id: str
    init_seed: int
    trained: ParamTree
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.task_id, str):
            raise ContractError(f"task_id = {self.task_id!r} is not a string")
        require_trees(self.spec, self.theta0(), self.trained)
        if not isinstance(self.metrics, dict):
            raise ContractError(f"metrics = {self.metrics!r} is not a JSON object")
        for key, value in self.metrics.items():
            if not isinstance(key, str):
                raise ContractError(f"metrics key {key!r} is not a string")
            problem = leaf_problem(value, 0.0)
            if problem:
                raise ContractError(f"metrics.{key} = {value!r} {problem}")

    @property
    def mode(self):
        return self.spec.mode

    def theta0(self) -> ParamTree:
        return build_model(self.spec, self.init_seed)[0]

    @property
    def initial(self) -> ParamTree:
        return build_model(self.spec, self.init_seed)[1]


def _encode_tree(tree: ParamTree) -> dict:
    return {
        "paths": list(tree),
        "shapes": [list(shape) for shape in tree.shapes().values()],
        "data": base64.b64encode(tree.flatten().astype("<f8", copy=False).tobytes()).decode("ascii"),
    }


def _decode_tree(d: dict, spec: ModelSpec) -> ParamTree:
    """The tree in ``d``, which must hold the spec's trainable set in path order."""
    shapes = spec.trainable_shapes()
    paths = sorted(shapes)
    if d["paths"] != paths or [tuple(s) for s in d["shapes"]] != [shapes[p] for p in paths]:
        raise ContractError("tree paths and shapes are not the spec's trainable set in path order")
    return ParamTree.from_flat(np.frombuffer(base64.b64decode(d["data"]), dtype="<f8"), shapes)


def checkpoint_payload(ckpt: Checkpoint, config_digest: str = "") -> dict:
    payload = {
        "format": FORMAT,
        "version": VERSION,
        "config_digest": config_digest,
        "spec": ckpt.spec.to_dict(),
        "mode": ckpt.spec.mode.value,
        "task_id": ckpt.task_id,
        "seed": ckpt.init_seed,
        "theta0_digest": ckpt.theta0().digest(),
        "initial_digest": ckpt.initial.digest(),
        "trained": _encode_tree(ckpt.trained),
        "metrics": {k: float(v) for k, v in sorted(ckpt.metrics.items())},
    }
    payload["digest"] = canonical_digest(payload)
    return payload


def save_checkpoint(ckpt: Checkpoint, path, config_digest: str = "") -> None:
    write_json(path, checkpoint_payload(ckpt, config_digest))


def load_checkpoint(path, expected_config_digest: str | None = None) -> Checkpoint:
    """Load and verify a checkpoint file.

    Raises ContractError on corruption or format mismatch and ConfigError
    when the file was produced under a different resolved configuration.
    Verified parses are memoised per process on the file's bytes
    (``files.read_memoized``); the configuration check runs on every call,
    and each call gets its own copy of the metrics dict.
    """
    ckpt, config = read_memoized(path, _parse_checkpoint)
    if expected_config_digest is not None and config != expected_config_digest:
        raise ConfigError(
            f"checkpoint {path} was produced under a different configuration"
        )
    return replace(ckpt, metrics=dict(ckpt.metrics))


def _parse_checkpoint(path, data: bytes) -> tuple[Checkpoint, object]:
    """The verified checkpoint in ``data`` and the config digest it records.

    Every field it copies must have its exact kind and agree with the spec,
    and the ``Checkpoint`` constructor's rules hold: each failure is one
    ``ContractError`` naming the file and the field.
    """
    payload = json_object(path, data, "checkpoint")
    version = payload.get("version")
    if payload.get("format") != FORMAT or not (kind_matches(version, VERSION) and version == VERSION):
        raise ContractError(f"{path} is not a version-{VERSION} checkpoint file (version = {version!r})")
    stored = payload.pop("digest", None)
    if stored != canonical_digest(payload):
        raise ContractError(f"checkpoint {path} is corrupted (digest mismatch)")
    try:
        spec = ModelSpec.from_dict(payload["spec"])
        if payload["mode"] != spec.mode.value:
            raise ContractError(f"mode = {payload['mode']!r} contradicts the spec's {spec.mode.value!r}")
        ckpt = Checkpoint(spec, payload["task_id"], payload["seed"], _decode_tree(payload["trained"], spec),
                          payload["metrics"])
        for key, tree in (("theta0_digest", ckpt.theta0()), ("initial_digest", ckpt.initial)):
            if payload[key] != tree.digest():
                raise ContractError(f"{key} is not the digest of the tree build_model makes from spec and seed")
    except (KeyError, TypeError, ValueError, ContractError) as e:
        raise ContractError(f"checkpoint {path} is malformed: {e!r}") from e
    return ckpt, payload.get("config_digest")
