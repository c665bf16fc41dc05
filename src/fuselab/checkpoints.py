"""Versioned checkpoint containers with content digests.

A checkpoint file is JSON holding the architecture spec, paradigm, init
seed, backbone digest, and the initial plus trained trainable trees as
base64-wrapped little-endian float64 payloads. The trailing digest covers
every other field, so any corruption is detectable. The seed pins the
initial point: a file loads only when its backbone digest and its initial
tree are those ``models.build_model`` makes from its spec and seed.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError
from .files import canonical_digest, json_object, kind_matches, leaf_problem, read_memoized, write_json
from .models import ModelSpec, build_model
from .params import ParamTree

FORMAT = "fuselab-checkpoint"
VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A fine-tuning result: initial and trained trainable trees."""

    spec: ModelSpec
    task_id: str
    init_seed: int
    initial: ParamTree
    trained: ParamTree
    metrics: dict = field(default_factory=dict)

    @property
    def mode(self):
        return self.spec.mode

    def theta0(self) -> ParamTree:
        return build_model(self.spec, self.init_seed)[0]


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
        "seed": int(ckpt.init_seed),
        "theta0_digest": ckpt.theta0().digest(),
        "initial": _encode_tree(ckpt.initial),
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

    Every field it copies must have its exact kind and agree with the spec:
    each failure is one ``ContractError`` naming the file and the field.
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
        if not isinstance(payload["task_id"], str):
            raise ContractError(f"task_id = {payload['task_id']!r} is not a string")
        if not (kind_matches(payload["seed"], 0) and payload["seed"] >= 0):
            raise ContractError(f"seed = {payload['seed']!r} is not a non-negative int")
        initial = build_model(spec, payload["seed"])[1]
        if not _decode_tree(payload["initial"], spec).equal_bits(initial):
            raise ContractError("initial is not the tree build_model makes from the spec and seed")
        metrics = payload["metrics"]
        if not isinstance(metrics, dict):
            raise ContractError(f"metrics = {metrics!r} is not a JSON object")
        for key, value in metrics.items():
            problem = leaf_problem(value, 0.0)
            if problem:
                raise ContractError(f"metrics.{key} = {value!r} {problem}")
        ckpt = Checkpoint(
            spec=spec,
            task_id=payload["task_id"],
            init_seed=payload["seed"],
            initial=initial,
            trained=_decode_tree(payload["trained"], spec),
            metrics=metrics,
        )
    except (KeyError, TypeError, ValueError, ContractError) as e:
        raise ContractError(f"checkpoint {path} is malformed: {e!r}") from e
    if ckpt.theta0().digest() != payload.get("theta0_digest"):
        raise ContractError(f"checkpoint {path} backbone digest does not match its seed")
    return ckpt, payload.get("config_digest")
