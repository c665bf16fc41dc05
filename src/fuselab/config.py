"""Run configuration: strict JSON parsing, seed fan-out, and config digests.

A run file is one JSON object with optional sections (suite, model, train,
train_overrides, fusion, analysis) plus master_seed. Unknown keys are
rejected everywhere. Every run resolves to a fully defaulted dictionary
whose canonical digest is stamped into each emitted artifact; later
stages refuse inputs carrying a different digest.

Each default is read from the signature of the code that uses it:
``tasks.make_task_suite`` (suite), ``models.ModelSpec`` (lora_rank,
lora_alpha), ``training.TrainConfig``, ``fusion.FusionConfig`` and
``analysis.AnalysisConfig``. Only master_seed and hidden_dims, which no
signature defaults, are spelled here. Only this module builds the five
owners, passing each leaf of a section to its owner by name, cast to its
default's kind.

One master seed fans out to per-stage sub-seeds through a labeled hash:
seed(label...) = first 8 bytes, little-endian, of
sha256("<master>|<label>|<label>|...").
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path

from .analysis import AnalysisConfig
from .errors import ConfigError, ContractError
from .files import canonical_digest as config_digest
from .files import kind_matches, leaf_problem
from .fusion import ALGORITHMS, FusionConfig
from .models import ModeTag, ModelSpec
from .tasks import TaskSuite, make_task_suite, split_sizes
from .training import TrainConfig

SEED_SCHEME = "sha256(master|label...)[:8] little-endian"


def _defaults(owner, *skip: str) -> dict:
    """The defaulted parameters of ``owner``'s signature but ``skip``, tuples as lists."""
    params = inspect.signature(owner).parameters.values()
    return {p.name: list(p.default) if isinstance(p.default, tuple) else p.default
            for p in params if p.default is not p.empty and p.name not in skip}


SUITE_DEFAULTS = _defaults(make_task_suite, "seed")
MODEL_DEFAULTS = {"hidden_dims": [32, 32], **_defaults(ModelSpec, "mode")}
TRAIN_DEFAULTS = _defaults(TrainConfig, "shuffle_seed")
FUSION_DEFAULTS = _defaults(FusionConfig, "algorithm")
ANALYSIS_DEFAULTS = _defaults(AnalysisConfig)

MODE_NAMES = [m.value for m in ModeTag]


def derive_seed(master: int, *labels) -> int:
    data = ("%d|" % int(master) + "|".join(str(l) for l in labels)).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def _merge_strict(section: str, given: dict, defaults: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"section {section!r} must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    for key, value in given.items():
        problem = leaf_problem(value, defaults[key])
        if problem:
            raise ConfigError(f"{section}.{key} = {value!r} {problem}")
    out = dict(defaults)
    out.update(given)
    return out


def _built(section: str, owner, *args) -> None:
    """Call ``owner(*args)``; its ``ContractError`` becomes a ``ConfigError`` naming ``section``."""
    try:
        owner(*args)
    except ContractError as e:
        raise ConfigError(f"{section}: {e}") from e


def _check_ranges(resolved: dict) -> None:
    """Build once what the stages build, so a leaf outside its owner's range fails up front."""
    suite = resolved["suite"]
    _built("train", _by_name, TrainConfig, resolved["train"], TRAIN_DEFAULTS)
    for mode, section in resolved["train_overrides"].items():
        _built(f"train_overrides.{mode}", _by_name, TrainConfig, section, TRAIN_DEFAULTS)
    _built("fusion", fusion_config, resolved, ALGORITHMS[0])  # no check reads the algorithm
    # the adapter paradigms check lora_rank against every layer
    _built("suite and model", model_spec, resolved, ModeTag.LORA)
    _built("suite", split_sizes, suite["n_tasks"], suite["num_classes"],
           suite["samples_per_split"], suite["task_overlap"])
    _built("analysis", analysis_config, resolved)


def resolve_config(raw: dict, seed_override: int | None = None) -> dict:
    """Fill every default in; returns the resolved configuration dict.

    Leaves are checked against their defaults by ``files.leaf_problem``,
    and for range, up front, by the type or function a stage hands them to:
    ``TrainConfig`` (each ``train`` and ``train_overrides`` section),
    ``FusionConfig``, ``ModelSpec`` in an adapter paradigm,
    ``tasks.split_sizes`` and ``AnalysisConfig``.
    """
    if not isinstance(raw, dict):
        raise ConfigError("run configuration must be a JSON object")
    top_known = {"master_seed", "suite", "model", "train", "train_overrides",
                 "fusion", "analysis"}
    unknown = set(raw) - top_known
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    master = raw.get("master_seed", 42)
    if not kind_matches(master, 42):
        raise ConfigError(f"master_seed = {master!r} is not an int")
    if seed_override is not None:
        master = int(seed_override)
    overrides = raw.get("train_overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("train_overrides must map mode names to train sections")
    bad_modes = set(overrides) - set(MODE_NAMES)
    if bad_modes:
        raise ConfigError(f"train_overrides for unknown modes: {sorted(bad_modes)}")
    resolved = {
        "master_seed": master,
        "seed_scheme": SEED_SCHEME,
        "suite": _merge_strict("suite", raw.get("suite", {}), SUITE_DEFAULTS),
        "model": _merge_strict("model", raw.get("model", {}), MODEL_DEFAULTS),
        "train": _merge_strict("train", raw.get("train", {}), TRAIN_DEFAULTS),
        "train_overrides": {
            mode: _merge_strict(f"train_overrides.{mode}", section, TRAIN_DEFAULTS)
            for mode, section in sorted(overrides.items())
        },
        "fusion": _merge_strict("fusion", raw.get("fusion", {}), FUSION_DEFAULTS),
        "analysis": _merge_strict("analysis", raw.get("analysis", {}), ANALYSIS_DEFAULTS),
    }
    _check_ranges(resolved)
    # derived seeds documented for reproducibility audits
    resolved["derived_seeds"] = {
        "suite": derive_seed(master, "suite"),
        "model_init": derive_seed(master, "model_init"),
    }
    return resolved


def load_config(path: str | Path | None, seed_override: int | None = None) -> dict:
    if path is None:
        return resolve_config({}, seed_override)
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except OSError as e:  # missing, a directory, or unreadable
        raise ConfigError(f"cannot read config file {p}: {e.strerror}") from e
    except ValueError as e:  # malformed JSON, or an integer literal too long to convert
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    return resolve_config(raw, seed_override)


def _by_name(owner, section: dict, kinds: dict, **extra):
    """``owner(**section, **extra)``, each leaf cast to its ``kinds`` entry's kind, a list to a tuple."""
    leaves = {k: tuple(v) if isinstance(v, list) else type(kinds[k])(v) for k, v in section.items()}
    return owner(**leaves, **extra)


def task_suite(resolved: dict) -> TaskSuite:
    return _by_name(make_task_suite, resolved["suite"], SUITE_DEFAULTS,
                  seed=derive_seed(resolved["master_seed"], "suite"))


def model_spec(resolved: dict, mode: ModeTag | str) -> ModelSpec:
    s = resolved["suite"]
    return _by_name(ModelSpec, resolved["model"], MODEL_DEFAULTS,
                  input_dim=s["input_dim"], num_classes=s["num_classes"], mode=ModeTag(mode))


def train_config(resolved: dict, mode: ModeTag | str, task_id: str) -> TrainConfig:
    mode = ModeTag(mode)
    section = resolved["train_overrides"].get(mode.value, resolved["train"])
    return _by_name(TrainConfig, section, TRAIN_DEFAULTS,
                  shuffle_seed=derive_seed(resolved["master_seed"], "shuffle", mode.value, task_id))


def fusion_config(resolved: dict, algorithm: str) -> FusionConfig:
    return _by_name(FusionConfig, resolved["fusion"], FUSION_DEFAULTS, algorithm=algorithm)


def analysis_config(resolved: dict) -> AnalysisConfig:
    return _by_name(AnalysisConfig, resolved["analysis"], ANALYSIS_DEFAULTS)
