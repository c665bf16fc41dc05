"""Run configuration: strict JSON parsing, seed fan-out, and config digests.

A run file is one JSON object with optional sections (suite, model, train,
train_overrides, fusion, analysis) plus master_seed. Unknown keys are
rejected everywhere. Every run resolves to a fully defaulted dictionary
whose canonical digest is stamped into each emitted artifact; later
stages refuse inputs carrying a different digest.

One master seed fans out to per-stage sub-seeds through a labeled hash:
seed(label...) = first 8 bytes, little-endian, of
sha256("<master>|<label>|<label>|...").
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from .errors import ConfigError, ContractError
from .files import canonical_digest as config_digest
from .fusion import DEFAULT_LAMBDA_GRID, DEFAULT_TIES_GRID, FusionConfig
from .models import ModeTag, ModelSpec
from .training import OPTIMIZERS, TrainConfig

SEED_SCHEME = "sha256(master|label...)[:8] little-endian"

SUITE_DEFAULTS = {
    "n_tasks": 4,
    "input_dim": 16,
    "num_classes": 3,
    "samples_per_split": 512,
    "task_overlap": 0.3,
}
MODEL_DEFAULTS = {
    "hidden_dims": [32, 32],
    "lora_rank": 2,
    "lora_alpha": 2.0,
}
TRAIN_DEFAULTS = {
    "steps": 300,
    "batch_size": 32,
    "learning_rate": 0.005,
    "optimizer": "adam",
    "beta1": 0.9,
    "beta2": 0.999,
    "eps": 1e-8,
}
FUSION_DEFAULTS = {
    "lambda_grid": list(DEFAULT_LAMBDA_GRID),
    "ties_k_grid": list(DEFAULT_TIES_GRID),
    "ties_lambda_grid": list(DEFAULT_TIES_GRID),
    "lorahub_alpha": 0.05,
    "lorahub_max_steps": 40,
    "fewshot_per_task": 32,
}
ANALYSIS_DEFAULTS = {
    "lambda_min": -1.0,
    "lambda_max": 2.0,
    "resolution": 21,
    "ntk_eta": 1e-3,
    "ntk_max_samples": 64,
}

MODE_NAMES = [m.value for m in ModeTag]


def derive_seed(master: int, *labels) -> int:
    data = ("%d|" % int(master) + "|".join(str(l) for l in labels)).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "little")


def _kind_matches(value, default) -> bool:
    """True when ``value`` has the kind of ``default``: int, float, str or list of those.

    Booleans are never numbers here, and an int is a valid float.
    """
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, str):
        return isinstance(value, str)
    return isinstance(value, list) and all(_kind_matches(v, default[0]) for v in value)


def _merge_strict(section: str, given: dict, defaults: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"section {section!r} must be a JSON object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
    for key, value in given.items():
        if not _kind_matches(value, defaults[key]):
            raise ConfigError(
                f"{section}.{key} = {value!r} does not have the kind of its default {defaults[key]!r}"
            )
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"{section}.{key} = {value!r} is not finite")
    out = dict(defaults)
    out.update(given)
    return out


def _check_ranges(resolved: dict) -> None:
    """Reject leaves that have the right kind but would fail only in a later stage."""
    fusion, analysis, suite = resolved["fusion"], resolved["analysis"], resolved["suite"]
    for key in ("lambda_grid", "ties_k_grid", "ties_lambda_grid"):
        if not fusion[key]:
            raise ConfigError(f"fusion.{key} must be non-empty")
    outside = [k for k in fusion["ties_k_grid"] if not 0.0 < k <= 1.0]
    if outside:
        raise ConfigError(f"fusion.ties_k_grid items must lie in (0, 1], got {outside}")
    if analysis["resolution"] < 2:
        raise ConfigError(f"analysis.resolution = {analysis['resolution']} must be at least 2")
    if not analysis["lambda_min"] < analysis["lambda_max"]:
        raise ConfigError(
            f"analysis.lambda_min = {analysis['lambda_min']} must be below "
            f"lambda_max = {analysis['lambda_max']}"
        )
    if suite["n_tasks"] < 2:
        raise ConfigError(f"suite.n_tasks = {suite['n_tasks']} must be at least 2")
    if not 0.0 <= suite["task_overlap"] <= 1.0:
        raise ConfigError(f"suite.task_overlap = {suite['task_overlap']} must lie in [0, 1]")
    if suite["samples_per_split"] < suite["num_classes"]:
        raise ConfigError(
            f"suite.samples_per_split = {suite['samples_per_split']} must be at least "
            f"num_classes = {suite['num_classes']}"
        )
    trains = {"train": resolved["train"]}
    trains.update((f"train_overrides.{m}", t) for m, t in resolved["train_overrides"].items())
    for section, train in trains.items():
        if train["learning_rate"] < 0:
            raise ConfigError(f"{section}.learning_rate = {train['learning_rate']} is negative")
        for key in ("steps", "batch_size"):
            if train[key] < 1:
                raise ConfigError(f"{section}.{key} = {train[key]} must be at least 1")
        if train["optimizer"] not in OPTIMIZERS:
            raise ConfigError(f"{section}.optimizer = {train['optimizer']!r} is not one of {OPTIMIZERS}")
        for key in ("beta1", "beta2"):
            if not 0.0 <= train[key] < 1.0:
                raise ConfigError(f"{section}.{key} = {train[key]} must lie in [0, 1)")
        if train["eps"] <= 0:
            raise ConfigError(f"{section}.eps = {train['eps']} must be positive")
    if fusion["lorahub_alpha"] < 0:
        raise ConfigError(f"fusion.lorahub_alpha = {fusion['lorahub_alpha']} is negative")
    if fusion["lorahub_max_steps"] < 0:
        raise ConfigError(f"fusion.lorahub_max_steps = {fusion['lorahub_max_steps']} is negative")
    for section, key in (("fusion", "fewshot_per_task"), ("analysis", "ntk_max_samples")):
        if resolved[section][key] < 1:
            raise ConfigError(f"{section}.{key} = {resolved[section][key]} must be at least 1")
    try:  # the adapter paradigms check lora_rank against every layer
        model_spec(resolved, ModeTag.LORA)
    except ContractError as e:
        raise ConfigError(f"suite and model sections do not build the adapter network: {e}") from e


def resolve_config(raw: dict, seed_override: int | None = None) -> dict:
    """Fill every default in; returns the resolved configuration dict.

    Leaves are checked for their default's kind, float leaves and list
    items for finiteness, and, where a stage would otherwise fail after the
    ones before it had run, for range: non-empty fusion grids, trim
    fractions in (0, 1], a grid resolution of at least 2,
    ``lambda_min < lambda_max``, at least two tasks, a ``task_overlap`` in
    [0, 1], at least ``num_classes`` samples per split, non-negative learning
    rates, ``lorahub_alpha`` and ``lorahub_max_steps``, at least one step,
    batch row, few-shot row per task and NTK sample, a known optimizer,
    Adam betas in [0, 1) and a positive ``eps``, and layer sizes and a
    ``lora_rank`` that build the adapter network. ``train_overrides``
    sections are checked like ``train``.
    """
    if not isinstance(raw, dict):
        raise ConfigError("run configuration must be a JSON object")
    top_known = {"master_seed", "suite", "model", "train", "train_overrides",
                 "fusion", "analysis", "out_dir"}
    unknown = set(raw) - top_known
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    master = raw.get("master_seed", 42)
    if not _kind_matches(master, 42):
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
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {p} is not valid JSON: {e}") from e
    return resolve_config(raw, seed_override)


def model_spec(resolved: dict, mode: ModeTag | str) -> ModelSpec:
    m = resolved["model"]
    s = resolved["suite"]
    return ModelSpec(
        input_dim=int(s["input_dim"]),
        hidden_dims=tuple(m["hidden_dims"]),
        num_classes=int(s["num_classes"]),
        lora_rank=int(m["lora_rank"]),
        lora_alpha=float(m["lora_alpha"]),
        mode=ModeTag(mode),
    )


def train_config(resolved: dict, mode: ModeTag | str, task_id: str) -> TrainConfig:
    mode = ModeTag(mode)
    section = resolved["train_overrides"].get(mode.value, resolved["train"])
    return TrainConfig(
        steps=int(section["steps"]),
        batch_size=int(section["batch_size"]),
        learning_rate=float(section["learning_rate"]),
        optimizer=str(section["optimizer"]),
        beta1=float(section["beta1"]),
        beta2=float(section["beta2"]),
        eps=float(section["eps"]),
        shuffle_seed=derive_seed(resolved["master_seed"], "shuffle", mode.value, task_id),
    )


def fusion_config(resolved: dict, algorithm: str) -> FusionConfig:
    f = resolved["fusion"]
    return FusionConfig(
        algorithm=algorithm,
        lambda_grid=tuple(f["lambda_grid"]),
        ties_k_grid=tuple(f["ties_k_grid"]),
        ties_lambda_grid=tuple(f["ties_lambda_grid"]),
        lorahub_alpha=float(f["lorahub_alpha"]),
        lorahub_max_steps=int(f["lorahub_max_steps"]),
    )
