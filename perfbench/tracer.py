"""Per-layer tracing from outside the program, by wrapping fuselab's functions.

fuselab's modules import functions by name (``from .training import
batch_loss_and_grad``), so ``analysis.batch_loss_and_grad``,
``training.batch_loss_and_grad`` and ``fuselab.finetune``-style re-exports
are separate bindings of one function object. ``Tracer`` replaces every
module-level binding of each traced function, in every loaded ``fuselab``
module, and puts each one back on exit; a missed binding would silently
drop calls.

A stack of open spans gives each call its self time: its duration minus the
durations of the traced calls made directly inside it. Calls run on one
thread (the benchmark uses the default ``jobs=1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = {
    "autodiff": ("jvp", "vjp"),
    "models": ("forward", "forward_linearized", "predict_logits"),
    "training": ("finetune", "batch_loss_and_grad", "_accuracy_from_flat", "evaluate"),
    "fusion": ("sweep_and_select", "simple_average", "task_arithmetic", "ties_merge",
               "lorahub_optimize"),
    "analysis": ("disentanglement_grid", "loss_landscape_grid", "ntk_one_step_check"),
    "task_vectors": ("compute_task_vector", "similarity_matrix"),
    "checkpoints": ("save_checkpoint", "load_checkpoint"),
    "tasks": ("export_task", "import_task"),
    "pipeline": ("stage_gen_tasks", "stage_finetune", "stage_fuse",
                 "stage_analyze_similarity", "stage_analyze_disentangle",
                 "stage_analyze_landscape", "stage_analyze_ntk", "stage_report"),
    "cli": ("main",),
}
FUNCTIONS = [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]
MODES = ("full_ft", "full_linear", "lora", "l_lora")
PER_MODE = {
    "training.finetune": MODES,
    "fusion.sweep_and_select": MODES,
    "analysis.disentanglement_grid": ("lora", "l_lora"),
}
# Batch rows worth a per-call cost: training batches (32), validation and test
# splits (256, half the train split) and the full train split (512).
BATCH_ROWS = {"jvp": (32, 256, 512), "vjp": (32, 512)}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for fn, batch_rows in BATCH_ROWS.items():
        for rows in batch_rows:
            units[f"autodiff.{fn}.b{rows}.us_per_call"] = "us"
    for name, modes in PER_MODE.items():
        for mode in modes:
            units[f"{name}.{mode}.s"] = "s"
    units["training.val_eval_share"] = "ratio"
    units["fusion.candidates_scored"] = "count"
    units["fusion.lorahub.objective_calls"] = "count"
    units["trace_overhead"] = "ratio"
    return units


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Context manager: while active, every traced function records spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._open: Counter = Counter()
        self._bindings: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fuselab" or n.startswith("fuselab.")]
        for name in FUNCTIONS:
            module_name, fn_name = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"fuselab.{module_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, name, fn):
        detail = getattr(self, "_detail_" + name.replace(".", "_"), None)
        stack, open_spans = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # seconds spent in traced calls made directly inside this one
            stack.append(frame)
            open_spans[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - frame[0]
            if detail is not None:
                detail(args, kwargs, result, elapsed)
            return result

        return wrapper

    def _count(self, key, elapsed):
        self.calls[key] += 1
        self.seconds[key] += elapsed

    def _detail_autodiff_jvp(self, args, kwargs, result, elapsed):
        self._count(f"autodiff.jvp.b{np.shape(result[0])[0]}", elapsed)

    def _detail_autodiff_vjp(self, args, kwargs, result, elapsed):
        rows = np.shape(_arg(args, kwargs, 2, "cotangent"))[0]
        self._count(f"autodiff.vjp.b{rows}", elapsed)

    def _detail_training_finetune(self, args, kwargs, result, elapsed):
        mode = _arg(args, kwargs, 0, "spec").mode.value
        self._count(f"training.finetune.{mode}", elapsed)

    def _detail_fusion_sweep_and_select(self, args, kwargs, result, elapsed):
        mode = _arg(args, kwargs, 1, "checkpoints")[0].spec.mode.value
        self._count(f"fusion.sweep_and_select.{mode}", elapsed)
        self.calls["fusion.candidates_scored"] += result.provenance["candidates_evaluated"]

    def _detail_analysis_disentanglement_grid(self, args, kwargs, result, elapsed):
        mode = _arg(args, kwargs, 0, "spec").mode.value
        self._count(f"analysis.disentanglement_grid.{mode}", elapsed)

    def _detail_models_forward(self, args, kwargs, result, elapsed):
        if self._open["fusion.lorahub_optimize"]:
            self.calls["fusion.lorahub.objective_calls"] += 1

    _detail_models_forward_linearized = _detail_models_forward

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (all but trace_overhead)."""
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.seconds[name]
            out[f"{name}.self_s"] = self.self_seconds[name]
        for fn, batch_rows in BATCH_ROWS.items():
            for rows in batch_rows:
                key = f"autodiff.{fn}.b{rows}"
                calls = self.calls[key]
                out[f"{key}.us_per_call"] = 1e6 * self.seconds[key] / calls if calls else 0.0
        for name, modes in PER_MODE.items():
            for mode in modes:
                out[f"{name}.{mode}.s"] = self.seconds[f"{name}.{mode}"]
        finetune_s = self.seconds["training.finetune"]
        out["training.val_eval_share"] = (
            self.seconds["training._accuracy_from_flat"] / finetune_s if finetune_s else 0.0
        )
        out["fusion.candidates_scored"] = self.calls["fusion.candidates_scored"]
        out["fusion.lorahub.objective_calls"] = self.calls["fusion.lorahub.objective_calls"]
        return out
