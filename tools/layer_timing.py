"""Time the network kernel against the traced autodiff program, per paradigm,
the task-file export, and the artifact reads with and without the read memo.

For each paradigm at batch 32 and 256 (16→32→32→3), prints the best-of-N
microseconds per call of forward, JVP and VJP for ``models.Network`` and
for the same network traced by ``autodiff`` (the oracle in
``tests/test_network.py``), and checks that both return the same bytes.
The kernel's JVP and VJP rows include the forward pass whose activations
they take, as the traced transforms run one too.
Then prints the microseconds per ``tasks.export_task`` of a default task
file (1024 rows), and per ``tasks.import_task`` of that file and
``checkpoints.load_checkpoint`` of a full_ft checkpoint (1699 values each
tree): a cold parse, with the memo emptied before every call, and a memo
hit. Last, the microseconds per
``ParamTree.flatten``, ``with_flat`` and ``digest`` of a full_ft (1699
values) and a lora (294 values) trainable tree, and per ``Network(...)``
construction, which a scorer makes once per parameter layout. Then the
microseconds per fusion candidate
of a 21-point task-arithmetic grid on 256 rows, per paradigm, scored as 21
one-row ``Scorer.candidates`` batches and as one 21-row batch, on a scorer
that already holds the grid's one JVP. Then, for full_linear and l_lora,
the milliseconds per ``analysis.disentanglement_grid`` at resolution 21
(441 cells) on two 256-row sets, where each linearized cell is scored
candidate by candidate. Last, per paradigm on
``tests/test_fusion.py``'s ``linear_lorahub_case`` (three task vectors,
24 few-shot rows), the microseconds per lorahub objective evaluation and
per whole Nelder-Mead search (``max_steps`` 40, 44 evaluations), and, when
scipy is importable, per the same search through ``scipy.optimize.minimize``.
Then, for full_linear and l_lora, the tangent memory of a fuse stage: the
``tracemalloc`` peak over the 11 default-grid ties_merging sweeps of four
tasks (256 validation rows each) on one ``fusion.scorers_for`` dict, and
the number of JVPs each task's scorer still holds after them.
Exits 1 if the exported task rows differ from per-value ``%.17g``
formatting (the reference in ``tests/test_tasks.py``), if any kernel pair,
the one-row and 21-row candidate logits, a grid cell and the direct
``disentanglement_error`` at that cell, or the points the two searches
evaluate differ in any bit, or if a scorer still holds the JVP of a
direction a sweep built. fuselab is imported from this checkout's src/:

    python3 tools/layer_timing.py [--repeats N] [--loops L]
"""

import argparse
import sys
import tempfile
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def as_bytes(result) -> bytes:
    return b"".join(a.tobytes() for a in (result if isinstance(result, tuple) else (result,)))


def main(argv=None) -> int:
    import numpy as np
    from fuselab import autodiff as ad
    from fuselab.models import ModeTag, Network
    from test_network import setup, traced_program

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7, help="best of this many timings")
    parser.add_argument("--loops", type=int, default=50, help="calls per timing")
    args = parser.parse_args(argv)
    print(f"{'mode':<12}{'batch':>6}  {'op':<8}{'kernel_us':>10}{'traced_us':>11}{'ratio':>8}  bits")
    differ = 0
    for mode in ModeTag:
        for batch in (32, 256):
            spec, theta0, init, point, direction, x = setup(mode, batch)
            net = Network(spec, theta0, init)
            f = traced_program(spec, theta0, x, init)
            ct = np.random.default_rng(batch).standard_normal((batch, spec.num_classes))
            ops = {"forward": (lambda: net.activations(point, x)[0], lambda: f(point)),
                   "jvp": (lambda: net.jvp(point, direction, net.activations(point, x)),
                           lambda: ad.jvp(f, point, direction)),
                   "vjp": (lambda: net.vjp(point, ct, net.activations(point, x)),
                           lambda: ad.vjp(f, point, ct))}
            for op, (kernel, traced) in ops.items():
                kernel_us, traced_us = (
                    1e6 * min(timeit.repeat(fn, number=args.loops, repeat=args.repeats)) / args.loops
                    for fn in (kernel, traced))
                same = as_bytes(kernel()) == as_bytes(traced())
                differ += not same
                print(f"{mode.value:<12}{batch:>6}  {op:<8}{kernel_us:>10.1f}{traced_us:>11.1f}"
                      f"{traced_us / kernel_us:>7.1f}x  {'equal' if same else 'DIFFERENT'}")
    differ += read_timing(args.repeats, args.loops)
    tree_timing(args.repeats, args.loops)
    differ += candidate_timing(args.repeats, args.loops)
    differ += grid_timing(args.repeats, args.loops)
    differ += lorahub_timing(args.repeats, args.loops)
    differ += tangent_memory()
    return 1 if differ else 0


def us_per_call(fn, repeats: int, loops: int) -> float:
    return 1e6 * min(timeit.repeat(fn, number=loops, repeat=repeats)) / loops


def read_timing(repeats: int, loops: int) -> int:
    """Print the read table; returns 1 if the exported data rows differ from per-value formatting."""
    from fuselab import files
    from fuselab.checkpoints import Checkpoint, load_checkpoint, save_checkpoint
    from fuselab.models import ModeTag, ModelSpec, build_model
    from fuselab.tasks import export_task, import_task, make_task_suite
    from test_tasks import per_value_rows

    def cold(read):
        def fn():
            files._memo.clear()
            read()
        return fn

    print(f"\n{'read':<16}{'cold_us':>10}{'hit_us':>10}{'ratio':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        suite = make_task_suite(seed=0)
        task, task_file = suite.tasks[0], Path(tmp) / "task0.csv"
        export_us = us_per_call(lambda: export_task(task, task_file, suite), repeats, max(1, loops // 10))
        same = task_file.read_text().splitlines()[3:] == per_value_rows(task)
        print(f"{'export_task':<16}{export_us:>10.1f}{'-':>10}{'-':>8}  rows {'equal' if same else 'DIFFERENT'}")
        spec = ModelSpec(16, (32, 32), 3, mode=ModeTag.FULL_FT)
        _, init = build_model(spec, 0)
        ckpt_file = Path(tmp) / "task0.json"
        save_checkpoint(Checkpoint(spec, "task0", 0, init, init), ckpt_file)
        for name, read in (("import_task", lambda: import_task(task_file)),
                           ("load_checkpoint", lambda: load_checkpoint(ckpt_file))):
            cold_us = us_per_call(cold(read), repeats, loops)
            read()
            hit_us = us_per_call(read, repeats, loops)
            print(f"{name:<16}{cold_us:>10.1f}{hit_us:>10.1f}{cold_us / hit_us:>7.1f}x")
    return int(not same)


def tree_timing(repeats: int, loops: int) -> None:
    from fuselab.models import ModeTag, ModelSpec, Network, build_model

    print(f"\n{'tree op':<14}{'mode':<10}{'us':>8}")
    for mode in (ModeTag.FULL_FT, ModeTag.LORA):
        spec = ModelSpec(16, (32, 32), 3, mode=mode)
        theta0, init = build_model(spec, 0)
        flat = init.flatten() + 0.5
        ops = {"flatten": init.flatten, "with_flat": lambda: init.with_flat(flat),
               "digest": init.digest, "Network(...)": lambda: Network(spec, theta0, init)}
        for op, fn in ops.items():
            print(f"{op:<14}{mode.value:<10}{us_per_call(fn, repeats, loops):>8.2f}")


def candidate_timing(repeats: int, loops: int) -> int:
    """Print the per-candidate table; returns the number of paradigms whose routes differ."""
    import numpy as np
    from fuselab.fusion import DEFAULT_LAMBDA_GRID
    from fuselab.models import ModeTag, ModelSpec, Scorer, build_model
    from fuselab.params import combine

    print(f"\n{'candidate':<12}{'rows':>6}{'grid':>6}{'single_us':>11}{'batched_us':>12}{'ratio':>8}  bits")
    differ = 0
    for mode in ModeTag:
        spec = ModelSpec(16, (32, 32), 3, mode=mode)
        theta0, init = build_model(spec, 0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((256, spec.input_dim))
        base, direction = init.flatten(), 0.1 * rng.standard_normal(init.num_values)
        weights = [[lam] for lam in DEFAULT_LAMBDA_GRID]
        directions = [[direction]] * len(weights)
        flats = np.stack([combine(base, [direction], w) for w in weights])
        scorer = Scorer(spec, theta0, init, x)

        def single():
            rows = zip(flats, directions, weights)
            return np.stack([scorer.candidates(f[None], [d], [w])[0] for f, d, w in rows])

        def batched():
            return scorer.candidates(flats, directions, weights)

        same = single().tobytes() == batched().tobytes()
        differ += not same
        single_us, batched_us = (us_per_call(fn, repeats, loops) / len(weights) for fn in (single, batched))
        print(f"{mode.value:<12}{256:>6}{len(weights):>6}{single_us:>11.1f}{batched_us:>12.1f}"
              f"{single_us / batched_us:>7.1f}x  {'equal' if same else 'DIFFERENT'}")
    return differ


def grid_timing(repeats: int, loops: int) -> int:
    """Print the disentanglement-grid table; returns the number of paradigms whose cell differs."""
    import numpy as np
    from fuselab.analysis import disentanglement_error, disentanglement_grid
    from fuselab.models import ModeTag, ModelSpec, build_model
    from fuselab.task_vectors import TaskVector
    from fuselab.tasks import Dataset

    print(f"\n{'grid':<12}{'rows':>6}{'cells':>6}{'grid_ms':>9}{'cell_us':>9}  bits")
    differ = 0
    for mode in (ModeTag.FULL_LINEAR, ModeTag.LLORA):
        spec = ModelSpec(16, (32, 32), 3, mode=mode)
        theta0, init = build_model(spec, 0)
        rng = np.random.default_rng(2)
        vectors = [TaskVector(init.with_flat(0.1 * rng.standard_normal(init.num_values)), mode, f"task{i}")
                   for i in range(2)]
        sets = tuple(Dataset(rng.standard_normal((256, spec.input_dim)), np.zeros(256)) for _ in range(2))
        grid = disentanglement_grid(spec, theta0, init, *vectors, sets, resolution=21)
        l1, l2 = grid.lambda1_axis[3], grid.lambda2_axis[17]
        same = grid.xi_raw[3, 17] == disentanglement_error(spec, theta0, init, *vectors, l1, l2, sets)
        differ += not same
        grid_us = us_per_call(lambda: disentanglement_grid(spec, theta0, init, *vectors, sets, resolution=21),
                              repeats, max(1, loops // 10))
        print(f"{mode.value:<12}{256:>6}{grid.xi.size:>6}{grid_us / 1e3:>9.1f}{grid_us / grid.xi.size:>9.1f}"
              f"  {'equal' if same else 'DIFFERENT'}")
    return differ


def lorahub_timing(repeats: int, loops: int) -> int:
    """Print the lorahub search table; returns the number of paradigms whose search differs from scipy's."""
    import numpy as np
    from fuselab.fusion import _lorahub_objective, _nelder_mead
    from fuselab.models import ModeTag
    from test_fusion import linear_lorahub_case

    try:
        from scipy.optimize import minimize
    except ImportError:
        minimize = None

    def scipy_search(f, x0, maxfev, xatol, fatol):
        options = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol, "adaptive": False}
        return minimize(f, x0, method="Nelder-Mead", options=options)

    def points(search, objective, x0, maxfev):
        seen = []

        def recorded(w):
            seen.append(np.array(w, dtype=np.float64).tobytes())
            return objective(w)
        search(recorded, x0, maxfev, 1e-10, 1e-12)
        return seen

    print(f"\n{'lorahub':<12}{'evals':>6}{'eval_us':>10}{'search_us':>11}{'scipy_us':>10}  points")
    differ = 0
    for mode in ModeTag:
        spec, theta0, phi0, vectors, fewshot = linear_lorahub_case(mode)
        deltas = [v.delta.flatten() for v in vectors]
        objective = _lorahub_objective(spec, theta0, phi0, deltas, fewshot, alpha=0.05)
        n = len(deltas)
        x0, maxfev = np.full(n, 1.0 / n), 40 + n + 1
        ours = points(_nelder_mead, objective, x0, maxfev)
        eval_us = us_per_call(lambda: objective(x0), repeats, loops)
        search_loops = max(1, loops // 10)
        search_us = us_per_call(lambda: _nelder_mead(objective, x0, maxfev, 1e-10, 1e-12), repeats, search_loops)
        if minimize is None:
            scipy_cell, verdict = f"{'-':>10}", "unchecked (no scipy)"
        else:
            same = points(scipy_search, objective, x0, maxfev) == ours
            differ += not same
            scipy_us = us_per_call(lambda: scipy_search(objective, x0, maxfev, 1e-10, 1e-12), repeats, search_loops)
            scipy_cell, verdict = f"{scipy_us:>10.0f}", "equal" if same else "DIFFERENT"
        print(f"{mode.value:<12}{len(ours):>6}{eval_us:>10.1f}{search_us:>11.0f}{scipy_cell}  {verdict}")
    return differ


def tangent_memory() -> int:
    """Print the tangent-memory table; returns the number of paradigms whose scorers hold a built direction."""
    import tracemalloc

    import numpy as np
    from fuselab.checkpoints import Checkpoint
    from fuselab.fusion import FusionConfig, enumerate_subsets, scorers_for, sweep_and_select
    from fuselab.models import ModeTag, ModelSpec, build_model
    from fuselab.tasks import Dataset

    print(f"\n{'tangents':<12}{'sweeps':>7}{'peak_kb':>9}  held per scorer")
    held_built = 0
    for mode in (ModeTag.FULL_LINEAR, ModeTag.LLORA):
        spec = ModelSpec(16, (32, 32), 3, mode=mode)
        theta0, init = build_model(spec, 0)
        rng = np.random.default_rng(3)
        cks = {f"task{i}": Checkpoint(spec, f"task{i}", 0, init,
                                      init.with_flat(init.flatten() + 0.1 * rng.standard_normal(init.num_values)))
               for i in range(4)}
        validation = {t: Dataset(rng.standard_normal((256, 16)), rng.integers(0, 3, size=256)) for t in cks}
        config = FusionConfig(algorithm="ties_merging")
        subsets = enumerate_subsets(sorted(cks))
        tracemalloc.start()
        scorers = scorers_for(list(cks.values()), validation)
        for subset in subsets:
            sweep_and_select(config, [cks[t] for t in subset], validation, scorers=scorers)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        held = [len(s._jds) for s in scorers.values()]  # ties scores no task vector: each is a built direction
        held_built += sum(held) > 0
        print(f"{mode.value:<12}{len(subsets):>7}{peak / 1024:>9.0f}  {'/'.join(map(str, held))}"
              f"  {'BUILT HELD' if sum(held) else 'released'}")
    return held_built


if __name__ == "__main__":
    sys.exit(main())
