"""fuselab benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout (it imports fuselab from ./src):

    python3 perfbench/run.py --workload {train,merge,small} \\
        [--seed N] [--seconds S] [--trace 0|1]

It repeats the workload's timed part until ``--seconds`` of it have been
measured, checks every repetition's outputs, prints a table of every metric
with its unit, median, maximum and sample count plus an environment record,
and prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` untraced and traced repetitions
alternate and the metrics are the per-layer ones of the traced repetitions.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

CHECKOUT = Path(__file__).resolve().parents[1]
SOURCE = CHECKOUT / "src"
IMPORT_SAMPLES = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fuselab.cli; print(time.perf_counter() - t)"
)


def use_checkout_source() -> None:
    """Import fuselab from this checkout's src/, never from an installed copy."""
    if not (SOURCE / "fuselab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fuselab sources at {SOURCE}; run from a full checkout")
    sys.path.insert(0, str(SOURCE))
    import fuselab

    if Path(fuselab.__file__).resolve().parent != SOURCE / "fuselab":
        sys.exit(f"perfbench: imported fuselab from {fuselab.__file__}, not {SOURCE}")


def git_commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def import_seconds() -> list[float]:
    """Time ``import fuselab.cli`` in fresh interpreters (part of set-up)."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SOURCE)],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def measure(workload, seconds: float, trace: bool, scratch: Path) -> list[dict]:
    """Run repetitions while another one brings the timed total closer to ``seconds``.

    With trace, every second repetition is traced and there are at least two.
    """
    from tracer import Tracer
    from workloads import StageFailed

    reps = []
    timed = 0.0
    while not reps or timed + timed / len(reps) / 2 < seconds or (trace and len(reps) < 2):
        rep = len(reps)
        traced = trace and rep % 2 == 1
        rep_dir = scratch / f"rep{rep}"
        tracer = Tracer() if traced else None
        try:
            start = perf_counter()
            stages = workload.setup(rep_dir, rep)
            setup_s = perf_counter() - start
            with tracer or contextlib.nullcontext():
                wall0, cpu0 = perf_counter(), process_time()
                stages.update(workload.run(rep_dir, rep))
                wall, cpu = perf_counter() - wall0, process_time() - cpu0
            workload.check(rep_dir, rep)
        except StageFailed:
            break
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        timed += wall
        reps.append(dict(stages, setup_s=setup_s, wall_s=wall, cpu_s=cpu, traced=traced,
                         layers=tracer.metrics() if tracer else None))
    return reps


def main(argv=None) -> int:
    use_checkout_source()
    import tracer
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = os.getloadavg()
    env = environment()
    imports = import_seconds()
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](args.seed, ops)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=CHECKOUT))
    reps = []
    try:
        start = perf_counter()
        shared = workload.prepare(scratch)
        prepare_s = perf_counter() - start
        reps = measure(workload, args.seconds, bool(args.trace), scratch)
    except workloads.StageFailed:
        pass
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not plain or (args.trace and not traced):
        for problem in ops.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    # (name, unit, samples). Set-up is the median import, the shared set-up
    # and the median set-up of one repetition.
    rep_setups = [r["setup_s"] for r in plain]
    setup_s = statistics.median(imports) + prepare_s + statistics.median(rep_setups)
    rows = [
        ("wall_s", "s", [r["wall_s"] for r in plain]),
        ("cpu_s", "s", [r["cpu_s"] for r in plain]),
        ("setup_s", "s", [setup_s]),
        ("peak_rss_mb", "MB", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
    ]
    end_to_end = {name: statistics.median(v) for name, _, v in rows}
    end_to_end_units = {name: unit for name, unit, _ in rows}
    for stage in ("finetune_s", "fuse_s", "analyze_s"):
        if stage in plain[0]:
            rows.append((stage, "s", [r[stage] for r in plain]))
        elif stage in shared:
            rows.append((stage, "s", [shared[stage]]))
    rows += [("import_s", "s", imports), ("prepare_s", "s", [prepare_s]),
             ("rep_setup_s", "s", rep_setups)]
    rows.append(("failed_ops", "share", [len(ops.failed) / ops.attempted]))

    units = tracer.metric_units()
    layers = {}
    if traced:
        for name in units:
            if name != "trace_overhead":
                layers[name] = statistics.median(r["layers"][name] for r in traced)
        layers["trace_overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                    / end_to_end["wall_s"] - 1)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} repetitions={len(plain)} untraced, {len(traced)} traced")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{'metric':44} {'median':>14} {'max':>14} {'n':>3}  unit")
    for name, unit, values in rows:
        print(f"{name:44} {statistics.median(values):14.6g} {max(values):14.6g} "
              f"{len(values):3d}  {unit}")
    for name, value in layers.items():
        print(f"{name:44} {value:14.6g} {'':14} {len(traced):3d}  {units[name]}")
    print(f"failed_ops {len(ops.failed)}/{ops.attempted} stage calls")
    for problem in ops.problems:
        print(f"FAILED: {problem}")

    metric_units = units if args.trace else end_to_end_units
    values = layers if args.trace else end_to_end
    result = {
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": {name: {"value": values[name], "unit": metric_units[name]}
                    for name in metric_units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
