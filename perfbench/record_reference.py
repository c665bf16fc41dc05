"""Record the reference data the workloads check against.

For the train and merge configurations and every master seed
0..REFERENCE_SEEDS-1 it runs gen-tasks and finetune, and for merge fuse,
and writes each checkpoint's final validation accuracy and training loss,
and each (algorithm, mode) mean normalized score, to reference.json. For
small it writes the master seeds in range(SMALL_SEED_POOL) whose whole
pipeline completes. Run it from the repository root only when a change is
meant to alter these outputs, naming the workloads to record again (default:
all three):

    python3 perfbench/record_reference.py [train] [merge] [small]
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import CHECKOUT, use_checkout_source


def completing_small_seeds(workloads, scratch: Path) -> list[int]:
    ops = workloads.Ops()
    small = workloads.Small(0, ops, pool=list(range(workloads.SMALL_SEED_POOL)))
    completing = []
    for master_seed in small.pool:
        failed = len(ops.failed)
        rep_dir = scratch / f"small{master_seed}"
        try:
            small.setup(rep_dir, master_seed)
            small.run(rep_dir, master_seed)
            small.check(rep_dir, master_seed)
        except workloads.StageFailed:
            pass
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)
        if len(ops.failed) == failed:
            completing.append(master_seed)
        print(f"small master seed {master_seed} completes: {len(ops.failed) == failed}",
              file=sys.stderr)
    return completing


def main() -> int:
    use_checkout_source()
    from fuselab import pipeline
    from fuselab.config import resolve_config
    from fuselab.fusion import ALGORITHMS

    import workloads

    names = sys.argv[1:] or ["train", "merge", "small"]
    reference = {}
    if workloads.REFERENCE_FILE.exists():
        reference = json.loads(workloads.REFERENCE_FILE.read_text())
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=CHECKOUT))
    try:
        if "small" in names:
            reference["small"] = completing_small_seeds(workloads, scratch)
        for workload in (workloads.Train, workloads.Merge):
            if workload.name not in names:
                continue
            seeds = reference[workload.name] = {}
            for master_seed in range(workloads.REFERENCE_SEEDS):
                resolved = resolve_config(workload.config, seed_override=master_seed)
                out = scratch / str(master_seed)
                pipeline.stage_gen_tasks(resolved, out)
                pipeline.stage_finetune(resolved, out)
                seeds[str(master_seed)] = {
                    "checkpoints": workloads.checkpoint_metrics(resolved, out),
                }
                if workload is workloads.Merge:
                    for algorithm in ALGORITHMS:
                        pipeline.stage_fuse(resolved, out, algorithm)
                    seeds[str(master_seed)]["scores"] = workloads.mean_scores(
                        workloads.provenance_records(out)
                    )
                shutil.rmtree(out)
                print(f"{workload.name} master seed {master_seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
