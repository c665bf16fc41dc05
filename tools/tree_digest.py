"""Digest the output tree of a full fuselab pipeline run.

Runs gen-tasks, finetune, fuse (every algorithm, every subset), the four
analyses and report through ``fuselab.cli.main`` in a temporary directory,
then prints ``sha256 path`` for every file of the tree and a last line
``total <sha256>`` over those lines. Two checkouts that print the same total
wrote byte-identical trees.

Run from anywhere; fuselab is imported from this checkout's ``src/``:

    python3 tools/tree_digest.py --config run.json --seed 3
    python3 tools/tree_digest.py --seed 3          # default configuration
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src"


def run_pipeline(out: Path, config: str | None, seed: int) -> None:
    sys.path.insert(0, str(SOURCE))
    from fuselab import cli
    from fuselab.fusion import ALGORITHMS
    from fuselab.pipeline import ANALYSES

    if Path(cli.__file__).resolve().parent != SOURCE / "fuselab":
        sys.exit(f"tree_digest: imported fuselab from {cli.__file__}, not {SOURCE}")
    common = ["--out", str(out), "--seed", str(seed)]
    if config is not None:
        common += ["--config", config]
    commands = [["gen-tasks"], ["finetune"]]
    commands += [["fuse", "--algorithm", a, "--all-subsets"] for a in ALGORITHMS]
    commands += [["analyze", kind] for kind in ANALYSES]
    commands += [["report"]]
    for command in commands:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(command + common)
        if code != 0:
            sys.exit(f"tree_digest: fuselab {' '.join(command)} exited {code}")


def tree_lines(root: Path) -> list[str]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()} {p.relative_to(root).as_posix()}"
            for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="run configuration JSON file (defaults when omitted)")
    parser.add_argument("--seed", type=int, required=True, help="master seed")
    args = parser.parse_args(argv)
    config = str(Path(args.config).resolve()) if args.config else None
    with tempfile.TemporaryDirectory(prefix="tree_digest-") as tmp:
        out = Path(tmp) / "run"
        run_pipeline(out, config, args.seed)
        lines = tree_lines(out)
    for line in lines:
        print(line)
    print("total", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
