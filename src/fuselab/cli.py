"""Command-line entry point for the fusion laboratory.

Subcommands: gen-tasks, finetune, fuse, analyze, report. Exit codes:
0 success, 1 contract or configuration error (an allocation too large
for memory, such as an absurd resolution, or a run entry of the wrong
kind included), 2 numeric failure (a non-finite training loss or NTK
check).
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .config import load_config
from .errors import ConfigError, FuselabError, NumericError
from .fusion import ALGORITHMS
from .models import ModeTag
from . import pipeline

MODE_CHOICES = [m.value for m in ModeTag]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code 2 is reserved for numeric failures
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class _Once(argparse.Action):
    """Store a single-value flag's value; a second use of the flag is an error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} given more than once")
        setattr(namespace, self.dest, values)


def _add_common(p):
    p.add_argument("--config", action=_Once,
                   help="run configuration JSON file (defaults apply when omitted)")
    p.add_argument("--out", action=_Once, required=True, help="output directory for this run")
    p.add_argument("--seed", action=_Once, type=int, help="override the master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuselab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tasks", help="generate and export the synthetic task suite")
    _add_common(p)

    p = sub.add_parser("finetune", help="fine-tune per-task models")
    _add_common(p)
    p.add_argument("--mode", choices=MODE_CHOICES, action="append",
                   help="paradigm to train (repeatable; default: all four)")
    p.add_argument("--task", action="append", help="task id to train (repeatable; default: all)")

    p = sub.add_parser("fuse", help="merge task-specific checkpoints")
    _add_common(p)
    p.add_argument("--algorithm", action=_Once, choices=ALGORITHMS, required=True)
    p.add_argument("--mode", choices=MODE_CHOICES, action="append")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--subset", action=_Once, help="comma-separated task ids to merge")
    group.add_argument("--all-subsets", action="store_true",
                       help="merge every subset of size >= 2")

    p = sub.add_parser("analyze", help="emit geometry and dynamics CSV artifacts")
    _add_common(p)
    p.add_argument("kind", choices=pipeline.ANALYSES)
    p.add_argument("--mode", choices=MODE_CHOICES, action="append")
    p.add_argument("--pair", action=_Once, help="comma-separated task id pair")
    p.add_argument("--task", action=_Once, help="task id (ntk analysis)")

    p = sub.add_parser("report", help="aggregate fusion provenance into tables")
    _add_common(p)
    return parser


def _groups(ids: str | None) -> list[tuple[str, ...]] | None:
    """The one group of task ids a comma-separated flag names; None when it is not given."""
    return None if ids is None else [tuple(ids.split(","))]


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    resolved = load_config(args.config, seed_override=args.seed)
    if args.command == "gen-tasks":
        written = pipeline.stage_gen_tasks(resolved, args.out)
        print(f"wrote {len(written)} task files to {args.out}")
    elif args.command == "finetune":
        written = pipeline.stage_finetune(resolved, args.out, modes=args.mode, task_ids=args.task)
        print(f"wrote {len(written)} checkpoints to {args.out}")
    elif args.command == "fuse":
        written = pipeline.stage_fuse(resolved, args.out, args.algorithm,
                                      modes=args.mode, subsets=_groups(args.subset))
        print(f"wrote {len(written)} fusion artifacts to {args.out}")
    elif args.command == "analyze":
        stage = getattr(pipeline, f"stage_analyze_{args.kind}")  # at call time, so a wrapper is seen
        reads, kwargs = inspect.signature(stage).parameters, {}
        for flag, name, value in (("mode", "modes", args.mode), ("pair", "pairs", _groups(args.pair)),
                                  ("task", "task_id", args.task)):
            if value is not None:
                if name not in reads:
                    raise ConfigError(f"analyze {args.kind} does not read --{flag}")
                kwargs[name] = value
        written = stage(resolved, args.out, **kwargs)
        print(f"wrote {len(written)} analysis artifacts to {args.out}")
    elif args.command == "report":
        report, files = pipeline.stage_report(resolved, args.out)
        from .analysis import format_report_table

        print(format_report_table(report))
        print(f"wrote {len(files)} report files to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except (FuselabError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (IsADirectoryError, NotADirectoryError, FileExistsError) as e:  # a run entry of the wrong kind
        print(f"error: {e.filename2 or e.filename}: {e.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
