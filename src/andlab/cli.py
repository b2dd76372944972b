"""Command-line entry point: one subcommand per experiment kind.

    andlab <kind> --config CONFIG.json [--seed N] [--out DIR] [--workers N]

The default output root comes from --out, then the config, then the
ANDLAB_OUT environment variable, then ./andlab_out.  Errors exit nonzero
with a machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AndlabError, ValidationError
from .experiments import load_config, run_experiment
from .experiments.runner import KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="andlab",
        description="desk-scale numerical laboratory for continuum Anderson models")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override root seed")
        p.add_argument("--out", default=None, help="output root directory")
        p.add_argument("--workers", type=int, default=None,
                       help="override worker count")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.kind:
            raise ValidationError(
                f"config declares experiment {cfg.kind!r} but the subcommand "
                f"is {args.kind!r}")
        out = run_experiment(cfg, args.out, args.seed, args.workers)
    except ValidationError as exc:
        json.dump({"error": "validation", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (AndlabError, OSError) as exc:    # OSError: an unreadable config or output root
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    if args.verbose:
        manifest = json.loads((out / "manifest.json").read_text())
        json.dump(manifest, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(str(out) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
