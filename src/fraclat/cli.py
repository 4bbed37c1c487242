"""Command line entry point.

Usage:
    fraclat <experiment> [key=value ...] [--config FILE] [--out DIR] [--seed U64]

Prints one PASS/FAIL line per check; exit status 0 iff every check passed,
2 for an invalid config (an unknown key among them).
"""

import argparse
import sys
from pathlib import Path

from .harness import EXPERIMENTS, ExperimentConfig, run


def _coerce(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def build_config(argv):
    parser = argparse.ArgumentParser(
        prog="fraclat",
        description="fractional discrete Laplacian experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("assignments", nargs="*", metavar="key=value")
    parser.add_argument("--config", default=None, help="JSON config document")
    parser.add_argument("--out", default=".", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.config:
        config = ExperimentConfig.parse(Path(args.config).read_text())
    else:
        config = ExperimentConfig(experiment=args.experiment,
                                  output_dir=args.out, seed=args.seed)
    params = dict(config.params)
    for token in args.assignments:
        if "=" not in token:
            parser.error(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        params[key] = _coerce(value)
    return ExperimentConfig(experiment=args.experiment, params=params,
                            output_dir=args.out if not args.config else config.output_dir,
                            seed=args.seed if not args.config else config.seed)


def main(argv=None):
    config = build_config(sys.argv[1:] if argv is None else argv)
    try:
        report = run(config)
    except ValueError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        print(check.line())
    for art in report.artifacts:
        print(f"ARTIFACT {art['sha256']}  {art['path']}")
    print(f"DONE {config.experiment} wall_time={report.wall_time:.3f}s "
          f"{'OK' if report.all_passed else 'FAILED'}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
