"""Command-line front end for the scenario runner.

Commands: ``run <config>``, ``list``, ``validate <config>``.  Exit status is
0 when every metric passes, 1 when a tolerance fails, 2 for
configuration problems and 3 when a scenario run fails with an error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigurationError, ScenarioError
from .scenarios import list_scenarios, load_config, run_scenario

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_SCENARIO = 3


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it as
    it was, so every ``main`` call can share it."""
    parser = argparse.ArgumentParser(
        prog="hydrohist",
        description="Run named experiments over the phase-space, ensemble, "
                    "histories and local-equilibrium modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="path to a JSON scenario config")
    run_p.add_argument("--out", metavar="DIR",
                       help="directory for CSV/JSON artifacts "
                            "(overrides the config)")
    run_p.add_argument("--seed", type=int, metavar="U64",
                       help="random seed (overrides the config)")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress per-metric output")

    sub.add_parser("list", help="list available scenarios")

    val_p = sub.add_parser("validate", help="validate a config and exit")
    val_p.add_argument("config", help="path to a JSON scenario config")
    return parser


def _cmd_run(args):
    try:
        config = load_config(args.config, seed_override=args.seed)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = run_scenario(config, output_dir=args.out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    if not args.quiet:
        for m in report.metrics:
            verdict = "pass" if m.passed else "FAIL"
            value = "n/a" if m.value is None else f"{m.value:.6g}"
            print(f"{report.scenario}: {m.name} = {value} "
                  f"{m.comparator} {m.threshold:g} ... {verdict}")
        for note in report.notes:
            print(f"note: {note}")
        print(f"{report.scenario}: "
              f"{'pass' if report.passed else 'FAIL'} "
              f"({report.wall_time_s:.2f} s)")
    return EXIT_PASS if report.passed else EXIT_TOLERANCE


def _cmd_list(_args):
    for name, description in list_scenarios():
        print(f"{name}: {description}")
    return EXIT_PASS


def _cmd_validate(args):
    try:
        config = load_config(args.config)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.config}: valid {config.scenario!r} config")
    return EXIT_PASS


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "list": _cmd_list,
               "validate": _cmd_validate}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
