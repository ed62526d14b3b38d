"""Command-line entry point.

    slowdrive list
    slowdrive run   <config.json> [--out DIR] [--seed N] [--threads N] [--step H]
    slowdrive sweep <config.json> [--out DIR] [--seed N] [--threads N] [--step H]

``run`` executes the first tau of the config (a quick look, no rate fits);
``sweep`` executes the full tau list with fits and bound checks. Exit code 0
when every verdict is PASS, 2 when any bound check FAILs, 1 on execution
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .scenarios import ConfigError, ScenarioConfig, list_scenarios
from .sweeps import SweepExecutionError, run_sweep


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", help="path to a scenario config (UTF-8 JSON)")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, help="seed override (u64)")
    p.add_argument("--threads", type=int, help="parallel (scenario, tau) jobs")
    p.add_argument("--step", type=float, help="integrator step override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowdrive",
        description="Slow-drive quantum dynamics: propagate, measure, and "
        "report operator-topology convergence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the scenario catalog")
    _add_common(sub.add_parser("run", help="execute the first tau of a config"))
    _add_common(sub.add_parser("sweep", help="execute the full tau sweep of a config"))
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    config = ScenarioConfig.from_file(args.config)
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.step is not None:
        overrides["step"] = args.step
    return dataclasses.replace(config, **overrides) if overrides else config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, description, anchor in list_scenarios():
            print(f"{name:28s} {description}  [{anchor}]")
        return 0
    try:
        config = _load_config(args)
        result = run_sweep(config, single=(args.command == "run"))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SweepExecutionError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 1
    for outcome in result.outcomes:
        slope = "" if outcome.slope is None else f" slope={outcome.slope:+.3f}"
        print(f"{result.scenario}/{outcome.metric}: {outcome.verdict}{slope}")
    if result.summary_path:
        print(f"summary: {result.summary_path}")
    return 0 if result.all_pass else 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
