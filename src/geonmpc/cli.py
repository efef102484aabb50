"""Command-line front end for the closed-loop simulator.

Commands: simulate (default), compare-precond, init-only.  Flags override
config-file values.  Exit codes: 0 success, 2 solver failure, 3 bad config.
"""

import argparse
import sys
from typing import List, Optional

import numpy as np

from .config import load_config, with_overrides
from .errors import ConfigError, GeonmpcError
from .hemisphere import initial_guess, make_problem
from .linalg import norm2
from .simulate import _fmt, compare_preconditioning, run_simulation
from .solver import NmpcController

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 2
EXIT_CONFIG_ERROR = 3

_COMMANDS = ("simulate", "compare-precond", "init-only")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geonmpc",
        description="Closed-loop minimum-time NMPC simulation on the sphere.",
    )
    parser.add_argument("command", nargs="?", choices=_COMMANDS,
                        default="simulate",
                        help="action to run (default: simulate)")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
    parser.add_argument("--no-precond", action="store_true",
                        help="disable the block-updated Jacobian-inverse "
                             "preconditioner")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory for CSV artifacts")
    parser.add_argument("--max-samples", type=int, metavar="K",
                        help="cap on the number of closed-loop samples")
    return parser


def _cmd_simulate(cfg) -> int:
    records = run_simulation(cfg)
    last = records[-1]
    print(f"samples: {len(records)}")
    print(f"final t: {_fmt(last.t)}  p: {_fmt(last.p)}")
    print(f"final chart state: ({_fmt(last.x)}, {_fmt(last.y)})")
    if cfg.output_dir is not None:
        print(f"wrote CSV artifacts to {cfg.output_dir}")
    return EXIT_OK


def _cmd_compare(cfg) -> int:
    summary = compare_preconditioning(cfg)
    print(f"samples: {len(summary.iters_with)} (precond) / "
          f"{len(summary.iters_without)} (no precond)")
    print(f"mean gmres iters: {summary.mean_with:.4f} (precond) < "
          f"{summary.mean_without:.4f} (no precond)")
    print(f"max chart-state gap between runs: {_fmt(summary.max_state_gap)}")
    if cfg.output_dir is not None:
        print(f"wrote compare_precond.csv to {cfg.output_dir}")
    return EXIT_OK


def _cmd_init_only(cfg) -> int:
    problem = make_problem(cfg.params, cfg.n_steps)
    controller = NmpcController(problem, precondition=cfg.precond_enabled)
    x0 = np.array([cfg.params.x0, cfg.params.y0])
    decision = controller.initialize(
        x0, 0.0, initial_guess(problem.layout, cfg.params))
    print(f"normF = {_fmt(norm2(problem.assemble_residual(x0, decision)))}")
    print(f"p = {_fmt(float(problem.layout.p(decision)[0]))}")
    print("U =")
    for value in decision:
        print(f"  {_fmt(float(value))}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(cfg, no_precond=args.no_precond,
                             output_dir=args.out,
                             max_samples=args.max_samples)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        if args.command == "simulate":
            return _cmd_simulate(cfg)
        if args.command == "compare-precond":
            return _cmd_compare(cfg)
        return _cmd_init_only(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except GeonmpcError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
