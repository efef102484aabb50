"""Command-line front end for the closed-loop simulator.

Commands: simulate (default), compare-precond, init-only.  Each flag sets
the config key it is named by in `dest` (--no-precond is precond = false,
--out is output_dir, --max-samples is max_samples) over the file's value.
Exit codes: 0 success, 2 solver failure, 3 bad config, a bad flag or
flag value included (argparse's message goes to stderr).
"""

import argparse
import sys
from typing import List, Optional

import numpy as np

from .config import load_config
from .errors import ConfigError, GeonmpcError
from .hemisphere import initial_guess, make_problem
from .linalg import norm2
from .simulate import _fmt, compare_preconditioning, run_simulation
from .solver import initialize

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 2
EXIT_CONFIG_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit with EXIT_CONFIG_ERROR,
    not argparse's 2, which means solver failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geonmpc",
        description="Closed-loop minimum-time NMPC simulation on the sphere.",
        # a flag left out sets no key, so the file's value stands
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", nargs="?", choices=_COMMANDS,
                        default="simulate",
                        help="action to run (default: simulate)")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="flat key = value config file")
    parser.add_argument("--no-precond", dest="precond", action="store_false",
                        help="disable the block-updated Jacobian-inverse "
                             "preconditioner")
    parser.add_argument("--out", dest="output_dir", metavar="DIR",
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
    x0 = np.array([cfg.params.x0, cfg.params.y0])
    decision = initialize(problem, x0, initial_guess(problem.layout, cfg.params))
    print(f"normF = {_fmt(norm2(problem.assemble_residual(x0, decision)))}")
    print(f"p = {_fmt(float(problem.layout.p(decision)[0]))}")
    print("U =")
    for value in decision:
        print(f"  {_fmt(float(value))}")
    return EXIT_OK


_COMMANDS = {"simulate": _cmd_simulate, "compare-precond": _cmd_compare,
             "init-only": _cmd_init_only}


def main(argv: Optional[List[str]] = None) -> int:
    # besides the command and the file path, argparse returns the keys the
    # given flags set
    overrides = vars(build_parser().parse_args(argv))
    command = _COMMANDS[overrides.pop("command")]
    try:
        cfg = load_config(overrides.pop("config"), overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        return command(cfg)
    except GeonmpcError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
