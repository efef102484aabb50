"""Closed-loop controller benchmark for geonmpc.

    python3 perfbench/run.py --workload closed_loop_n20 --seed 0 --seconds 60 --trace 0

Runs whole episodes of one workload, one after another in this process,
until the next one would end after ``--seconds``.  An episode is one
closed loop from the seeded start to ``p <= p_stop``, followed by a replay
of its applied headings through the four manifold steppers (see
``episodes.py``).  Every episode is checked for correctness.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
episodes), loop time, per-sample ``sample_update`` latency (p50, p95) and
per-step stepper time (median); see ``end_to_end`` for how episodes are
combined.

``--trace 1`` alternates untraced and traced episodes and prints the
per-layer metrics of the traced ones, plus the tracing overhead; the spans
go to ``perfbench/out/spans_<workload>.csv``.  ``--short`` runs the fewest
episodes (one, or one of each kind when tracing) and ignores ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every episode passed, 1 when one failed, and 2 when the benchmark
cannot run (for example when ``src/geonmpc`` is missing).
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
# Pinned before numpy is imported, so BLAS runs on the calling thread only.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def median_profile(rows) -> list:
    """Per-index median over the episodes' equal-length timing rows."""
    return [statistics.median(column) for column in zip(*rows)]


def loop_median_s(episodes) -> float:
    """Loop wall time: the median profile of the loop iterations, summed."""
    return sum(median_profile(ep.iteration_s for ep in episodes))


def end_to_end(episodes, steppers) -> dict:
    """name -> (value, unit) over the given untraced episodes.

    Episodes of a run repeat identical work, so their differences are
    machine interference.  On a shared host it comes in bursts of seconds,
    and in busy periods fast moments are rare: the fastest repeat of a
    sample then depends on whether the run happened to catch one, while
    the median repeat tracks the host's typical speed.  Sample and step
    latencies therefore use the median profile: for each sample (or step)
    index, the median of its repeats.  The percentiles are taken over that
    profile.  setup_s is the median over episodes.
    """
    import numpy

    typical = median_profile(ep.sample_s for ep in episodes)
    metrics = {
        "setup_s": (statistics.median(ep.setup_s for ep in episodes), "s"),
        "loop_s": (loop_median_s(episodes), "s"),
        "sample_p50_ms": (1e3 * float(numpy.percentile(typical, 50)), "ms"),
        "sample_p95_ms": (1e3 * float(numpy.percentile(typical, 95)), "ms"),
    }
    for name in steppers:
        steps = median_profile(ep.step_s[name] for ep in episodes)
        metrics[f"step_us.{name}"] = (1e6 * statistics.median(steps), "us")
    return metrics


def refresh_p50_ms(episodes) -> float | None:
    refresh = [s for ep in episodes for s, r in zip(ep.sample_s, ep.refreshed) if r]
    return 1e3 * statistics.median(refresh) if refresh else None


def run_episodes(cfg, seed: int, seconds: float, trace: bool, short: bool):
    """Repeat the episode until the next one would end after ``seconds``;
    with ``trace``, every second episode is traced."""
    from episodes import run_episode
    from spans import Tracer

    tracer = Tracer() if trace else None
    # Two episodes pool at least 200 samples, and give a traced run one
    # episode of each kind.
    min_episodes = 1 if short and not trace else 2
    episodes = []
    begin = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        traced = trace and len(episodes) % 2 == 1
        episodes.append(run_episode(len(episodes), cfg, seed,
                                    tracer if traced else None))
        longest = max(longest, perf_counter() - t0)
        if len(episodes) >= min_episodes and (
                short or perf_counter() - begin + longest > seconds):
            return episodes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="fewest episodes, ignoring --seconds")
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import geonmpc
    except ImportError as exc:
        print(f"perfbench: cannot import geonmpc from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(geonmpc.__file__).resolve().parents:
        print(f"perfbench: geonmpc imported from {geonmpc.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import numpy
    from episodes import STEPPERS, WORKLOADS, sim_config
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    cfg = sim_config(args.workload, args.seed)
    episodes, tracer = run_episodes(cfg, args.seed, args.seconds,
                                    bool(args.trace), args.short)
    failed = [ep for ep in episodes if ep.failures]
    for ep in failed:
        print(f"episode {ep.index} failed: " + "; ".join(ep.failures), file=sys.stderr)
    plain = [ep for ep in episodes if not ep.traced and not ep.failures]
    traced = [ep for ep in episodes if ep.traced and not ep.failures]
    problems = []
    if not plain:
        problems.append("no untraced episode passed")
    elif len({len(ep.sample_s) for ep in plain + traced}) > 1:
        problems.append("sample counts differ between episodes of one seed")

    metrics = {}
    if not args.trace:
        if not problems:
            metrics = end_to_end(plain, STEPPERS)
        refresh = refresh_p50_ms(plain)
        notes = [f"{sum(len(ep.sample_s) for ep in plain)} samples pooled "
                 f"over {len(plain)} episodes",
                 f"failed_frac = {len(failed) / len(episodes):g} "
                 f"({len(failed)} of {len(episodes)} episodes)",
                 "refresh_sample_p50_ms = " + (
                     f"{refresh:.4f} ms" if refresh is not None
                     else "n/a (no preconditioner refresh)"),
                 "u_band_excess = " + (
                     f"{max(ep.u_band_excess for ep in plain):.3g}" if plain else "n/a")]
    else:
        from layers import layer_metrics
        if not traced:
            problems.append("no traced episode passed")
        if not problems:
            metrics, found = layer_metrics(tracer, [ep.index for ep in traced])
            problems += found
            samples = [s for ep in plain for s in ep.sample_s]
            untraced_loop = loop_median_s(plain)
            traced_loop = loop_median_s(traced)
            metrics.update({
                "solver.deadline_miss_frac": (
                    sum(s > cfg.dt for s in samples) / len(samples), "frac"),
                "solver.refresh_sample_p50_ms": (refresh_p50_ms(plain) or 0.0, "ms"),
                "check.u_band_excess": (max(ep.u_band_excess for ep in traced), "rad"),
                "manifold.max_defect": (
                    max(worst for ep in traced for _, worst in ep.stepper_defect.values()),
                    "defect"),
                "trace.overhead_s": (traced_loop - untraced_loop, "s"),
                "trace.overhead_frac": ((traced_loop - untraced_loop) / untraced_loop, "frac"),
            })
            metrics["failed_frac"] = (len(failed) / len(episodes), "frac")
        OUT_DIR.mkdir(exist_ok=True)
        spans_csv = OUT_DIR / f"spans_{args.workload}.csv"
        tracer.write_csv(spans_csv)
        notes = [f"{len(traced)} traced and {len(plain)} untraced episodes",
                 f"spans written to {spans_csv}"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"numpy {numpy.__version__}; BLAS threads "
          + ", ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS))
    for note in notes + problems:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(episodes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
