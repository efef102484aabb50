"""Per-layer metrics of a traced run, from its spans and counters.

Counts are per episode and must repeat exactly across the traced episodes
of a run; times are per episode, median over the traced episodes.
"""

import statistics
from collections import defaultdict

from episodes import STEPPERS
from spans import END, NAME, PARENT, START

LAYERS = ("simulate", "solver", "gmres", "horizon", "hemisphere", "linalg",
          "manifold")
RESIDUAL_CALLERS = {"solver.exact_jacobian": "fd_jacobian", "solver.jvp": "jvp",
                    "solver.sample_update": "sample", "solver.initialize": "init"}


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_self_ms(layer):
    def value(s, c):
        # the callbacks run inside horizon's spans but belong to hemisphere
        callbacks = c.get("hemisphere.callbacks.s", 0.0)
        moved = {"horizon": -callbacks, "hemisphere": callbacks}.get(layer, 0.0)
        return 1e3 * (s[f"layer.{layer}.self_s"] + moved)
    return value


# name -> (unit, value from span aggregates s and counters c of one episode)
COUNTS = {
    "solver.samples": ("count", lambda s, c: s["solver.sample_update.calls"]),
    "horizon.residual.calls": ("count", lambda s, c: s["horizon.residual.calls"]),
    **{f"horizon.residual.calls.{caller}":
       ("count", lambda s, c, k=caller: s[f"horizon.residual.calls.{k}"])
       for caller in ("init", "fd_jacobian", "jvp", "sample")},
    "hemisphere.callbacks.calls": ("count", lambda s, c: c.get("hemisphere.callbacks.calls", 0.0)),
    "solver.exact_jacobian.calls": ("count", lambda s, c: s["solver.exact_jacobian.calls"]),
    "solver.init_newton_iters": ("count", lambda s, c: s["solver.init_newton_iters"]),
    "solver.refresh.count": ("count", lambda s, c: s["solver.refresh.count"]),
    "solver.jvp.calls": ("count", lambda s, c: s["solver.jvp.calls"]),
    "gmres.iters.total": ("count", lambda s, c: c.get("gmres.iters.total", 0.0)),
    "gmres.iters.mean": ("iters", lambda s, c: _ratio(c.get("gmres.iters.total", 0.0),
                                                     c.get("gmres.solves", 0.0))),
    "gmres.iters.max": ("count", lambda s, c: c.get("gmres.iters.max", 0.0)),
    "gmres.converged_frac": ("frac", lambda s, c: _ratio(c.get("gmres.converged", 0.0),
                                                         c.get("gmres.solves", 0.0))),
    "gmres.precond_apply.calls": ("count", lambda s, c: s["gmres.precond_apply.calls"]),
    "linalg.lu_factor.calls": ("count", lambda s, c: s["linalg.lu_factor.calls"]),
    "linalg.lu_solve.calls": ("count", lambda s, c: s["linalg.lu_solve.calls"]),
    "linalg.lu_factor.mflop_computed": (
        "MFLOP", lambda s, c: c.get("linalg.lu_factor.flop", 0.0) / 1e6),
    "linalg.lu_solve.mflop_computed": (
        "MFLOP", lambda s, c: c.get("linalg.lu_solve.flop", 0.0) / 1e6),
    **{f"manifold.{name}.g_evals_per_step":
       ("count", lambda s, c, k=name: _ratio(c.get(f"manifold.{k}.g.calls", 0.0),
                                             c.get(f"manifold.{k}.steps", 0.0)))
       for name in STEPPERS},
}

TIMES = {
    "horizon.residual.us_per_call": (
        "us", lambda s, c: 1e6 * _ratio(s["horizon.residual.s"], s["horizon.residual.calls"])),
    "hemisphere.callbacks.ms": ("ms", lambda s, c: 1e3 * c.get("hemisphere.callbacks.s", 0.0)),
    "hemisphere.plant_step.ms": ("ms", lambda s, c: 1e3 * s["hemisphere.plant_step.s"]),
    "solver.exact_jacobian.ms": ("ms", lambda s, c: 1e3 * s["solver.exact_jacobian.s"]),
    "solver.precond_factor.ms": ("ms", lambda s, c: 1e3 * s["solver.precond_factor.s"]),
    "solver.jvp.ms": ("ms", lambda s, c: 1e3 * s["solver.jvp.s"]),
    "solver.sample_update.self_ms": ("ms", lambda s, c: 1e3 * s["solver.sample_update.self_s"]),
    "gmres.self_ms": ("ms", lambda s, c: 1e3 * s["gmres.solve.self_s"]),
    "gmres.precond_apply.us_per_call": (
        "us", lambda s, c: 1e6 * _ratio(s["gmres.precond_apply.s"], s["gmres.precond_apply.calls"])),
    "linalg.lu_factor.ms": ("ms", lambda s, c: 1e3 * s["linalg.lu_factor.s"]),
    "linalg.lu_solve.ms": ("ms", lambda s, c: 1e3 * s["linalg.lu_solve.s"]),
    "simulate.loop.self_ms": ("ms", lambda s, c: 1e3 * s["simulate.run_simulation.self_s"]),
    **{f"layer.{layer}.self_ms": ("ms", _layer_self_ms(layer)) for layer in LAYERS},
}


def span_aggregates(spans) -> dict:
    """Per-episode sums over spans: calls, seconds and self seconds by name,
    self seconds by layer, residual calls by caller, refresh builds."""
    dur = [span[END] - span[START] for span in spans]
    child = [0.0] * len(spans)
    jacobian_child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            child[span[PARENT]] += dur[i]
            if span[NAME] == "solver.exact_jacobian":
                jacobian_child[span[PARENT]] += dur[i]

    out = defaultdict(lambda: defaultdict(float))
    for i, (name, _, _, parent, episode) in enumerate(spans):
        agg = out[episode]
        self_s = dur[i] - child[i]
        agg[name + ".calls"] += 1
        agg[name + ".s"] += dur[i]
        agg[name + ".self_s"] += self_s
        agg["layer." + name.split(".")[0] + ".self_s"] += self_s
        parent_name = spans[parent][NAME] if parent >= 0 else None
        if name == "horizon.residual":
            caller, j = "other", parent
            while j >= 0 and spans[j][NAME] not in RESIDUAL_CALLERS:
                j = spans[j][PARENT]
            if j >= 0:
                caller = RESIDUAL_CALLERS[spans[j][NAME]]
            agg["horizon.residual.calls." + caller] += 1
        elif name == "solver.refresh_preconditioner" and jacobian_child[i] > 0.0:
            agg["solver.precond_factor.s"] += dur[i] - jacobian_child[i]
            if parent_name == "solver.sample_update":
                agg["solver.refresh.count"] += 1
        elif name == "solver.exact_jacobian" and parent_name == "solver.init_newton":
            agg["solver.init_newton_iters"] += 1
    return out


def layer_metrics(tracer, episode_ids):
    """Return (metrics as name -> (value, unit), list of problems found).

    A problem is a count that differs between traced episodes, or residual
    calls by caller that do not sum to the total.
    """
    aggregates = span_aggregates(tracer.spans)
    counts = []
    times = []
    for ep in episode_ids:
        s, c = aggregates[ep], tracer.episode_counters[ep]
        counts.append({name: fn(s, c) for name, (_, fn) in COUNTS.items()})
        times.append({name: fn(s, c) for name, (_, fn) in TIMES.items()})
    problems = []
    for name in COUNTS:
        values = {row[name] for row in counts}
        if len(values) > 1:
            problems.append(f"{name} differs between traced episodes: {sorted(values)}")
    for ep in episode_ids:
        agg = aggregates[ep]
        by_caller = sum(agg[f"horizon.residual.calls.{k}"] for k in RESIDUAL_CALLERS.values())
        if by_caller != agg["horizon.residual.calls"]:
            problems.append(f"episode {ep}: residual calls by caller sum to "
                            f"{by_caller:g}, total {agg['horizon.residual.calls']:g}")
    metrics = {name: (counts[0][name], unit) for name, (unit, _) in COUNTS.items()}
    metrics.update({name: (statistics.median(row[name] for row in times), unit)
                    for name, (unit, _) in TIMES.items()})
    return metrics, problems
