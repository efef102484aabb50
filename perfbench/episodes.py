"""One benchmark episode: a closed-loop run plus a replay through the steppers.

An episode drives the public API from outside.  ``simulate.run_simulation``
runs the controller from the seeded start until ``p <= p_stop``; light
wrappers around ``make_problem``, ``NmpcController.initialize`` and
``NmpcController.sample_update`` time set-up and every sample.  The
applied headings are then replayed on the sphere (``ambient_dynamics``)
through the four ``geonmpc.manifold`` steppers, one timed call per step.

A traced episode also installs the span wrappers of ``trace_patches``.
Every episode is checked against the acceptance gate's tolerances.
"""

import dataclasses
import math
import traceback
from functools import partial
from time import perf_counter

import numpy as np

import geonmpc.gmres
import geonmpc.manifold
import geonmpc.simulate
import geonmpc.solver
from geonmpc.config import SimConfig
from geonmpc.hemisphere import (ambient_dynamics, hemisphere_chart,
                                lift_to_sphere, sphere_constraint)
from geonmpc.manifold import (ManifoldConstraint, explicit_euler,
                              local_coordinates_step, standard_projection_step,
                              symmetric_projection_step, trapezoidal)
from geonmpc.solver import NmpcController

from spans import Tracer, counted_linalg, patched, traced_gmres

WORKLOADS = {
    "closed_loop_n20": {"n_steps": 20, "precond_enabled": True},
    "closed_loop_n20_noprecond": {"n_steps": 20, "precond_enabled": False},
    "closed_loop_n40": {"n_steps": 40, "precond_enabled": True},
}

STEPPERS = ("local_euler", "proj_euler", "proj_trap", "sym_trap")

# Acceptance-gate tolerances (tests/test_acceptance.py), none loosened.
EXPECTED_TIME_TO_GO = 1.2332
TIME_TO_GO_TOL = 0.05
SEED0_N20_SAMPLES = 196
CONTROL_BAND = (0.4, 0.6)
CONTROL_BAND_TOL = 1e-3
RESIDUAL_SMALL = 1e-2
RESIDUAL_SMALL_SHARE = 0.95
SPHERE_DEFECT_MAX = 1e-12
STEPPER_DEFECT_MAX = 1e-9
# At most 0.02 stays inside the reachable heading cone, but a move that
# large changes the work: without the preconditioner the median GMRES
# iteration count per sample ranged from 9 to 14 over seeds 11-20.  With
# 0.002 it is 12 on each of them, and the total per episode varies by ~2%.
START_JITTER = 0.002
# untraced episodes time each stepper step as the fastest of this many
# identical calls; traced ones call once, so g counts stay per step
STEP_REPEATS = 3


def sim_config(workload: str, seed: int) -> SimConfig:
    """The shipped config with the workload's overrides.

    Seed 0 keeps the shipped start; other seeds move each start coordinate
    by at most START_JITTER, which stays inside the reachable heading cone.
    """
    base = SimConfig()
    params = base.params
    if seed != 0:
        dx, dy = np.random.default_rng(seed).uniform(
            -START_JITTER, START_JITTER, size=2)
        params = dataclasses.replace(params, x0=params.x0 + dx,
                                     y0=params.y0 + dy)
    return dataclasses.replace(base, output_dir=None, params=params,
                               **WORKLOADS[workload])


@dataclasses.dataclass
class Episode:
    index: int
    traced: bool
    setup_s: float = math.nan
    loop_s: float = math.nan
    sample_s: list = dataclasses.field(default_factory=list)
    # loop wall time split at each sample's start: iteration k runs from the
    # start of sample k (the end of set-up for k = 0) to the next start
    iteration_s: list = dataclasses.field(default_factory=list)
    refreshed: list = dataclasses.field(default_factory=list)
    step_s: dict = dataclasses.field(default_factory=dict)
    stepper_defect: dict = dataclasses.field(default_factory=dict)
    u_band_excess: float = math.nan
    failures: list = dataclasses.field(default_factory=list)


def _timing_patches(marks: dict, ep: Episode):
    def make_problem(inner):
        def call(*args, **kwargs):
            marks["setup_start"] = perf_counter()
            return inner(*args, **kwargs)
        return call

    def initialize(inner):
        def call(self, *args, **kwargs):
            try:
                return inner(self, *args, **kwargs)
            finally:
                marks["setup_end"] = perf_counter()
        return call

    def sample_update(inner):
        def call(self, *args, **kwargs):
            t0 = perf_counter()
            if ep.sample_s:
                marks["starts"].append(t0)
            out = inner(self, *args, **kwargs)
            ep.sample_s.append(perf_counter() - t0)
            ep.refreshed.append(out[1].precond_age == 0.0)
            return out
        return call

    return [(geonmpc.simulate, "make_problem", make_problem),
            (NmpcController, "initialize", initialize),
            (NmpcController, "sample_update", sample_update)]


def _traced_problem(tracer: Tracer, make_problem):
    """make_problem whose residual and OcpDefinition callbacks are recorded."""
    def call(*args, **kwargs):
        problem = make_problem(*args, **kwargs)
        ocp = problem.ocp
        callbacks = {f.name: tracer.timed("hemisphere.callbacks", getattr(ocp, f.name))
                     for f in dataclasses.fields(ocp)
                     if callable(getattr(ocp, f.name))}
        problem.ocp = dataclasses.replace(ocp, **callbacks)
        problem.assemble_residual = tracer.wrap(
            "horizon.residual", problem.assemble_residual)
        return problem
    return call


def trace_patches(tracer: Tracer):
    """Span wrappers at the public boundaries, each looked up in the module
    that calls it; the dense kernels only while they exist."""
    def span(name):
        return partial(tracer.wrap, name)

    patches = [
        (geonmpc.simulate, "make_problem",
         lambda inner: tracer.wrap("simulate.make_problem",
                                   _traced_problem(tracer, inner))),
        (geonmpc.simulate, "plant_step", span("hemisphere.plant_step")),
        (NmpcController, "initialize", span("solver.initialize")),
        (NmpcController, "refresh_preconditioner", span("solver.refresh_preconditioner")),
        (NmpcController, "sample_update", span("solver.sample_update")),
        (geonmpc.solver, "initialize", span("solver.init_newton")),
        (geonmpc.solver, "exact_jacobian", span("solver.exact_jacobian")),
        (geonmpc.solver, "jacobian_vector_product", span("solver.jvp")),
        (geonmpc.solver, "gmres_solve", partial(traced_gmres, tracer)),
    ]
    flops = {"lu_factor": lambda a: 2.0 / 3.0 * len(a) ** 3,
             "lu_solve": lambda f, b: 2.0 * len(b) ** 2}
    for module in (geonmpc.solver, geonmpc.gmres, geonmpc.manifold):
        for name, count in flops.items():
            if hasattr(module, name):
                patches.append((module, name, partial(
                    counted_linalg, tracer, name, flops=count)))
    return patches


def _steppers(constraints):
    chart = hemisphere_chart()

    def field(u, tau, y):
        return ambient_dynamics(y, u)

    return {
        "local_euler": lambda u: partial(
            local_coordinates_step, chart,
            explicit_euler(chart.bound_field((u, 1.0)))),
        "proj_euler": lambda u: partial(
            standard_projection_step, constraints["proj_euler"],
            explicit_euler(partial(field, u))),
        "proj_trap": lambda u: partial(
            standard_projection_step, constraints["proj_trap"],
            trapezoidal(partial(field, u))),
        "sym_trap": lambda u: partial(
            symmetric_projection_step, constraints["sym_trap"],
            trapezoidal(partial(field, u))),
    }


def replay_steppers(ep: Episode, start, headings, dt: float,
                    tracer: Tracer | None) -> None:
    """Advance the sphere dynamics under the applied headings, one timed
    call per step and stepper; with a tracer, count ``g`` per stepper."""
    sphere = sphere_constraint()
    constraints = {name: sphere for name in STEPPERS}
    if tracer is not None:
        constraints = {name: ManifoldConstraint(
            g=tracer.timed(f"manifold.{name}.g", sphere.g),
            jacobian_g=sphere.jacobian_g) for name in STEPPERS}
    makers = _steppers(constraints)
    wraps = {name: (partial(tracer.wrap, f"manifold.{name}.step")
                    if tracer is not None else (lambda step: step))
             for name in STEPPERS}
    repeats = 1 if tracer is not None else STEP_REPEATS
    states = {name: lift_to_sphere(start) for name in STEPPERS}
    times = {name: [] for name in STEPPERS}
    worst = dict.fromkeys(STEPPERS, 0.0)
    # steppers take turns step by step, so machine slowdowns hit all alike
    for k, u in enumerate(headings):
        for name in STEPPERS:
            step = wraps[name](makers[name](u))
            fastest = math.inf
            for _ in range(repeats):
                t0 = perf_counter()
                y = step(k * dt, states[name], dt)
                fastest = min(fastest, perf_counter() - t0)
            times[name].append(fastest)
            states[name] = y
            worst[name] = max(worst[name], sphere.defect(y))
    for name in STEPPERS:
        ep.step_s[name] = times[name]
        ep.stepper_defect[name] = (sphere.defect(states[name]), worst[name])
        if tracer is not None:
            tracer.add(f"manifold.{name}.steps", len(headings))


def check_episode(ep: Episode, cfg: SimConfig, seed: int, records) -> None:
    """Append every acceptance-gate violation to ep.failures."""
    fail = ep.failures.append
    if not records:
        fail("no samples")
        return
    if seed == 0 and cfg.n_steps == 20:
        if abs(records[0].p - EXPECTED_TIME_TO_GO) > TIME_TO_GO_TOL:
            fail(f"initial p {records[0].p:.4f} not within "
                 f"{EXPECTED_TIME_TO_GO}+/-{TIME_TO_GO_TOL}")
        if len(records) != SEED0_N20_SAMPLES:
            fail(f"{len(records)} samples, expected {SEED0_N20_SAMPLES}")
    if not (records[-1].p <= cfg.p_stop and len(records) <= cfg.max_samples):
        fail(f"p={records[-1].p:.4g} > p_stop after {len(records)} samples")
    norms = np.array([r.norm_f for r in records[1:]])
    if not np.all(np.isfinite(norms)):
        fail("non-finite |F|")
    elif norms.size and np.mean(norms < RESIDUAL_SMALL) < RESIDUAL_SMALL_SHARE:
        fail(f"only {np.mean(norms < RESIDUAL_SMALL):.3f} of samples "
             f"have |F| < {RESIDUAL_SMALL}")
    defect = max(r.sphere_defect for r in records)
    if not defect <= SPHERE_DEFECT_MAX:
        fail(f"sphere defect {defect:.2e} > {SPHERE_DEFECT_MAX}")
    lo, hi = min(r.u for r in records), max(r.u for r in records)
    ep.u_band_excess = max(CONTROL_BAND[0] - lo, hi - CONTROL_BAND[1], 0.0)
    # Gate 02 checks the band on the preconditioned run only.  Without the
    # preconditioner the seed code leaves it by about 2.5e-3, so there the
    # excess is reported, not checked.
    if cfg.precond_enabled and not ep.u_band_excess <= CONTROL_BAND_TOL:
        fail(f"u in [{lo:.4f}, {hi:.4f}] outside the band")
    for name, (final, _) in ep.stepper_defect.items():
        if not final <= STEPPER_DEFECT_MAX:
            fail(f"{name} final defect {final:.2e} > {STEPPER_DEFECT_MAX}")


def run_episode(index: int, cfg: SimConfig, seed: int,
                tracer: Tracer | None = None) -> Episode:
    """Run one episode; an error or a failed check lands in ep.failures."""
    ep = Episode(index=index, traced=tracer is not None)
    marks = {"starts": []}
    patches = _timing_patches(marks, ep)
    run = geonmpc.simulate.run_simulation
    if tracer is not None:
        tracer.begin_episode(index)
        # span wrappers sit inside the timers, so traced timings include them
        patches = trace_patches(tracer) + patches
        run = tracer.wrap("simulate.run_simulation", run)
    try:
        with patched(patches):
            records = run(cfg, write_output=False)
            end = perf_counter()
            ep.setup_s = marks["setup_end"] - marks["setup_start"]
            ep.loop_s = end - marks["setup_end"]
            bounds = [marks["setup_end"], *marks["starts"], end]
            ep.iteration_s = [b - a for a, b in zip(bounds, bounds[1:])]
            replay_steppers(ep, (cfg.params.x0, cfg.params.y0),
                            [r.u for r in records], cfg.dt, tracer)
        check_episode(ep, cfg, seed, records)
    except Exception:  # an episode that raises counts as failed
        ep.failures.append(traceback.format_exc(limit=3))
    if tracer is not None:
        tracer.end_episode()
    return ep
