"""End-to-end acceptance gate for the benchmark configuration.

Every check prints one [PASS]/[FAIL] line with the measured number next to
the committed tolerance; run `pytest tests/test_acceptance.py -v -s` to see
the lines on a green run.  The closed-loop checks share two module-scoped
runs of the default configuration (preconditioner on and off).
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import discrete_lagrangian, fd_gradient, make_cart_problem
from geonmpc.config import SimConfig
from geonmpc.gmres import GmresConfig, gmres_solve, matrix_operator
from geonmpc.hemisphere import (HemisphereParams, ambient_dynamics,
                                hemisphere_chart, initial_guess, lift_to_sphere,
                                make_problem, residual_rows, sphere_constraint)
from geonmpc.manifold import (explicit_euler, local_coordinates_step,
                              standard_projection_step,
                              symmetric_projection_step, trapezoidal)
from geonmpc.simulate import run_simulation
from geonmpc.solver import (NmpcController, SolverConfig, exact_jacobian,
                            jacobian_vector_product)

EXPECTED_TIME_TO_GO = 1.2332
CONTROL_BAND = (0.4, 0.6)


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def benchmark_run():
    cfg = replace(SimConfig(), output_dir=None)
    start = time.perf_counter()
    records = run_simulation(cfg, write_output=False)
    wall = time.perf_counter() - start
    return records, wall


@pytest.fixture(scope="module")
def unpreconditioned_run():
    cfg = replace(SimConfig(), output_dir=None, precond_enabled=False)
    return run_simulation(cfg, write_output=False)


@pytest.fixture(scope="module")
def initialized():
    params = HemisphereParams()
    problem = make_problem(params, 20)
    controller = NmpcController(problem, SolverConfig())
    x0 = np.array([params.x0, params.y0])
    decision = controller.initialize(
        x0, 0.0, initial_guess(problem.layout, params))
    return problem, x0, decision


def test_01_time_to_destination_and_runtime(benchmark_run):
    records, wall = benchmark_run
    p_init = records[0].p
    ok = abs(p_init - EXPECTED_TIME_TO_GO) <= 0.05 and wall < 60.0
    verdict("01 time-to-destination",
            ok,
            f"initialized p={p_init:.4f} vs {EXPECTED_TIME_TO_GO}+/-0.05, "
            f"closed loop {len(records)} samples in {wall:.2f}s (< 60s)")


def test_02_control_band(benchmark_run):
    records, _ = benchmark_run
    lo = min(r.u for r in records)
    hi = max(r.u for r in records)
    ok = lo >= CONTROL_BAND[0] - 1e-3 and hi <= CONTROL_BAND[1] + 1e-3
    verdict("02 control-band",
            ok,
            f"applied u in [{lo:.4f}, {hi:.4f}] vs "
            f"[{CONTROL_BAND[0]}-1e-3, {CONTROL_BAND[1]}+1e-3]")


def test_02b_control_band_without_preconditioner(unpreconditioned_run):
    lo = min(r.u for r in unpreconditioned_run)
    hi = max(r.u for r in unpreconditioned_run)
    ok = lo >= CONTROL_BAND[0] - 1e-3 and hi <= CONTROL_BAND[1] + 1e-3
    verdict("02b control-band-no-precond",
            ok,
            f"applied u in [{lo:.4f}, {hi:.4f}] vs "
            f"[{CONTROL_BAND[0]}-1e-3, {CONTROL_BAND[1]}+1e-3]")


def test_03_manifold_conservation(benchmark_run):
    records, _ = benchmark_run
    closed_loop = max(r.sphere_defect for r in records)

    constraint = sphere_constraint()
    field = lambda tau, y: ambient_dynamics(y, 0.5)
    y0 = lift_to_sphere((-0.5, -0.5))
    dtau = 0.00625
    open_loop = {}
    for name, step_fn in (("standard", standard_projection_step),
                          ("symmetric", symmetric_projection_step)):
        method = explicit_euler(field)
        y = y0.copy()
        worst = 0.0
        for k in range(10_000):
            y = step_fn(constraint, method, k * dtau, y, dtau)
            worst = max(worst, constraint.defect(y))
        open_loop[name] = worst

    ok = closed_loop <= 1e-12 and all(v <= 1e-9 for v in open_loop.values())
    verdict("03 manifold-conservation",
            ok,
            f"closed-loop defect {closed_loop:.2e} (<=1e-12); "
            f"1e4-step projection defects "
            f"std {open_loop['standard']:.2e}, "
            f"sym {open_loop['symmetric']:.2e} (<=1e-9)")


def test_04_preconditioning_effect(benchmark_run, unpreconditioned_run):
    with_records, _ = benchmark_run
    mean_on = float(np.mean([r.gmres_iters for r in with_records]))
    mean_off = float(np.mean([r.gmres_iters for r in unpreconditioned_run]))
    max_iters = max(max(r.gmres_iters for r in with_records),
                    max(r.gmres_iters for r in unpreconditioned_run))
    post_refresh = [r.gmres_iters for r in with_records if r.precond_age == 0.0]
    ok = (mean_on < mean_off and max_iters <= 20
          and post_refresh and max(post_refresh) <= 3)
    verdict("04 preconditioning-effect",
            ok,
            f"mean iters {mean_on:.2f} (on) < {mean_off:.2f} (off); "
            f"max {max_iters} (<=20); post-refresh max "
            f"{max(post_refresh) if post_refresh else 'n/a'} (<=3, "
            f"{len(post_refresh)} refresh samples)")


def test_05_residual_health(benchmark_run):
    records, _ = benchmark_run
    norms = np.array([r.norm_f for r in records])
    finite = bool(np.all(np.isfinite(norms)))
    fraction_small = float(np.mean(norms < 1e-2))
    ok = finite and fraction_small >= 0.95
    verdict("05 residual-health",
            ok,
            f"all finite={finite}; max |F|={norms.max():.2e}; "
            f"{100 * fraction_small:.1f}% below 1e-2 (>=95%)")


def test_06a_dual_residual_paths():
    # draws perturb the initial guess so every trajectory stays inside the
    # chart domain, where both residual formulations are defined
    params = HemisphereParams()
    problem = make_problem(params, 20)
    layout = problem.layout
    rng = np.random.default_rng(2024)
    base = initial_guess(layout, params)
    worst = 0.0
    for _ in range(100):
        decision = base.copy()
        controls, mus = layout.controls(decision), layout.mus(decision)
        for i in range(layout.n_steps):
            controls[i] += rng.uniform(-0.05, 0.05, 2)
            mus[i] += rng.uniform(-0.02, 0.02, 1)
        layout.nu(decision)[:] = rng.uniform(-0.5, 0.5, size=2)
        layout.p(decision)[:] += rng.uniform(-0.1, 0.1, 1)
        x0 = np.array([params.x0, params.y0]) + rng.uniform(-0.05, 0.05, 2)
        generic = problem.assemble_residual(x0, decision)
        direct = residual_rows(decision, x0, problem.grid, params)
        worst = max(worst, float(np.max(np.abs(generic - direct))))
    ok = worst <= 1e-12
    verdict("06a dual-residual-paths",
            ok, f"entrywise gap {worst:.2e} over 100 draws (<=1e-12)")


def test_06b_jvp_matches_jacobian_columns(initialized):
    problem, x0, decision = initialized
    h = 1e-8
    jac = exact_jacobian(problem, x0, decision, h)
    f0 = problem.assemble_residual(x0, decision)
    worst = 0.0
    for j in range(problem.dim):
        e_j = np.zeros(problem.dim)
        e_j[j] = 1.0
        jv = jacobian_vector_product(problem, x0, decision, f0, e_j, h)
        col = jac[:, j]
        worst = max(worst,
                    float(np.linalg.norm(jv - col) / np.linalg.norm(col)))
    ok = worst <= 1e-4
    verdict("06b jvp-vs-jacobian-columns",
            ok, f"max per-column relative gap {worst:.2e} (<=1e-4)")


def test_06c_gmres_matches_lu():
    rng = np.random.default_rng(7)
    worst = 0.0
    for size in (2, 5, 13, 27, 40):
        for _ in range(4):
            a = np.eye(size) + 0.3 * rng.standard_normal((size, size)) / np.sqrt(size)
            b = rng.standard_normal(size)
            b /= np.linalg.norm(b)
            direct = np.linalg.solve(a, b)
            report = gmres_solve(matrix_operator(a), b,
                                 cfg=GmresConfig(max_iters=size, abs_tol=1e-13))
            err = float(np.linalg.norm(report.solution - direct)
                        / np.linalg.norm(direct))
            worst = max(worst, err)
    ok = worst <= 1e-8
    verdict("06c gmres-vs-lu",
            ok, f"worst relative solution error {worst:.2e} (<=1e-8)")


def test_06d_control_rows_match_lagrangian_gradient():
    problem = make_cart_problem(n_steps=10)
    rng = np.random.default_rng(11)
    decision = 0.3 * rng.standard_normal(problem.dim)
    x0 = np.array([0.2, -0.1])
    residual = problem.assemble_residual(x0, decision)
    grad = fd_gradient(lambda v: discrete_lagrangian(problem, x0, v), decision)
    n_controls = problem.grid.n_steps * problem.ocp.n_u
    gap = float(np.max(np.abs(residual[:n_controls] - grad[:n_controls])))
    ok = gap <= 1e-6
    verdict("06d control-rows-vs-lagrangian-gradient",
            ok, f"max |F_u - dL/du| = {gap:.2e} (<=1e-6)")


def test_07_integrator_geometry():
    constraint = sphere_constraint()
    u_const = 0.5
    field = lambda tau, y: ambient_dynamics(y, u_const)
    y0 = lift_to_sphere((-0.5, -0.5))

    # round trip: one symmetric step forward, one along the reversed field
    forward = symmetric_projection_step(
        constraint, trapezoidal(field), 0.0, y0, 0.05)
    back = symmetric_projection_step(
        constraint, trapezoidal(lambda tau, y: -field(tau, y)), 0.0,
        forward, 0.05)
    reversibility = float(np.linalg.norm(back - y0))

    sol = solve_ivp(field, (0.0, 0.5), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    reference = sol.y[:, -1]

    chart = hemisphere_chart()

    def run_local(n):
        method = explicit_euler(chart.bound_field((u_const, 1.0)))
        y = y0.copy()
        dtau = 0.5 / n
        for k in range(n):
            y = local_coordinates_step(chart, method, k * dtau, y, dtau)
        return y

    def run_projected(step_fn, n):
        method = explicit_euler(field)
        y = y0.copy()
        dtau = 0.5 / n
        for k in range(n):
            y = step_fn(constraint, method, k * dtau, y, dtau)
        return y

    ratios = {}
    for name, runner in (
            ("local", run_local),
            ("standard", lambda n: run_projected(standard_projection_step, n)),
            ("symmetric", lambda n: run_projected(symmetric_projection_step, n))):
        errs = [float(np.linalg.norm(runner(n) - reference))
                for n in (100, 200)]
        ratios[name] = errs[0] / errs[1]

    ok = reversibility <= 1e-9 and all(1.6 <= r <= 2.4 for r in ratios.values())
    verdict("07 integrator-geometry",
            ok,
            f"reversibility {reversibility:.2e} (<=1e-9); halving ratios "
            f"local {ratios['local']:.2f}, std {ratios['standard']:.2f}, "
            f"sym {ratios['symmetric']:.2f} (within [1.6, 2.4])")
