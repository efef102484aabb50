import math
from dataclasses import replace

import numpy as np
import pytest

import geonmpc.gmres
import geonmpc.solver
from conftest import make_cart_problem
from geonmpc.config import SimConfig
from geonmpc.errors import GeonmpcError, InitializationFailure
from geonmpc.gmres import GmresReport, gmres_solve, matrix_operator
from geonmpc.hemisphere import (
    HemisphereParams,
    great_circle_distance,
    initial_guess,
    make_problem,
    plant_step,
)
from geonmpc.horizon import DecisionLayout
from geonmpc.linalg import inverse
from geonmpc.simulate import run_simulation
from geonmpc.solver import (
    INIT_TOL,
    P_MIN,
    NmpcController,
    PreconditionerState,
    _step_scale,
    exact_jacobian,
    initialize,
    jacobian_vector_product,
    krylov_update,
)


class StubProblem:
    """Residual-only problem: F(U) = A U - b, measured state ignored.

    Like HorizonProblem, it maps a (B, n) stack of U row by row."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        n = self.a.shape[0]
        # any layout with a matching total length will do
        self.layout = DecisionLayout(n_steps=n, n_u=1, n_mu=0, n_nu=0, n_p=0, n_x=0)
        assert self.layout.dim == n

    def assemble_residual(self, x0, U):
        return U @ self.a.T - self.b


class CallableProblem:
    """F(U) from a per-vector function, mapped over the rows of a stack."""

    def __init__(self, fn, layout):
        self.fn = fn
        self.layout = layout

    def assemble_residual(self, x0, U):
        return np.apply_along_axis(self.fn, -1, U)


PARAMS = HemisphereParams()


@pytest.fixture(scope="module")
def hemi():
    prob = make_problem(PARAMS, 20)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    u_star = initialize(prob, x0, initial_guess(prob.layout, PARAMS))
    return prob, x0, u_star


def tracked(hemi, precondition=True):
    """The vector the controller tracks at the solution: lifted when
    preconditioned, condensed when not."""
    prob, x0, u_star = hemi
    return prob.lift(x0, u_star) if precondition else u_star.copy()


def fresh_controller(hemi):
    prob, x0, u_star = hemi
    ctl = NmpcController(prob)
    ctl.U = tracked(hemi)
    ctl.refresh_preconditioner(x0, 0.0)
    return ctl


def perturbed_controller(hemi, precondition=True):
    """Off the solution, so every sample takes a nonzero step."""
    prob, x0, u_star = hemi
    ctl = NmpcController(prob, precondition=precondition)
    U = tracked(hemi, precondition)
    ctl.U = U + 0.01 * np.random.default_rng(5).standard_normal(U.size)
    ctl.refresh_preconditioner(x0, 0.0)
    return ctl


# ------------------------------------------------------- directional product

def test_jvp_linear_problem():
    rng = np.random.default_rng(13)
    n = 16
    a = rng.standard_normal((n, n)) + 5.0 * np.eye(n)
    prob = StubProblem(a, rng.standard_normal(n))
    for scale in (1.0, 1e6):
        U = scale * rng.standard_normal(n)
        f0 = prob.assemble_residual(None, U)
        for _ in range(5):
            v = rng.standard_normal(n)
            jv = jacobian_vector_product(prob, None, U, f0, v, _step_scale(U))
            want = a @ v
            assert np.linalg.norm(jv - want) <= 1e-6 * np.linalg.norm(want)


def test_jvp_rejects_zero_direction():
    prob = StubProblem(np.eye(8), np.zeros(8))
    U = np.ones(8)
    f0 = prob.assemble_residual(None, U)
    with pytest.raises(ValueError):
        jacobian_vector_product(prob, None, U, f0, np.zeros(8), _step_scale(U))


def test_sample_update_scales_its_products_once(hemi, monkeypatch):
    # the forward-difference step scale FD_STEP * max(1, |U|) depends on U
    # alone: sample_update computes it once and passes every product the
    # value each would compute, so the products keep their bits
    scales, products = [], []
    real_scale, real_jvp = geonmpc.solver._step_scale, geonmpc.solver.jacobian_vector_product

    def counted_scale(U):
        scales.append(1)
        return real_scale(U)

    def checked_jvp(problem, x0, U, F0, v, scale):
        products.append(scale == real_scale(U))
        return real_jvp(problem, x0, U, F0, v, scale)

    ctl = perturbed_controller(hemi, precondition=False)
    monkeypatch.setattr(geonmpc.solver, "_step_scale", counted_scale)
    monkeypatch.setattr(geonmpc.solver, "jacobian_vector_product", checked_jvp)
    _, tel = ctl.sample_update(hemi[1], 0.0)
    assert tel.gmres_iters >= 2
    assert products == [True] * tel.gmres_iters
    assert scales == [1]


def test_exact_jacobian_linear_recovery():
    rng = np.random.default_rng(14)
    n = 12
    a = rng.standard_normal((n, n))
    prob = StubProblem(np.vstack([a[:8], rng.standard_normal((4, n))]), np.zeros(n))
    jac = exact_jacobian(prob, None, rng.standard_normal(n))
    assert np.max(np.abs(jac - prob.a)) <= 1e-6


def test_exact_jacobian_hemisphere_cross_terms(hemi):
    prob, x0, u_star = hemi
    rng = np.random.default_rng(77)
    U = u_star + 0.01 * rng.standard_normal(prob.layout.dim)
    jac = exact_jacobian(prob, x0, U)
    assert jac.shape == (63, 63)
    n = 20
    for i in (0, 7, 19):
        # band-row/heading and band-row/slack second derivatives commute;
        # stage i's heading and slack sit at 2i and 2i + 1
        assert abs(jac[2 * i, 2 * n + i] - jac[2 * n + i, 2 * i]) <= 1e-6
        assert abs(jac[2 * i + 1, 2 * n + i] - jac[2 * n + i, 2 * i + 1]) <= 1e-6


def test_jvp_matches_jacobian_columns(hemi):
    prob, x0, u_star = hemi
    f0 = prob.assemble_residual(x0, u_star)
    jac = exact_jacobian(prob, x0, u_star)
    for j in range(0, prob.layout.dim, 7):
        e = np.zeros(prob.layout.dim)
        e[j] = 1.0
        col = jacobian_vector_product(prob, x0, u_star, f0, e, _step_scale(u_star))
        assert np.linalg.norm(col - jac[:, j]) <= 1e-4 * np.linalg.norm(jac[:, j])


def test_jvp_matches_all_lifted_jacobian_columns(hemi):
    prob, x0, _ = hemi
    U = tracked(hemi)
    assert U.shape == (prob.layout.lifted_dim,) == (143,)
    f0 = prob.assemble_residual(x0, U)
    jac = exact_jacobian(prob, x0, U)
    worst = 0.0
    for j, e in enumerate(np.eye(U.size)):
        col = jacobian_vector_product(prob, x0, U, f0, e, _step_scale(U))
        worst = max(worst, np.linalg.norm(col - jac[:, j]) / np.linalg.norm(jac[:, j]))
    assert worst <= 1e-4


# ----------------------------------------------------------- initialization

def test_initialize_cart_problem():
    prob = make_cart_problem(8)
    U = initialize(prob, np.array([0.3, -0.2]), np.zeros(prob.layout.dim))
    assert np.linalg.norm(prob.assemble_residual(np.array([0.3, -0.2]), U)) <= 1e-8


def test_initialize_reports_no_descent():
    layout = DecisionLayout(n_steps=1, n_u=1, n_mu=0, n_nu=0, n_p=0, n_x=0)
    prob = CallableProblem(lambda U: np.array([U[0] ** 2 + 1.0]), layout)
    with pytest.raises(InitializationFailure) as err:
        initialize(prob, None, np.array([1.0]))
    assert err.value.final_residual is not None
    assert err.value.final_residual >= 1.0
    assert len(err.value.damping_history) >= 1


def test_initialize_reports_singular_jacobian():
    layout = DecisionLayout(n_steps=1, n_u=1, n_mu=0, n_nu=0, n_p=0, n_x=0)
    prob = CallableProblem(lambda U: np.array([1.0]), layout)
    with pytest.raises(InitializationFailure, match="singular"):
        initialize(prob, None, np.array([0.5]))


def test_a_trial_with_an_infinite_heading_counts_as_no_descent():
    # the first line-search trial carries an infinite heading: the
    # hemisphere names it with GeonmpcError (math.cos alone raises a bare
    # ValueError), which the line search counts as r = inf, so it halves
    # the step and the cold start still converges
    prob = make_problem(PARAMS, 20)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    real, single_calls, raised = prob.assemble_residual, [], []

    def assemble_residual(x, U):
        if np.ndim(U) == 1:
            single_calls.append(1)
            if len(single_calls) == 2:  # the first trial, after the start's residual
                U = U.copy()
                U[4] = np.inf  # stage 2's heading
                try:
                    return real(x, U)
                except GeonmpcError as exc:
                    raised.append(str(exc))
                    raise
        return real(x, U)

    prob.assemble_residual = assemble_residual
    U = initialize(prob, x0, initial_guess(prob.layout, PARAMS))
    assert raised == ["heading u = inf is not finite"]
    assert np.linalg.norm(real(x0, U)) <= INIT_TOL


def test_initialize_hemisphere_solution(hemi):
    prob, x0, u_star = hemi
    assert np.linalg.norm(prob.assemble_residual(x0, u_star)) <= 1e-8
    p_star = prob.layout.p(u_star)[0]
    assert 1.0 < p_star < 1.5
    headings = prob.layout.controls(u_star)[:, 0]
    # a tight residual forces the controls onto the band
    assert np.all(headings >= PARAMS.c_u - PARAMS.r_u - 1e-3)
    assert np.all(headings <= PARAMS.c_u + PARAMS.r_u + 1e-3)
    assert np.all(prob.layout.mus(u_star) > 0)  # multipliers hold the band active


def counted_newton_iterations(monkeypatch) -> list:
    """A list that gains one entry per Newton iteration of initialize: one
    exact_jacobian call each."""
    calls = []
    real = geonmpc.solver.exact_jacobian

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(geonmpc.solver, "exact_jacobian", counted)
    return calls


def test_shipped_start_initializes_in_few_newton_iterations(monkeypatch):
    # the straight-path guess takes 7 iterations; the band-center guess
    # with nu = 0 took 13
    iters = counted_newton_iterations(monkeypatch)
    prob = make_problem(PARAMS, 20)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    U = initialize(prob, x0, initial_guess(prob.layout, PARAMS))
    assert np.linalg.norm(prob.assemble_residual(x0, U)) <= INIT_TOL
    assert len(iters) <= 8


def sweep_params(angle: float) -> HemisphereParams:
    """Start 1.1 chart units from the target (0.5, 0), displaced at `angle`:
    the chart heading of the straight path to the target."""
    return HemisphereParams(x0=0.5 - 1.1 * math.cos(angle), y0=-1.1 * math.sin(angle))


@pytest.mark.parametrize("angle", [0.405, 0.41, 0.42, 0.43, 0.45, 0.5, 0.55, 0.595])
def test_init_converges_inside_the_heading_band(monkeypatch, angle):
    # the reachable targets are those whose displacement angle lies in the
    # band [c_u - r_u, c_u + r_u] = [0.4, 0.6]; inside it, init converges
    params = sweep_params(angle)
    prob = make_problem(params, 20)
    x0 = np.array([params.x0, params.y0])
    iters = counted_newton_iterations(monkeypatch)
    U = initialize(prob, x0, initial_guess(prob.layout, params))
    assert np.linalg.norm(prob.assemble_residual(x0, U)) <= INIT_TOL
    # on the sphere the speed is at most 1, so no time beats the geodesic
    assert prob.layout.p(U)[0] >= great_circle_distance(params)
    assert len(iters) <= 10


def assert_rejected_before_any_residual(monkeypatch, params, match):
    prob = make_problem(params, 20)
    calls = []
    monkeypatch.setattr(prob, "assemble_residual", lambda *args: calls.append(1))
    with pytest.raises(InitializationFailure, match=match):
        initialize(prob, np.array([params.x0, params.y0]),
                   initial_guess(prob.layout, params))
    assert calls == []


@pytest.mark.parametrize("angle", [0.39, 0.395, 0.605, 0.61])
def test_init_rejects_a_heading_outside_the_band(monkeypatch, angle):
    assert_rejected_before_any_residual(monkeypatch, sweep_params(angle),
                                        "target unreachable")


@pytest.mark.parametrize("angle", [0.4, 0.6])
def test_init_fails_fast_on_the_band_edge(monkeypatch, angle):
    # on the closed edge the slack is 0 and its multiplier unbounded; the
    # computed heading equals the edge c_u -+ r_u as computed, although
    # |u - c_u| rounds a quarter ulp below r_u, and counts as on it
    assert_rejected_before_any_residual(monkeypatch, sweep_params(angle),
                                        "target unreachable")


def test_init_rejects_an_edge_heading_without_slack(monkeypatch):
    # with r_u = 0.27 the edge heading 0.23 lies a hair above c_u - r_u as
    # computed, yet (u - c_u)^2 rounds to r_u^2, so the slack would be 0
    assert_rejected_before_any_residual(
        monkeypatch, replace(sweep_params(0.23), r_u=0.27), "target unreachable")


def test_init_rejects_a_start_at_the_target(monkeypatch):
    assert_rejected_before_any_residual(
        monkeypatch, HemisphereParams(x0=PARAMS.x_f, y0=PARAMS.y_f),
        "is at the target")


def next_to_target(distance: float) -> HemisphereParams:
    """Start `distance` chart units from the target, at the band centre."""
    return HemisphereParams(x0=0.5 - distance * math.cos(PARAMS.c_u),
                            y0=-distance * math.sin(PARAMS.c_u))


@pytest.mark.parametrize("distance", [1e-4, 8e-4])
def test_init_next_to_the_target_names_the_p_floor(distance):
    # the minimum time is below P_MIN, so the floored p cannot reach it
    params = next_to_target(distance)
    prob = make_problem(params, 20)
    with pytest.raises(InitializationFailure,
                       match=r"^no descent direction .*its floor P_MIN"):
        initialize(prob, np.array([params.x0, params.y0]),
                   initial_guess(prob.layout, params))


def test_init_converges_next_to_the_target_above_the_p_floor():
    params = next_to_target(8.7e-4)
    prob = make_problem(params, 20)
    x0 = np.array([params.x0, params.y0])
    U = initialize(prob, x0, initial_guess(prob.layout, params))
    assert np.linalg.norm(prob.assemble_residual(x0, U)) <= INIT_TOL
    assert P_MIN < prob.layout.p(U)[0] < 1.01e-3


# ------------------------------------------------------------ sample update

def test_sample_update_fixed_point(hemi):
    prob, x0, u_star = hemi
    ctl = fresh_controller(hemi)
    u0_before = prob.layout.controls(u_star)[0].copy()
    u_apply, tel = ctl.sample_update(x0, 0.0)
    assert np.max(np.abs(u_apply - u0_before)) <= 1e-8
    assert tel.residual_norm <= 1e-8
    assert tel.gmres_iters <= 1


@pytest.mark.parametrize("precondition", [True, False])
def test_tracked_vector_follows_precondition(hemi, precondition):
    # the preconditioned controller tracks the lifted vector; initialize
    # returns the condensed solution either way
    prob, x0, u_star = hemi
    ctl = NmpcController(prob, precondition=precondition)
    solved = ctl.initialize(x0, 0.0, initial_guess(prob.layout, PARAMS))
    assert np.array_equal(solved, u_star)
    assert np.array_equal(ctl.U, tracked(hemi, precondition))
    ctl.sample_update(x0, 0.0)
    assert ctl.U.shape == (prob.layout.lifted_dim if precondition else prob.layout.dim,)


def test_singular_lifted_jacobian_fails_initialization(hemi, monkeypatch):
    # unpreconditioned GMRES cannot solve the lifted system, so a start whose
    # lifted Jacobian is singular fails and names the unpreconditioned mode
    prob, x0, _ = hemi
    monkeypatch.setattr(geonmpc.solver, "exact_jacobian", lambda problem, x, U: (
        np.zeros((U.size, U.size)) if U.size == prob.layout.lifted_dim
        else exact_jacobian(problem, x, U)))
    ctl = NmpcController(prob)
    with pytest.raises(InitializationFailure,
                       match=r"^singular lifted Jacobian at the start: .*--no-precond\)$"):
        ctl.initialize(x0, 0.0, initial_guess(prob.layout, PARAMS))
    # nothing is tracked, so the controller cannot step
    assert ctl.U is None
    with pytest.raises(InitializationFailure, match="before initialize"):
        ctl.sample_update(x0, 0.0)


def test_sample_update_requires_initialize(hemi):
    prob, x0, _ = hemi
    ctl = NmpcController(prob)
    with pytest.raises(InitializationFailure):
        ctl.sample_update(x0, 0.0)


def test_reinitialize_starts_a_fresh_preconditioner(hemi):
    # a controller re-initialized after a run behaves like a fresh one: the
    # old run's inverse, built at t = 0.2, neither survives nor delays the
    # refresh at t0
    prob, x0, _ = hemi
    dt = 0.00625

    def started():
        ctl = NmpcController(prob)
        ctl.initialize(x0, 0.0, initial_guess(prob.layout, PARAMS))
        return ctl

    def iterations(ctl, samples):
        x, iters = x0.copy(), []
        for k in range(samples):
            u_apply, tel = ctl.sample_update(x, k * dt)
            iters.append(tel.gmres_iters)
            x = plant_step(x, float(u_apply[0]), dt)
        return iters

    used = started()
    iterations(used, 60)
    assert used.precond.built_at == 0.2
    used.initialize(x0, 0.0, initial_guess(prob.layout, PARAMS))
    fresh = started()
    assert used.precond.built_at == 0.0
    assert np.array_equal(used.precond.inverse, fresh.precond.inverse)
    assert iterations(used, 10) == iterations(fresh, 10)


def test_preconditioner_refresh_period(hemi):
    prob, x0, _ = hemi
    ctl = perturbed_controller(hemi)
    built = ctl.precond.inverse
    before = built.copy()
    ctl.sample_update(x0, 0.1)
    # inside the period: the same array, block-updated in place
    assert ctl.precond.inverse is built
    assert not np.array_equal(ctl.precond.inverse, before)
    assert ctl.precond.built_at == 0.0
    ctl.sample_update(x0, 0.25)
    assert ctl.precond.inverse is not built  # period elapsed: rebuilt
    assert ctl.precond.built_at == 0.25


def test_singular_refresh_keeps_the_held_inverse(monkeypatch):
    ctl = stale_stub_controller()
    held = ctl.precond.inverse
    before = held.copy()
    builds = []
    monkeypatch.setattr(geonmpc.solver, "exact_jacobian",
                        lambda problem, x, U: builds.append(1) or np.zeros((U.size, U.size)))
    for t in (0.25, 0.3, 0.4):  # one refresh attempt, then inside its period
        _, tel = ctl.sample_update(None, t)
        assert tel.precond_used
    assert len(builds) == 1
    assert ctl.precond.built_at == 0.25
    # the same array, block-updated in place after each solve
    assert ctl.precond.inverse is held
    assert not np.array_equal(held, before)


# ------------------------------------------------- block Broyden update

def stale_stub_controller(seed=21, n=12):
    """A linear problem whose stored inverse is that of a nearby matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 6.0 * np.eye(n)
    prob = StubProblem(a, rng.standard_normal(n))
    ctl = NmpcController(prob)
    ctl.U = rng.standard_normal(n)
    stale = inverse(a + 0.3 * rng.standard_normal((n, n)))
    ctl.precond = PreconditionerState(inverse=stale, built_at=0.0)
    return ctl


def test_krylov_update_secant_property(monkeypatch):
    # after the update H a v = v on every basis vector GMRES built; the
    # products were forward differences, so this holds to their accuracy
    ctl = stale_stub_controller()
    reports = []
    monkeypatch.setattr(geonmpc.solver, "gmres_solve",
                        lambda *args: reports.append(gmres_solve(*args)) or reports[-1])
    _, tel = ctl.sample_update(None, 0.0)
    assert tel.precond_used and not tel.update_skipped
    k = reports[0].iters_used
    assert k >= 2
    v = reports[0].basis[:k].T
    gap = ctl.precond.inverse @ ctl.problem.a @ v - v
    assert np.linalg.norm(gap) <= 1e-6 * np.linalg.norm(v)


def test_krylov_update_has_rank_at_most_k(monkeypatch):
    rng = np.random.default_rng(22)
    n = 9
    a = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    h = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    monkeypatch.setattr(geonmpc.gmres, "MAX_ITERS", 4)
    report = gmres_solve(matrix_operator(a), rng.standard_normal(n),
                         matrix_operator(h))
    k = report.iters_used
    assert k == 4
    before = h.copy()
    assert krylov_update(h, report)
    assert np.linalg.matrix_rank(h - before) <= k
    v = report.basis[:k].T
    assert np.linalg.norm(h @ a @ v - v) <= 1e-12 * np.linalg.norm(v)


def test_krylov_update_skips_a_zero_step():
    ctl = stale_stub_controller()
    prob = ctl.problem
    ctl.U = np.linalg.solve(prob.a, prob.b)  # converged: GMRES returns 0
    before = ctl.precond.inverse.copy()
    _, tel = ctl.sample_update(None, 0.0)
    assert tel.precond_used and tel.update_skipped
    assert ctl.precond.inverse.tobytes() == before.tobytes()


def one_step_report(s, z):
    """The report of one GMRES step from the unit vector s, whose
    preconditioned product is z; its H_1 is s.z."""
    with np.errstate(invalid="ignore"):
        h11 = s @ z
        w = z - h11 * s
        h21 = np.linalg.norm(w)
        basis = np.array([s, w / h21])
    return GmresReport(np.zeros(s.shape[0]), 1, True, [1.0, 0.0],
                       basis, np.array([[h11], [h21]]))


@pytest.mark.parametrize("y", [
    np.array([0.0, 1.0, 0.0]),          # H_1 = s.Hy = 0
    np.array([np.nan, 0.0, 0.0]),
    np.array([np.inf, 1.0, 0.0]),
    np.array([-np.inf, np.inf, 0.0]),
])
def test_krylov_update_skips_a_degenerate_secant(y):
    h = np.eye(3)
    before = h.copy()
    assert not krylov_update(h, one_step_report(np.array([1.0, 0.0, 0.0]), y))
    assert h.tobytes() == before.tobytes()


def test_refresh_sample_sees_the_fresh_inverse(hemi, monkeypatch):
    prob, x0, _ = hemi
    ctl = perturbed_controller(hemi)
    ctl.sample_update(x0, 0.1)
    updated = ctl.precond.inverse.copy()
    U = ctl.U.copy()
    seen = []

    def recording_gmres(op, rhs, precond=None):
        seen.append(np.column_stack([precond.apply(e) for e in np.eye(U.size)]))
        return gmres_solve(op, rhs, precond)

    monkeypatch.setattr(geonmpc.solver, "gmres_solve", recording_gmres)
    _, tel = ctl.sample_update(x0, 0.25)
    assert tel.precond_age == 0.0
    fresh = inverse(exact_jacobian(prob, x0, U))
    assert np.array_equal(seen[0], fresh)
    assert not np.array_equal(seen[0], updated)


def test_default_run_gmres_counts():
    # counts are deterministic: the preconditioner update keeps them this low
    records = run_simulation(replace(SimConfig(), output_dir=None),
                             write_output=False)
    iters = [r.gmres_iters for r in records]
    assert np.mean(iters) <= 3.0
    assert max(iters) <= 7


@pytest.mark.parametrize("precond_enabled, iters_total", [(True, 424), (False, 2066)])
def test_shipped_loop_counts(shipped_loop, precond_enabled, iters_total):
    # gate 04's means (2.16 and 10.54) as exact, deterministic totals, and
    # every GMRES solve of both loops reaches its tolerance
    records, samples = shipped_loop(precond_enabled)
    telemetry = [tel for _, _, tel in samples]
    assert len(records) == len(telemetry) == 196
    assert sum(tel.gmres_iters for tel in telemetry) == iters_total
    assert sum(not tel.gmres_converged for tel in telemetry) == 0


@pytest.mark.parametrize("n_steps, mean_cap, max_cap",
                         [(20, 2.2, 3), (40, 2.4, 4), (80, 2.5, 5)])
def test_block_update_gmres_counts(n_steps, mean_cap, max_cap):
    # with H J = I on each sample's whole Krylov subspace, the next sample
    # needs at most a few more directions (measured on the lifted system:
    # 2.16/3, 2.33/3 and 2.40/5)
    cfg = replace(SimConfig(), n_steps=n_steps, output_dir=None)
    iters = [r.gmres_iters for r in run_simulation(cfg, write_output=False)]
    assert np.mean(iters) <= mean_cap
    assert max(iters) <= max_cap


def test_unpreconditioned_mode(hemi, monkeypatch):
    prob, x0, _ = hemi

    def forbidden(*args):
        raise AssertionError("block update without a preconditioner")

    monkeypatch.setattr(geonmpc.solver, "krylov_update", forbidden)
    ctl = perturbed_controller(hemi, precondition=False)
    assert ctl.precond.inverse is None
    for k in range(3):
        _, tel = ctl.sample_update(x0, 0.1 * k)
        assert not tel.precond_used
        assert not tel.update_skipped
        assert ctl.precond.inverse is None


def test_post_refresh_sample_is_cheap(hemi):
    prob, x0, _ = hemi
    ctl = fresh_controller(hemi)
    x = x0.copy()
    t = 0.0
    dt = 0.00625
    for k in range(4):
        u_apply, tel = ctl.sample_update(x, t)
        if tel.precond_age == 0.0:
            assert tel.gmres_iters <= 3
        assert tel.gmres_iters <= 20
        x = plant_step(x, u_apply[0], dt)
        t += dt


def test_warm_start_step_shrinks_with_dt(hemi):
    prob, x0, _ = hemi

    def first_update_size(dt):
        ctl = fresh_controller(hemi)
        u_apply, _ = ctl.sample_update(x0, 0.0)
        before = ctl.U.copy()
        x = plant_step(x0, u_apply[0], dt)
        ctl.sample_update(x, dt)
        return np.linalg.norm(ctl.U - before)

    full, half = first_update_size(0.00625), first_update_size(0.003125)
    assert half < 0.75 * full


def test_telemetry_fields(hemi):
    prob, x0, _ = hemi
    ctl = fresh_controller(hemi)
    u_apply, tel = ctl.sample_update(x0, 0.0)
    assert tel.t == 0.0
    assert isinstance(tel.gmres_iters, int)
    assert np.isfinite(tel.residual_norm)
    assert np.isfinite(tel.residual_norm_pre)
    assert u_apply.shape == (2,)
    assert tel.precond_age == 0.0
    assert tel.precond_used
    assert isinstance(tel.gmres_converged, bool)
    assert isinstance(tel.update_skipped, bool)
