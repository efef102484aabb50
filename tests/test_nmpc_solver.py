from dataclasses import replace

import numpy as np
import pytest

import geonmpc.solver
from conftest import make_cart_problem
from geonmpc.config import SimConfig
from geonmpc.errors import InitializationFailure
from geonmpc.hemisphere import (
    HemisphereParams,
    initial_guess,
    make_problem,
    plant_step,
)
from geonmpc.horizon import DecisionLayout
from geonmpc.linalg import inverse
from geonmpc.simulate import run_simulation
from geonmpc.solver import (
    NmpcController,
    PreconditionerState,
    broyden_update,
    exact_jacobian,
    initialize,
    jacobian_vector_product,
)


class StubProblem:
    """Residual-only problem: F(U) = A U - b, measured state ignored.

    Like HorizonProblem, it maps a (B, n) stack of U row by row."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        n = self.a.shape[0]
        # any layout with a matching total length will do
        self.layout = DecisionLayout(n_steps=n, n_u=1, n_mu=0, n_nu=0, n_p=0)
        assert self.layout.dim == n

    @property
    def dim(self):
        return self.a.shape[0]

    def assemble_residual(self, x0, U):
        return U @ self.a.T - self.b


class CallableProblem:
    """F(U) from a per-vector function, mapped over the rows of a stack."""

    def __init__(self, fn, layout):
        self.fn = fn
        self.layout = layout

    @property
    def dim(self):
        return self.layout.dim

    def assemble_residual(self, x0, U):
        return np.apply_along_axis(self.fn, -1, U)


PARAMS = HemisphereParams()


@pytest.fixture(scope="module")
def hemi():
    prob = make_problem(PARAMS)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    u_star = initialize(prob, x0, initial_guess(prob.layout, PARAMS))
    return prob, x0, u_star


def fresh_controller(hemi):
    prob, x0, u_star = hemi
    ctl = NmpcController(prob)
    ctl.U = u_star.copy()
    ctl.refresh_preconditioner(x0, 0.0)
    return ctl


def perturbed_controller(hemi, precondition=True):
    """Off the solution, so every sample takes a nonzero step."""
    prob, x0, u_star = hemi
    ctl = NmpcController(prob, precondition=precondition)
    ctl.U = u_star + 0.01 * np.random.default_rng(5).standard_normal(prob.dim)
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
            jv = jacobian_vector_product(prob, None, U, f0, v)
            want = a @ v
            assert np.linalg.norm(jv - want) <= 1e-6 * np.linalg.norm(want)


def test_jvp_rejects_zero_direction():
    prob = StubProblem(np.eye(8), np.zeros(8))
    U = np.ones(8)
    f0 = prob.assemble_residual(None, U)
    with pytest.raises(ValueError):
        jacobian_vector_product(prob, None, U, f0, np.zeros(8))


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
    U = u_star + 0.01 * rng.standard_normal(prob.dim)
    jac = exact_jacobian(prob, x0, U)
    assert jac.shape == (63, 63)
    n = 20
    for i in (0, 7, 19):
        # band-row/heading and band-row/slack second derivatives commute
        assert abs(jac[i, 2 * n + i] - jac[2 * n + i, i]) <= 1e-6
        assert abs(jac[n + i, 2 * n + i] - jac[2 * n + i, n + i]) <= 1e-6


def test_jvp_matches_jacobian_columns(hemi):
    prob, x0, u_star = hemi
    f0 = prob.assemble_residual(x0, u_star)
    jac = exact_jacobian(prob, x0, u_star)
    for j in range(0, prob.dim, 7):
        e = np.zeros(prob.dim)
        e[j] = 1.0
        col = jacobian_vector_product(prob, x0, u_star, f0, e)
        assert np.linalg.norm(col - jac[:, j]) <= 1e-4 * np.linalg.norm(jac[:, j])


# ----------------------------------------------------------- initialization

def test_initialize_cart_problem():
    prob = make_cart_problem(8)
    U = initialize(prob, np.array([0.3, -0.2]), np.zeros(prob.dim))
    assert np.linalg.norm(prob.assemble_residual(np.array([0.3, -0.2]), U)) <= 1e-8


def test_initialize_reports_no_descent():
    layout = DecisionLayout(n_steps=1, n_u=1, n_mu=0, n_nu=0, n_p=0)
    prob = CallableProblem(lambda U: np.array([U[0] ** 2 + 1.0]), layout)
    with pytest.raises(InitializationFailure) as err:
        initialize(prob, None, np.array([1.0]))
    assert err.value.final_residual is not None
    assert err.value.final_residual >= 1.0
    assert len(err.value.damping_history) >= 1


def test_initialize_reports_singular_jacobian():
    layout = DecisionLayout(n_steps=1, n_u=1, n_mu=0, n_nu=0, n_p=0)
    prob = CallableProblem(lambda U: np.array([1.0]), layout)
    with pytest.raises(InitializationFailure, match="singular"):
        initialize(prob, None, np.array([0.5]))


def test_initialize_hemisphere_solution(hemi):
    prob, x0, u_star = hemi
    assert np.linalg.norm(prob.assemble_residual(x0, u_star)) <= 1e-8
    p_star = prob.layout.p(u_star)[0]
    assert 1.0 < p_star < 1.5
    n = 20
    headings = u_star[:n]
    # a tight residual forces the controls onto the band
    assert np.all(headings >= PARAMS.c_u - PARAMS.r_u - 1e-3)
    assert np.all(headings <= PARAMS.c_u + PARAMS.r_u + 1e-3)
    assert np.all(u_star[2 * n:3 * n] > 0)  # multipliers hold the band active


# ------------------------------------------------------------ sample update

def test_sample_update_fixed_point(hemi):
    prob, x0, u_star = hemi
    ctl = fresh_controller(hemi)
    u0_before = prob.layout.controls(u_star)[0].copy()
    u_apply, tel = ctl.sample_update(x0, 0.0)
    assert np.max(np.abs(u_apply - u0_before)) <= 1e-8
    assert tel.residual_norm <= 1e-8
    assert tel.gmres_iters <= 1


def test_sample_update_requires_initialize(hemi):
    prob, x0, _ = hemi
    ctl = NmpcController(prob)
    with pytest.raises(InitializationFailure):
        ctl.sample_update(x0, 0.0)


def test_preconditioner_refresh_period(hemi):
    prob, x0, _ = hemi
    ctl = perturbed_controller(hemi)
    built = ctl.precond.inverse
    before = built.copy()
    ctl.sample_update(x0, 0.1)
    # inside the period: the same array, Broyden-updated in place
    assert ctl.precond.inverse is built
    assert not np.array_equal(ctl.precond.inverse, before)
    assert ctl.precond.built_at == 0.0
    ctl.sample_update(x0, 0.25)
    assert ctl.precond.inverse is not built  # period elapsed: rebuilt
    assert ctl.precond.built_at == 0.25


def singular_controller():
    rng = np.random.default_rng(30)
    a = np.zeros((8, 8))
    a[:4, :4] = rng.standard_normal((4, 4))  # rank-deficient snapshot
    ctl = NmpcController(StubProblem(a, np.zeros(8)))
    ctl.U = 0.01 * rng.standard_normal(8)
    return ctl


def test_singular_preconditioner_falls_back():
    ctl = singular_controller()
    u_apply, tel = ctl.sample_update(np.zeros(2), 0.0)
    assert ctl.precond.inverse is None
    assert not tel.precond_used
    assert not tel.broyden_skipped
    assert np.isnan(tel.precond_age)
    assert np.isfinite(tel.residual_norm)


def test_singular_refresh_waits_one_period(monkeypatch):
    ctl = singular_controller()
    builds = []
    monkeypatch.setattr(geonmpc.solver, "exact_jacobian",
                        lambda *args: builds.append(1) or exact_jacobian(*args))
    for k in range(5):  # all inside one 0.2 s refresh period
        ctl.sample_update(np.zeros(2), 0.01 * k)
    assert len(builds) == 1
    assert ctl.precond.inverse is None


# ------------------------------------------------------- Broyden update

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


def test_broyden_secant_property():
    ctl = stale_stub_controller()
    prob, U = ctl.problem, ctl.U.copy()
    _, tel = ctl.sample_update(None, 0.0)
    s = ctl.U - U
    y = prob.assemble_residual(None, ctl.U) - prob.assemble_residual(None, U)
    assert tel.precond_used and not tel.broyden_skipped
    assert np.linalg.norm(s) > 0.0
    assert np.linalg.norm(ctl.precond.inverse @ y - s) <= 1e-12 * np.linalg.norm(s)


def test_broyden_update_is_rank_one():
    rng = np.random.default_rng(22)
    n = 9
    h = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    before = h.copy()
    s, y = rng.standard_normal(n), rng.standard_normal(n)
    assert broyden_update(h, s, y)
    assert np.linalg.matrix_rank(h - before) == 1
    assert np.linalg.norm(h @ y - s) <= 1e-12 * np.linalg.norm(s)


def test_broyden_skips_a_zero_step():
    ctl = stale_stub_controller()
    prob = ctl.problem
    ctl.U = np.linalg.solve(prob.a, prob.b)  # converged: GMRES returns 0
    before = ctl.precond.inverse.copy()
    _, tel = ctl.sample_update(None, 0.0)
    assert tel.precond_used and tel.broyden_skipped
    assert ctl.precond.inverse.tobytes() == before.tobytes()


@pytest.mark.parametrize("y", [
    np.array([0.0, 1.0, 0.0]),          # s^T H y = 0
    np.array([np.nan, 0.0, 0.0]),
    np.array([np.inf, 1.0, 0.0]),
    np.array([-np.inf, np.inf, 0.0]),
])
def test_broyden_skips_a_degenerate_secant(y):
    h = np.eye(3)
    before = h.copy()
    assert not broyden_update(h, np.array([1.0, 0.0, 0.0]), y)
    assert h.tobytes() == before.tobytes()


def test_refresh_sample_sees_the_fresh_inverse(hemi, monkeypatch):
    prob, x0, _ = hemi
    ctl = perturbed_controller(hemi)
    ctl.sample_update(x0, 0.1)
    updated = ctl.precond.inverse.copy()
    U = ctl.U.copy()
    seen = []

    def recording_gmres(op, rhs, precond=None):
        seen.append(np.column_stack([precond.apply(e) for e in np.eye(prob.dim)]))
        return gmres_solve(op, rhs, precond)

    gmres_solve = geonmpc.solver.gmres_solve
    monkeypatch.setattr(geonmpc.solver, "gmres_solve", recording_gmres)
    _, tel = ctl.sample_update(x0, 0.25)
    assert tel.precond_age == 0.0
    fresh = inverse(exact_jacobian(prob, x0, U))
    assert np.array_equal(seen[0], fresh)
    assert not np.array_equal(seen[0], updated)


def test_default_run_gmres_counts():
    # counts are deterministic: the Broyden update keeps them this low
    records = run_simulation(replace(SimConfig(), output_dir=None),
                             write_output=False)
    iters = [r.gmres_iters for r in records]
    assert np.mean(iters) <= 3.0
    assert max(iters) <= 7


def test_unpreconditioned_mode(hemi, monkeypatch):
    prob, x0, _ = hemi

    def forbidden(*args):
        raise AssertionError("Broyden update without a preconditioner")

    monkeypatch.setattr(geonmpc.solver, "broyden_update", forbidden)
    ctl = perturbed_controller(hemi, precondition=False)
    assert ctl.precond.inverse is None
    for k in range(3):
        _, tel = ctl.sample_update(x0, 0.1 * k)
        assert not tel.precond_used
        assert not tel.broyden_skipped
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
    assert isinstance(tel.broyden_skipped, bool)
