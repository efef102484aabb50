import numpy as np
import pytest

import geonmpc.solver
from conftest import make_cart_problem
from geonmpc.errors import InitializationFailure
from geonmpc.hemisphere import (
    HemisphereParams,
    initial_guess,
    make_problem,
    plant_step,
)
from geonmpc.horizon import DecisionLayout
from geonmpc.solver import (
    NmpcController,
    SolverConfig,
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
    u_star = initialize(prob, x0, SolverConfig(), initial_guess(prob.layout, PARAMS))
    return prob, x0, u_star


def fresh_controller(hemi, **cfg_overrides):
    prob, x0, u_star = hemi
    ctl = NmpcController(prob, SolverConfig(**cfg_overrides))
    ctl.U = u_star.copy()
    ctl.refresh_preconditioner(x0, 0.0)
    return ctl


# ------------------------------------------------------------------ config

def test_solver_config_defaults_and_validation():
    cfg = SolverConfig()
    assert cfg.fd_step == 1e-8
    assert cfg.gmres_cfg.max_iters == 20
    assert cfg.gmres_cfg.abs_tol == 1e-5
    assert cfg.precond_period == 0.2
    assert cfg.init_tol == 1e-8
    assert cfg.init_max_iters == 100
    for bad in (dict(fd_step=0.0), dict(precond_period=-1.0),
                dict(init_tol=0.0), dict(init_max_iters=0)):
        with pytest.raises(ValueError):
            SolverConfig(**bad)


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
            jv = jacobian_vector_product(prob, None, U, f0, v, 1e-8)
            want = a @ v
            assert np.linalg.norm(jv - want) <= 1e-6 * np.linalg.norm(want)


def test_jvp_rejects_zero_direction():
    prob = StubProblem(np.eye(8), np.zeros(8))
    U = np.ones(8)
    f0 = prob.assemble_residual(None, U)
    with pytest.raises(ValueError):
        jacobian_vector_product(prob, None, U, f0, np.zeros(8), 1e-8)


def test_exact_jacobian_linear_recovery():
    rng = np.random.default_rng(14)
    n = 12
    a = rng.standard_normal((n, n))
    prob = StubProblem(np.vstack([a[:8], rng.standard_normal((4, n))]), np.zeros(n))
    jac = exact_jacobian(prob, None, rng.standard_normal(n), 1e-8)
    assert np.max(np.abs(jac - prob.a)) <= 1e-6


def test_exact_jacobian_hemisphere_cross_terms(hemi):
    prob, x0, u_star = hemi
    rng = np.random.default_rng(77)
    U = u_star + 0.01 * rng.standard_normal(prob.dim)
    jac = exact_jacobian(prob, x0, U, 1e-8)
    assert jac.shape == (63, 63)
    n = 20
    for i in (0, 7, 19):
        # band-row/heading and band-row/slack second derivatives commute
        assert abs(jac[i, 2 * n + i] - jac[2 * n + i, i]) <= 1e-6
        assert abs(jac[n + i, 2 * n + i] - jac[2 * n + i, n + i]) <= 1e-6


def test_jvp_matches_jacobian_columns(hemi):
    prob, x0, u_star = hemi
    f0 = prob.assemble_residual(x0, u_star)
    jac = exact_jacobian(prob, x0, u_star, 1e-8)
    for j in range(0, prob.dim, 7):
        e = np.zeros(prob.dim)
        e[j] = 1.0
        col = jacobian_vector_product(prob, x0, u_star, f0, e, 1e-8)
        assert np.linalg.norm(col - jac[:, j]) <= 1e-4 * np.linalg.norm(jac[:, j])


# ----------------------------------------------------------- initialization

def test_initialize_cart_problem():
    prob = make_cart_problem(8)
    U = initialize(prob, np.array([0.3, -0.2]), SolverConfig(), np.zeros(prob.dim))
    assert np.linalg.norm(prob.assemble_residual(np.array([0.3, -0.2]), U)) <= 1e-8


def test_initialize_reports_no_descent():
    layout = DecisionLayout(n_steps=1, n_u=1, n_mu=0, n_nu=0, n_p=0)
    prob = CallableProblem(lambda U: np.array([U[0] ** 2 + 1.0]), layout)
    with pytest.raises(InitializationFailure) as err:
        initialize(prob, None, SolverConfig(), np.array([1.0]))
    assert err.value.final_residual is not None
    assert err.value.final_residual >= 1.0
    assert len(err.value.damping_history) >= 1


def test_initialize_reports_singular_jacobian():
    layout = DecisionLayout(n_steps=1, n_u=1, n_mu=0, n_nu=0, n_p=0)
    prob = CallableProblem(lambda U: np.array([1.0]), layout)
    with pytest.raises(InitializationFailure, match="singular"):
        initialize(prob, None, SolverConfig(), np.array([0.5]))


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
    ctl = NmpcController(prob, SolverConfig())
    with pytest.raises(InitializationFailure):
        ctl.sample_update(x0, 0.0)


def test_preconditioner_refresh_period(hemi):
    prob, x0, _ = hemi
    ctl = fresh_controller(hemi)
    built = ctl.precond.inverse
    ctl.sample_update(x0, 0.1)
    assert ctl.precond.inverse is built  # inside the period: reused
    ctl.sample_update(x0, 0.25)
    assert ctl.precond.inverse is not built  # period elapsed: rebuilt
    assert ctl.precond.built_at == 0.25


def singular_controller():
    rng = np.random.default_rng(30)
    a = np.zeros((8, 8))
    a[:4, :4] = rng.standard_normal((4, 4))  # rank-deficient snapshot
    ctl = NmpcController(StubProblem(a, np.zeros(8)), SolverConfig())
    ctl.U = 0.01 * rng.standard_normal(8)
    return ctl


def test_singular_preconditioner_falls_back():
    ctl = singular_controller()
    u_apply, tel = ctl.sample_update(np.zeros(2), 0.0)
    assert ctl.precond.inverse is None
    assert not tel.precond_used
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


def test_unpreconditioned_mode(hemi):
    prob, x0, u_star = hemi
    ctl = NmpcController(prob, SolverConfig(), precondition=False)
    ctl.U = u_star.copy()
    ctl.refresh_preconditioner(x0, 0.0)
    assert ctl.precond.inverse is None
    _, tel = ctl.sample_update(x0, 0.0)
    assert not tel.precond_used


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
