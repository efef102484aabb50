import numpy as np
import pytest

from conftest import discrete_lagrangian, fd_gradient
from geonmpc.errors import ChartDomainViolation
from geonmpc.hemisphere import (
    Z_MIN,
    HemisphereParams,
    ambient_dynamics,
    chart_dynamics,
    constraint_C,
    great_circle_distance,
    hemisphere_chart,
    initial_guess,
    lift_to_sphere,
    make_problem,
    plant_step,
    residual_rows,
    sphere_constraint,
    terminal_psi,
)
from geonmpc.manifold import explicit_euler, local_coordinates_step, standard_projection_step

PARAMS = HemisphereParams()


# ----------------------------------------------------------------- dynamics

def test_ambient_dynamics_examples():
    assert np.allclose(ambient_dynamics(np.array([0.0, 0.0, 1.0]), 0.0),
                       [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(ambient_dynamics(np.array([1.0, 0.0, 0.0]), 0.0),
                       [0.0, 0.0, -1.0], rtol=0, atol=1e-15)


def test_ambient_dynamics_tangency():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        u = rng.uniform(-np.pi, np.pi)
        assert abs(y @ ambient_dynamics(y, u)) <= 1e-14


def test_chart_dynamics_examples():
    assert np.allclose(chart_dynamics(np.zeros(2), 0.0, 1.0), [1.0, 0.0],
                       rtol=0, atol=1e-15)
    assert np.allclose(chart_dynamics(np.zeros(2), np.pi / 2, 2.0), [0.0, 2.0],
                       rtol=0, atol=1e-15)
    assert np.allclose(chart_dynamics(np.array([0.6, 0.0]), 0.0, 1.0), [0.8, 0.0],
                       rtol=0, atol=1e-15)


def test_chart_domain_guard():
    with pytest.raises(ChartDomainViolation):
        chart_dynamics(np.array([0.999, 0.1]), 0.5, 1.0)
    # just inside the guarded disk is fine
    chart_dynamics(np.array([np.sqrt(1 - 0.05 ** 2) - 1e-6, 0.0]), 0.5, 1.0)


def test_forward_band_moves_y_upward():
    # dy/dtau = p s sin(u) > 0 for every admissible heading: targets below
    # the start are unreachable, which is why the default start sits at
    # y0 = -0.5 rather than +0.5
    rng = np.random.default_rng(12)
    for _ in range(500):
        z = rng.uniform(-0.7, 0.7, size=2)
        if z @ z > 0.97:
            continue
        u = rng.uniform(PARAMS.c_u - PARAMS.r_u, PARAMS.c_u + PARAMS.r_u)
        p = rng.uniform(0.1, 3.0)
        assert chart_dynamics(z, u, p)[1] > 0.0


# ------------------------------------------------------- scalar ingredients

def test_constraint_values():
    assert abs(constraint_C(PARAMS.c_u + PARAMS.r_u, 0.0, PARAMS)) <= 1e-15
    assert constraint_C(PARAMS.c_u, PARAMS.r_u, PARAMS) == 0.0
    assert abs(constraint_C(PARAMS.c_u, 0.0, PARAMS) + 0.01) <= 1e-15


def test_terminal_psi_values():
    assert np.array_equal(terminal_psi(np.array([0.5, 0.0]), PARAMS), [0.0, 0.0])
    assert np.allclose(terminal_psi(np.array([0.5, 0.1]), PARAMS), [0.0, 0.1],
                       rtol=0, atol=1e-15)


def test_lifted_height_lipschitz_near_target():
    # whenever the chart mismatch is small, the implied z mismatch is
    # bounded by 2*max(|dx|,|dy|)/Z_MIN on the guarded chart
    rng = np.random.default_rng(3)
    target = lift_to_sphere((PARAMS.x_f, PARAMS.y_f))
    for _ in range(200):
        x_n = np.array([PARAMS.x_f, PARAMS.y_f]) + rng.uniform(-0.05, 0.05, size=2)
        psi = terminal_psi(x_n, PARAMS)
        dz = abs(lift_to_sphere(x_n)[2] - target[2])
        assert dz <= 2.0 * np.max(np.abs(psi)) / Z_MIN + 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        HemisphereParams(r_u=0.0)
    with pytest.raises(ValueError):
        HemisphereParams(x0=1.0, y0=0.5)
    with pytest.raises(ValueError):
        HemisphereParams(x_f=0.8, y_f=0.8)


# ------------------------------------------------------------ problem setup

def test_problem_dimension():
    prob = make_problem(PARAMS, n_steps=20)
    assert prob.dim == 63
    assert prob.layout.n_u == 2 and prob.layout.n_mu == 1


def test_initial_guess_structure():
    prob = make_problem(PARAMS)
    U0 = initial_guess(prob.layout, PARAMS)
    gc = great_circle_distance(PARAMS)
    assert 1.19 < gc < 1.21
    assert prob.layout.p(U0)[0] == gc
    f0 = prob.assemble_residual(np.array([PARAMS.x0, PARAMS.y0]), U0)
    n = 20
    # slack and band rows vanish exactly at the guess
    assert np.max(np.abs(f0[n:2 * n])) == 0.0
    assert np.max(np.abs(f0[2 * n:3 * n])) == 0.0


def test_residual_constant_row_without_multipliers():
    prob = make_problem(PARAMS)
    U = prob.layout.zeros()
    prob.layout.controls(U)[:] = (0.37, 0.0)  # u_s = 0
    prob.layout.p(U)[:] = 0.8
    fvec = prob.assemble_residual(np.array([PARAMS.x0, PARAMS.y0]), U)
    assert fvec[-1] == 1.0


# ------------------------------------------------------------ oracle checks

def random_decision_vectors(layout, count, seed=101):
    rng = np.random.default_rng(seed)
    base = initial_guess(layout, PARAMS)
    for _ in range(count):
        U = base.copy()
        controls, mus = layout.controls(U), layout.mus(U)
        for i in range(layout.n_steps):
            controls[i] += rng.uniform(-0.05, 0.05, size=2)
            mus[i] += rng.uniform(-0.02, 0.02, 1)
        layout.nu(U)[:] = rng.uniform(-0.5, 0.5, size=2)
        layout.p(U)[:] += rng.uniform(-0.1, 0.1, 1)
        yield U


def test_dual_path_residual_equality():
    prob = make_problem(PARAMS)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    for U in random_decision_vectors(prob.layout, 100):
        generic = prob.assemble_residual(x0, U)
        analytic = residual_rows(U, x0, prob.grid, PARAMS)
        assert np.max(np.abs(generic - analytic)) <= 1e-12


def test_residual_is_lagrangian_gradient():
    # Euler stepping in chart coordinates makes the assembled residual the
    # exact gradient of the regenerated-state Lagrangian
    prob = make_problem(PARAMS)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    U = next(random_decision_vectors(prob.layout, 1, seed=55))
    fvec = prob.assemble_residual(x0, U)
    grad = fd_gradient(lambda v: discrete_lagrangian(prob, x0, v), U)
    assert np.max(np.abs(fvec - grad)) <= 1e-6


def test_residual_rows_rejects_wrong_length():
    prob = make_problem(PARAMS)
    with pytest.raises(ValueError):
        residual_rows(np.zeros(10), np.zeros(2), prob.grid, PARAMS)


# -------------------------------------------------- chart/ambient agreement

def test_plant_step_hand_value():
    out = plant_step(np.zeros(2), 0.0, 0.1)
    assert np.allclose(out, [0.1, 0.0], rtol=0, atol=1e-15)
    with pytest.raises(ChartDomainViolation):
        plant_step(np.array([0.99, 0.1]), 0.5, 0.5)


def test_chart_and_projected_ambient_agree_to_first_order():
    u_fixed = 0.5
    t_end = 0.5
    sphere = sphere_constraint()
    chart = hemisphere_chart()

    def endpoint_gap(n):
        dt = t_end / n
        z = np.array([-0.5, -0.5])
        y = lift_to_sphere(z)
        method = explicit_euler(lambda tau, s: ambient_dynamics(s, u_fixed))
        for i in range(n):
            z = plant_step(z, u_fixed, dt)
            y = standard_projection_step(sphere, method, i * dt, y, dt)
        return np.linalg.norm(lift_to_sphere(z) - y)

    g1, g2 = endpoint_gap(50), endpoint_gap(100)
    assert 1.4 <= g1 / g2 <= 2.6


def test_local_coordinates_step_matches_plant_step():
    chart = hemisphere_chart()
    method = explicit_euler(chart.bound_field((0.45, 1.0)))
    start = lift_to_sphere((-0.5, -0.5))
    via_chart = local_coordinates_step(chart, method, 0.0, start, 0.02)
    direct = plant_step(np.array([-0.5, -0.5]), 0.45, 0.02)
    assert np.max(np.abs(via_chart - lift_to_sphere(direct))) <= 1e-15
