import numpy as np
import pytest
from scipy.integrate import solve_ivp

import geonmpc.manifold
from geonmpc.errors import ChartDomainViolation, ProjectionDivergence
from geonmpc.manifold import (
    ManifoldChart,
    ManifoldConstraint,
    explicit_euler,
    local_coordinates_step,
    project_onto_manifold,
    standard_projection_step,
    symmetric_projection_step,
    trapezoidal,
)

# ---------------------------------------------------------------- fixtures

SPHERE = ManifoldConstraint(
    g=lambda y: np.array([y @ y - 1.0]),
    jacobian_g=lambda y: 2.0 * y.reshape(1, 3),
)


def rotation_field(omega):
    w = np.asarray(omega, dtype=float)
    return lambda tau, y: np.cross(w, y)


def twisting_field(tau, y):
    # state-dependent angular velocity; still tangent to the sphere
    w = np.array([y[2], 1.0, 0.5 + y[0]])
    return np.cross(w, y)


def graph_chart(field):
    """Upper-hemisphere graph chart (x, y) -> (x, y, sqrt(1-x^2-y^2)).

    For a field tangent to the sphere the reduced flow is just the first
    two ambient components evaluated on the lifted point.
    """

    def lift(z):
        return np.array([z[0], z[1], np.sqrt(1.0 - z[0] ** 2 - z[1] ** 2)])

    return ManifoldChart(
        lift=lift,
        project_coords=lambda x: x[:2].copy(),
        reduced_field=lambda tau, z, controls: field(tau, lift(z))[:2],
        in_domain=lambda z: z[0] ** 2 + z[1] ** 2 < 1.0,
    )


def reference_endpoint(field, y0, t_end):
    sol = solve_ivp(field, (0.0, t_end), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14)
    return sol.y[:, -1]


# ------------------------------------------------------------ base methods

def test_explicit_euler_step():
    step = explicit_euler(lambda tau, y: -y)
    out = step(0.0, np.array([1.0, 2.0]), 0.5)
    assert np.array_equal(out, [0.5, 1.0])


def test_trapezoidal_linear_exactness():
    # for y' = a y one step must match (1 + dt a/2)/(1 - dt a/2)
    a = -1.3
    step = trapezoidal(lambda tau, y: a * y)
    dt = 0.1
    out = step(0.0, np.array([2.0]), dt)
    expect = 2.0 * (1 + 0.5 * dt * a) / (1 - 0.5 * dt * a)
    assert abs(out[0] - expect) <= 1e-13


def test_trapezoidal_is_second_order():
    y0 = np.array([1.0, 0.0, 0.5])
    field = rotation_field([0.0, 0.0, 1.0])
    ref = reference_endpoint(field, y0, 1.0)
    errs = []
    for n in (20, 40):
        step = trapezoidal(field)
        y = y0.copy()
        dt = 1.0 / n
        for i in range(n):
            y = step(i * dt, y, dt)
        errs.append(np.linalg.norm(y - ref))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


# ------------------------------------------------------- local coordinates

def test_local_coordinates_zero_field_identity():
    chart = graph_chart(lambda tau, y: np.zeros(3))
    x = np.array([0.3, -0.4, np.sqrt(1 - 0.25)])
    method = explicit_euler(chart.bound_field())
    out = local_coordinates_step(chart, method, 0.0, x, 0.7)
    assert np.allclose(out, x, rtol=0, atol=1e-15)


def test_local_coordinates_hand_step_from_pole():
    # heading u=0 from the apex: chart coords go (0,0) -> (0.1, 0)
    def heading_field(tau, y):
        s = y[2]
        return np.array([s * np.cos(0.0), s * np.sin(0.0), 0.0])

    chart = graph_chart(heading_field)
    method = explicit_euler(chart.bound_field())
    out = local_coordinates_step(chart, method, 0.0, np.array([0.0, 0.0, 1.0]), 0.1)
    assert np.allclose(out[:2], [0.1, 0.0], rtol=0, atol=1e-15)
    assert abs(out[2] - np.sqrt(1.0 - 0.01)) <= 1e-15


def test_local_coordinates_constraint_to_machine_precision():
    # near-vertical rotation axis keeps the orbit well inside the chart
    chart = graph_chart(rotation_field([0.05, 0.0, 1.0]))
    method = explicit_euler(chart.bound_field())
    y = np.array([0.2, 0.1, np.sqrt(1 - 0.05)])
    for i in range(200):
        y = local_coordinates_step(chart, method, 0.01 * i, y, 0.01)
        assert abs(y @ y - 1.0) <= 1e-12


def test_local_coordinates_domain_violation():
    chart = graph_chart(lambda tau, y: np.array([5.0, 0.0, 0.0]))
    method = explicit_euler(chart.bound_field())
    x = np.array([0.5, 0.0, np.sqrt(0.75)])
    with pytest.raises(ChartDomainViolation):
        local_coordinates_step(chart, method, 0.0, x, 0.2)


def test_chart_roundtrip():
    chart = graph_chart(twisting_field)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.uniform(-0.6, 0.6, size=2)
        lifted = chart.lift(z)
        assert np.max(np.abs(chart.project_coords(lifted) - z)) <= 1e-12
        assert SPHERE.defect(lifted) <= 1e-12


# ---------------------------------------------------------- projection step

def test_projection_fixed_point_on_manifold():
    y = np.array([0.6, 0.8, 0.0])
    out = project_onto_manifold(SPHERE, y)
    assert np.allclose(out, y, rtol=0, atol=1e-12)


def test_projection_radial_far_point():
    out = project_onto_manifold(SPHERE, np.array([2.0, 0.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0], rtol=0, atol=1e-10)


def test_projection_matches_closed_form():
    y_hat = np.array([0.6, 0.8, 0.5])
    out = project_onto_manifold(SPHERE, y_hat)
    assert np.max(np.abs(out - y_hat / np.linalg.norm(y_hat))) <= 1e-10


def test_projection_divergence_reported(monkeypatch):
    monkeypatch.setattr(geonmpc.manifold, "PROJECTION_MAX_ITERS", 1)
    with pytest.raises(ProjectionDivergence, match="after 1 iterations"):
        project_onto_manifold(SPHERE, np.array([2.0, 0.0, 0.0]))


def test_standard_projection_step_stays_on_sphere():
    method = explicit_euler(twisting_field)
    y = np.array([0.1, -0.3, np.sqrt(1 - 0.1)])
    for i in range(500):
        y = standard_projection_step(SPHERE, method, 0.02 * i, y, 0.02)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-9


# ---------------------------------------------------------- symmetric step

def test_symmetric_step_zero_field_identity():
    method = trapezoidal(lambda tau, y: np.zeros(3))
    y = np.array([0.0, 0.6, 0.8])
    out = symmetric_projection_step(SPHERE, method, 0.0, y, 0.3)
    assert np.allclose(out, y, rtol=0, atol=1e-12)


def test_symmetric_step_single_roundtrip():
    method = trapezoidal(twisting_field)
    y0 = np.array([0.2, 0.4, np.sqrt(1 - 0.2)])
    y1 = symmetric_projection_step(SPHERE, method, 0.0, y0, 0.05)
    back = symmetric_projection_step(SPHERE, method, 0.05, y1, -0.05)
    assert np.linalg.norm(back - y0) <= 1e-9


def test_symmetric_step_long_roundtrip():
    # 50 steps out and 50 back; tighter projection tolerance keeps the
    # accumulated asymmetry within the same 1e-9 budget
    method = trapezoidal(twisting_field)
    y0 = np.array([0.2, 0.4, np.sqrt(1 - 0.2)])
    y = y0.copy()
    dt = 0.05
    for i in range(50):
        y = symmetric_projection_step(SPHERE, method, i * dt, y, dt, tol=1e-13)
    for i in range(50):
        y = symmetric_projection_step(SPHERE, method, (50 - i) * dt, y, -dt, tol=1e-13)
    assert np.linalg.norm(y - y0) <= 1e-9


def test_symmetric_step_longrun_drift_vs_euler():
    field = rotation_field([0.2, 0.1, 1.0])
    y0 = np.array([0.6, 0.0, 0.8])
    dt = 0.01
    n = 10_000

    method = trapezoidal(field)
    y = y0.copy()
    worst = 0.0
    for i in range(n):
        y = symmetric_projection_step(SPHERE, method, i * dt, y, dt)
        worst = max(worst, abs(np.linalg.norm(y) - 1.0))
    assert worst <= 1e-9

    # same step size, bare explicit Euler: measure the drift it accumulates
    plain = explicit_euler(field)
    y = y0.copy()
    for i in range(n):
        y = plain(i * dt, y, dt)
    euler_drift = abs(np.linalg.norm(y) - 1.0)
    assert euler_drift > 1e-3


# ------------------------------------------------------- order of accuracy

@pytest.mark.parametrize("stepper_name", ["local", "standard", "symmetric"])
def test_first_order_with_euler_base(stepper_name):
    field = rotation_field([0.1, 0.2, 1.0])
    y0 = np.array([0.3, -0.2, np.sqrt(1 - 0.13)])
    t_end = 0.8
    ref = reference_endpoint(field, y0, t_end)
    chart = graph_chart(field)

    def run(n):
        dt = t_end / n
        y = y0.copy()
        for i in range(n):
            tau = i * dt
            if stepper_name == "local":
                method = explicit_euler(chart.bound_field())
                y = local_coordinates_step(chart, method, tau, y, dt)
            elif stepper_name == "standard":
                y = standard_projection_step(SPHERE, explicit_euler(field), tau, y, dt)
            else:
                y = symmetric_projection_step(SPHERE, explicit_euler(field), tau, y, dt)
        return np.linalg.norm(y - ref)

    e1, e2 = run(40), run(80)
    assert 1.6 <= e1 / e2 <= 2.4
