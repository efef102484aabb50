import dataclasses
import math

import numpy as np
import pytest

from conftest import discrete_lagrangian, fd_gradient
from geonmpc.config import KEYS
from geonmpc.errors import ChartDomainViolation, DimensionMismatch, GeonmpcError
from geonmpc.hemisphere import (
    CHART_R2_MAX,
    Z_MIN,
    HemisphereParams,
    ambient_dynamics,
    chart_dynamics,
    constraint_C,
    great_circle_distance,
    hemisphere_chart,
    initial_guess,
    lift_to_sphere,
    make_ocp,
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


def test_ambient_dynamics_accepts_any_length_3_sequence():
    state = [0.3, -0.2, math.sqrt(0.87)]
    out = ambient_dynamics(np.array(state), 0.45)
    # the products in numpy scalars, in the same order: the same bits
    x, y, z = np.array(state)
    cu, su = np.cos(0.45), np.sin(0.45)
    assert np.array_equal(out, [z * cu, z * su, -x * cu - y * su])
    assert out.dtype == np.float64 and out.shape == (3,)
    for seq in (state, tuple(state)):
        assert np.array_equal(ambient_dynamics(seq, 0.45), out)


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


def test_chart_guard_rejects_nan():
    # NaN is not inside the guarded disk, for the guard as for in_domain
    nan_point = np.array([np.nan, np.nan])
    assert not hemisphere_chart().in_domain(nan_point)
    with pytest.raises(ChartDomainViolation):
        plant_step(nan_point, 0.5, 0.00625)
    with pytest.raises(ChartDomainViolation):
        chart_dynamics(np.array([[0.1, 0.2], [np.nan, 0.0]]), 0.5, 1.0)


def test_single_points_equal_their_stack_rows(shipped_loop):
    # the condensed recursions call stepper and stage on single points, which
    # they pass as lists of Python floats; at every stage of every sample of
    # the unpreconditioned shipped loop, a point's output lists must equal
    # its rows of one stack call bit for bit
    problem = make_problem(PARAMS, 20)
    ocp, layout = problem.ocp, problem.layout
    _, samples = shipped_loop(False)
    x, lam, u, mu, p = [], [], [], [], []
    for x0, U, _ in samples:
        lifted = problem.lift(x0, U)
        x.append(np.vstack([x0, layout.states(lifted)[:-1]]))  # x_0..x_{N-1}
        lam.append(layout.costates(lifted))
        u.append(layout.controls(U))
        mu.append(layout.mus(U))
        p.append(np.tile(layout.p(U), (layout.n_steps, 1)))
    x, lam, u, mu, p = map(np.array, (x, lam, u, mu, p))  # (samples, N, .)
    step_rows = ocp.stepper(x, u, p, problem.dtau)
    stage_rows = ocp.stage(x, lam, u, mu, p, problem.dtau)
    for s, i in np.ndindex(x.shape[:2]):
        xp, lamp, up, mup, pp = (a[s, i].tolist() for a in (x, lam, u, mu, p))
        step = ocp.stepper(xp, up, pp, problem.dtau)
        parts = ocp.stage(xp, lamp, up, mup, pp, problem.dtau)
        assert type(step) is list and np.array_equal(step, step_rows[s, i])
        assert len(parts) == 5
        for part, rows in zip(parts, stage_rows):
            assert type(part) is list and np.array_equal(part, rows[s, i])


def test_a_single_condensed_residual_equals_its_stack_row(shipped_loop):
    # a single condensed vector takes its rows from the float backward pass,
    # a stack from one stage-stack call: at every sample of the
    # unpreconditioned shipped loop, and at perturbed vectors around each,
    # the two give the same bits.  The stack has one row: numpy sums the
    # parameter row's stage terms pairwise along one column, but in stage
    # order across the columns of a wider stack.
    problem = make_problem(PARAMS, 20)
    _, samples = shipped_loop(False)
    rng = np.random.default_rng(17)
    points = [(x0, U) for x0, U, _ in samples]
    points += [(x0, U + 1e-3 * rng.standard_normal(U.shape))
               for x0, U, _ in samples[::2] for _ in range(4)]
    assert len(points) > 500
    for x0, U in points:
        single = problem.assemble_residual(x0, U)
        assert np.array_equal(single, problem.assemble_residual(x0, U[None])[0])


@pytest.mark.parametrize("point", [(0.9, 0.5), (np.sqrt(CHART_R2_MAX) + 1e-9, 0.0),
                                   (np.nan, 0.0), (0.1, np.nan)])
def test_single_point_callbacks_keep_the_chart_guard(point):
    # single points arrive as lists, as the condensed recursions pass them
    ocp = make_ocp(PARAMS)
    x, u, p = [float(c) for c in point], [0.5, 0.1], [1.2]
    with pytest.raises(ChartDomainViolation):
        ocp.stepper(x, u, p, 0.05)
    with pytest.raises(ChartDomainViolation):
        ocp.stage(x, [0.1, -0.1], u, [0.02], p, 0.05)


@pytest.mark.parametrize("heading", [math.inf, -math.inf, math.nan])
def test_single_point_callbacks_name_a_non_finite_heading(heading):
    # math.cos raises a bare ValueError at inf and passes NaN through; the
    # list branches raise GeonmpcError naming the heading, which the
    # cold start's line search counts as a failed trial
    ocp = make_ocp(PARAMS)
    x, u, p = [0.1, -0.2], [heading, 0.1], [1.2]
    message = f"^heading u = {heading!r} is not finite$"
    with pytest.raises(GeonmpcError, match=message):
        ocp.stepper(x, u, p, 0.05)
    with pytest.raises(GeonmpcError, match=message):
        ocp.stage(x, [0.1, -0.1], u, [0.02], p, 0.05)
    problem = make_problem(PARAMS, 20)
    U = initial_guess(problem.layout, PARAMS)
    U[4] = heading  # stage 2's heading
    with pytest.raises(GeonmpcError, match=message):
        problem.assemble_residual(np.array([PARAMS.x0, PARAMS.y0]), U)


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
    assert prob.layout.dim == 63
    assert prob.layout.n_u == 2 and prob.layout.n_mu == 1


ON_GUARD = {"+x": (math.sqrt(CHART_R2_MAX), 0.0),
            "+y": (0.0, math.sqrt(CHART_R2_MAX)),
            "diagonal": (math.sqrt(CHART_R2_MAX / 2),) * 2}


@pytest.mark.parametrize("start", ON_GUARD.values(), ids=ON_GUARD.keys())
def test_problem_accepts_a_start_on_the_chart_guard(start):
    # HemisphereParams accepts a start on the guard, so make_problem must
    # too: its callback probe must not step from there out of the chart
    params = HemisphereParams(x0=start[0], y0=start[1])
    assert CHART_R2_MAX - (start[0] ** 2 + start[1] ** 2) <= 1e-15
    assert make_problem(params, 20).layout.dim == 63


@pytest.mark.parametrize("n_steps", [0, -1])
def test_problem_rejects_an_empty_horizon(n_steps):
    with pytest.raises(DimensionMismatch, match="n_steps"):
        make_problem(PARAMS, n_steps)


def test_initial_guess_structure():
    prob = make_problem(PARAMS, 20)
    U0 = initial_guess(prob.layout, PARAMS)
    gc = great_circle_distance(PARAMS)
    assert 1.19 < gc < 1.21
    assert prob.layout.p(U0)[0] == gc
    # every stage heads along the straight chart segment to the target
    heading = math.atan2(PARAMS.y_f - PARAMS.y0, PARAMS.x_f - PARAMS.x0)
    assert np.all(prob.layout.controls(U0)[:, 0] == heading)
    # nu is the costate against that heading, scaled by the target height
    z_f = lift_to_sphere((PARAMS.x_f, PARAMS.y_f))[2]
    nu = -np.array([math.cos(heading), math.sin(heading)]) / z_f
    assert np.allclose(prob.layout.nu(U0), nu, rtol=1e-15, atol=0)
    f0 = prob.assemble_residual(np.array([PARAMS.x0, PARAMS.y0]), U0)
    # slack and band rows vanish exactly at the guess
    assert np.max(np.abs(prob.layout.controls(f0)[:, 1])) == 0.0
    assert np.max(np.abs(prob.layout.mus(f0))) == 0.0


def test_initial_guess_heading_on_the_band_branch():
    # a band center shifted by 2 pi is the same band of headings: the guess
    # takes the heading on that branch rather than rejecting it
    layout = make_problem(PARAMS, 20).layout
    heading = math.atan2(PARAMS.y_f - PARAMS.y0, PARAMS.x_f - PARAMS.x0)
    shifted = HemisphereParams(c_u=PARAMS.c_u + 2.0 * math.pi)
    assert layout.controls(initial_guess(layout, shifted))[0, 0] == pytest.approx(
        heading + 2.0 * math.pi, rel=1e-15)


def test_heading_band_is_one_read_only_pair():
    # initial_guess's edge test and run_simulation's clip both read it, so it
    # is a derived property, not a field or a config key
    assert PARAMS.heading_band == (PARAMS.c_u - PARAMS.r_u, PARAMS.c_u + PARAMS.r_u)
    with pytest.raises(AttributeError):
        PARAMS.heading_band = (0.0, 1.0)
    assert "heading_band" not in {f.name for f in dataclasses.fields(PARAMS)}
    assert "heading_band" not in KEYS


def test_residual_constant_row_without_multipliers():
    prob = make_problem(PARAMS, 20)
    U = np.zeros(prob.layout.dim)
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
    prob = make_problem(PARAMS, 20)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    dtau = np.full(prob.layout.n_steps, prob.dtau)
    for U in random_decision_vectors(prob.layout, 100):
        generic = prob.assemble_residual(x0, U)
        analytic = residual_rows(U, x0, dtau, PARAMS)
        assert np.max(np.abs(generic - analytic)) <= 1e-12


def test_residual_is_lagrangian_gradient():
    # Euler stepping in chart coordinates makes the assembled residual the
    # exact gradient of the regenerated-state Lagrangian, whose running
    # cost -p w_s u_s, terminal cost p and p-scaled band constraint
    # make_ocp's docstring states
    prob = make_problem(PARAMS, 20)
    x0 = np.array([PARAMS.x0, PARAMS.y0])
    U = next(random_decision_vectors(prob.layout, 1, seed=55))
    fvec = prob.assemble_residual(x0, U)
    grad = fd_gradient(lambda v: discrete_lagrangian(
        prob, x0, v,
        L=lambda x, u, p: -p[0] * PARAMS.w_s * u[1],
        phi=lambda xn, p: p[0],
        C=lambda x, u, p: [p[0] * constraint_C(u[0], u[1], PARAMS)],
        psi=lambda xn, p: terminal_psi(xn, PARAMS)), U)
    assert np.max(np.abs(fvec - grad)) <= 1e-6


def test_residual_rows_rejects_wrong_length():
    prob = make_problem(PARAMS, 20)
    with pytest.raises(ValueError):
        residual_rows(np.zeros(10), np.zeros(2), np.full(20, prob.dtau), PARAMS)


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
