import collections
import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import (cart_running_cost, cart_stage_constraint,
                      cart_terminal_constraint, cart_terminal_cost,
                      discrete_lagrangian, euler_stepper, fd_gradient,
                      make_cart_problem, on_lists, origin_probe)
from geonmpc.errors import DimensionMismatch, GeonmpcError
from geonmpc.hemisphere import HemisphereParams, initial_guess, make_problem
from geonmpc.horizon import DecisionLayout, HorizonProblem, OcpDefinition
from geonmpc.solver import FD_STEP, exact_jacobian


def zeros(*shape):
    """Callback returning zeros of the given shape behind the leading axes
    of its first argument, the state."""
    def callback(state, *args):
        return np.zeros(np.shape(state)[:-1] + shape)
    return callback


def zero_parts(*shapes):
    """Fused callback returning one zeros part per shape, behind the
    leading axes of its first argument."""
    def callback(state, *args):
        return tuple(zeros(*shape)(state) for shape in shapes)
    return callback


def zero_like_callbacks(n_x, n_u, n_mu, n_nu, n_p, f):
    """OcpDefinition with explicit-Euler steps of the given dynamics and
    inert partials of the Hamiltonian and the terminal Lagrangian."""
    stepper = euler_stepper(f)
    H_parts = zero_parts((n_x,), (n_u,), (n_mu,), (n_p,))
    return OcpDefinition(
        n_x=n_x, n_u=n_u, n_mu=n_mu, n_nu=n_nu, n_p=n_p,
        stepper=stepper,
        H_x=zeros(n_x),
        stage=on_lists(lambda x, lam, u, mu, p, dtau: (stepper(x, u, p, dtau),) + H_parts(x)),
        Phi_grad=zero_parts((n_x,), (n_nu,), (n_p,)),
    )


# ------------------------------------------------------------------- grid

def test_uniform_grid():
    prob = make_problem(HemisphereParams(), 20)
    assert prob.layout.n_steps == 20
    assert type(prob.dtau) is float and prob.dtau == 1.0 / 20
    # a numpy integer is a step count too
    assert HorizonProblem(prob.ocp, np.int64(20), origin_probe(prob.ocp)).dtau == prob.dtau


@pytest.mark.parametrize("n_steps", [0, -3, 2.5])
def test_problem_rejects_bad_step_counts(n_steps):
    # one check, in HorizonProblem, for every caller: make_problem's count
    # reaches it unchanged
    message = rf"^n_steps must be an integer >= 1, got {re.escape(repr(n_steps))}$"
    with pytest.raises(DimensionMismatch, match=message):
        HorizonProblem(CART_OCP, n_steps, origin_probe(CART_OCP))
    with pytest.raises(DimensionMismatch, match=message):
        make_problem(HemisphereParams(), n_steps)


# ----------------------------------------------------------------- layout

def test_layout_dim_matches_hemisphere_shape():
    layout = DecisionLayout(n_steps=20, n_u=2, n_mu=1, n_nu=2, n_p=1, n_x=0)
    assert layout.dim == 63


def test_layout_block_roundtrip():
    # writes through the views land in a vector and in every row of a stack
    layout = DecisionLayout(n_steps=7, n_u=2, n_mu=3, n_nu=2, n_p=1, n_x=0)
    rng = np.random.default_rng(17)
    for lead in [(), (4,)]:
        vec = np.zeros(lead + (layout.dim,))
        u = rng.standard_normal(lead + (7, 2))
        mu = rng.standard_normal(lead + (7, 3))
        nu = rng.standard_normal(lead + (2,))
        p = rng.standard_normal(lead + (1,))
        layout.controls(vec)[...] = u
        layout.mus(vec)[...] = mu
        layout.nu(vec)[...] = nu
        layout.p(vec)[...] = p
        assert np.array_equal(layout.controls(vec), u)
        assert np.array_equal(layout.mus(vec), mu)
        assert np.array_equal(layout.nu(vec), nu)
        assert np.array_equal(layout.p(vec), p)
        # the four blocks tile the vector
        assert np.count_nonzero(vec) == vec.size


def test_layout_stage_major_order():
    # component j of stage i sits at i*width + j inside its block
    layout = DecisionLayout(n_steps=3, n_u=2, n_mu=1, n_nu=1, n_p=1, n_x=0)
    for lead in [(), (2,)]:
        vec = np.zeros(lead + (layout.dim,))
        layout.controls(vec)[..., 1, :] = (5.0, 7.0)
        layout.mus(vec)[..., 2, :] = 9.0
        assert np.all(vec[..., 1 * 2 + 0] == 5.0)
        assert np.all(vec[..., 1 * 2 + 1] == 7.0)
        assert np.all(vec[..., layout.mu_offset + 2] == 9.0)
        assert np.count_nonzero(vec) == 3 * int(np.prod(lead))


def test_lifted_layout_views():
    # p, states and costates of a lifted vector are writable views; the
    # states and costates are stage-major blocks after the condensed ones
    layout = DecisionLayout(n_steps=3, n_u=2, n_mu=1, n_nu=1, n_p=1, n_x=2)
    assert layout.lifted_dim == layout.dim + 2 * 3 * 2
    for lead in [(), (2,)]:
        vec = np.zeros(lead + (layout.lifted_dim,))
        layout.p(vec)[...] = 4.0
        layout.states(vec)[..., 1, :] = (5.0, 7.0)
        layout.costates(vec)[..., 2, :] = (9.0, 11.0)
        assert layout.p(vec).shape == lead + (1,)
        assert np.all(vec[..., layout.p_offset] == 4.0)
        assert np.all(vec[..., layout.dim + 1 * 2 + 0] == 5.0)
        assert np.all(vec[..., layout.dim + 1 * 2 + 1] == 7.0)
        assert np.all(vec[..., layout.dim + 6 + 2 * 2 + 0] == 9.0)
        assert np.all(vec[..., layout.dim + 6 + 2 * 2 + 1] == 11.0)
        assert np.count_nonzero(vec) == 5 * int(np.prod(lead))
        assert np.array_equal(layout.states(vec)[..., 1, :],
                              np.broadcast_to([5.0, 7.0], lead + (2,)))


def test_layout_offsets_reproducible():
    a = DecisionLayout(5, 2, 1, 2, 1, n_x=0)
    b = DecisionLayout(5, 2, 1, 2, 1, n_x=0)
    assert (a.mu_offset, a.nu_offset, a.p_offset, a.dim) == \
           (b.mu_offset, b.nu_offset, b.p_offset, b.dim)


# ------------------------------------------------------------- recursions

def test_forward_zero_dynamics_keeps_state():
    ocp = zero_like_callbacks(2, 1, 1, 1, 1, f=zeros(2))
    prob = HorizonProblem(ocp, 6, origin_probe(ocp))
    x0 = np.array([0.4, -1.2])
    U = np.zeros(prob.layout.dim)
    states = prob.layout.states(prob.lift(x0, U))
    assert states.shape == (6, 2)
    assert np.all(states == x0)


def test_forward_hand_iterated_two_steps():
    # reduced hemisphere flow with u = 0, p = 1: two Euler half-steps from
    # the apex land at x = 0.5 + 0.5*sqrt(0.75)
    def f(x, u, p):
        x0, x1 = x.T
        s = np.sqrt(1.0 - x0 ** 2 - x1 ** 2)
        u0 = u.T[0]
        return (p.T[0] * s * np.array([np.cos(u0), np.sin(u0)])).T

    ocp = zero_like_callbacks(2, 1, 1, 2, 1, f=f)
    prob = HorizonProblem(ocp, 2, origin_probe(ocp))
    U = np.zeros(prob.layout.dim)
    prob.layout.p(U)[:] = 1.0
    # states holds x_1, x_2
    states = prob.layout.states(prob.lift(np.zeros(2), U))
    assert np.allclose(states[0], [0.5, 0.0], rtol=0, atol=1e-15)
    assert abs(states[1][0] - (0.5 + 0.5 * np.sqrt(0.75))) <= 1e-15
    assert states[1][1] == 0.0


def test_terminal_costate_equals_nu():
    ocp = dataclasses.replace(
        zero_like_callbacks(2, 1, 1, 2, 1, f=zeros(2)),
        Phi_grad=lambda xn, nu, p: (nu, xn.copy(), np.zeros_like(p)))
    prob = HorizonProblem(ocp, 4, origin_probe(ocp))
    U = np.zeros(prob.layout.dim)
    nu = np.array([0.7, -0.3])
    prob.layout.nu(U)[:] = nu
    costates = prob.layout.costates(prob.lift(np.zeros(2), U))
    # costates holds lam_1..lam_4, so lam_N is the last row
    assert costates.shape == (4, 2)
    assert np.array_equal(costates[3], nu)
    # H_x == 0 here, so the whole costate history is constant
    for i in range(4):
        assert np.array_equal(costates[i], nu)


def test_recursion_reevaluation_is_bitwise_stable():
    prob = make_cart_problem(8)
    rng = np.random.default_rng(2)
    U = rng.standard_normal(prob.layout.dim)
    x0 = np.array([0.1, -0.2])
    lifted1, lifted2 = prob.lift(x0, U), prob.lift(x0, U)
    assert np.array_equal(prob.layout.states(lifted1), prob.layout.states(lifted2))
    assert np.array_equal(prob.layout.costates(lifted1), prob.layout.costates(lifted2))


@pytest.mark.parametrize("problem", ["hemisphere", "cart"])
def test_trajectory_of_a_stack_equals_its_rows(problem):
    # lift runs on stage views for every shape, a single vector's having no
    # leading axes: each row of a stack's lift has the bits of its own lift
    rng = np.random.default_rng(9)
    if problem == "hemisphere":
        params = HemisphereParams()
        prob = make_problem(params, 20)
        x0 = np.array([params.x0, params.y0])
        U = initial_guess(prob.layout, params) + 1e-3 * rng.standard_normal(
            (2, 3, prob.layout.dim))
    else:
        prob = make_cart_problem(8)
        x0 = np.array([0.1, -0.2])
        U = rng.standard_normal((2, 3, prob.layout.dim))
    layout = prob.layout
    lifted = prob.lift(x0, U)
    states, costates = layout.states(lifted), layout.costates(lifted)
    n, n_x = layout.n_steps, prob.ocp.n_x
    assert states.shape == costates.shape == (2, 3, n, n_x)
    for j in np.ndindex(2, 3):
        row = prob.lift(x0, U[j])
        assert np.array_equal(states[j], layout.states(row))
        assert np.array_equal(costates[j], layout.costates(row))


# --------------------------------------------------------------- residual

def test_residual_matches_lagrangian_gradient():
    prob = make_cart_problem(10)
    rng = np.random.default_rng(23)
    x0 = np.array([0.2, -0.1])
    U = 0.3 * rng.standard_normal(prob.layout.dim)
    fvec = prob.assemble_residual(x0, U)
    grad = fd_gradient(lambda v: discrete_lagrangian(
        prob, x0, v, cart_running_cost, cart_terminal_cost,
        cart_stage_constraint, cart_terminal_constraint), U)
    assert np.max(np.abs(fvec - grad)) <= 1e-6
    # the control block alone, at the same tolerance
    n = prob.layout.n_steps
    assert np.max(np.abs(fvec[:n] - grad[:n])) <= 1e-6


def test_stage_rows_are_the_step_times_the_stage_partials():
    # zero dynamics keep every state at x0, so the partials are known in
    # closed form: each stage row is dtau times its partial, psi carries no
    # factor, and the parameter row is Phi_p + dtau sum H_p
    inert = zero_like_callbacks(2, 1, 1, 1, 1, f=zeros(2))
    ocp = dataclasses.replace(
        inert,
        stage=on_lists(lambda x, lam, u, mu, p, dtau: inert.stage(x, lam, u, mu, p, dtau)[:2] + (
            2.0 * u + mu, u - 0.3, u * p)),
        Phi_grad=lambda xn, nu, p: (nu * [1.0, 0.0], xn[..., :1], 3.0 * p))
    prob = HorizonProblem(ocp, 5, origin_probe(ocp))
    layout = prob.layout
    U = np.random.default_rng(4).standard_normal(layout.dim)
    x0 = np.array([0.5, 0.5])
    u, mu, p = layout.controls(U), layout.mus(U), layout.p(U)
    F = prob.assemble_residual(x0, U)
    assert np.array_equal(layout.controls(F), prob.dtau * (2.0 * u + mu))
    assert np.array_equal(layout.mus(F), prob.dtau * (u - 0.3))
    assert np.array_equal(layout.nu(F), x0[:1])
    assert layout.p(F) == pytest.approx(3.0 * p + prob.dtau * (u * p).sum(), rel=1e-15)


def test_assemble_residual_deterministic():
    prob = make_cart_problem(9)
    rng = np.random.default_rng(6)
    U = rng.standard_normal(prob.layout.dim)
    x0 = np.array([-0.4, 0.9])
    assert np.array_equal(prob.assemble_residual(x0, U),
                          prob.assemble_residual(x0, U))


def test_assemble_rejects_wrong_length():
    prob = make_cart_problem(5)
    for length in (prob.layout.dim - 1, prob.layout.dim + 1, prob.layout.lifted_dim - 1,
                   prob.layout.lifted_dim + 1):
        with pytest.raises(DimensionMismatch):
            prob.assemble_residual(np.zeros(2), np.zeros(length))
    with pytest.raises(DimensionMismatch):
        prob.assemble_residual(np.zeros(2), 0.0)
    with pytest.raises(DimensionMismatch):
        prob.lift(np.zeros(2), np.zeros(prob.layout.lifted_dim))


def test_validate_at_accepts_and_rejects():
    prob = make_cart_problem(4)
    prob.ocp.validate_at(np.zeros(2), np.zeros(1), np.zeros(2),
                         np.zeros(1), np.zeros(1), np.ones(1))
    bad = dataclasses.replace(prob.ocp, H_x=lambda x, lam, u, mu, p: np.zeros(3))
    with pytest.raises(DimensionMismatch):
        bad.validate_at(np.zeros(2), np.zeros(1), np.zeros(2),
                        np.zeros(1), np.zeros(1), np.ones(1))


# ---------------------------------------------------- batched assembly

def hemisphere_case():
    params = HemisphereParams()
    prob = make_problem(params, 20)
    base = initial_guess(prob.layout, params)
    return prob, np.array([params.x0, params.y0]), base, 0.01


def cart_case():
    prob = make_cart_problem(10)
    return prob, np.array([0.2, -0.1]), np.zeros(prob.layout.dim), 0.3


def lifted_case(case):
    """The case at the lift of its base point, with a smaller spread, so
    the stacks it draws carry nonzero defects."""
    prob, x0, base, spread = case()
    return prob, x0, prob.lift(x0, base), 0.1 * spread


def lifted_hemisphere_case():
    return lifted_case(hemisphere_case)


def lifted_cart_case():
    return lifted_case(cart_case)


@pytest.mark.parametrize("case", [hemisphere_case, cart_case])
def test_lifted_rows_equal_condensed_rows(case):
    # the condensed residual is the lifted one read at lift(U) without the
    # defect rows, and the lift satisfies every defect row
    prob, x0, base, spread = case()
    stack = base + spread * np.random.default_rng(3).standard_normal((4, prob.layout.dim))
    for U in [*stack, stack]:
        lifted = prob.lift(x0, U)
        assert lifted.shape == U.shape[:-1] + (prob.layout.lifted_dim,)
        assert np.array_equal(prob.layout.controls(lifted), prob.layout.controls(U))
        rows = prob.assemble_residual(x0, lifted)
        assert np.array_equal(prob.assemble_residual(x0, U), rows[..., :prob.layout.dim])
        assert np.max(np.abs(rows[..., prob.layout.dim:])) <= 1e-14


def test_lifted_jacobian_rows_line_up_with_unknowns():
    # in stage order each row block of the lifted Jacobian reads only its
    # own stage and one neighbour; an unread unknown differences to exactly 0
    params = HemisphereParams()
    prob = make_problem(params, 3)
    layout, n, n_x = prob.layout, 3, prob.ocp.n_x
    x0 = np.array([params.x0, params.y0])
    lifted = prob.lift(x0, initial_guess(layout, params))
    lifted += 0.01 * np.random.default_rng(8).standard_normal(layout.lifted_dim)
    jac = exact_jacobian(prob, x0, lifted)
    controls = slice(0, n * layout.n_u)
    states = slice(layout.dim, layout.dim + n * n_x)
    costates = slice(layout.dim + n * n_x, layout.lifted_dim)
    stage_of_u = np.arange(n * layout.n_u) // layout.n_u
    stage_of_x = np.arange(n * n_x) // n_x
    gap = stage_of_x[:, None] - stage_of_x[None, :]  # row stage - column stage
    # controls: block diagonal with n_u x n_u blocks
    off_block = stage_of_u[:, None] != stage_of_u[None, :]
    assert np.all(jac[controls, controls][off_block] == 0.0)
    assert np.count_nonzero(jac[controls, controls][~off_block]) > 0
    # state defects x_{i+1} - stepper(x_i, ...): unit diagonal, block lower-bidiagonal
    block = jac[states, states]
    assert np.max(np.abs(np.diag(block) - 1.0)) <= 1e-6
    assert np.all(np.triu(block, 1) == 0.0)
    assert np.all(block[(gap < 0) | (gap > 1)] == 0.0)
    assert np.count_nonzero(block[gap == 1]) > 0
    # costate defects lam_i - lam_{i+1} - dtau H_x: block upper-bidiagonal
    block = jac[costates, costates]
    assert np.max(np.abs(np.diag(block) - 1.0)) <= 1e-6
    assert np.all(np.tril(block, -1) == 0.0)
    assert np.all(block[(gap > 0) | (gap < -1)] == 0.0)
    assert np.count_nonzero(block[gap == -1]) > 0


def test_lifted_defect_rows():
    # moving one lifted state or costate shows up in its own defect rows
    prob, x0, base, _ = cart_case()
    layout = prob.layout
    lifted = prob.lift(x0, base + 0.3 * np.random.default_rng(5).standard_normal(prob.layout.dim))
    moved = lifted.copy()
    layout.states(moved)[2, 0] += 1e-3  # x_3
    layout.costates(moved)[4, 0] -= 2e-3  # lam_5
    gap = prob.assemble_residual(x0, moved) - prob.assemble_residual(x0, lifted)
    state_rows, costate_rows = layout.states(gap), layout.costates(gap)
    assert state_rows[2, 0] == pytest.approx(1e-3, abs=1e-12)
    assert costate_rows[4, 0] == pytest.approx(-2e-3, abs=1e-12)
    # x_3 enters the next state defect through the stepper and lam_3's
    # costate defect through H_x; lam_5 enters lam_4's costate defect
    assert np.count_nonzero(state_rows[3]) > 0
    assert np.count_nonzero(costate_rows[2]) > 0
    assert np.count_nonzero(costate_rows[3]) > 0
    assert np.count_nonzero(state_rows[:2]) == 0
    assert np.count_nonzero(costate_rows[:2]) == 0


@pytest.mark.parametrize("case", [hemisphere_case, cart_case,
                                  lifted_hemisphere_case, lifted_cart_case])
def test_batched_rows_match_single_calls(case):
    prob, x0, base, spread = case()
    rng = np.random.default_rng(8)
    stack = base + spread * rng.standard_normal((6, base.size))
    batched = prob.assemble_residual(x0, stack)
    assert batched.shape == stack.shape
    single = np.array([prob.assemble_residual(x0, row) for row in stack])
    assert np.max(np.abs(batched - single)) <= 1e-14
    # a second leading axis is a batch axis too
    assert np.array_equal(prob.assemble_residual(x0, stack.reshape(2, 3, -1)),
                          batched.reshape(2, 3, -1))


@pytest.mark.parametrize("case", [hemisphere_case, cart_case,
                                  lifted_hemisphere_case, lifted_cart_case])
def test_exact_jacobian_matches_column_loop(case):
    prob, x0, base, spread = case()
    U = base + spread * np.random.default_rng(9).standard_normal(base.size)
    h = FD_STEP
    f0 = prob.assemble_residual(x0, U)
    loop = np.empty((U.size, U.size))
    for j in range(U.size):
        u_j = U.copy()
        u_j[j] += h
        loop[:, j] = (prob.assemble_residual(x0, u_j) - f0) / h
    jac = exact_jacobian(prob, x0, U)
    # FD level: the two differ only by round-off in F, amplified by 1/h
    assert np.max(np.abs(jac - loop)) <= 1e-6


def test_validate_at_rejects_callbacks_that_do_not_broadcast():
    prob = make_cart_problem(4)
    args = (np.zeros(2), np.zeros(1), np.zeros(2),
            np.zeros(1), np.zeros(1), np.ones(1))
    prob.ocp.validate_at(*args)
    stage = prob.ocp.stage
    # right at one point, wrong shape for a stage stack
    indexed = dataclasses.replace(prob.ocp, stage=on_lists(lambda x, lam, u, mu, p, dtau: (
        stage(x, lam, u, mu, p, dtau)[:2] + (np.array([u[0] + lam[1] + mu[0]]),)
        + stage(x, lam, u, mu, p, dtau)[3:])))
    with pytest.raises(DimensionMismatch, match="^stage part 2 returned shape"):
        indexed.validate_at(*args)
    # right shape for a stack, but every row of H_p reads the first stage's mu
    first_row = dataclasses.replace(prob.ocp, stage=on_lists(lambda x, lam, u, mu, p, dtau: (
        stage(x, lam, u, mu, p, dtau)[:4] + (0.1 * p + 0.2 * lam[..., 1:] - 0.1 * mu[0],))))
    with pytest.raises(DimensionMismatch, match="^stage part 4 does not broadcast"):
        first_row.validate_at(*args)


@pytest.mark.parametrize("name", ["stage", "Phi_grad"])
def test_validate_at_counts_the_parts_of_a_fused_callback(name):
    # a fused callback that returns two of its partials
    parts = {"stage": 5, "Phi_grad": 3}[name]
    two_parts = dataclasses.replace(
        CART_OCP, **{name: lambda *args: getattr(CART_OCP, name)(*args)[:2]})
    with pytest.raises(DimensionMismatch,
                       match=f"^{name} returned 2 parts, expected {parts}"):
        two_parts.validate_at(*origin_probe(CART_OCP))


# a probe point where every argument, and so every part of stage, is nonzero
NONZERO_PROBE = (np.array([0.3, -0.2]), np.array([0.4]), np.array([-0.5, 0.6]),
                 np.array([0.7]), np.array([0.1]), np.array([1.2]))


@pytest.mark.parametrize("j, name", [(0, "stepper"), (1, "H_x")])
def test_validate_at_rejects_a_stage_that_disagrees_with_the_condensed_callbacks(j, name):
    # the lifted residual reads x_next and H_x from stage, a stack's
    # recursions from stepper and H_x, and a single vector's forward pass
    # from stepper: a stage whose part j is doubled would make them disagree
    @on_lists
    def doubled(*args):
        parts = list(CART_OCP.stage(*args))
        parts[j] = 2.0 * parts[j]
        return tuple(parts)

    CART_OCP.validate_at(*NONZERO_PROBE)
    broken = dataclasses.replace(CART_OCP, stage=doubled)
    with pytest.raises(DimensionMismatch, match=f"^stage part {j} differs from {name} at"):
        broken.validate_at(*NONZERO_PROBE)


@pytest.mark.parametrize("case", [lifted_hemisphere_case, lifted_cart_case])
def test_stage_steps_and_drifts_exactly_as_the_condensed_callbacks(case):
    # bit for bit, not to a tolerance: this is what keeps the defect rows
    # exactly zero at the lift
    prob, x0, base, spread = case()
    layout, ocp = prob.layout, prob.ocp
    V = base + spread * np.random.default_rng(11).standard_normal((3, base.size))
    p = np.repeat(layout.p(V)[:, None, :], layout.n_steps, axis=1)
    x, lam, u, mu = layout.states(V), layout.costates(V), layout.controls(V), layout.mus(V)
    x_next, hx = ocp.stage(x, lam, u, mu, p, prob.dtau)[:2]
    assert x_next.shape == hx.shape == x.shape
    assert np.array_equal(x_next, ocp.stepper(x, u, p, prob.dtau))
    assert np.array_equal(hx, ocp.H_x(x, lam, u, mu, p))


def test_a_stepper_that_takes_dtau_for_a_number_assembles_both_transcriptions():
    # dtau is one float for points and stage stacks alike, so scalar math on
    # it passes validate_at and runs in the condensed and lifted residuals
    @on_lists
    def stepper(x, u, p, dtau):
        return x + math.sqrt(dtau) * u

    ocp = dataclasses.replace(
        CART_OCP, stepper=stepper,
        stage=lambda x, lam, u, mu, p, dtau: (
            (stepper(x, u, p, dtau),) + CART_OCP.stage(x, lam, u, mu, p, dtau)[1:]))
    prob = HorizonProblem(ocp, 4, origin_probe(ocp))
    x0 = np.array([0.2, -0.1])
    U = 0.3 * np.random.default_rng(12).standard_normal(prob.layout.dim)
    x_1 = prob.layout.states(prob.lift(x0, U))[0]
    assert np.array_equal(x_1, x0 + 0.5 * prob.layout.controls(U)[0])
    rows = prob.assemble_residual(x0, prob.lift(x0, U))
    assert np.array_equal(prob.assemble_residual(x0, U), rows[:prob.layout.dim])
    assert np.max(np.abs(rows[prob.layout.dim:])) <= 1e-14


def first_point_only(callback):
    """The callback at the first point of any stack, without the stack's
    leading axes: right at one point, wrong on every stack."""
    def call(*args):
        return callback(*(np.asarray(a)[(0,) * (np.ndim(a) - 1)] for a in args))
    return call


def one_part_first_point_only(callback, j):
    """The fused callback with only its part j taken at the first point of
    any stack, as first_point_only does to a whole callback."""
    def call(*args):
        parts = list(callback(*args))
        parts[j] = first_point_only(callback)(*args)[j]
        return tuple(parts)
    return call


CART_OCP = make_cart_problem(4).ocp
CALLBACKS = [f.name for f in dataclasses.fields(CART_OCP)
             if callable(getattr(CART_OCP, f.name))]
# each part of a fused callback -> (fused callback, index of its part)
PARTIALS = {"x_next": ("stage", 0), "stage_H_x": ("stage", 1),
            "H_u": ("stage", 2), "C": ("stage", 3), "H_p": ("stage", 4),
            "Phi_x": ("Phi_grad", 0), "psi": ("Phi_grad", 1), "Phi_p": ("Phi_grad", 2)}


@pytest.mark.parametrize("name", CALLBACKS + list(PARTIALS))
def test_validate_at_probes_every_callback(name):
    # a whole callback, or one part of a fused one, that is right at one
    # point and wrong on every stack must be named by validate_at
    if name in PARTIALS:
        name, j = PARTIALS[name]
        broken, label = one_part_first_point_only(getattr(CART_OCP, name), j), f"{name} part {j}"
    else:
        broken, label = first_point_only(getattr(CART_OCP, name)), name
    broken = dataclasses.replace(CART_OCP, **{name: broken})
    with pytest.raises(DimensionMismatch, match=f"^{label} "):
        broken.validate_at(*origin_probe(CART_OCP))


@pytest.mark.parametrize("name, j", [("H_x", None), ("Phi_grad", 0)],
                         ids=["H_x", "Phi_grad part 0"])
def test_validate_at_names_a_callback_that_returns_nan(name, j):
    # NaN at the probe is bad data, not a broadcasting fault
    callback = getattr(CART_OCP, name)
    if j is None:
        broken, label = lambda *args: np.asarray(callback(*args)) + np.nan, name
    else:
        def broken(*args):
            parts = list(callback(*args))
            parts[j] = parts[j] + np.nan
            return tuple(parts)
        label = f"{name} part {j}"
    broken_ocp = dataclasses.replace(CART_OCP, **{name: broken})
    with pytest.raises(GeonmpcError,
                       match=f"^{label} returned NaN or inf at the probe point$"):
        broken_ocp.validate_at(*origin_probe(CART_OCP))


def on_single_points(callback, fault, j):
    """The callback with fault applied to what it returns for a single
    point, which the condensed recursions pass as lists: to the whole
    output, or to part j of a fused callback's."""
    def call(*args):
        out = callback(*args)
        if type(args[0]) is not list:
            return out
        if j is None:
            return fault(out)
        return out[:j] + (fault(out[j]),) + out[j + 1:]
    return call


@pytest.mark.parametrize("name", ["stepper", "stage"])
@pytest.mark.parametrize("fault, message", [
    (lambda out: out[:-1], r"returned shape \(1,\) for leading axes \(\), expected \(2,\)$"),
    (lambda out: [v + 1e-6 for v in out],
     r"does not broadcast: rows for leading axes \(3,\) differ from single-point calls$"),
], ids=["short", "off"])
def test_validate_at_probes_the_single_point_lists(name, fault, message):
    # the condensed recursions call stepper and stage on lists: a list branch
    # that returns the wrong length, or values that differ from the same
    # points' rows of a stack call, is named (for stage, in its H_x part,
    # which steps the costate)
    j, label = (None, name) if name == "stepper" else (1, f"{name} part 1")
    broken = dataclasses.replace(
        CART_OCP, **{name: on_single_points(getattr(CART_OCP, name), fault, j)})
    with pytest.raises(DimensionMismatch, match=f"^{label} {message}"):
        broken.validate_at(*NONZERO_PROBE)


@pytest.mark.parametrize("name", ["stepper", "stage"])
def test_validate_at_names_a_callback_that_takes_no_lists(name):
    # the cart's array callback without its list branch reads x.T of a list
    broken = dataclasses.replace(CART_OCP, **{name: getattr(CART_OCP, name).__wrapped__})
    with pytest.raises(DimensionMismatch,
                       match=f"^{name} failed for leading axes \\(\\): AttributeError: "):
        broken.validate_at(*NONZERO_PROBE)


def test_validate_at_calls_each_callback_once_per_distinct_input():
    # six single points and two stacks of them: no input is probed twice
    called = collections.Counter()

    def counted(name):
        def call(*args):
            called[name] += 1
            return getattr(CART_OCP, name)(*args)
        return call

    dataclasses.replace(
        CART_OCP, **{name: counted(name) for name in CALLBACKS}
    ).validate_at(*origin_probe(CART_OCP))
    assert called == {name: 8 for name in CALLBACKS}


@pytest.mark.parametrize("case", [hemisphere_case, cart_case])
def test_each_transcription_calls_every_callback(case):
    # a callback that no transcription reads is dead protocol surface, and a
    # repeated stage-stack call is wasted work: the lifted residual reads
    # every row from one stage and one Phi_grad call; a single condensed
    # vector steps once per stage and, backward, calls stage once per stage
    # for its costate step and its partials, reading lam_N and the terminal
    # rows from one Phi_grad call; a condensed stack is lift (stepper and
    # H_x once per stage, Phi_grad for lam_N), then the lifted rows without
    # the defect rows (one stage and one more Phi_grad call).  A single
    # vector passes lists to every stepper and stage call, so it makes no
    # array stage call; the others pass no lists.  lift runs on stage views
    # for any shape, so it makes no stage call.
    prob, x0, base, _ = case()
    ocp, n = prob.ocp, prob.layout.n_steps
    names = {f.name for f in dataclasses.fields(ocp) if callable(getattr(ocp, f.name))}
    called, listed = collections.Counter(), collections.Counter()

    def recorded(name):
        def call(*args):
            called[name] += 1
            if type(args[0]) is list:
                listed[name] += 1
            return getattr(ocp, name)(*args)
        return call

    lifted = prob.lift(x0, base)
    prob.ocp = dataclasses.replace(ocp, **{name: recorded(name) for name in names})
    seen = set()
    for U, counts, lists in [
            (base, {"stepper": n, "stage": n, "Phi_grad": 1}, {"stepper": n, "stage": n}),
            (np.vstack([base, base]),
             {"stepper": n, "H_x": n - 1, "stage": 1, "Phi_grad": 2}, {}),
            (lifted, {"stage": 1, "Phi_grad": 1}, {})]:
        called.clear()
        listed.clear()
        prob.assemble_residual(x0, U)
        assert called == counts
        assert listed == lists
        seen |= set(called)
    assert seen == names
    called.clear()
    listed.clear()
    prob.lift(x0, base)
    assert called == {"stepper": n, "H_x": n - 1, "Phi_grad": 1}
    assert not listed


def test_problem_rejects_callbacks_that_do_not_broadcast():
    ocp = make_cart_problem(4).ocp
    # every stage row of H_p reads the first stage's mu
    first_row = dataclasses.replace(ocp, stage=on_lists(lambda x, lam, u, mu, p, dtau: (
        ocp.stage(x, lam, u, mu, p, dtau)[:4] + (0.1 * p + 0.2 * lam[..., 1:] - 0.1 * mu[0],))))
    with pytest.raises(DimensionMismatch, match="^stage part 4"):
        HorizonProblem(first_row, 4, origin_probe(first_row))
