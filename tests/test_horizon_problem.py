import numpy as np
import pytest

from conftest import (discrete_lagrangian, fd_gradient, make_cart_problem,
                      origin_probe)
from geonmpc.errors import DimensionMismatch
from geonmpc.hemisphere import HemisphereParams, initial_guess, make_problem
from geonmpc.horizon import (
    DecisionLayout,
    HorizonGrid,
    HorizonProblem,
    OcpDefinition,
    euler_stepper,
)
from geonmpc.solver import exact_jacobian


def zeros(*shape):
    """Callback returning zeros of the given shape behind the leading axes
    of its state argument (the second one, or the first for terminal maps)."""
    def callback(*args):
        state = args[1] if len(args) > 2 else args[0]
        return np.zeros(np.shape(state)[:-1] + shape)
    return callback


def zero_like_callbacks(n_x, n_u, n_mu, n_nu, n_p, f, stepper=None):
    """OcpDefinition with the given dynamics and inert cost/constraint maps."""
    return OcpDefinition(
        n_x=n_x, n_u=n_u, n_mu=n_mu, n_nu=n_nu, n_p=n_p,
        L=zeros(),
        phi=zeros(),
        C=zeros(n_mu),
        psi=zeros(n_nu),
        H_u=zeros(n_u),
        H_x=zeros(n_x),
        H_p=zeros(n_p),
        phi_x=zeros(n_x),
        phi_p=zeros(n_p),
        psi_x=zeros(n_nu, n_x),
        psi_p=zeros(n_nu, n_p),
        stepper=stepper if stepper is not None else euler_stepper(f),
    )


# ------------------------------------------------------------------- grid

def test_uniform_grid():
    g = HorizonGrid.uniform(20)
    assert g.n_steps == 20
    assert g.tau[0] == 0.0
    assert g.tau[-1] == 1.0
    assert abs(g.dtau.sum() - 1.0) <= 1e-12
    assert np.allclose(np.diff(g.tau), g.dtau, rtol=0, atol=1e-15)


def test_grid_rejects_empty():
    with pytest.raises(DimensionMismatch):
        HorizonGrid.uniform(0)


# ----------------------------------------------------------------- layout

def test_layout_dim_matches_hemisphere_shape():
    layout = DecisionLayout(n_steps=20, n_u=2, n_mu=1, n_nu=2, n_p=1)
    assert layout.dim == 63


def test_layout_block_roundtrip():
    # writes through the views land in a vector and in every row of a stack
    layout = DecisionLayout(n_steps=7, n_u=2, n_mu=3, n_nu=2, n_p=1)
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


def test_layout_component_major_order():
    # component j of stage i sits at j*n_steps + i inside its block
    layout = DecisionLayout(n_steps=3, n_u=2, n_mu=1, n_nu=1, n_p=1)
    for lead in [(), (2,)]:
        vec = np.zeros(lead + (layout.dim,))
        layout.controls(vec)[..., 1, :] = (5.0, 7.0)
        layout.mus(vec)[..., 2, :] = 9.0
        assert np.all(vec[..., 1] == 5.0)
        assert np.all(vec[..., 3 + 1] == 7.0)
        assert np.all(vec[..., layout.mu_offset + 2] == 9.0)
        assert np.count_nonzero(vec) == 3 * int(np.prod(lead))


def test_layout_offsets_reproducible():
    a = DecisionLayout(5, 2, 1, 2, 1)
    b = DecisionLayout(5, 2, 1, 2, 1)
    assert (a.mu_offset, a.nu_offset, a.p_offset, a.dim) == \
           (b.mu_offset, b.nu_offset, b.p_offset, b.dim)


# ------------------------------------------------------------- recursions

def test_forward_zero_dynamics_keeps_state():
    ocp = zero_like_callbacks(2, 1, 1, 1, 1, f=zeros(2))
    prob = HorizonProblem(ocp, HorizonGrid.uniform(6), origin_probe(ocp))
    x0 = np.array([0.4, -1.2])
    U = prob.layout.zeros()
    states, _ = prob.trajectory(x0, U)
    assert np.all(states == x0)


def test_forward_hand_iterated_two_steps():
    # reduced hemisphere flow with u = 0, p = 1: two Euler half-steps from
    # the apex land at x = 0.5 + 0.5*sqrt(0.75)
    def f(tau, x, u, p):
        x0, x1 = x.T
        s = np.sqrt(1.0 - x0 ** 2 - x1 ** 2)
        u0 = u.T[0]
        return (p.T[0] * s * np.array([np.cos(u0), np.sin(u0)])).T

    ocp = zero_like_callbacks(2, 1, 1, 2, 1, f=f)
    prob = HorizonProblem(ocp, HorizonGrid.uniform(2), origin_probe(ocp))
    U = prob.layout.zeros()
    prob.layout.p(U)[:] = 1.0
    states, _ = prob.trajectory(np.zeros(2), U)
    assert np.allclose(states[1], [0.5, 0.0], rtol=0, atol=1e-15)
    assert abs(states[2][0] - (0.5 + 0.5 * np.sqrt(0.75))) <= 1e-15
    assert states[2][1] == 0.0


def test_terminal_costate_equals_nu():
    ocp = OcpDefinition(**{
        **zero_like_callbacks(2, 1, 1, 2, 1, f=zeros(2)).__dict__,
        "psi": lambda xn, p: xn.copy(),
        "psi_x": lambda xn, p: zeros(2, 2)(xn, p) + np.eye(2),
    })
    prob = HorizonProblem(ocp, HorizonGrid.uniform(4), origin_probe(ocp))
    U = prob.layout.zeros()
    nu = np.array([0.7, -0.3])
    prob.layout.nu(U)[:] = nu
    _, costates = prob.trajectory(np.zeros(2), U)
    assert np.array_equal(costates[4], nu)
    # H_x == 0 here, so the whole costate history is constant
    for i in range(5):
        assert np.array_equal(costates[i], nu)


def test_recursion_reevaluation_is_bitwise_stable():
    prob = make_cart_problem(8)
    rng = np.random.default_rng(2)
    U = rng.standard_normal(prob.dim)
    x0 = np.array([0.1, -0.2])
    states1, costates1 = prob.trajectory(x0, U)
    states2, costates2 = prob.trajectory(x0, U)
    assert np.array_equal(states1, states2)
    assert np.array_equal(costates1, costates2)


# --------------------------------------------------------------- residual

def test_residual_matches_lagrangian_gradient():
    prob = make_cart_problem(10)
    rng = np.random.default_rng(23)
    x0 = np.array([0.2, -0.1])
    U = 0.3 * rng.standard_normal(prob.dim)
    fvec = prob.assemble_residual(x0, U)
    grad = fd_gradient(lambda v: discrete_lagrangian(prob, x0, v), U)
    assert np.max(np.abs(fvec - grad)) <= 1e-6
    # the control block alone, at the same tolerance
    n = prob.grid.n_steps
    assert np.max(np.abs(fvec[:n] - grad[:n])) <= 1e-6


def test_dtau_scaling_doubles_stage_blocks():
    # state-independent dynamics keep the trajectory identical, so the
    # explicit dtau factor is the only change
    ocp = OcpDefinition(**{
        **zero_like_callbacks(2, 1, 1, 1, 1, f=zeros(2)).__dict__,
        "L": lambda tau, x, u, p: u[..., 0] ** 2,
        "C": lambda tau, x, u, p: u - 0.3,
        "psi": lambda xn, p: xn[..., :1],
        "H_u": lambda tau, x, lam, u, mu, p: 2.0 * u + mu,
        "psi_x": lambda xn, p: zeros(1, 2)(xn, p) + [[1.0, 0.0]],
    })
    rng = np.random.default_rng(4)
    n = 5
    prob1, prob2 = (
        HorizonProblem(ocp, HorizonGrid(dtau=np.full(n, length / n),
                                        tau=np.linspace(0.0, length, n + 1)),
                       origin_probe(ocp))
        for length in (1.0, 2.0))
    U = rng.standard_normal(prob1.dim)
    x0 = np.array([0.5, 0.5])
    f1 = prob1.assemble_residual(x0, U)
    f2 = prob2.assemble_residual(x0, U)
    stage_rows = 2 * n  # H_u block plus C block
    assert np.array_equal(f2[:stage_rows], 2.0 * f1[:stage_rows])
    # terminal constraint rows carry no dtau factor
    assert np.array_equal(f2[prob1.layout.nu_offset:prob1.layout.p_offset],
                          f1[prob1.layout.nu_offset:prob1.layout.p_offset])


def test_assemble_residual_deterministic():
    prob = make_cart_problem(9)
    rng = np.random.default_rng(6)
    U = rng.standard_normal(prob.dim)
    x0 = np.array([-0.4, 0.9])
    assert np.array_equal(prob.assemble_residual(x0, U),
                          prob.assemble_residual(x0, U))


def test_assemble_rejects_wrong_length():
    prob = make_cart_problem(5)
    with pytest.raises(DimensionMismatch):
        prob.assemble_residual(np.zeros(2), np.zeros(prob.dim + 1))


def test_validate_at_accepts_and_rejects():
    prob = make_cart_problem(4)
    prob.ocp.validate_at(0.0, np.zeros(2), np.zeros(1), np.zeros(2),
                         np.zeros(1), np.zeros(1), np.ones(1))
    bad = OcpDefinition(
        **{**prob.ocp.__dict__,
           "H_u": lambda tau, x, lam, u, mu, p: np.zeros(3)})
    with pytest.raises(DimensionMismatch):
        bad.validate_at(0.0, np.zeros(2), np.zeros(1), np.zeros(2),
                        np.zeros(1), np.zeros(1), np.ones(1))


# ---------------------------------------------------- batched assembly

def hemisphere_case():
    params = HemisphereParams()
    prob = make_problem(params, 20)
    base = initial_guess(prob.layout, params)
    return prob, np.array([params.x0, params.y0]), base, 0.01


def cart_case():
    prob = make_cart_problem(10)
    return prob, np.array([0.2, -0.1]), np.zeros(prob.dim), 0.3


@pytest.mark.parametrize("case", [hemisphere_case, cart_case])
def test_batched_rows_match_single_calls(case):
    prob, x0, base, spread = case()
    rng = np.random.default_rng(8)
    stack = base + spread * rng.standard_normal((6, prob.dim))
    batched = prob.assemble_residual(x0, stack)
    assert batched.shape == (6, prob.dim)
    single = np.array([prob.assemble_residual(x0, row) for row in stack])
    assert np.max(np.abs(batched - single)) <= 1e-14
    # a second leading axis is a batch axis too
    assert np.array_equal(prob.assemble_residual(x0, stack.reshape(2, 3, -1)),
                          batched.reshape(2, 3, -1))


@pytest.mark.parametrize("case", [hemisphere_case, cart_case])
def test_exact_jacobian_matches_column_loop(case):
    prob, x0, base, spread = case()
    U = base + spread * np.random.default_rng(9).standard_normal(prob.dim)
    h = 1e-8
    f0 = prob.assemble_residual(x0, U)
    loop = np.empty((prob.dim, prob.dim))
    for j in range(prob.dim):
        u_j = U.copy()
        u_j[j] += h
        loop[:, j] = (prob.assemble_residual(x0, u_j) - f0) / h
    jac = exact_jacobian(prob, x0, U, h)
    # FD level: the two differ only by round-off in F, amplified by 1/h
    assert np.max(np.abs(jac - loop)) <= 1e-6


def test_validate_at_rejects_callbacks_that_do_not_broadcast():
    prob = make_cart_problem(4)
    args = (0.0, np.zeros(2), np.zeros(1), np.zeros(2),
            np.zeros(1), np.zeros(1), np.ones(1))
    prob.ocp.validate_at(*args)
    # right at one point, wrong shape for a stage stack
    indexed = OcpDefinition(**{
        **prob.ocp.__dict__,
        "H_u": lambda tau, x, lam, u, mu, p: np.array([u[0] + lam[1] + mu[0]])})
    with pytest.raises(DimensionMismatch, match="H_u"):
        indexed.validate_at(*args)
    # right shape for a stack, but every row reads the first stage's mu
    first_row = OcpDefinition(**{
        **prob.ocp.__dict__,
        "H_p": lambda tau, x, lam, u, mu, p: 0.1 * p + 0.2 * lam[..., 1:] - 0.1 * mu[0]})
    with pytest.raises(DimensionMismatch, match="H_p"):
        first_row.validate_at(*args)


def test_problem_rejects_callbacks_that_do_not_broadcast():
    ocp = make_cart_problem(4).ocp
    # every stage row of H_p reads the first stage's mu
    first_row = OcpDefinition(**{
        **ocp.__dict__,
        "H_p": lambda tau, x, lam, u, mu, p: 0.1 * p + 0.2 * lam[..., 1:] - 0.1 * mu[0]})
    with pytest.raises(DimensionMismatch, match="H_p"):
        HorizonProblem(first_row, HorizonGrid.uniform(4), origin_probe(first_row))
