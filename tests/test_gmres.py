import re
import types

import numpy as np
import pytest

import geonmpc.gmres
from geonmpc.errors import DimensionMismatch, GeonmpcError
from geonmpc.gmres import (
    GmresReport,
    LinearOperator,
    gmres_solve,
    matrix_operator,
)
from geonmpc.linalg import norm2


@pytest.fixture
def set_limits(monkeypatch):
    """Set the module's iteration cap and tolerance for one test."""
    def apply(max_iters, abs_tol):
        monkeypatch.setattr(geonmpc.gmres, "MAX_ITERS", max_iters)
        monkeypatch.setattr(geonmpc.gmres, "ABS_TOL", abs_tol)
    return apply


def test_identity_solves_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    rep = gmres_solve(matrix_operator(np.eye(3)), b)
    assert rep.iters_used == 1
    assert rep.converged
    assert np.allclose(rep.solution, b, rtol=0, atol=1e-14)


def test_diag_five_distinct_eigenvalues(set_limits):
    # Krylov exactness: 5 distinct eigenvalues means at most 5 iterations.
    a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.ones(5)
    set_limits(10, 1e-12)
    rep = gmres_solve(matrix_operator(a), b)
    assert rep.iters_used <= 5
    assert norm2(a @ rep.solution - b) <= 1e-12
    direct = np.linalg.solve(a, b)
    assert np.allclose(rep.solution, direct, rtol=0, atol=1e-12)


def test_perfect_preconditioner_one_iteration(set_limits):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
    b = rng.standard_normal(30)
    set_limits(20, 1e-10)
    rep = gmres_solve(
        matrix_operator(a), b, precond=matrix_operator(np.linalg.inv(a)))
    assert rep.iters_used == 1
    assert norm2(a @ rep.solution - b) <= 1e-10 * max(1.0, norm2(b))


@pytest.mark.parametrize("n", [2, 5, 10, 23, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_subspace_matches_direct_solve(n, seed, set_limits):
    rng = np.random.default_rng(100 * seed + n)
    a = rng.standard_normal((n, n)) + (1.0 + np.sqrt(n)) * np.eye(n)
    b = rng.standard_normal(n)
    set_limits(n, 1e-12)
    rep = gmres_solve(matrix_operator(a), b)
    direct = np.linalg.solve(a, b)
    assert norm2(rep.solution - direct) <= 1e-8 * norm2(direct)


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_residual_history_monotone(seed, set_limits):
    rng = np.random.default_rng(seed)
    n = 25
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    set_limits(n, 1e-14)
    rep = gmres_solve(matrix_operator(a), b)
    hist = np.array(rep.residual_history)
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_converged_at_iteration_zero():
    b = np.zeros(4)
    rep = gmres_solve(matrix_operator(np.eye(4)), b)
    assert rep.iters_used == 0
    assert rep.converged
    assert np.array_equal(rep.solution, np.zeros(4))


def test_happy_breakdown_returns_exact_iterate(set_limits):
    # rhs lies in a 2-dimensional invariant subspace: Arnoldi must break
    # down at step 2 with the exact solution already in hand.
    a = np.diag([2.0, 3.0, 4.0, 5.0])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    set_limits(4, 1e-13)
    rep = gmres_solve(matrix_operator(a), b)
    assert rep.iters_used == 2
    assert rep.converged
    assert norm2(a @ rep.solution - b) <= 1e-12


@pytest.mark.parametrize("m", [1, 5, 20])
def test_exact_breakdown_returns_exact_iterate(m):
    # A scaled cyclic shift maps e_i to 2 e_{i+1}: Arnoldi from e_0 builds
    # e_0, ..., e_{m-1} and then a new vector that is exactly zero, so the
    # residual norm is exactly zero and z ends in inf
    a = 2.0 * np.roll(np.eye(m), 1, axis=0)
    b = np.eye(m)[0]
    rep = gmres_solve(matrix_operator(a), b)
    assert rep.iters_used == m
    assert rep.converged
    assert rep.residual_history[-1] == 0.0
    assert np.array_equal(rep.solution, np.linalg.solve(a, b))


def test_singular_breakdown_keeps_previous_iterate():
    # A maps the rhs to zero, so the first Arnoldi column is all zero and
    # no rotation exists: the zero start is the best iterate, and the
    # residual |b| = 1 is not converged.
    rep = gmres_solve(matrix_operator(np.diag([1.0, 0.0])), np.array([0.0, 1.0]))
    assert rep.iters_used == 0
    assert not rep.converged
    assert rep.residual_history == [1.0]
    assert np.array_equal(rep.solution, np.zeros(2))


def test_max_iters_cap_reports_not_converged(set_limits):
    rng = np.random.default_rng(21)
    n = 30
    # spread eigenvalues so 3 iterations cannot reach 1e-12
    a = np.diag(np.linspace(1.0, 50.0, n)) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    set_limits(3, 1e-12)
    rep = gmres_solve(matrix_operator(a), b)
    assert rep.iters_used == 3
    assert not rep.converged
    assert rep.residual_history[-1] > 1e-12


def test_converged_flag_matches_final_residual(set_limits):
    rng = np.random.default_rng(31)
    for n, tol in [(6, 1e-3), (6, 1e-12), (15, 1e-6)]:
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        set_limits(4, tol)
        rep = gmres_solve(matrix_operator(a), b)
        assert rep.converged == (rep.residual_history[-1] <= tol)


def test_dimension_checks():
    op = matrix_operator(np.eye(3))
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.ones(4))
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.ones(3), precond=matrix_operator(np.eye(2)))
    with pytest.raises(DimensionMismatch, match="^operator dim 0"):
        gmres_solve(LinearOperator(0, lambda v: v), np.ones(0))
    bad = LinearOperator(3, lambda v: v[:2])
    with pytest.raises(DimensionMismatch):
        gmres_solve(bad, np.ones(3))


@pytest.mark.parametrize("source, step", [
    ("operator", 1),
    ("preconditioner", 0),  # the preconditioned right-hand side
])
@pytest.mark.parametrize("wrong, shape", [(lambda v: v[:-1], (3,)),
                                          (lambda v: v[None, :], (1, 4))],
                         ids=["short", "2-d"])
def test_any_operator_with_dim_and_apply_has_its_outputs_checked(source, step,
                                                                 wrong, shape):
    # gmres_solve reads only .dim and .apply, as the benchmark's proxy has
    # them, and checks every output itself: a wrong shape names its source
    # and step instead of surfacing as a numpy error inside the Arnoldi step
    def operator(name):
        return types.SimpleNamespace(
            dim=4, apply=lambda v: wrong(2.0 * v) if name == source else 2.0 * v)

    message = f"GMRES step {step}: the {source}'s output has shape {shape}, expected (4,)"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        gmres_solve(operator("operator"), np.ones(4), operator("preconditioner"))


def test_report_shape():
    rep = gmres_solve(matrix_operator(2.0 * np.eye(2)), np.ones(2))
    assert isinstance(rep, GmresReport)
    assert rep.iters_used <= 20
    assert len(rep.residual_history) == rep.iters_used + 1


@pytest.mark.parametrize("precondition, ill_conditioned", [
    (False, False), (True, False), (False, True),
], ids=["False", "True", "ill-conditioned"])
def test_report_satisfies_the_arnoldi_relation(precondition, ill_conditioned,
                                               set_limits):
    # an orthonormal basis and M A V_k = V_{k+1} Hbar_k with the Hessenberg
    # as built, not rotated
    rng = np.random.default_rng(41)
    n = 15
    if ill_conditioned:
        # condition number about 1e8: one classical Gram-Schmidt pass loses
        # orthogonality to about 1e-10 here, modified Gram-Schmidt to 5e-11
        a = np.diag(np.logspace(0, 8, n)) + 1e-2 * rng.standard_normal((n, n))
    else:
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    m = np.linalg.inv(a + 0.5 * rng.standard_normal((n, n))) if precondition else np.eye(n)
    # the second Gram-Schmidt pass keeps the basis orthonormal to rounding
    # while the residual stays far above rounding, as in the controller's solves
    set_limits(12 if ill_conditioned else 8, 1e-2)
    rep = gmres_solve(matrix_operator(a), rng.standard_normal(n),
                      matrix_operator(m) if precondition else None)
    k = rep.iters_used
    assert k >= 3
    assert rep.basis.shape == (k + 1, n) and rep.hessenberg.shape == (k + 1, k)
    assert np.max(np.abs(rep.basis @ rep.basis.T - np.eye(k + 1))) <= 1e-12
    v = rep.basis.T
    gap = m @ a @ v[:, :k] - v @ rep.hessenberg
    assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(m @ a))


@pytest.mark.parametrize("precondition", [False, True])
def test_residual_history_is_the_residual_of_each_iterate(precondition, set_limits):
    # residual_history[k] is |M (b - A x_k)| for the iterate x_k that a
    # solve capped at k iterations returns; the residual stays far above
    # rounding here, so the relative gap measures the recurrence alone
    rng = np.random.default_rng(43)
    n, cap = 15, 8
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    m = np.linalg.inv(a + rng.standard_normal((n, n))) if precondition else np.eye(n)
    b = rng.standard_normal(n)
    precond = matrix_operator(m) if precondition else None
    set_limits(cap, 0.0)
    history = gmres_solve(matrix_operator(a), b, precond).residual_history
    assert len(history) == cap + 1
    for k in range(cap + 1):
        set_limits(k, 0.0)
        x_k = gmres_solve(matrix_operator(a), b, precond).solution
        true = norm2(m @ (b - a @ x_k))
        assert abs(history[k] - true) <= 1e-12 * true


def poisoned(matrix, bad, on_call):
    """matrix_operator(matrix), except that call number on_call (from 1)
    returns a vector holding bad and -bad; counts its calls."""
    def apply(v):
        apply.calls += 1
        out = matrix @ v
        if apply.calls == on_call:
            out[1:3] = bad, -bad
        return out
    apply.calls = 0
    return LinearOperator(matrix.shape[0], apply), apply


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("source, on_call, step", [
    ("operator", 2, 2),
    ("preconditioner", 1, 0),  # the preconditioned right-hand side
    ("preconditioner", 3, 2),
])
def test_non_finite_operator_data_stops_the_solve(source, on_call, step, bad,
                                                  set_limits):
    # the step that meets NaN or inf raises a GeonmpcError naming its
    # source, instead of iterating on to MAX_ITERS and returning NaN
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    op, op_calls = poisoned(a, bad, on_call if source == "operator" else 0)
    pc, _ = poisoned(np.eye(4), bad, on_call if source == "preconditioner" else 0)
    set_limits(4, 1e-14)
    with pytest.raises(GeonmpcError, match=f"^GMRES step {step}: the {source}'s output "
                                           "holds NaN or inf$"):
        gmres_solve(op, np.ones(4), pc)
    assert op_calls.calls == step  # nothing is applied after the bad step


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_stops_the_solve(bad):
    with pytest.raises(GeonmpcError, match="^GMRES step 0: the right-hand side"):
        gmres_solve(matrix_operator(np.eye(3)), np.array([1.0, bad, 0.0]))


def test_report_on_a_happy_breakdown(set_limits):
    # the breakdown leaves a zero last basis row and a negligible subdiagonal
    a = np.diag([2.0, 3.0, 4.0, 5.0])
    set_limits(4, 1e-13)
    rep = gmres_solve(matrix_operator(a), np.array([1.0, 1.0, 0.0, 0.0]))
    assert rep.iters_used == 2
    assert rep.basis.shape == (3, 4) and rep.hessenberg.shape == (3, 2)
    assert np.array_equal(rep.basis[2], np.zeros(4))
    gap = a @ rep.basis[:2].T - rep.basis.T @ rep.hessenberg
    assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("a, b", [
    (np.eye(4), np.zeros(4)),                  # converged before iterating
    (np.diag([1.0, 0.0]), np.array([0.0, 1.0])),  # singular breakdown
])
def test_report_without_iterations(a, b):
    rep = gmres_solve(matrix_operator(a), b)
    assert rep.iters_used == 0
    assert rep.basis.shape == (1, b.shape[0])
    assert rep.hessenberg.shape == (1, 0)
