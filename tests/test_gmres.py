import numpy as np
import pytest

import geonmpc.gmres
from geonmpc.errors import DimensionMismatch
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


def test_singular_breakdown_keeps_previous_iterate():
    # A maps the rhs to zero, so the first Arnoldi column is all zero and
    # no rotation exists: the zero start is the best iterate, and the
    # residual |b| = 1 is not converged.
    rep = gmres_solve(matrix_operator(np.diag([1.0, 0.0])), np.array([0.0, 1.0]))
    assert rep.iters_used == 0
    assert not rep.converged
    assert rep.final_residual_norm == 1.0
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
    assert rep.final_residual_norm > 1e-12


def test_converged_flag_matches_final_residual(set_limits):
    rng = np.random.default_rng(31)
    for n, tol in [(6, 1e-3), (6, 1e-12), (15, 1e-6)]:
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        set_limits(4, tol)
        rep = gmres_solve(matrix_operator(a), b)
        assert rep.converged == (rep.final_residual_norm <= tol)


def test_dimension_checks():
    op = matrix_operator(np.eye(3))
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.ones(4))
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.ones(3), precond=matrix_operator(np.eye(2)))
    with pytest.raises(DimensionMismatch):
        LinearOperator(0, lambda v: v)
    bad = LinearOperator(3, lambda v: v[:2])
    with pytest.raises(DimensionMismatch):
        gmres_solve(bad, np.ones(3))


def test_report_shape():
    rep = gmres_solve(matrix_operator(2.0 * np.eye(2)), np.ones(2))
    assert isinstance(rep, GmresReport)
    assert rep.iters_used <= 20
    assert len(rep.residual_history) == rep.iters_used + 1


@pytest.mark.parametrize("precondition", [False, True])
def test_report_satisfies_the_arnoldi_relation(precondition, set_limits):
    # an orthonormal basis and M A V_k = V_{k+1} Hbar_k with the Hessenberg
    # as built, not rotated
    rng = np.random.default_rng(41)
    n = 15
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    m = np.linalg.inv(a + 0.5 * rng.standard_normal((n, n))) if precondition else np.eye(n)
    # modified Gram-Schmidt keeps the basis orthonormal to rounding while
    # the residual stays far above rounding, as in the controller's solves
    set_limits(8, 1e-2)
    rep = gmres_solve(matrix_operator(a), rng.standard_normal(n),
                      matrix_operator(m) if precondition else None)
    k = rep.iters_used
    assert k >= 3
    assert rep.basis.shape == (k + 1, n) and rep.hessenberg.shape == (k + 1, k)
    assert np.max(np.abs(rep.basis @ rep.basis.T - np.eye(k + 1))) <= 1e-12
    v = rep.basis.T
    gap = m @ a @ v[:, :k] - v @ rep.hessenberg
    assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(m @ a))


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
