import numpy as np
import pytest

from geonmpc.errors import DimensionMismatch
from geonmpc.gmres import (
    GmresConfig,
    GmresReport,
    LinearOperator,
    gmres_solve,
    matrix_operator,
)
from geonmpc.linalg import norm2


def test_identity_solves_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    rep = gmres_solve(matrix_operator(np.eye(3)), b)
    assert rep.iters_used == 1
    assert rep.converged
    assert np.allclose(rep.solution, b, rtol=0, atol=1e-14)


def test_diag_five_distinct_eigenvalues():
    # Krylov exactness: 5 distinct eigenvalues means at most 5 iterations.
    a = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.ones(5)
    cfg = GmresConfig(max_iters=10, abs_tol=1e-12)
    rep = gmres_solve(matrix_operator(a), b, cfg=cfg)
    assert rep.iters_used <= 5
    assert norm2(a @ rep.solution - b) <= 1e-12
    direct = np.linalg.solve(a, b)
    assert np.allclose(rep.solution, direct, rtol=0, atol=1e-12)


def test_perfect_preconditioner_one_iteration():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30)) + 6.0 * np.eye(30)
    b = rng.standard_normal(30)
    rep = gmres_solve(
        matrix_operator(a), b, precond=matrix_operator(np.linalg.inv(a)),
        cfg=GmresConfig(max_iters=20, abs_tol=1e-10),
    )
    assert rep.iters_used == 1
    assert norm2(a @ rep.solution - b) <= 1e-10 * max(1.0, norm2(b))


@pytest.mark.parametrize("n", [2, 5, 10, 23, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_subspace_matches_direct_solve(n, seed):
    rng = np.random.default_rng(100 * seed + n)
    a = rng.standard_normal((n, n)) + (1.0 + np.sqrt(n)) * np.eye(n)
    b = rng.standard_normal(n)
    rep = gmres_solve(
        matrix_operator(a), b, cfg=GmresConfig(max_iters=n, abs_tol=1e-12)
    )
    direct = np.linalg.solve(a, b)
    assert norm2(rep.solution - direct) <= 1e-8 * norm2(direct)


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_residual_history_monotone(seed):
    rng = np.random.default_rng(seed)
    n = 25
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    rep = gmres_solve(
        matrix_operator(a), b, cfg=GmresConfig(max_iters=n, abs_tol=1e-14)
    )
    hist = np.array(rep.residual_history)
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_nonzero_initial_guess():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 12)) + 5.0 * np.eye(12)
    x_true = rng.standard_normal(12)
    b = a @ x_true
    rep = gmres_solve(
        matrix_operator(a), b, x0=x_true + 1e-3 * rng.standard_normal(12),
        cfg=GmresConfig(max_iters=12, abs_tol=1e-12),
    )
    assert rep.converged
    assert norm2(rep.solution - x_true) <= 1e-9


def test_converged_at_iteration_zero():
    b = np.zeros(4)
    rep = gmres_solve(matrix_operator(np.eye(4)), b)
    assert rep.iters_used == 0
    assert rep.converged
    assert np.array_equal(rep.solution, np.zeros(4))


def test_happy_breakdown_returns_exact_iterate():
    # rhs lies in a 2-dimensional invariant subspace: Arnoldi must break
    # down at step 2 with the exact solution already in hand.
    a = np.diag([2.0, 3.0, 4.0, 5.0])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    rep = gmres_solve(
        matrix_operator(a), b, cfg=GmresConfig(max_iters=4, abs_tol=1e-13)
    )
    assert rep.iters_used == 2
    assert rep.converged
    assert norm2(a @ rep.solution - b) <= 1e-12


def test_max_iters_cap_reports_not_converged():
    rng = np.random.default_rng(21)
    n = 30
    # spread eigenvalues so 3 iterations cannot reach 1e-12
    a = np.diag(np.linspace(1.0, 50.0, n)) + 0.1 * rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    rep = gmres_solve(
        matrix_operator(a), b, cfg=GmresConfig(max_iters=3, abs_tol=1e-12)
    )
    assert rep.iters_used == 3
    assert not rep.converged
    assert rep.final_residual_norm > 1e-12


def test_converged_flag_matches_final_residual():
    rng = np.random.default_rng(31)
    for n, tol in [(6, 1e-3), (6, 1e-12), (15, 1e-6)]:
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        rep = gmres_solve(
            matrix_operator(a), b, cfg=GmresConfig(max_iters=4, abs_tol=tol)
        )
        assert rep.converged == (rep.final_residual_norm <= tol)


def test_dimension_checks():
    op = matrix_operator(np.eye(3))
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.ones(4))
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.ones(3), x0=np.ones(2))
    with pytest.raises(DimensionMismatch):
        gmres_solve(op, np.ones(3), precond=matrix_operator(np.eye(2)))
    with pytest.raises(DimensionMismatch):
        LinearOperator(0, lambda v: v)
    bad = LinearOperator(3, lambda v: v[:2])
    with pytest.raises(DimensionMismatch):
        gmres_solve(bad, np.ones(3), x0=np.ones(3))


def test_config_validation():
    with pytest.raises(ValueError):
        GmresConfig(max_iters=0)
    with pytest.raises(ValueError):
        GmresConfig(abs_tol=0.0)
    cfg = GmresConfig()
    assert cfg.max_iters == 20
    assert cfg.abs_tol == 1e-5


def test_report_shape():
    rep = gmres_solve(matrix_operator(2.0 * np.eye(2)), np.ones(2))
    assert isinstance(rep, GmresReport)
    assert rep.iters_used <= 20
    assert len(rep.residual_history) == rep.iters_used + 1
