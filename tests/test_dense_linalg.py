import numpy as np
import pytest

from geonmpc.errors import DimensionMismatch, SingularMatrix
from geonmpc.linalg import MIN_RCOND, as_matrix, as_vector, inverse, norm2


def test_inverse_of_identity_is_identity():
    assert np.array_equal(inverse(np.eye(3)), np.eye(3))


def test_inverse_of_zero_diagonal_permutation():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = inverse(a) @ np.array([2.0, 3.0])
    assert np.allclose(a @ x, [2.0, 3.0], rtol=0, atol=1e-15)


def test_reconstruction_random_10x10():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((10, 10))
    err = np.max(np.abs(a @ inverse(a) - np.eye(10)))
    assert err <= 1e-12 * np.linalg.cond(a)


def test_solve_residual_20x20():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    x = inverse(a) @ b
    assert norm2(a @ x - b) <= 1e-10 * norm2(b)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_roundtrip_property(n, seed):
    rng = np.random.default_rng(1000 * seed + n)
    a = rng.standard_normal((n, n))
    if np.linalg.cond(a) >= 1e8:
        pytest.skip("draw too ill-conditioned for the tolerance")
    b = rng.standard_normal(n)
    x = inverse(a) @ b
    assert norm2(a @ x - b) <= 1e-9 * max(1.0, norm2(b))


def test_inverse_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12))
    assert np.array_equal(inverse(a), inverse(a.copy()))


def test_singular_matrix_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        inverse(a)
    with pytest.raises(SingularMatrix):
        inverse(np.zeros((3, 3)))


def test_condition_guard_sits_at_the_named_constant():
    # diag(1, d) has reciprocal 1-norm condition number exactly d
    inverse(np.diag([1.0, 2.0 * MIN_RCOND]))
    with pytest.raises(SingularMatrix, match="condition number"):
        inverse(np.diag([1.0, 0.5 * MIN_RCOND]))


@pytest.mark.filterwarnings("error")
def test_non_finite_matrix_raises():
    for a in ([[1.0, np.nan], [0.0, 1.0]], [[np.inf]], [[1.0, np.inf], [0.0, 1.0]]):
        with pytest.raises(SingularMatrix):
            inverse(np.array(a))


def test_inverse_does_not_mutate_input():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    keep = a.copy()
    inverse(a)
    assert np.array_equal(a, keep)


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        inverse(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        inverse(np.ones(4))
    with pytest.raises(DimensionMismatch):
        as_vector(np.eye(2))
    with pytest.raises(DimensionMismatch):
        as_matrix(np.ones(2))


def test_blas_helpers():
    x = np.array([1.0, 2.0, 2.0])
    assert norm2(x) == 3.0
    assert norm2(np.zeros(4)) == 0.0
