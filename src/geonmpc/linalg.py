"""Dense vector/matrix kernel: argument checks and a guarded LAPACK inverse.

Vectors are 1-d float64 ndarrays, matrices are 2-d row-major float64
ndarrays.  The dense systems this package solves are small (a few hundred
unknowns at most), so numpy's LAPACK bindings do the factorization; this
module adds the singularity guard the solver's fallbacks rely on.
"""

import numpy as np

from .errors import DimensionMismatch, SingularMatrix

# A matrix whose reciprocal 1-norm condition number is below this is treated
# as singular: a solve with it keeps fewer than two significant digits.
MIN_RCOND = 1e-14


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {v.shape}")
    return v


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def _norm1(a: np.ndarray) -> float:
    return np.abs(a).sum(axis=0).max()


def inverse(a) -> np.ndarray:
    """LAPACK inverse of a square matrix, for dense solves as ``inverse(a) @ b``.

    Raises SingularMatrix when LAPACK meets an exactly singular matrix or
    when the reciprocal 1-norm condition number falls below MIN_RCOND.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m or n < 1:
        raise DimensionMismatch(f"inverse needs a nonempty square matrix, got {n}x{m}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    # in Python floats, the inf * 0 of an infinite entry is NaN without a warning
    rcond = 1.0 / (float(_norm1(a)) * float(_norm1(inv)))
    if not rcond >= MIN_RCOND:  # also rejects NaN, from non-finite entries
        raise SingularMatrix(
            f"reciprocal condition number {rcond:.3e} below {MIN_RCOND:g}")
    return inv


def norm2(x) -> float:
    """Euclidean norm, the norm used for all residual reporting."""
    return float(np.linalg.norm(as_vector(x)))
