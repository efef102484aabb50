"""Matrix-free GMRES without restarts, with optional left preconditioning.

The iteration builds an Arnoldi basis by modified Gram-Schmidt and keeps
the least-squares problem triangular with Givens rotations, so the
residual norm is available at every step without forming the iterate.
Basis storage is MAX_ITERS + 1 vectors; no restart cycle is needed at the
problem sizes this package produces.

Left preconditioning solves M^-1 A x = M^-1 b, and the convergence test
applies to the preconditioned residual norm.  The closed-loop simulator
logs the true nonlinear residual separately.

The report carries the Arnoldi basis V_{k+1} and the Hessenberg matrix
Hbar_k as built, before any rotation, so M^-1 A V_k = V_{k+1} Hbar_k gives
the operator's products on the whole Krylov subspace without applying it
again.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_vector, norm2

# An Arnoldi vector shorter than this means the Krylov subspace is exhausted
# (happy breakdown): the current least-squares iterate is already optimal.
BREAKDOWN_TOL = 1e-14
MAX_ITERS = 20  # Arnoldi steps per solve
ABS_TOL = 1e-5  # stop once the preconditioned residual norm is this small


class LinearOperator:
    """A map v -> A v of fixed dimension, given as a callable."""

    def __init__(self, dim: int, apply):
        if dim < 1:
            raise DimensionMismatch("operator dim must be >= 1")
        self.dim = dim
        self._apply = apply

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = as_vector(self._apply(v))
        if out.shape[0] != self.dim:
            raise DimensionMismatch(
                f"operator returned length {out.shape[0]}, expected {self.dim}"
            )
        return out


def matrix_operator(a) -> LinearOperator:
    a = np.asarray(a, dtype=float)
    return LinearOperator(a.shape[0], lambda v: a @ v)


@dataclass
class GmresReport:
    solution: np.ndarray
    iters_used: int
    converged: bool
    # Preconditioned residual norm after 0, 1, ..., iters_used iterations.
    residual_history: list
    # Arnoldi basis V_{k+1} as rows, shape (k + 1, n) for k = iters_used
    # (a zero last row after a breakdown), and the unrotated Hessenberg
    # Hbar_k, shape (k + 1, k).
    basis: np.ndarray
    hessenberg: np.ndarray


def gmres_solve(op: LinearOperator, rhs, precond=None) -> GmresReport:
    """Minimize the (preconditioned) residual over a growing Krylov subspace
    that starts from the zero vector.

    Stops at the first iteration whose residual norm is <= ABS_TOL, at
    MAX_ITERS, or on breakdown of the Arnoldi process; the report carries
    whichever iterate is best at that point.  A breakdown that leaves the
    new column all zero (the operator is singular on the subspace) keeps
    the previous iterate, which is then reported as not converged.
    """
    rhs = as_vector(rhs)
    n = op.dim
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs length {rhs.shape[0]}, operator dim {n}")
    r = rhs
    if precond is not None:
        if precond.dim != n:
            raise DimensionMismatch(f"precond dim {precond.dim}, operator dim {n}")
        r = precond.apply(r)

    beta = norm2(r)
    history = [beta]
    if beta <= ABS_TOL:
        return GmresReport(np.zeros(n), 0, True, history,
                           np.zeros((1, n)), np.zeros((1, 0)))

    m = MAX_ITERS
    basis = np.zeros((m + 1, n))
    hess = np.zeros((m + 1, m))
    arnoldi = np.zeros((m + 1, m))  # hess before the rotations
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    basis[0] = r / beta
    g[0] = beta

    iters = 0
    for j in range(m):
        w = op.apply(basis[j])
        if precond is not None:
            w = precond.apply(w)
        # modified Gram-Schmidt against the existing basis
        for i in range(j + 1):
            hess[i, j] = w @ basis[i]
            w = w - hess[i, j] * basis[i]
        hess[j + 1, j] = norm2(w)
        breakdown = hess[j + 1, j] < BREAKDOWN_TOL
        if not breakdown:
            basis[j + 1] = w / hess[j + 1, j]
        arnoldi[: j + 2, j] = hess[: j + 2, j]

        # fold previous rotations into the new column, then zero its subdiagonal
        for i in range(j):
            hi, hj = hess[i, j], hess[i + 1, j]
            hess[i, j] = cs[i] * hi + sn[i] * hj
            hess[i + 1, j] = -sn[i] * hi + cs[i] * hj
        denom = float(np.hypot(hess[j, j], hess[j + 1, j]))
        if denom == 0.0:
            break
        cs[j] = hess[j, j] / denom
        sn[j] = hess[j + 1, j] / denom
        hess[j, j] = denom
        hess[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        iters = j + 1
        res = abs(g[j + 1])
        history.append(res)
        if res <= ABS_TOL or breakdown:
            break

    # back-substitute the triangularized least-squares system
    y = np.zeros(iters)
    for i in range(iters - 1, -1, -1):
        y[i] = (g[i] - hess[i, i + 1 : iters] @ y[i + 1 : iters]) / hess[i, i]
    x = basis[:iters].T @ y
    return GmresReport(x, iters, history[-1] <= ABS_TOL, history,
                       basis[: iters + 1], arnoldi[: iters + 1, :iters])
