"""Matrix-free GMRES without restarts, with optional left preconditioning.

Arnoldi orthogonalizes by classical Gram-Schmidt run twice (CGS2).  With z
the left null vector of the Hessenberg matrix Hbar_j, scaled to z_0 = 1,
the residual norm is beta / |z| and the residual is s z for some s, so one
LAPACK solve of [Hbar_k | z] [y; s] = beta e_1 forms the iterate.  Left
preconditioning solves M^-1 A x = M^-1 b, and the convergence test applies
to the preconditioned residual norm.  The right-hand side and every
operator and preconditioner output are checked once, as received: a wrong
shape raises DimensionMismatch and NaN or inf GeonmpcError, each naming
the source and the GMRES step.

The report carries the Arnoldi basis V_{k+1} and the Hessenberg matrix
Hbar_k, so M^-1 A V_k = V_{k+1} Hbar_k gives the operator's products on
the whole Krylov subspace without applying it again.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, GeonmpcError
from .linalg import norm2

# An Arnoldi vector shorter than this means the Krylov subspace is exhausted
# (happy breakdown): the current least-squares iterate is already optimal.
BREAKDOWN_TOL = 1e-14
MAX_ITERS = 20  # Arnoldi steps per solve
ABS_TOL = 1e-5  # stop once the preconditioned residual norm is this small


class LinearOperator(NamedTuple):
    """A map v -> A v on vectors of length dim; gmres_solve checks its outputs."""

    dim: int
    apply: Callable


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


def _checked(v, n: int, what: str, step: int) -> np.ndarray:
    """v as a float vector of length n, finite, or an error naming what and step."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DimensionMismatch(f"GMRES step {step}: {what} has shape {v.shape}, "
                                f"expected ({n},)")
    # v.v is NaN or inf when v holds NaN or inf, and never warns then
    if not math.isfinite(v.dot(v)):
        raise GeonmpcError(f"GMRES step {step}: {what} holds NaN or inf")
    return v


def gmres_solve(op: LinearOperator, rhs, precond=None) -> GmresReport:
    """Minimize the (preconditioned) residual over a growing Krylov subspace
    that starts from the zero vector.

    Stops at the first iteration whose residual norm is <= ABS_TOL, at
    MAX_ITERS, or on breakdown of the Arnoldi process; the report carries
    whichever iterate is best at that point.  A breakdown whose new column
    lies in the range of the previous ones (the operator is singular on the
    subspace) keeps the previous iterate, reported as not converged.
    """
    n = op.dim
    if n < 1:
        raise DimensionMismatch(f"operator dim {n}, must be >= 1")
    r = _checked(rhs, n, "the right-hand side", 0)
    if precond is not None:
        if precond.dim != n:
            raise DimensionMismatch(f"precond dim {precond.dim}, operator dim {n}")
        r = _checked(precond.apply(r), n, "the preconditioner's output", 0)

    beta = norm2(r)
    history = [beta]
    if beta <= ABS_TOL:
        return GmresReport(np.zeros(n), 0, True, history,
                           np.zeros((1, n)), np.zeros((1, 0)))

    basis = np.zeros((MAX_ITERS + 1, n))
    hess = np.zeros((MAX_ITERS + 1, MAX_ITERS))
    z = np.ones(MAX_ITERS + 1)  # z[:j + 2] @ hess[:j + 2, :j + 1] = 0, z_0 = 1
    basis[0] = r / beta
    k = 0
    for j in range(MAX_ITERS):
        w = _checked(op.apply(basis[j]), n, "the operator's output", j + 1)
        if precond is not None:
            w = _checked(precond.apply(w), n, "the preconditioner's output", j + 1)
        # ndarray.dot: the BLAS calls of @, with less per-call overhead
        v = basis[: j + 1]
        h = v.dot(w)
        w = w - h.dot(v)
        c = v.dot(w)
        w = w - c.dot(v)
        hess[: j + 1, j] = h + c
        sub = hess[j + 1, j] = math.sqrt(w.dot(w))
        zh = z[: j + 1].dot(hess[: j + 1, j])
        if sub == 0.0 == zh:
            break  # A is singular on the subspace: keep the previous iterate
        k = j + 1
        if sub >= BREAKDOWN_TOL:
            basis[k] = w / sub
        z[k] = -zh / sub if sub else math.inf  # exact breakdown: zero residual
        history.append(beta / math.sqrt(z[: k + 1].dot(z[: k + 1])))
        if history[-1] <= ABS_TOL or sub < BREAKDOWN_TOL:
            break

    # after an exact breakdown z_k = inf, and the solve gives s = 0
    y = beta * np.linalg.solve(np.column_stack((hess[: k + 1, :k], z[: k + 1])),
                               np.eye(k + 1)[0])[:k]
    return GmresReport(y.dot(basis[:k]), k, history[-1] <= ABS_TOL, history,
                       basis[: k + 1], hess[: k + 1, :k])
