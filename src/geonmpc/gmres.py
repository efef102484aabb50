"""Matrix-free GMRES without restarts, with optional left preconditioning.

The iteration builds an Arnoldi basis by modified Gram-Schmidt and keeps
the least-squares problem triangular with Givens rotations, so the
residual norm is available at every step without forming the iterate.
Basis storage is max_iters + 1 vectors; no restart cycle is needed at the
problem sizes this package produces.

Left preconditioning solves M^-1 A x = M^-1 b, and the convergence test
applies to the preconditioned residual norm.  The closed-loop simulator
logs the true nonlinear residual separately.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_vector, norm2

# An Arnoldi vector shorter than this means the Krylov subspace is exhausted
# (happy breakdown): the current least-squares iterate is already optimal.
BREAKDOWN_TOL = 1e-14


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


@dataclass(frozen=True)
class GmresConfig:
    max_iters: int = 20
    abs_tol: float = 1e-5

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")


@dataclass
class GmresReport:
    solution: np.ndarray
    iters_used: int
    final_residual_norm: float
    converged: bool
    # Preconditioned residual norm after 0, 1, ..., iters_used iterations.
    residual_history: list = field(default_factory=list)


def gmres_solve(op: LinearOperator, rhs, x0=None, precond=None,
                cfg: GmresConfig | None = None) -> GmresReport:
    """Minimize the (preconditioned) residual over a growing Krylov subspace.

    Stops at the first iteration whose residual norm is <= cfg.abs_tol, at
    cfg.max_iters, or on happy breakdown of the Arnoldi process; the report
    carries whichever iterate is best at that point.
    """
    if cfg is None:
        cfg = GmresConfig()
    rhs = as_vector(rhs)
    n = op.dim
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs length {rhs.shape[0]}, operator dim {n}")
    if x0 is None:
        x0 = np.zeros(n)
        r = rhs.copy()
    else:
        x0 = as_vector(x0)
        if x0.shape[0] != n:
            raise DimensionMismatch(f"x0 length {x0.shape[0]}, operator dim {n}")
        r = rhs - op.apply(x0)
    if precond is not None:
        if precond.dim != n:
            raise DimensionMismatch(f"precond dim {precond.dim}, operator dim {n}")
        r = precond.apply(r)

    beta = norm2(r)
    history = [beta]
    if beta <= cfg.abs_tol:
        return GmresReport(x0.copy(), 0, beta, True, history)

    m = cfg.max_iters
    basis = np.zeros((m + 1, n))
    hess = np.zeros((m + 1, m))
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

        # fold previous rotations into the new column, then zero its subdiagonal
        for i in range(j):
            hi, hj = hess[i, j], hess[i + 1, j]
            hess[i, j] = cs[i] * hi + sn[i] * hj
            hess[i + 1, j] = -sn[i] * hi + cs[i] * hj
        denom = float(np.hypot(hess[j, j], hess[j + 1, j]))
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j] = hess[j, j] / denom
            sn[j] = hess[j + 1, j] / denom
        hess[j, j] = denom
        hess[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        iters = j + 1
        res = abs(g[j + 1])
        history.append(res)
        if res <= cfg.abs_tol or breakdown:
            break

    # back-substitute the triangularized least-squares system
    y = np.zeros(iters)
    for i in range(iters - 1, -1, -1):
        y[i] = (g[i] - hess[i, i + 1 : iters] @ y[i + 1 : iters]) / hess[i, i]
    x = x0 + basis[:iters].T @ y
    res = history[-1]
    return GmresReport(x, iters, res, res <= cfg.abs_tol, history)
