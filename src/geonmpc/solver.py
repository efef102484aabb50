"""Per-sample Newton-Krylov engine for the receding-horizon controller.

Each sample performs one Newton iteration (the real-time iteration scheme)
on the stacked optimality residual, solving the linear step with
matrix-free GMRES.  Jacobian-vector products are forward differences of
the residual; a fully materialized FD Jacobian is inverted periodically
and its inverse reused as a frozen left preconditioner in between
refreshes.  A refresh that finds the Jacobian singular leaves GMRES
unpreconditioned until the next period.

Cold start solves the residual to tight tolerance with damped Newton and
dense LAPACK steps, from a caller-supplied structured guess.

Every iterate has its parameter block floored at P_MIN: for the benchmark
that block is the free horizon length, which must stay positive.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GeonmpcError, InitializationFailure, SingularMatrix
from .gmres import GmresConfig, LinearOperator, gmres_solve, matrix_operator
from .linalg import as_vector, inverse, norm2

MIN_DAMPING = 2.0 ** -30
P_MIN = 1e-3  # floor of the parameter block (the time-to-go)


@dataclass(frozen=True)
class SolverConfig:
    fd_step: float = 1e-8
    gmres_cfg: GmresConfig = GmresConfig()
    precond_period: float = 0.2
    init_tol: float = 1e-8
    init_max_iters: int = 100

    def __post_init__(self):
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if self.precond_period <= 0:
            raise ValueError("precond_period must be positive")
        if self.init_tol <= 0:
            raise ValueError("init_tol must be positive")
        if self.init_max_iters < 1:
            raise ValueError("init_max_iters must be >= 1")


@dataclass
class PreconditionerState:
    inverse: Optional[np.ndarray] = None
    built_at: float = -np.inf

    def age(self, t_now: float) -> float:
        return t_now - self.built_at


@dataclass
class SampleTelemetry:
    t: float
    gmres_iters: int
    residual_norm: float          # |F| after the update (what gets logged)
    residual_norm_pre: float      # |F| the update started from
    precond_age: float
    precond_used: bool
    gmres_converged: bool


def jacobian_vector_product(problem, x0, U, F0, v, h: float) -> np.ndarray:
    """Forward-difference directional derivative of the residual along v.

    The step is h scaled by max(1, |U|) and normalized by |v|, so callers
    may pass unnormalized directions.
    """
    v = as_vector(v)
    nv = norm2(v)
    if nv == 0.0:
        raise ValueError("direction must be nonzero")
    eps = h * max(1.0, norm2(U)) / nv
    return (problem.assemble_residual(x0, U + eps * v) - F0) / eps


def exact_jacobian(problem, x0, U, h: float) -> np.ndarray:
    """Materialized forward-difference Jacobian from one batched residual.

    Row 0 of the batch is U itself and row j + 1 is U with h added to
    entry j, so column j is (F(U + h e_j) - F(U)) / h.
    """
    U = as_vector(U)
    rows = problem.assemble_residual(x0, np.vstack([U, U + h * np.eye(U.shape[0])]))
    return (rows[1:] - rows[0]).T / h


def _clamp_p(problem, U) -> None:
    pblk = problem.layout.p(U)
    np.maximum(pblk, P_MIN, out=pblk)


def initialize(problem, x0, cfg: SolverConfig, U0) -> np.ndarray:
    """Solve the optimality system at x0 by damped Newton with dense steps.

    Damping halves until the residual norm strictly decreases; failure to
    descend, a singular Jacobian, or running out of iterations raises
    InitializationFailure carrying the final residual and damping history.
    """
    U = as_vector(U0).copy()
    _clamp_p(problem, U)
    fvec = problem.assemble_residual(x0, U)
    res = norm2(fvec)
    damping_history = []
    for _ in range(cfg.init_max_iters):
        if res <= cfg.init_tol:
            return U
        jac = exact_jacobian(problem, x0, U, cfg.fd_step)
        try:
            step = inverse(jac) @ -fvec
        except SingularMatrix as exc:
            raise InitializationFailure(
                f"singular Jacobian during initialization: {exc}",
                final_residual=res, damping_history=damping_history,
            ) from exc
        alpha = 1.0
        while alpha >= MIN_DAMPING:
            u_try = U + alpha * step
            _clamp_p(problem, u_try)
            try:
                f_try = problem.assemble_residual(x0, u_try)
                r_try = norm2(f_try)
            except GeonmpcError:
                r_try = np.inf
            if r_try < res:
                break
            alpha *= 0.5
        else:
            raise InitializationFailure(
                f"no descent direction at residual {res:.3e}",
                final_residual=res, damping_history=damping_history,
            )
        damping_history.append(alpha)
        U, fvec, res = u_try, f_try, r_try
    if res <= cfg.init_tol:
        return U
    raise InitializationFailure(
        f"residual {res:.3e} above tolerance {cfg.init_tol:g} "
        f"after {cfg.init_max_iters} iterations",
        final_residual=res, damping_history=damping_history,
    )


class NmpcController:
    """Warm-started controller: one decision vector tracked across samples.

    With precondition=False no Jacobian is built and every GMRES solve runs
    unpreconditioned.
    """

    def __init__(self, problem, cfg: SolverConfig | None = None,
                 precondition: bool = True):
        self.problem = problem
        self.cfg = cfg if cfg is not None else SolverConfig()
        self.precondition = precondition
        self.U: Optional[np.ndarray] = None
        self.precond = PreconditionerState()

    def initialize(self, x0, t0: float, U0) -> np.ndarray:
        self.U = initialize(self.problem, x0, self.cfg, U0)
        self.refresh_preconditioner(x0, t0)
        return self.U

    def refresh_preconditioner(self, x0, t_now: float) -> None:
        if not self.precondition:
            return
        st = self.precond
        if st.age(t_now) < self.cfg.precond_period:
            return
        jac = exact_jacobian(self.problem, x0, self.U, self.cfg.fd_step)
        try:
            st.inverse = inverse(jac)
        except SingularMatrix:
            # fall back to unpreconditioned GMRES until the next period
            st.inverse = None
        st.built_at = t_now

    def sample_update(self, x, t_now: float):
        if self.U is None:
            raise InitializationFailure("sample_update before initialize")
        self.refresh_preconditioner(x, t_now)
        precond_used = self.precond.inverse is not None
        precond_op = matrix_operator(self.precond.inverse) if precond_used else None
        U = self.U
        f0 = self.problem.assemble_residual(x, U)
        op = LinearOperator(
            self.problem.dim,
            lambda v: jacobian_vector_product(
                self.problem, x, U, f0, v, self.cfg.fd_step),
        )
        report = gmres_solve(op, -f0, precond_op, self.cfg.gmres_cfg)
        self.U = U + report.solution
        _clamp_p(self.problem, self.U)

        res_post = norm2(self.problem.assemble_residual(x, self.U))
        u_apply = self.problem.layout.controls(self.U)[0].copy()
        telemetry = SampleTelemetry(
            t=t_now,
            gmres_iters=report.iters_used,
            residual_norm=res_post,
            residual_norm_pre=norm2(f0),
            precond_age=self.precond.age(t_now) if precond_used else float("nan"),
            precond_used=precond_used,
            gmres_converged=report.converged,
        )
        return u_apply, telemetry
