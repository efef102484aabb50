"""Per-sample Newton-Krylov engine for the receding-horizon controller.

Each sample performs a fixed number of Newton iterations (default one, the
real-time iteration scheme) on the stacked optimality residual, solving
the linear step with matrix-free GMRES.  Jacobian-vector products are
forward differences of the residual; a fully materialized FD Jacobian is
inverted periodically and its inverse reused as a frozen left
preconditioner in between refreshes.

Cold start solves the residual to tight tolerance with damped Newton and
dense LAPACK steps, from a caller-supplied structured guess.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GeonmpcError, InitializationFailure, SingularMatrix
from .gmres import GmresConfig, LinearOperator, gmres_solve, matrix_operator
from .linalg import as_vector, inverse, norm2

MIN_DAMPING = 2.0 ** -30


@dataclass(frozen=True)
class SolverConfig:
    fd_step: float = 1e-8
    gmres_cfg: GmresConfig = GmresConfig()
    precond_period: float = 0.2
    newton_iters_per_sample: int = 1
    init_tol: float = 1e-8
    init_max_iters: int = 100
    # Horizon length stays strictly positive; None disables the clamp for
    # problems whose parameter block is not a duration.
    p_min: Optional[float] = 1e-3

    def __post_init__(self):
        if self.fd_step <= 0:
            raise ValueError("fd_step must be positive")
        if self.precond_period <= 0:
            raise ValueError("precond_period must be positive")
        if self.newton_iters_per_sample < 1:
            raise ValueError("newton_iters_per_sample must be >= 1")
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
    u_applied: np.ndarray
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


def _clamp_p(problem, U, p_min) -> None:
    if p_min is None:
        return
    pblk = problem.layout.p(U)
    np.maximum(pblk, p_min, out=pblk)


def initialize(problem, x0, t0: float, cfg: SolverConfig, U0) -> np.ndarray:
    """Solve the optimality system at t0 by damped Newton with dense steps.

    Damping halves until the residual norm strictly decreases; failure to
    descend, a singular Jacobian, or running out of iterations raises
    InitializationFailure carrying the final residual and damping history.
    """
    U = as_vector(U0).copy()
    _clamp_p(problem, U, cfg.p_min)
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
            _clamp_p(problem, u_try, cfg.p_min)
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
        self.last_residual_norm = np.inf

    def initialize(self, x0, t0: float, U0) -> np.ndarray:
        self.U = initialize(self.problem, x0, t0, self.cfg, U0)
        self.refresh_preconditioner(x0, t0)
        self.last_residual_norm = norm2(self.problem.assemble_residual(x0, self.U))
        return self.U

    def refresh_preconditioner(self, x0, t_now: float) -> None:
        if not self.precondition:
            return
        st = self.precond
        if st.inverse is not None and st.age(t_now) < self.cfg.precond_period:
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

        iters_total = 0
        converged = True
        res_pre = np.nan
        for _ in range(self.cfg.newton_iters_per_sample):
            u_snap = self.U
            f0 = self.problem.assemble_residual(x, u_snap)
            res_pre = norm2(f0)
            op = LinearOperator(
                self.problem.dim,
                lambda v: jacobian_vector_product(
                    self.problem, x, u_snap, f0, v, self.cfg.fd_step),
            )
            report = gmres_solve(op, -f0, None, precond_op, self.cfg.gmres_cfg)
            self.U = u_snap + report.solution
            _clamp_p(self.problem, self.U, self.cfg.p_min)
            iters_total += report.iters_used
            converged = converged and report.converged

        res_post = norm2(self.problem.assemble_residual(x, self.U))
        u_apply = self.problem.layout.controls(self.U)[0].copy()
        self.last_residual_norm = res_post
        telemetry = SampleTelemetry(
            t=t_now,
            gmres_iters=iters_total,
            residual_norm=res_post,
            residual_norm_pre=res_pre,
            u_applied=u_apply,
            precond_age=self.precond.age(t_now) if precond_used else float("nan"),
            precond_used=precond_used,
            gmres_converged=converged,
        )
        return u_apply, telemetry
