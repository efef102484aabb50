"""Per-sample Newton-Krylov engine for the receding-horizon controller.

Each sample performs one Newton iteration (the real-time iteration scheme)
on the stacked optimality residual, solving the linear step with
matrix-free GMRES.  Jacobian-vector products are forward differences of
the residual; a fully materialized FD Jacobian is inverted periodically
and its inverse H used as a left preconditioner.  In between refreshes
each sample's GMRES report gives H a Krylov block update: GMRES has
already formed H J V_k on its basis V_k, and the update makes H J = I on
that whole subspace, so H tracks the Jacobian without extra residual
calls; a refresh replaces it.  A refresh that finds the Jacobian singular
keeps the inverse already held, block-updated, until the next period.

The preconditioned controller iterates on the lifted (multiple-shooting)
decision vector, whose residual runs every problem callback once, with no
stage loop.  Its Jacobian is a chain of stage blocks that unpreconditioned
GMRES would need about 2N products to couple end to end, so the
unpreconditioned controller iterates on the condensed (single-shooting)
vector instead, and a start whose lifted Jacobian is singular fails.

Cold start solves the condensed residual to tight tolerance with damped
Newton and dense LAPACK steps, from a caller-supplied structured guess.

Every iterate has its parameter block floored at P_MIN: for the benchmark
that block is the free horizon length, which must stay positive.

The numerical constants below are tuned once for the hemisphere problem
and read at call time; the GMRES cap and tolerance live in gmres.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GeonmpcError, InitializationFailure, SingularMatrix
from .gmres import LinearOperator, gmres_solve, matrix_operator
from .linalg import as_vector, inverse, norm2

MIN_DAMPING = 2.0 ** -30
P_MIN = 1e-3  # floor of the parameter block (the time-to-go)
FD_STEP = 1e-8  # forward-difference step h of the Jacobian and its products
PRECOND_PERIOD = 0.2  # seconds between preconditioner refreshes
INIT_TOL = 1e-8  # cold-start residual norm target
INIT_MAX_ITERS = 100  # cold-start Newton iteration cap


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
    update_skipped: bool          # preconditioned, but the update was skipped


def _step_scale(U) -> float:
    """FD_STEP * max(1, |U|): the forward-difference step of a product at
    U before it is normalized by |v|."""
    return FD_STEP * max(1.0, norm2(U))


def jacobian_vector_product(problem, x0, U, F0, v, scale) -> np.ndarray:
    """Forward-difference directional derivative of the residual along v.

    scale is _step_scale(U), computed once by a caller that takes many
    products at one U.  The step is scale normalized by |v|, so callers
    may pass unnormalized directions.
    """
    v = as_vector(v)
    nv = norm2(v)
    if nv == 0.0:
        raise ValueError("direction must be nonzero")
    eps = scale / nv
    return (problem.assemble_residual(x0, U + eps * v) - F0) / eps


def exact_jacobian(problem, x0, U) -> np.ndarray:
    """Materialized forward-difference Jacobian from one batched residual.

    Row 0 of the batch is U itself and row j + 1 is U with h = FD_STEP
    added to entry j, so column j is (F(U + h e_j) - F(U)) / h.
    """
    h = FD_STEP
    U = as_vector(U)
    rows = problem.assemble_residual(x0, np.vstack([U, U + h * np.eye(U.shape[0])]))
    return (rows[1:] - rows[0]).T / h


def krylov_update(h: np.ndarray, report) -> bool:
    """Krylov block update of an inverse Jacobian H, in place.

    By the Arnoldi relation Z = V_{k+1} Hbar_k equals H J V_k, so
    H <- H + (V_k - Z) H_k^-1 (V_k^T H), with H_k the top k x k block of
    Hbar_k, gives H J V_k = V_k on the whole subspace the report's GMRES
    solve built: the multiple-secant (block) good-Broyden update with the
    secant pairs (V_k, J V_k).  Returns False and leaves H untouched when
    k = 0 or H_k fails the linalg.inverse guard (singular, NaN or inf).
    """
    k = report.iters_used
    if k == 0:
        return False
    try:
        hk_inv = inverse(report.hessenberg[:k])
    except SingularMatrix:
        return False
    v = report.basis[:k]
    z = report.hessenberg.T @ report.basis
    h += (v - z).T @ (hk_inv @ (v @ h))
    return True


def _clamp_p(problem, U) -> None:
    pblk = problem.layout.p(U)
    np.maximum(pblk, P_MIN, out=pblk)


def _init_failure(problem, U, message, res, damping_history):
    """InitializationFailure at iterate U; its message says so when U's
    parameter block sits at its floor, where the step cannot shrink p."""
    if np.any(problem.layout.p(U) == P_MIN):
        message += f"; the parameter block sits at its floor P_MIN = {P_MIN:g}"
    return InitializationFailure(message, final_residual=res,
                                 damping_history=damping_history)


def initialize(problem, x0, U0) -> np.ndarray:
    """Solve the optimality system at x0 by damped Newton with dense steps.

    Damping halves until the residual norm strictly decreases; failure to
    descend, a singular Jacobian, or running out of iterations raises
    InitializationFailure carrying the final residual and damping history,
    and noting when the failing iterate's parameter block is at P_MIN.
    """
    U = as_vector(U0).copy()
    _clamp_p(problem, U)
    fvec = problem.assemble_residual(x0, U)
    res = norm2(fvec)
    damping_history = []
    for _ in range(INIT_MAX_ITERS):
        if res <= INIT_TOL:
            return U
        jac = exact_jacobian(problem, x0, U)
        try:
            step = inverse(jac) @ -fvec
        except SingularMatrix as exc:
            raise _init_failure(
                problem, U, f"singular Jacobian during initialization: {exc}",
                res, damping_history) from exc
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
            raise _init_failure(
                problem, U, f"no descent direction at residual {res:.3e}",
                res, damping_history)
        damping_history.append(alpha)
        U, fvec, res = u_try, f_try, r_try
    if res <= INIT_TOL:
        return U
    raise _init_failure(
        problem, U, f"residual {res:.3e} above tolerance {INIT_TOL:g} "
        f"after {INIT_MAX_ITERS} iterations", res, damping_history)


class NmpcController:
    """Warm-started controller: one decision vector tracked across samples.

    With precondition=True the tracked vector U is the lifted one.  With
    precondition=False it is the condensed one, no Jacobian is built and
    every GMRES solve runs unpreconditioned.
    """

    def __init__(self, problem, precondition: bool = True):
        self.problem = problem
        self.precondition = precondition
        self.U: Optional[np.ndarray] = None
        self.precond = PreconditionerState()

    def initialize(self, x0, t0: float, U0) -> np.ndarray:
        """Solve the condensed system at x0, start tracking it, and return
        the condensed solution.  A preconditioned controller tracks its lift
        and raises InitializationFailure when the lifted Jacobian there is
        singular: unpreconditioned GMRES cannot solve the lifted system."""
        U = initialize(self.problem, x0, U0)
        self.U = U
        self.precond = PreconditionerState()  # nothing carries over from a previous run
        if self.precondition:
            self.U = self.problem.lift(x0, U)
            self.refresh_preconditioner(x0, t0)
            if self.precond.inverse is None:
                self.U = None
                raise InitializationFailure("singular lifted Jacobian at the start: run "
                                            "without the preconditioner (--no-precond)")
        return U

    def refresh_preconditioner(self, x0, t_now: float) -> None:
        if not self.precondition:
            return
        st = self.precond
        if st.age(t_now) < PRECOND_PERIOD:
            return
        jac = exact_jacobian(self.problem, x0, self.U)
        try:
            st.inverse = inverse(jac)
        except SingularMatrix:
            pass  # keep the inverse already held until the next period
        st.built_at = t_now

    def sample_update(self, x, t_now: float):
        if self.U is None:
            raise InitializationFailure("sample_update before initialize")
        self.refresh_preconditioner(x, t_now)
        # initialize leaves a preconditioned controller holding an inverse,
        # and a singular refresh keeps it
        precond_used = self.precondition
        precond_op = matrix_operator(self.precond.inverse) if precond_used else None
        U = self.U
        f0 = self.problem.assemble_residual(x, U)
        scale = _step_scale(U)
        op = LinearOperator(
            U.shape[0],
            lambda v: jacobian_vector_product(self.problem, x, U, f0, v, scale),
        )
        report = gmres_solve(op, -f0, precond_op)
        self.U = U + report.solution
        _clamp_p(self.problem, self.U)

        f_post = self.problem.assemble_residual(x, self.U)
        # GMRES is done with H, so the block update may change it in place
        update_skipped = precond_used and not krylov_update(
            self.precond.inverse, report)
        u_apply = self.problem.layout.controls(self.U)[0].copy()
        telemetry = SampleTelemetry(
            t=t_now,
            gmres_iters=report.iters_used,
            residual_norm=norm2(f_post),
            residual_norm_pre=norm2(f0),
            precond_age=self.precond.age(t_now) if precond_used else float("nan"),
            precond_used=precond_used,
            gmres_converged=report.converged,
            update_skipped=update_skipped,
        )
        return u_apply, telemetry
