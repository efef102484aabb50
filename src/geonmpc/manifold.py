"""Structure-preserving one-step integration on manifolds.

Three steppers are provided for y' = f(tau, y) restricted to a manifold
{y | g(y) = 0}:

* local-coordinates: map into chart coordinates, step the reduced ODE,
  lift back; the constraint holds to machine precision by construction;
* standard projection: take one base-method step in ambient space, then
  project orthogonally back onto the manifold;
* symmetric projection: perturb along G^T before the step and project
  along G^T after it with the SAME multiplier, which makes the scheme
  time-reversible when the base method is.

Base methods are explicit Euler and the trapezoidal rule, each a
(tau, y, dtau) -> next-state callable built over a field f(tau, y); the
trapezoidal rule is symmetric and is the one that yields reversibility in
round-trip tests.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ChartDomainViolation, ProjectionDivergence
from .linalg import as_vector, inverse

PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITERS = 20
SYMMETRIC_MAX_ITERS = 30
# relative stop and iteration cap of the trapezoidal fixed-point stage solve
TRAPEZOIDAL_TOL = 1e-14
TRAPEZOIDAL_MAX_ITERS = 100


@dataclass(frozen=True)
class ManifoldConstraint:
    """Level-set description g(y) = 0 with Jacobian G(y) = g'(y)."""

    g: Callable
    jacobian_g: Callable

    def defect(self, y) -> float:
        return float(abs(np.asarray(self.g(y))).max())


@dataclass(frozen=True)
class ManifoldChart:
    """Local parametrization x = lift(z) with the ODE reduced to chart coords.

    reduced_field has signature (tau, z, controls); bind controls with
    bound_field before handing the flow to a one-step method.
    """

    lift: Callable
    project_coords: Callable
    reduced_field: Callable
    in_domain: Callable

    def bound_field(self, controls=None) -> Callable:
        return lambda tau, z: self.reduced_field(tau, z, controls)


def explicit_euler(field) -> Callable:
    def step(tau, state, dtau):
        state = as_vector(state)
        return state + dtau * as_vector(field(tau, state))

    return step


def trapezoidal(field) -> Callable:
    """Trapezoidal rule with the implicit stage solved by fixed-point iteration."""

    def step(tau, state, dtau):
        state = as_vector(state)
        f0 = as_vector(field(tau, state))
        half, tau_next = 0.5 * dtau, tau + dtau
        base = state + half * f0
        nxt = state + dtau * f0
        for _ in range(TRAPEZOIDAL_MAX_ITERS):
            new = base + half * as_vector(field(tau_next, nxt))
            delta = float(abs(new - nxt).max())
            nxt = new
            if delta <= TRAPEZOIDAL_TOL * max(1.0, float(abs(nxt).max())):
                return nxt
        raise ProjectionDivergence(
            f"trapezoidal stage iteration stalled at delta={delta:.3e}"
        )

    return step


def local_coordinates_step(chart: ManifoldChart, method: Callable,
                           tau: float, x, dtau: float) -> np.ndarray:
    """Advance one step in chart coordinates and lift back to ambient space.

    The method must already integrate the chart's reduced ODE (build it
    over chart.bound_field(...)).
    """
    z = as_vector(chart.project_coords(as_vector(x)))
    if not chart.in_domain(z):
        raise ChartDomainViolation(f"state {z} outside the chart domain")
    z_next = as_vector(method(tau, z, dtau))
    if not chart.in_domain(z_next):
        raise ChartDomainViolation(f"step left the chart domain at {z_next}")
    return as_vector(chart.lift(z_next))


def project_onto_manifold(constraint: ManifoldConstraint, y_hat) -> np.ndarray:
    """Orthogonal projection: the closest manifold point of the form
    y_hat + G(y_hat)^T lambda.

    The correction direction G(y_hat)^T stays fixed across iterations; the
    constraint is relinearized at the current iterate, which keeps the
    iteration quadratically convergent even for starting points far from
    the manifold.
    """
    y_hat = as_vector(y_hat)
    gt = np.asarray(constraint.jacobian_g(y_hat), dtype=float).T
    y = y_hat.copy()
    for _ in range(PROJECTION_MAX_ITERS):
        res = as_vector(constraint.g(y))
        if float(abs(res).max()) <= PROJECTION_TOL:
            return y
        gy = np.asarray(constraint.jacobian_g(y), dtype=float)
        dlam = inverse(gy @ gt) @ -res
        y = y + gt @ dlam
    raise ProjectionDivergence(
        f"projection residual {constraint.defect(y):.3e} "
        f"after {PROJECTION_MAX_ITERS} iterations"
    )


def standard_projection_step(constraint: ManifoldConstraint, method: Callable,
                             tau: float, y, dtau: float) -> np.ndarray:
    """One base-method step in ambient space followed by orthogonal projection."""
    y_hat = as_vector(method(tau, as_vector(y), dtau))
    return project_onto_manifold(constraint, y_hat)


def symmetric_projection_step(constraint: ManifoldConstraint, method: Callable,
                              tau: float, y, dtau: float) -> np.ndarray:
    """Perturb along G^T, step, and project along G^T with one shared multiplier.

    The multiplier mu solves g(y_next(mu)) = 0 to PROJECTION_TOL by Newton
    iteration with a finite-difference sensitivity.  Reversibility holds
    when the base method is symmetric; a non-symmetric base still gives a
    consistent (first-order) on-manifold step.
    """
    y = as_vector(y)
    g0t = np.asarray(constraint.jacobian_g(y), dtype=float).T
    m = g0t.shape[1]

    def advance(mu):
        y_pert = y + g0t @ mu
        y_hat = as_vector(method(tau, y_pert, dtau))
        g_hat_t = np.asarray(constraint.jacobian_g(y_hat), dtype=float).T
        return y_hat + g_hat_t @ mu

    mu = np.zeros(m)
    fd = 1e-7
    for _ in range(SYMMETRIC_MAX_ITERS):
        y_next = advance(mu)
        res = as_vector(constraint.g(y_next))
        if float(abs(res).max()) <= PROJECTION_TOL:
            return y_next
        jac = np.empty((m, m))
        for j in range(m):
            mu_j = mu.copy()
            mu_j[j] += fd
            jac[:, j] = (as_vector(constraint.g(advance(mu_j))) - res) / fd
        mu = mu + inverse(jac) @ -res
    raise ProjectionDivergence(
        f"multiplier iteration residual {float(abs(res).max()):.3e} "
        f"after {SYMMETRIC_MAX_ITERS} iterations"
    )
