"""Minimum-time motion on the unit upper hemisphere with a banded heading.

The heading u is confined to [c_u - r_u, c_u + r_u] through a slack
variable u_s and the equality (u - c_u)^2 + u_s^2 - r_u^2 = 0.  The
horizon is rescaled to [0, 1]; its physical duration p is a decision
variable and also the quantity being minimized, so the horizon dynamics
carry an explicit p factor.

The chart formulation in the coordinates (x, y) with z = sqrt(1-x^2-y^2)
is primary.  residual_rows is an independent transcription of the
optimality system used as an equality oracle against the generic
assembly in horizon.py.

Note the default start point: with the heading band strictly inside
(0, pi), dy/dt = z sin(u) > 0 everywhere on the open upper hemisphere,
so only targets with y_f > y0 are reachable.  A start at y0 = +0.5 for
the target (0.5, 0) is therefore unreachable; the shipped default uses
the y-mirrored start (-0.5, -0.5), which produces the mirror-image
trajectory and the same minimum time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainViolation
from .horizon import HorizonGrid, HorizonProblem, OcpDefinition, euler_stepper
from .manifold import ManifoldChart, ManifoldConstraint

Z_MIN = 0.05  # chart guard: the chart keeps z >= Z_MIN, away from the equator
CHART_R2_MAX = 1.0 - Z_MIN ** 2  # largest x^2 + y^2 inside the guard


@dataclass(frozen=True)
class HemisphereParams:
    c_u: float = 0.5
    r_u: float = 0.1
    w_s: float = 0.005
    x0: float = -0.5
    y0: float = -0.5
    x_f: float = 0.5
    y_f: float = 0.0

    def __post_init__(self):
        if self.r_u <= 0:
            raise ValueError("r_u must be positive")
        if self.x0 ** 2 + self.y0 ** 2 > CHART_R2_MAX:
            raise ValueError("start point must lie inside the chart guard")
        if self.x_f ** 2 + self.y_f ** 2 > CHART_R2_MAX:
            raise ValueError("target point must lie inside the chart guard")


def _height(zt):
    """z = sqrt(1 - x^2 - y^2) from zt = (x, y), guarded away from the equator.

    x and y may be scalars or arrays; a scalar skips the array reduction.
    """
    r2 = zt[0] * zt[0] + zt[1] * zt[1]
    outside = r2 > CHART_R2_MAX
    if outside.any() if isinstance(outside, np.ndarray) else outside:
        raise ChartDomainViolation(
            f"x^2+y^2 = {np.max(r2):.6f} exceeds the chart limit {CHART_R2_MAX:.6f}"
        )
    return np.sqrt(1.0 - r2)


def chart_height(z_coords) -> float:
    """Guarded chart height at one point, in Python float arithmetic."""
    return float(_height((float(z_coords[0]), float(z_coords[1]))))


def lift_to_sphere(z_coords) -> np.ndarray:
    return np.array([z_coords[0], z_coords[1], chart_height(z_coords)])


def ambient_dynamics(state, u: float) -> np.ndarray:
    x, y, z = state
    cu, su = np.cos(u), np.sin(u)
    return np.array([z * cu, z * su, -x * cu - y * su])


def chart_dynamics(z_coords, u, p) -> np.ndarray:
    """Chart flow p * z * (cos u, sin u) at one point or a (..., 2) stack,
    with u and p broadcasting over the stack's leading axes."""
    speed = p * _height(np.asarray(z_coords).T)
    return np.array([speed * np.cos(u), speed * np.sin(u)]).T


def constraint_C(u: float, u_s: float, params: HemisphereParams) -> float:
    return (u - params.c_u) ** 2 + u_s ** 2 - params.r_u ** 2


def terminal_psi(x_n, params: HemisphereParams) -> np.ndarray:
    return np.asarray(x_n, dtype=float) - (params.x_f, params.y_f)


def sphere_constraint() -> ManifoldConstraint:
    return ManifoldConstraint(
        g=lambda y: np.array([y @ y - 1.0]),
        jacobian_g=lambda y: 2.0 * np.asarray(y, dtype=float).reshape(1, -1),
    )


def hemisphere_chart() -> ManifoldChart:
    """Upper-hemisphere chart; reduced_field controls are a (u, p) pair."""
    return ManifoldChart(
        lift=lift_to_sphere,
        project_coords=lambda x: np.asarray(x, dtype=float)[:2].copy(),
        reduced_field=lambda tau, z, controls: chart_dynamics(
            z, controls[0], controls[1]),
        in_domain=lambda z: z[0] ** 2 + z[1] ** 2 <= CHART_R2_MAX,
    )


def plant_step(z_coords, u: float, dt: float) -> np.ndarray:
    """One physical-time Euler step of the chart flow (no horizon rescaling)."""
    z_next = np.asarray(z_coords, dtype=float) + dt * chart_dynamics(z_coords, u, 1.0)
    chart_height(z_next)  # reject steps that leave the chart
    return z_next


def great_circle_distance(params: HemisphereParams) -> float:
    a = lift_to_sphere((params.x0, params.y0))
    b = lift_to_sphere((params.x_f, params.y_f))
    return float(np.arccos(np.clip(a @ b, -1.0, 1.0)))


def make_ocp(params: HemisphereParams) -> OcpDefinition:
    """Horizon-time OCP callbacks in chart coordinates.

    The rescaled horizon multiplies dynamics, running cost and constraint
    by p, so the optimality rows reproduce the discretized system with
    p inside every stage block and phi_p = 1 in the parameter row.

    Callbacks read components from transposes (``xt = x.T``, ``xt[0]``)
    and pack results back with ``.T``: a single point runs on numpy
    scalars, a stage or batch stack on arrays.
    """
    c_u, r_u, w_s = params.c_u, params.r_u, params.w_s

    def drift(lt, u0):
        return np.cos(u0) * lt[0] + np.sin(u0) * lt[1]

    def C(tau, x, u, p):
        ut = u.T
        return np.array([p.T[0] * constraint_C(ut[0], ut[1], params)]).T

    def H_u(tau, x, lam, u, mu, p):
        lt, ut, m0, p0 = lam.T, u.T, mu.T[0], p.T[0]
        steer = _height(x.T) * (-np.sin(ut[0]) * lt[0] + np.cos(ut[0]) * lt[1])
        return np.array([
            p0 * (steer + 2.0 * (ut[0] - c_u) * m0),
            p0 * (2.0 * m0 * ut[1] - w_s),
        ]).T

    def H_x(tau, x, lam, u, mu, p):
        xt = x.T
        return (-(p.T[0] / _height(xt)) * drift(lam.T, u.T[0]) * xt).T

    def H_p(tau, x, lam, u, mu, p):
        ut = u.T
        return np.array([
            _height(x.T) * drift(lam.T, ut[0])
            + mu.T[0] * constraint_C(ut[0], ut[1], params) - w_s * ut[1],
        ]).T

    return OcpDefinition(
        n_x=2, n_u=2, n_mu=1, n_nu=2, n_p=1,
        L=lambda tau, x, u, p: (-p.T[0] * w_s * u.T[1]).T,
        phi=lambda xn, p: p[..., 0],
        C=C,
        psi=lambda xn, p: terminal_psi(xn, params),
        H_u=H_u,
        H_x=H_x,
        H_p=H_p,
        phi_x=lambda xn, p: np.zeros_like(xn),
        phi_p=lambda xn, p: np.ones_like(p),
        psi_x=lambda xn, p: np.broadcast_to(np.eye(2), xn.shape[:-1] + (2, 2)),
        psi_p=lambda xn, p: np.zeros(xn.shape[:-1] + (2, 1)),
        stepper=euler_stepper(
            lambda tau, x, u, p: chart_dynamics(x, u.T[0], p.T[0])),
    )


def make_problem(params: HemisphereParams | None = None,
                 n_steps: int = 20) -> HorizonProblem:
    if params is None:
        params = HemisphereParams()
    probe = (np.array([params.x0, params.y0]), np.array([params.c_u, params.r_u]),
             np.array([0.1, -0.1]), np.array([0.02]), np.zeros(2), np.array([1.2]))
    return HorizonProblem(make_ocp(params), HorizonGrid.uniform(n_steps), probe)


def initial_guess(layout, params: HemisphereParams) -> np.ndarray:
    """Stationary-in-the-band guess: controls at the band center, slack at
    full radius, mu canceling the slack row, p at the great-circle length."""
    U = layout.zeros()
    layout.controls(U)[:] = (params.c_u, params.r_u)
    layout.mus(U)[:] = params.w_s / (2.0 * params.r_u)
    layout.p(U)[:] = great_circle_distance(params)
    return U


def residual_rows(U, x0, grid: HorizonGrid, params: HemisphereParams) -> np.ndarray:
    """Independent, fully written-out optimality rows for the hemisphere.

    Hand-indexed layout [u | u_s | mu | nu | p]; kept free of the generic
    assembly machinery so the two paths can check each other.
    """
    U = np.asarray(U, dtype=float)
    n = grid.n_steps
    if U.shape[0] != 3 * n + 3:
        raise ValueError(f"expected length {3 * n + 3}, got {U.shape[0]}")
    u = U[0:n]
    u_s = U[n : 2 * n]
    mu = U[2 * n : 3 * n]
    nu = U[3 * n : 3 * n + 2]
    p = U[3 * n + 2]
    c_u, r_u, w_s = params.c_u, params.r_u, params.w_s

    xs = np.empty((n + 1, 2))
    ss = np.empty(n)
    xs[0] = np.asarray(x0, dtype=float)
    for i in range(n):
        ss[i] = chart_height(xs[i])
        xs[i + 1, 0] = xs[i, 0] + grid.dtau[i] * p * ss[i] * np.cos(u[i])
        xs[i + 1, 1] = xs[i, 1] + grid.dtau[i] * p * ss[i] * np.sin(u[i])

    lam = np.empty((n + 1, 2))
    lam[n] = nu
    for i in range(n - 1, -1, -1):
        drift = np.cos(u[i]) * lam[i + 1, 0] + np.sin(u[i]) * lam[i + 1, 1]
        lam[i, 0] = lam[i + 1, 0] - grid.dtau[i] * p * (xs[i, 0] / ss[i]) * drift
        lam[i, 1] = lam[i + 1, 1] - grid.dtau[i] * p * (xs[i, 1] / ss[i]) * drift

    out = np.empty(3 * n + 3)
    p_row = 1.0
    for i in range(n):
        dt = grid.dtau[i]
        band = (u[i] - c_u) ** 2 + u_s[i] ** 2 - r_u ** 2
        steer = ss[i] * (-np.sin(u[i]) * lam[i + 1, 0] + np.cos(u[i]) * lam[i + 1, 1])
        advance = ss[i] * (np.cos(u[i]) * lam[i + 1, 0] + np.sin(u[i]) * lam[i + 1, 1])
        out[i] = dt * p * (steer + 2.0 * (u[i] - c_u) * mu[i])
        out[n + i] = dt * p * (2.0 * mu[i] * u_s[i] - w_s)
        out[2 * n + i] = dt * p * band
        p_row += dt * (advance + mu[i] * band - w_s * u_s[i])
    out[3 * n] = xs[n, 0] - params.x_f
    out[3 * n + 1] = xs[n, 1] - params.y_f
    out[3 * n + 2] = p_row
    return out
