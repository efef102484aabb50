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
the target (0.5, 0) is therefore unreachable, and initial_guess rejects
it up front: its chart heading, -0.4636, lies outside the band.  The
shipped default uses the y-mirrored start (-0.5, -0.5), which produces
the mirror-image trajectory and the same minimum time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainViolation, GeonmpcError, InitializationFailure
from .horizon import HorizonProblem, OcpDefinition
from .manifold import ManifoldChart, ManifoldConstraint

Z_MIN = 0.05  # chart guard: the chart keeps z >= Z_MIN, away from the equator
CHART_R2_MAX = 1.0 - Z_MIN ** 2  # largest x^2 + y^2 inside the guard
# make_problem's callback probe: an interior chart point with nonzero
# components, which validate_at's shifted stacks cannot carry out of the chart
PROBE_XY = (0.3, -0.2)


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
        # each check is negated so that NaN fails it too
        if not math.isfinite(self.c_u):
            raise ValueError("c_u must be finite")
        if not 0 < self.r_u < math.inf:
            raise ValueError("r_u must be positive and finite")
        if not math.isfinite(self.w_s):
            raise ValueError("w_s must be finite")
        if not self.x0 ** 2 + self.y0 ** 2 <= CHART_R2_MAX:
            raise ValueError("start point must lie inside the chart guard")
        if not self.x_f ** 2 + self.y_f ** 2 <= CHART_R2_MAX:
            raise ValueError("target point must lie inside the chart guard")

    @property
    def heading_band(self) -> tuple:
        """The band's edges (c_u - r_u, c_u + r_u) as computed: the bounds
        initial_guess tests a heading against and run_simulation clips to."""
        return self.c_u - self.r_u, self.c_u + self.r_u


def _height(zt):
    """z = sqrt(1 - x^2 - y^2) from zt = (x, y), guarded away from the equator.

    x and y may be scalars or arrays; a scalar skips the array reduction,
    and Python floats stay Python floats (math.sqrt, correctly rounded
    like np.sqrt).
    """
    r2 = zt[0] * zt[0] + zt[1] * zt[1]
    inside = r2 <= CHART_R2_MAX
    if not (inside.all() if isinstance(inside, np.ndarray) else inside):
        raise ChartDomainViolation(
            f"x^2+y^2 = {np.max(r2):.6f} is not within the chart limit {CHART_R2_MAX:.6f}"
        )
    return math.sqrt(1.0 - r2) if type(r2) is float else np.sqrt(1.0 - r2)


def chart_height(z_coords) -> float:
    """Guarded chart height at one point, in Python float arithmetic."""
    return float(_height((float(z_coords[0]), float(z_coords[1]))))


def lift_to_sphere(z_coords) -> np.ndarray:
    return np.array([z_coords[0], z_coords[1], chart_height(z_coords)])


def ambient_dynamics(state, u: float) -> np.ndarray:
    # Python floats: six scalar products without numpy's scalar dispatch
    x, y, z = np.asarray(state, dtype=float).tolist()
    cu, su = float(np.cos(u)), float(np.sin(u))
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
    p inside every stage block: H = p (z (cos u, sin u) . lam - w_s u_s
    + mu constraint_C).  The stepper is explicit Euler on the chart flow
    p z (cos u, sin u).  stage computes the height z, cos u, sin u, the
    drift (cos u, sin u) . lam and the band term once for all five of its
    parts; its x_next and H_x repeat the stepper's and H_x's formulas in
    the same operation order, so they agree bit for bit.  The terminal
    cost is p and psi = x_N - x_f, so the terminal Lagrangian
    Phi = p + nu . (x_N - x_f) has Phi_x = nu, Phi_nu = psi and Phi_p = 1.

    Callbacks read components from transposes (``xt = x.T``, ``xt[0]``)
    and pack results back with ``.T``, so a stage or batch stack runs on
    arrays.  stepper and stage, which the condensed recursions call once
    per stage of a single decision vector, take a single point as lists of
    Python floats (``type(x) is list``) and return lists: the same formulas
    in the same operation order, with math's cos, sin and sqrt, at a
    fraction of numpy's per-scalar cost.  The band term's squares are
    products there, as numpy's square is: Python's ``**`` calls libm's
    pow, which can round differently.  A non-finite heading in a list
    raises GeonmpcError naming it, where math.cos alone would raise a bare
    ValueError at inf and pass NaN through.  H_x, which only the
    stage-view recursions of a stack or of lift call, takes arrays only.  A point's output equals its row
    of a stack call bit for bit wherever math's cos and sin round as
    numpy's do; the tests check this over every stage of the shipped loop.
    """
    c_u, r_u, w_s = params.c_u, params.r_u, params.w_s

    def stepper(x, u, p, dtau):
        if type(x) is list:
            x0, x1 = x
            u0 = u[0]
            speed = p[0] * _height(x)
            if not math.isfinite(u0):
                raise GeonmpcError(f"heading u = {u0!r} is not finite")
            return [x0 + dtau * (speed * math.cos(u0)), x1 + dtau * (speed * math.sin(u0))]
        u0 = u.T[0]
        speed = p.T[0] * _height(x.T)
        return x + dtau * np.array([speed * np.cos(u0), speed * np.sin(u0)]).T

    def H_x(x, lam, u, mu, p):
        xt, lt, u0 = x.T, lam.T, u.T[0]
        drift = np.cos(u0) * lt[0] + np.sin(u0) * lt[1]
        return (-(p.T[0] / _height(xt)) * drift * xt).T

    def stage(x, lam, u, mu, p, dtau):
        if type(x) is list:
            x0, x1 = x
            l0, l1 = lam
            u0, u1 = u
            m0, p0 = mu[0], p[0]
            z = _height(x)
            if not math.isfinite(u0):
                raise GeonmpcError(f"heading u = {u0!r} is not finite")
            cos_u, sin_u = math.cos(u0), math.sin(u0)
            speed = p0 * z
            drift = cos_u * l0 + sin_u * l1
            du = u0 - c_u
            band = du * du + u1 * u1 - r_u ** 2  # constraint_C, squares as numpy's
            scale = -(p0 / z) * drift
            return ([x0 + dtau * (speed * cos_u), x1 + dtau * (speed * sin_u)],
                    [scale * x0, scale * x1],
                    [p0 * (z * (-sin_u * l0 + cos_u * l1) + 2.0 * du * m0),
                     p0 * (2.0 * m0 * u1 - w_s)],
                    [p0 * band],
                    [z * drift + m0 * band - w_s * u1])
        xt, lt, ut, m0, p0 = x.T, lam.T, u.T, mu.T[0], p.T[0]
        z, cos_u, sin_u = _height(xt), np.cos(ut[0]), np.sin(ut[0])
        speed = p0 * z
        drift = cos_u * lt[0] + sin_u * lt[1]
        band = constraint_C(ut[0], ut[1], params)
        H_u = np.array([
            p0 * (z * (-sin_u * lt[0] + cos_u * lt[1]) + 2.0 * (ut[0] - c_u) * m0),
            p0 * (2.0 * m0 * ut[1] - w_s),
        ]).T
        H_p = z * drift + m0 * band - w_s * ut[1]
        return (x + dtau * np.array([speed * cos_u, speed * sin_u]).T,
                (-(p0 / z) * drift * xt).T,
                H_u, np.array([p0 * band]).T, np.array([H_p]).T)

    return OcpDefinition(
        n_x=2, n_u=2, n_mu=1, n_nu=2, n_p=1,
        stepper=stepper,
        H_x=H_x,
        stage=stage,
        Phi_grad=lambda xn, nu, p: (nu, terminal_psi(xn, params), np.ones_like(p)),
    )


def make_problem(params: HemisphereParams, n_steps: int) -> HorizonProblem:
    probe = (np.array(PROBE_XY), np.array([params.c_u, params.r_u]),
             np.array([0.1, -0.1]), np.array([0.02]), np.zeros(2), np.array([1.2]))
    return HorizonProblem(make_ocp(params), n_steps, probe)


def initial_guess(layout, params: HemisphereParams) -> np.ndarray:
    """The straight chart path to the target, each block set so that the
    rows it feeds hold on that path.

    * Heading: u = atan2(y_f - y0, x_f - x0) on every stage, on the 2 pi
      branch nearest c_u.  The chart guard is a disk, so the segment stays
      in the chart.
    * Slack: u_s = sqrt(r_u^2 - (u - c_u)^2), so the band row C = 0.
    * Multiplier: mu = w_s / (2 u_s), so the slack row 2 mu u_s - w_s = 0.
    * Terminal multiplier: nu = -(cos u, sin u) / z(x_f, y_f), the terminal
      costate of a constant-heading minimum-time path.  Against the
      velocity, it zeroes the steering term of the last stage's heading
      row.  Its scale comes from the parameter row 1 + dtau sum H_p = 0
      with C = 0 and w_s u_s neglected: z (cos u, sin u) . nu = -1 at the
      target.
    * p: the great-circle length from start to target.

    The chart velocity p z (cos u, sin u) keeps its heading in the band,
    so every reachable target's displacement angle lies in the closed band
    [c_u - r_u, c_u + r_u].  The guess needs u_s > 0, so it is defined on
    the open band only; a heading outside it, or on its edge, raises
    InitializationFailure ("target unreachable") before any residual is
    evaluated.  The edge is c_u -+ r_u as computed, so a heading equal to
    it counts as on it even where |u - c_u| rounds below r_u.  A start at
    the target raises InitializationFailure too: it has no heading.
    """
    if (params.x0, params.y0) == (params.x_f, params.y_f):
        raise InitializationFailure(
            f"start ({params.x0:.6g}, {params.y0:.6g}) is at the target: "
            "the minimum time is 0, so there is no heading to steer")
    u = math.atan2(params.y_f - params.y0, params.x_f - params.x0)
    u += 2.0 * math.pi * round((params.c_u - u) / (2.0 * math.pi))
    # an edge heading equals one of the band's edges although |u - c_u| may
    # round a hair below r_u; one a hair inside them may still have its
    # slack round to 0
    lo, hi = params.heading_band
    slack_sq = params.r_u ** 2 - (u - params.c_u) ** 2
    if not (lo < u < hi and slack_sq > 0.0):
        raise InitializationFailure(
            f"target unreachable: chart heading {u:.6g} outside the open band "
            f"({lo:.6g}, {hi:.6g})")
    u_s = math.sqrt(slack_sq)
    z_f = chart_height((params.x_f, params.y_f))
    U = np.zeros(layout.dim)
    layout.controls(U)[:] = (u, u_s)
    layout.mus(U)[:] = params.w_s / (2.0 * u_s)
    layout.nu(U)[:] = (-math.cos(u) / z_f, -math.sin(u) / z_f)
    layout.p(U)[:] = great_circle_distance(params)
    return U


def residual_rows(U, x0, dtau, params: HemisphereParams) -> np.ndarray:
    """Independent, fully written-out optimality rows for the hemisphere.

    Hand-indexed layout [(u, u_s) per stage | mu | nu | p]; kept free of
    the generic assembly machinery so the two paths can check each other.
    """
    U = np.asarray(U, dtype=float)
    n = len(dtau)
    if U.shape[0] != 3 * n + 3:
        raise ValueError(f"expected length {3 * n + 3}, got {U.shape[0]}")
    u = U[0 : 2 * n : 2]
    u_s = U[1 : 2 * n : 2]
    mu = U[2 * n : 3 * n]
    nu = U[3 * n : 3 * n + 2]
    p = U[3 * n + 2]
    c_u, r_u, w_s = params.c_u, params.r_u, params.w_s

    xs = np.empty((n + 1, 2))
    ss = np.empty(n)
    xs[0] = np.asarray(x0, dtype=float)
    for i in range(n):
        ss[i] = chart_height(xs[i])
        xs[i + 1, 0] = xs[i, 0] + dtau[i] * p * ss[i] * np.cos(u[i])
        xs[i + 1, 1] = xs[i, 1] + dtau[i] * p * ss[i] * np.sin(u[i])

    lam = np.empty((n + 1, 2))
    lam[n] = nu
    for i in range(n - 1, -1, -1):
        drift = np.cos(u[i]) * lam[i + 1, 0] + np.sin(u[i]) * lam[i + 1, 1]
        lam[i, 0] = lam[i + 1, 0] - dtau[i] * p * (xs[i, 0] / ss[i]) * drift
        lam[i, 1] = lam[i + 1, 1] - dtau[i] * p * (xs[i, 1] / ss[i]) * drift

    out = np.empty(3 * n + 3)
    p_row = 1.0
    for i in range(n):
        dt = dtau[i]
        band = (u[i] - c_u) ** 2 + u_s[i] ** 2 - r_u ** 2
        steer = ss[i] * (-np.sin(u[i]) * lam[i + 1, 0] + np.cos(u[i]) * lam[i + 1, 1])
        advance = ss[i] * (np.cos(u[i]) * lam[i + 1, 0] + np.sin(u[i]) * lam[i + 1, 1])
        out[2 * i] = dt * p * (steer + 2.0 * (u[i] - c_u) * mu[i])
        out[2 * i + 1] = dt * p * (2.0 * mu[i] * u_s[i] - w_s)
        out[2 * n + i] = dt * p * band
        p_row += dt * (advance + mu[i] * band - w_s * u_s[i])
    out[3 * n] = xs[n, 0] - params.x_f
    out[3 * n + 1] = xs[n, 1] - params.y_f
    out[3 * n + 2] = p_row
    return out
