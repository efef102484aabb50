"""Shared fixtures: a small flat-space OCP and a finite-difference oracle.

The flat problem uses an explicit-Euler stepper directly on its dynamics,
so the assembled residual must equal the exact gradient of the discrete
Lagrangian; the oracle below evaluates that Lagrangian from scratch
(states regenerated per call) for central-difference checks.
"""

import numpy as np

from geonmpc.horizon import (
    HorizonGrid,
    HorizonProblem,
    OcpDefinition,
    euler_stepper,
)


def make_cart_problem(n_steps=10):
    """Nonlinear point-mass problem: every callback branch is exercised.

    Callbacks unpack components along the last axis and pack results back
    with ``.T``, so they broadcast over stage and batch axes.
    """

    def f(tau, x, u, p):
        x0, x1 = x.T
        return np.array([x1, u.T[0] - 0.3 * np.sin(x0) + 0.2 * p.T[0]]).T

    def H_x(tau, x, lam, u, mu, p):
        x0 = x.T[0]
        l0, l1 = lam.T
        return np.array([0.1 * x0 - 0.3 * np.cos(x0) * l1, l0 + 0.2 * mu.T[0]]).T

    def terminal(xn, shape):
        return np.zeros(xn.shape[:-1] + shape)

    ocp = OcpDefinition(
        n_x=2, n_u=1, n_mu=1, n_nu=1, n_p=1,
        L=lambda tau, x, u, p: (0.5 * (u.T[0] ** 2 + 0.1 * x.T[0] ** 2)
                                + 0.05 * p.T[0] ** 2).T,
        phi=lambda xn, p: 0.5 * (xn * xn).sum(axis=-1) + 0.1 * p[..., 0],
        C=lambda tau, x, u, p: np.array([u.T[0] + 0.2 * x.T[1] - 0.1 * p.T[0]]).T,
        psi=lambda xn, p: xn[..., :1] - 0.3,
        H_u=lambda tau, x, lam, u, mu, p: np.array([u.T[0] + lam.T[1] + mu.T[0]]).T,
        H_x=H_x,
        H_p=lambda tau, x, lam, u, mu, p: np.array([
            0.1 * p.T[0] + 0.2 * lam.T[1] - 0.1 * mu.T[0],
        ]).T,
        phi_x=lambda xn, p: xn.copy(),
        phi_p=lambda xn, p: np.full_like(p, 0.1),
        psi_x=lambda xn, p: terminal(xn, (1, 2)) + [[1.0, 0.0]],
        psi_p=lambda xn, p: terminal(xn, (1, 1)),
        stepper=euler_stepper(f),
    )
    return HorizonProblem(ocp, HorizonGrid.uniform(n_steps), origin_probe(ocp))


def origin_probe(ocp):
    """HorizonProblem probe point: zero states, controls and multipliers, p = 1."""
    return (np.zeros(ocp.n_x), np.zeros(ocp.n_u), np.zeros(ocp.n_x),
            np.zeros(ocp.n_mu), np.zeros(ocp.n_nu), np.ones(ocp.n_p))


def discrete_lagrangian(problem, x0, U):
    """phi + sum L dtau + sum mu.C dtau + nu.psi with states regenerated."""
    ocp, grid, layout = problem.ocp, problem.grid, problem.layout
    p = layout.p(U)
    nu = layout.nu(U)
    states, _ = problem.trajectory(x0, U)
    x_n = states[grid.n_steps]
    total = float(ocp.phi(x_n, p)) + float(nu @ ocp.psi(x_n, p))
    for i in range(grid.n_steps):
        u_i = layout.controls(U)[i]
        mu_i = layout.mus(U)[i]
        stage = float(ocp.L(grid.tau[i], states[i], u_i, p))
        stage += float(mu_i @ ocp.C(grid.tau[i], states[i], u_i, p))
        total += stage * grid.dtau[i]
    return total


def fd_gradient(fun, U, h=1e-7):
    grad = np.empty_like(U)
    for k in range(U.shape[0]):
        up = U.copy()
        dn = U.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad
