"""Shared fixtures: a small flat-space OCP, a finite-difference oracle, and
the shipped configuration's closed loop, run once per session.

The flat problem uses an explicit-Euler stepper directly on its dynamics,
so the assembled residual must equal the exact gradient of the discrete
Lagrangian; the oracle below evaluates that Lagrangian from scratch
(states regenerated per call) for central-difference checks.  The
residual reads the costs and constraints only through the partials of the
Hamiltonian and of the terminal Lagrangian, so the running and terminal
costs and constraints the oracle needs live here, beside those partials.
The oracle calls the stepper alone, to regenerate the states, and none of
the partials under test.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from geonmpc.config import SimConfig
from geonmpc.horizon import HorizonProblem, OcpDefinition
from geonmpc.simulate import run_simulation
from geonmpc.solver import NmpcController


def on_lists(callback):
    """An array callback that also takes a single point as lists of Python
    floats, as the condensed recursions pass stepper and stage one, and then
    returns a list, or a tuple of lists for a fused callback: the same
    arithmetic on the same numbers."""
    @functools.wraps(callback)
    def call(*args):
        if type(args[0]) is not list:
            return callback(*args)
        out = callback(*(np.array(a) if type(a) is list else a for a in args))
        return tuple(part.tolist() for part in out) if type(out) is tuple else out.tolist()
    return call


def euler_stepper(f):
    """Plain explicit-Euler stepper over the dynamics f(x, u, p)."""
    return on_lists(lambda x, u, p, dtau: x + dtau * f(x, u, p))


def cart_running_cost(x, u, p):
    """The cart's L, whose partials the cart's H_u, H_x and H_p carry."""
    return (0.5 * (u.T[0] ** 2 + 0.1 * x.T[0] ** 2) + 0.05 * p.T[0] ** 2).T


def cart_terminal_cost(xn, p):
    """The cart's phi, whose partials open its Phi_x and Phi_p."""
    return 0.5 * (xn * xn).sum(axis=-1) + 0.1 * p[..., 0]


def cart_stage_constraint(x, u, p):
    """The cart's C, which its stage callback returns as H_mu."""
    return np.array([u.T[0] + 0.2 * x.T[1] - 0.1 * p.T[0]]).T


def cart_terminal_constraint(xn, p):
    """The cart's psi, which its Phi_grad returns as Phi_nu."""
    return xn[..., :1] - 0.3


def make_cart_problem(n_steps=10):
    """Nonlinear point-mass problem: every callback branch is exercised.

    Callbacks unpack components along the last axis and pack results back
    with ``.T``, so they broadcast over stage and batch axes; stepper and
    stage take single-point lists through on_lists.
    """

    def f(x, u, p):
        x0, x1 = x.T
        return np.array([x1, u.T[0] - 0.3 * np.sin(x0) + 0.2 * p.T[0]]).T

    def H_x(x, lam, u, mu, p):
        x0 = x.T[0]
        l0, l1 = lam.T
        return np.array([0.1 * x0 - 0.3 * np.cos(x0) * l1, l0 + 0.2 * mu.T[0]]).T

    stepper = euler_stepper(f)

    @on_lists
    def stage(x, lam, u, mu, p, dtau):
        return (stepper(x, u, p, dtau),
                H_x(x, lam, u, mu, p),
                np.array([u.T[0] + lam.T[1] + mu.T[0]]).T,
                cart_stage_constraint(x, u, p),
                np.array([0.1 * p.T[0] + 0.2 * lam.T[1] - 0.1 * mu.T[0]]).T)

    ocp = OcpDefinition(
        n_x=2, n_u=1, n_mu=1, n_nu=1, n_p=1,
        stepper=stepper,
        H_x=H_x,
        stage=stage,
        # Phi = cart_terminal_cost + nu . psi with psi = x_N[0] - 0.3
        Phi_grad=lambda xn, nu, p: (xn + nu * [1.0, 0.0],
                                    cart_terminal_constraint(xn, p),
                                    np.full_like(p, 0.1)),
    )
    return HorizonProblem(ocp, n_steps, origin_probe(ocp))


def origin_probe(ocp):
    """HorizonProblem probe point: zero states, controls and multipliers, p = 1."""
    return (np.zeros(ocp.n_x), np.zeros(ocp.n_u), np.zeros(ocp.n_x),
            np.zeros(ocp.n_mu), np.zeros(ocp.n_nu), np.ones(ocp.n_p))


def discrete_lagrangian(problem, x0, U, L, phi, C, psi):
    """phi + sum L dtau + sum mu.C dtau + nu.psi with states regenerated,
    for the running cost L(x, u, p), terminal cost phi(x_N, p), stage
    constraint C(x, u, p) and terminal constraint psi(x_N, p)."""
    layout = problem.layout
    p = layout.p(U)
    nu = layout.nu(U)
    states = [np.asarray(x0, dtype=float)]
    for i in range(layout.n_steps):
        states.append(problem.ocp.stepper(
            states[i], layout.controls(U)[i], p, problem.dtau))
    x_n = states[layout.n_steps]
    total = float(phi(x_n, p)) + float(nu @ psi(x_n, p))
    for i in range(layout.n_steps):
        u_i = layout.controls(U)[i]
        mu_i = layout.mus(U)[i]
        stage = float(L(states[i], u_i, p))
        stage += float(mu_i @ C(states[i], u_i, p))
        total += stage * problem.dtau
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


@pytest.fixture(scope="session")
def shipped_loop():
    """The shipped configuration's closed loop, each preconditioner setting
    run at most once per session: a callable precond_enabled -> (records,
    samples), where samples holds each sample's (measured state, tracked
    vector after the update, SampleTelemetry)."""
    runs = {}

    def run(precond_enabled):
        if precond_enabled not in runs:
            samples = []
            inner = NmpcController.sample_update

            def sample_update(self, x, t_now):
                u_apply, telemetry = inner(self, x, t_now)
                samples.append((x.copy(), self.U.copy(), telemetry))
                return u_apply, telemetry

            cfg = replace(SimConfig(), output_dir=None, precond_enabled=precond_enabled)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(NmpcController, "sample_update", sample_update)
                records = run_simulation(cfg, write_output=False)
            runs[precond_enabled] = records, samples
        return runs[precond_enabled]

    return run
