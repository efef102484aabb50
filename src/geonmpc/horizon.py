"""Discretized finite-horizon optimal control problems.

A problem is defined by callbacks for the dynamics, costs and constraints
plus their partials, a horizon grid, and a decision-vector layout.  The
residual assembly runs the forward state recursion with the caller's
structure-preserving stepper, the backward costate recursion, and stacks
the optimality conditions into one vector F whose zero is the discrete
first-order optimum.

Decision vector layout (component-major inside each block):

    [ u^(0)_0..u^(0)_{N-1}, u^(1)_0.., ... | mu^(0)_0.., ... | nu | p ]

Residual rows use the same layout, so Jacobian blocks of F line up with
the corresponding unknown blocks.  A (B, dim) stack of decision vectors
gives the (B, dim) stack of their residuals from one assembly.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_vector


@dataclass(frozen=True)
class HorizonGrid:
    """Grid 0 = tau_0 < ... < tau_N over the (possibly rescaled) horizon."""

    dtau: np.ndarray
    tau: np.ndarray

    @staticmethod
    def uniform(n_steps: int) -> "HorizonGrid":
        """Equal steps over the normalized horizon [0, 1]."""
        if n_steps < 1:
            raise DimensionMismatch("grid needs at least one step")
        return HorizonGrid(
            dtau=np.full(n_steps, 1.0 / n_steps),
            tau=np.linspace(0.0, 1.0, n_steps + 1),
        )

    @property
    def n_steps(self) -> int:
        return self.dtau.shape[0]


@dataclass(frozen=True)
class DecisionLayout:
    """Index arithmetic for the stacked decision vector and residual.

    Every accessor works on the last axis, so it applies unchanged to a
    batch of decision vectors, and returns a writable view.
    """

    n_steps: int
    n_u: int
    n_mu: int
    n_nu: int
    n_p: int

    @property
    def dim(self) -> int:
        return self.n_steps * (self.n_u + self.n_mu) + self.n_nu + self.n_p

    @property
    def mu_offset(self) -> int:
        return self.n_steps * self.n_u

    @property
    def nu_offset(self) -> int:
        return self.n_steps * (self.n_u + self.n_mu)

    @property
    def p_offset(self) -> int:
        return self.nu_offset + self.n_nu

    def controls(self, vec: np.ndarray) -> np.ndarray:
        """All stage controls as a (..., n_steps, n_u) view."""
        return self._stages(vec, 0, self.n_u)

    def mus(self, vec: np.ndarray) -> np.ndarray:
        """All stage multipliers as a (..., n_steps, n_mu) view."""
        return self._stages(vec, self.mu_offset, self.n_mu)

    # Component j of stage i lives at offset + j*n_steps + i: the block
    # reshaped to (width, n_steps) and transposed is the stage view.
    def _stages(self, vec: np.ndarray, offset: int, width: int) -> np.ndarray:
        block = vec[..., offset : offset + width * self.n_steps]
        return np.swapaxes(
            block.reshape(vec.shape[:-1] + (width, self.n_steps)), -1, -2)

    def nu(self, vec: np.ndarray) -> np.ndarray:
        return vec[..., self.nu_offset : self.p_offset]

    def p(self, vec: np.ndarray) -> np.ndarray:
        return vec[..., self.p_offset :]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.dim)


# validate_at probes one point, a stage stack and a batch of stage stacks;
# row k of a stack sits at the point + k * PROBE_SHIFT.
PROBE_LEADS = ((), (3,), (2, 3))
PROBE_SHIFT = 1e-6


@dataclass(frozen=True)
class OcpDefinition:
    """Problem callbacks.  All maps must be pure.

    Callbacks take arrays whose last axis is the component and broadcast
    over any leading stage or batch axes: all array arguments of one call
    share those axes, and each output carries them in front of the shapes
    below (tau is a scalar or has the leading shape).  The recursions call
    their callbacks on (..., n_x) slices one stage at a time; H_u, C and
    H_p see whole (..., n_steps, n) stage stacks.

    The Hamiltonian behind H_u/H_x/H_p is L + lam . f + mu . C, with f the
    dynamics the stepper integrates; the costate recursion deliberately
    uses H_x in place of the stepper's own state sensitivity.

    The solver floors the parameter block p at solver.P_MIN, so p should be
    a quantity that stays positive, such as a free horizon length.
    """

    n_x: int
    n_u: int
    n_mu: int
    n_nu: int
    n_p: int
    L: Callable            # (tau, x, u, p) -> scalar
    phi: Callable          # (x_N, p) -> scalar
    C: Callable            # (tau, x, u, p) -> (n_mu,)
    psi: Callable          # (x_N, p) -> (n_nu,)
    H_u: Callable          # (tau, x, lam, u, mu, p) -> (n_u,)
    H_x: Callable          # (tau, x, lam, u, mu, p) -> (n_x,)
    H_p: Callable          # (tau, x, lam, u, mu, p) -> (n_p,)
    phi_x: Callable        # (x_N, p) -> (n_x,)
    phi_p: Callable        # (x_N, p) -> (n_p,)
    psi_x: Callable        # (x_N, p) -> (n_nu, n_x)
    psi_p: Callable        # (x_N, p) -> (n_nu, n_p)
    stepper: Callable      # (tau, x, u, p, dtau) -> next x

    def _probe(self, tau, x, u, lam, mu, nu, p) -> dict:
        """name -> (output, component shape) of every callback at one input."""
        return {
            "L": (self.L(tau, x, u, p), ()),
            "phi": (self.phi(x, p), ()),
            "C": (self.C(tau, x, u, p), (self.n_mu,)),
            "psi": (self.psi(x, p), (self.n_nu,)),
            "H_u": (self.H_u(tau, x, lam, u, mu, p), (self.n_u,)),
            "H_x": (self.H_x(tau, x, lam, u, mu, p), (self.n_x,)),
            "H_p": (self.H_p(tau, x, lam, u, mu, p), (self.n_p,)),
            "phi_x": (self.phi_x(x, p), (self.n_x,)),
            "phi_p": (self.phi_p(x, p), (self.n_p,)),
            "psi_x": (self.psi_x(x, p), (self.n_nu, self.n_x)),
            "psi_p": (self.psi_p(x, p), (self.n_nu, self.n_p)),
            "stepper": (self.stepper(tau, x, u, p, 1e-3), (self.n_x,)),
        }

    def validate_at(self, tau, x, u, lam, mu, nu, p) -> None:
        """Probe every callback at one point and on stacks of nearby points.

        Raise DimensionMismatch naming a callback whose output lacks the
        leading axes, or whose stacked rows differ from single-point calls.
        """
        point = [as_vector(v) for v in (x, u, lam, mu, nu, p)]
        singles = [self._probe(tau, *(v + PROBE_SHIFT * k for v in point))
                   for k in range(int(np.prod(PROBE_LEADS[-1])))]
        for lead in PROBE_LEADS:
            rows = int(np.prod(lead))
            shift = PROBE_SHIFT * np.arange(rows).reshape(lead + (1,))
            outputs = self._probe(np.full(lead, float(tau)), *(v + shift for v in point))
            for name, (out, want) in outputs.items():
                if np.shape(out) != lead + want:
                    raise DimensionMismatch(f"{name} returned shape {np.shape(out)} "
                                            f"for leading axes {lead}, expected {lead + want}")
                expect = np.reshape([singles[k][name][0] for k in range(rows)], lead + want)
                if not np.allclose(out, expect, rtol=1e-12, atol=1e-12):
                    raise DimensionMismatch(f"{name} does not broadcast: rows for leading "
                                            f"axes {lead} differ from single-point calls")


def euler_stepper(f) -> Callable:
    """Plain explicit-Euler stepper over the given dynamics callback."""
    return lambda tau, x, u, p, dtau: x + dtau * f(tau, x, u, p)


def _transposed_times(jac, vec) -> np.ndarray:
    """jac^T vec over leading axes: (..., m, n) and (..., m) -> (..., n)."""
    return (vec[..., None, :] @ jac)[..., 0, :]


def _component_major(stages) -> np.ndarray:
    """(..., n_steps, n) stage rows -> (..., n * n_steps) residual block."""
    return np.swapaxes(stages, -1, -2).reshape(stages.shape[:-2] + (-1,))


class HorizonProblem:
    """An OCP definition bound to a grid and decision layout.

    probe is a point (x, u, lam, mu, nu, p) inside the callbacks' domain;
    the constructor runs OcpDefinition.validate_at there, so callbacks that
    do not broadcast are rejected before any assembly.
    """

    def __init__(self, ocp: OcpDefinition, grid: HorizonGrid, probe):
        ocp.validate_at(grid.tau[0], *probe)
        self.ocp = ocp
        self.grid = grid
        self.layout = DecisionLayout(
            n_steps=grid.n_steps, n_u=ocp.n_u, n_mu=ocp.n_mu,
            n_nu=ocp.n_nu, n_p=ocp.n_p,
        )

    @property
    def dim(self) -> int:
        return self.layout.dim

    def trajectory(self, x0, U) -> tuple:
        """(states, costates) of U, each (..., N+1, n_x); U may be a
        (..., dim) stack.  Both recursions run in order over the stages."""
        ocp, grid, layout = self.ocp, self.grid, self.layout
        U = np.asarray(U, dtype=float)
        n = grid.n_steps
        p = layout.p(U)
        controls, mus = layout.controls(U), layout.mus(U)
        states = np.empty(U.shape[:-1] + (n + 1, ocp.n_x))
        costates = np.empty_like(states)
        states[..., 0, :] = x0
        for i in range(n):
            states[..., i + 1, :] = ocp.stepper(
                grid.tau[i], states[..., i, :], controls[..., i, :], p, grid.dtau[i])
        x_n = states[..., n, :]
        costates[..., n, :] = ocp.phi_x(x_n, p) + _transposed_times(
            ocp.psi_x(x_n, p), layout.nu(U))
        for i in range(n - 1, -1, -1):
            lam = costates[..., i + 1, :]
            hx = ocp.H_x(grid.tau[i], states[..., i, :], lam, controls[..., i, :],
                         mus[..., i, :], p)
            costates[..., i, :] = lam + hx * grid.dtau[i]
        return states, costates

    def assemble_residual(self, x0, U) -> np.ndarray:
        """Stack the optimality residual over the whole horizon.

        Row order: H_u blocks, C blocks, terminal constraint, then the
        parameter stationarity rows.  U may carry leading batch axes; the
        result then has the same leading axes.
        """
        ocp, grid, layout = self.ocp, self.grid, self.layout
        U = np.asarray(U, dtype=float)
        if U.ndim < 1 or U.shape[-1] != layout.dim:
            raise DimensionMismatch(f"U has shape {U.shape}, layout dim {layout.dim}")
        states, costates = self.trajectory(x0, U)

        n = grid.n_steps
        stage_lead = U.shape[:-1] + (n,)
        p = layout.p(U)
        x_n = states[..., n, :]
        x = states[..., :n, :]
        lam_next = costates[..., 1:, :]
        u, mu = layout.controls(U), layout.mus(U)
        p_stages = np.broadcast_to(p[..., None, :], stage_lead + (layout.n_p,))
        tau = np.broadcast_to(grid.tau[:n], stage_lead)
        dtau = grid.dtau[:, None]
        p_rows = (ocp.phi_p(x_n, p)
                  + _transposed_times(ocp.psi_p(x_n, p), layout.nu(U))
                  + grid.dtau @ ocp.H_p(tau, x, lam_next, u, mu, p_stages))
        return np.concatenate([
            _component_major(dtau * ocp.H_u(tau, x, lam_next, u, mu, p_stages)),
            _component_major(dtau * ocp.C(tau, x, u, p_stages)),
            ocp.psi(x_n, p),
            p_rows,
        ], axis=-1)
