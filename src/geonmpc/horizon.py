"""Discretized finite-horizon optimal control problems.

A problem is defined by four autonomous callbacks (the stepper, the
costate drift H_x, a stage callback that returns the next state and every
partial of the Hamiltonian H at a stage, and the partials of the terminal
Lagrangian Phi), by the number N of equal steps dtau = 1/N of the
normalized horizon [0, 1], and by a decision-vector layout.  Every
optimality row is one of these partials, the constraint rows included:
C = dH/dmu and psi = dPhi/dnu.  No callback takes a time argument: with a
free horizon length the normalized time is not physical time.  The
residual stacks the optimality conditions into one vector F whose zero is
the discrete first-order optimum, in one of two transcriptions:

* lifted (multiple shooting): the states x_1..x_N and the costates
  lam_1..lam_N are unknowns beside the controls and multipliers, and
  defect rows tie consecutive stages together.  One stage call on whole
  stage stacks and one Phi_grad call give every row, with no stage loop;
* condensed (single shooting): the decision vector holds the controls and
  multipliers only.  The forward recursion with the caller's
  structure-preserving stepper gives the states and the backward one the
  costates, and the rows are the lifted ones read there, without the
  defect rows, which the recursions make zero.  For a single decision
  vector they run on lists of Python floats, and the backward one calls
  stage once per stage: its H_x part steps the costate and its other
  parts are that stage's rows.  For a stack, and in lift, they run on
  stage views, the backward one with H_x, and one stage call on the stage
  stacks gives a stack's rows.

Decision vector layout (stage-major inside each block):

    [ u_0^(0)..u_0^(n_u-1), u_1^(0).., ... | mu_0^(0).., mu_1^(0).., ... | nu | p ]

followed, in the lifted vector, by

    [ x_1^(0)..x_1^(n_x-1), x_2^(0).., ... | lam_1^(0).., lam_2^(0).., ... ]

Residual rows use the same layout, so Jacobian blocks of F line up with
the corresponding unknown blocks: the state-defect rows sit in the state
block, block lower-bidiagonal, and the costate-defect rows in the costate
block, block upper-bidiagonal.  A (B, length) stack of decision vectors
gives the (B, length) stack of their residuals from one assembly.
"""

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, GeonmpcError
from .linalg import as_vector


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
    n_x: int  # width of the lifted state and costate blocks

    @property
    def dim(self) -> int:
        """Length of the condensed vector: controls, multipliers, nu, p."""
        return self.n_steps * (self.n_u + self.n_mu) + self.n_nu + self.n_p

    @property
    def lifted_dim(self) -> int:
        """Length of the lifted vector: dim, then the states and costates."""
        return self.dim + 2 * self.n_steps * self.n_x

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

    def states(self, vec: np.ndarray) -> np.ndarray:
        """States x_1..x_N of a lifted vector as a (..., n_steps, n_x) view."""
        return self._stages(vec, self.dim, self.n_x)

    def costates(self, vec: np.ndarray) -> np.ndarray:
        """Costates lam_1..lam_N of a lifted vector as a (..., n_steps, n_x) view."""
        return self._stages(vec, self.dim + self.n_steps * self.n_x, self.n_x)

    # Component j of stage i lives at offset + i*width + j: a plain reshape.
    def _stages(self, vec: np.ndarray, offset: int, width: int) -> np.ndarray:
        block = vec[..., offset : offset + width * self.n_steps]
        return block.reshape(vec.shape[:-1] + (self.n_steps, width))

    def nu(self, vec: np.ndarray) -> np.ndarray:
        return vec[..., self.nu_offset : self.p_offset]

    def p(self, vec: np.ndarray) -> np.ndarray:
        return vec[..., self.p_offset : self.dim]


# validate_at probes six single points, then a stage stack and a batch of
# stage stacks of them; point k, and row k of a stack, is the probe point
# + k * PROBE_SHIFT.  The dtau of the stepper and of stage is PROBE_DTAU, a
# Python float on points and stacks alike, as every residual passes it.
PROBE_LEADS = ((3,), (2, 3))
PROBE_SHIFT = 1e-6
PROBE_DTAU = 1e-3


@dataclass(frozen=True)
class OcpDefinition:
    """Problem callbacks.  All maps must be pure.

    Callbacks take arrays whose last axis is the component and broadcast
    over any leading stage or batch axes: all array arguments of one call
    share those axes, and each output carries them in front of the shapes
    below.  The condensed recursions call their callbacks one stage at a
    time.  On a single decision vector they pass stepper and stage one
    point as lists of Python floats, and these then return lists: stepper
    a list of n_x floats, which the recursions feed back in as the next x,
    and stage a tuple of five lists, whose H_x part steps the costate and
    whose other parts are that stage's rows.  On a stack of decision
    vectors, and in lift, they pass stepper and H_x (..., n) stage slices,
    with no leading axes for a single vector; H_x never receives lists.
    So a single residual steps its costates with stage's part 1, and a
    stack or lift with H_x: a single residual equals its row of a stack
    bit for bit only where those two agree bit for bit, not merely to
    validate_at's tolerance.  Every other call, and every call of the
    lifted residual, sees whole (..., n_steps, n) stage stacks.  dtau is
    always one Python float: the uniform step 1/n_steps in a residual,
    PROBE_DTAU in validate_at.

    Every optimality row is a partial of the Hamiltonian
    H = L + lam . f + mu . C or of the terminal Lagrangian
    Phi = phi + nu . psi, with L the running cost, f the dynamics the
    stepper integrates, C the stage constraint, phi the terminal cost and
    psi the terminal constraint.  stage returns everything a residual
    reads at a stage, (x_next, H_x, H_u, H_mu = C, H_p), so that shared
    terms are computed once per call; Phi_grad returns (Phi_x,
    Phi_nu = psi, Phi_p), where lam_N = Phi_x and Phi_p opens the
    parameter row.  So L, phi, C, psi and psi's Jacobian are not callbacks
    of their own.  stepper stays apart for the forward recursion, which has
    no costate to pass stage yet, and H_x for a stack's backward one, where
    a stage call per stage slice would compute the other parts for nothing;
    parts 0 and 1 of stage must equal them.  The costate recursion
    deliberately uses H_x in place of the stepper's own state sensitivity.

    The solver floors the parameter block p at solver.P_MIN, so p should be
    a quantity that stays positive, such as a free horizon length.
    """

    n_x: int
    n_u: int
    n_mu: int
    n_nu: int
    n_p: int
    stepper: Callable      # (x, u, p, dtau) -> next x; lists in, list out on a
                           # residual's point
    H_x: Callable          # (x, lam, u, mu, p) -> (n_x,); arrays only
    stage: Callable        # (x, lam, u, mu, p, dtau) -> (x_next, H_x, H_u, H_mu, H_p);
                           # lists in, five lists out on a residual's point
    Phi_grad: Callable     # (x_N, nu, p) -> ((n_x,), (n_nu,), (n_p,))

    def _probe(self, lead, x, u, lam, mu, nu, p) -> dict:
        """label -> output of every callback at one input with leading axes
        lead; part j of a fused callback is labelled "{name} part {j}".

        Raise DimensionMismatch naming a callback that fails with a shape,
        type or attribute error or returns the wrong number of parts, or a
        part whose shape is not lead + its component shape.
        """
        # the condensed recursions pass stepper and stage a single point as lists
        px, pu, plam, pmu, pp = (v if lead else v.tolist() for v in (x, u, lam, mu, p))
        calls = {
            "stepper": (lambda: (self.stepper(px, pu, pp, PROBE_DTAU),), [(self.n_x,)]),
            "H_x": (lambda: (self.H_x(x, lam, u, mu, p),), [(self.n_x,)]),
            "stage": (lambda: self.stage(px, plam, pu, pmu, pp, PROBE_DTAU),
                      [(self.n_x,), (self.n_x,), (self.n_u,), (self.n_mu,), (self.n_p,)]),
            "Phi_grad": (lambda: self.Phi_grad(x, nu, p),
                         [(self.n_x,), (self.n_nu,), (self.n_p,)]),
        }
        probed = {}
        for name, (call, wants) in calls.items():
            try:
                parts = tuple(call())
            except (TypeError, ValueError, IndexError, AttributeError) as exc:
                raise DimensionMismatch(f"{name} failed for leading axes {lead}: "
                                        f"{type(exc).__name__}: {exc}") from exc
            if len(parts) != len(wants):
                raise DimensionMismatch(f"{name} returned {len(parts)} parts, "
                                        f"expected {len(wants)}")
            for j, (part, want) in enumerate(zip(parts, wants)):
                label = name if len(wants) == 1 else f"{name} part {j}"
                if np.shape(part) != lead + want:
                    raise DimensionMismatch(f"{label} returned shape {np.shape(part)} "
                                            f"for leading axes {lead}, expected {lead + want}")
                probed[label] = part
        return probed

    def validate_at(self, x, u, lam, mu, nu, p) -> None:
        """Probe every callback at single points (lists for stepper and
        stage, as the condensed recursions pass them) and on stacks of them.

        Raise DimensionMismatch naming a callback that fails, returns the
        wrong number of parts or a part of the wrong shape, or returns stack
        rows that differ from its single-point calls, and naming the part of
        stage whose x_next or H_x differs from the stepper's or H_x's at the
        same input.  Raise GeonmpcError naming a callback or part that
        returns NaN or inf at a single point.
        """
        point = [as_vector(v) for v in (x, u, lam, mu, nu, p)]
        singles = [self._probe((), *(v + PROBE_SHIFT * k for v in point))
                   for k in range(int(np.prod(PROBE_LEADS[-1])))]
        # label -> the single-point outputs, stacked along a new first axis
        rows = {name: np.array([single[name] for single in singles]) for name in singles[0]}
        for name, stacked in rows.items():
            if not np.isfinite(stacked).all():
                raise GeonmpcError(f"{name} returned NaN or inf at the probe point")
        for lead in PROBE_LEADS:
            size = int(np.prod(lead))
            shift = PROBE_SHIFT * np.arange(size).reshape(lead + (1,))
            outputs = self._probe(lead, *(v + shift for v in point))
            # one comparison per stack: every part's (size, -1) rows side by side
            got = [np.reshape(outputs[name], (size, -1)) for name in rows]
            want = [rows[name][:size].reshape(size, -1) for name in rows]
            if not np.allclose(np.hstack(got), np.hstack(want), rtol=1e-12, atol=1e-12):
                name = next(name for name, a, b in zip(rows, got, want)
                            if not np.allclose(a, b, rtol=1e-12, atol=1e-12))
                raise DimensionMismatch(f"{name} does not broadcast: rows for leading "
                                        f"axes {lead} differ from single-point calls")
        # at the single points: stepper and stage as the condensed recursions
        # call them, H_x as arrays
        for j, name in enumerate(("stepper", "H_x")):
            if not np.allclose(rows[f"stage part {j}"], rows[name], rtol=1e-12, atol=1e-12):
                raise DimensionMismatch(f"stage part {j} differs from {name} "
                                        f"at the same input")


class HorizonProblem:
    """An OCP definition bound to a uniform grid and a decision layout.

    The normalized horizon [0, 1] has n_steps equal steps, an integer >= 1;
    dtau = 1 / n_steps is the Python float every callback call receives,
    so p is the physical horizon length.  probe is a point
    (x, u, lam, mu, nu, p) inside the callbacks' domain; the constructor
    runs OcpDefinition.validate_at there, so callbacks that do not
    broadcast are rejected before any assembly.
    """

    def __init__(self, ocp: OcpDefinition, n_steps, probe):
        try:
            n = operator.index(n_steps)  # an int or a numpy integer
        except TypeError:
            n = 0  # not an integer: rejected with the counts below 1
        if n < 1:
            raise DimensionMismatch(f"n_steps must be an integer >= 1, got {n_steps!r}")
        ocp.validate_at(*probe)
        self.ocp = ocp
        self.dtau = 1.0 / n
        self.layout = DecisionLayout(
            n_steps=n, n_u=ocp.n_u, n_mu=ocp.n_mu,
            n_nu=ocp.n_nu, n_p=ocp.n_p, n_x=ocp.n_x,
        )

    def lift(self, x0, U) -> np.ndarray:
        """The lifted vector of a condensed U, which may be a (..., dim)
        stack: U, then the states x_1..x_N and costates lam_1..lam_N that
        the forward stepper and backward H_x recursions on its stage views
        give."""
        U = np.asarray(U, dtype=float)
        if U.ndim < 1 or U.shape[-1] != self.layout.dim:
            raise DimensionMismatch(f"U has shape {U.shape}, layout dim {self.layout.dim}")
        return self._lift_stack(x0, U)[0]

    def _sweep(self, x0, U) -> np.ndarray:
        """The residual of a single float condensed U, from the recursions
        on lists of Python floats, converted from U once.  The forward pass
        calls stepper once per stage.  The backward pass calls stage once
        per stage, i = N-1 down to 0, at (x_i, lam_{i+1}, u_i, mu_i): its
        H_x part steps the costate to lam_i, and its H_u, H_mu and H_p parts
        are the stage's rows, so the residual needs no lifted vector and no
        stage-stack call.  No row reads lam_0, so stage 0's H_x part goes
        unused."""
        ocp, layout = self.ocp, self.layout
        n, dtau = layout.n_steps, self.dtau
        values = U.tolist()
        p = values[layout.p_offset:]

        def stages(offset, width):  # stage i's slice of a block, as layout._stages cuts it
            return [values[offset + i * width : offset + (i + 1) * width] for i in range(n)]

        controls, mus = stages(0, layout.n_u), stages(layout.mu_offset, layout.n_mu)
        x = np.empty(ocp.n_x)
        x[...] = x0
        states = [x.tolist()]
        for u in controls:
            states.append(ocp.stepper(states[-1], u, p, dtau))
        Phi_x, psi, Phi_p = ocp.Phi_grad(np.array(states[-1]), layout.nu(U), layout.p(U))
        lam = np.asarray(Phi_x, dtype=float).tolist()
        parts = []  # stage N-1 first; reversed below
        for i in range(n - 1, -1, -1):
            parts.append(ocp.stage(states[i], lam, controls[i], mus[i], p, dtau))
            lam = [l + h * dtau for l, h in zip(lam, parts[-1][1])]
        parts.reverse()
        # the rows a stage-stack call gives, stage-major, and its numpy sum
        # of H_p over the stages
        rows = [dtau * h for part in parts for h in part[2]]
        rows += [dtau * h for part in parts for h in part[3]]
        H_p = np.array([h for part in parts for h in part[4]]).reshape(n, -1)
        return np.concatenate((rows, psi, Phi_p + dtau * H_p.sum(axis=0)))

    def _lift_stack(self, x0, U) -> tuple:
        """(lifted stack, Phi_grad at x_N) of a float (..., dim) stack, from
        the recursions on stage views of U: the forward one with stepper,
        the backward one with H_x, stopping at lam_1, since no row reads
        lam_0.  Every block is stage-major, so the steps' results are the
        lifted blocks in order."""
        ocp, layout = self.ocp, self.layout
        n, lead = layout.n_steps, U.shape[:-1]
        k = len(lead)
        p, dtau = layout.p(U), self.dtau
        # stage views, time first: controls[i] is stage i's (..., n_u) slice
        to_stage_major = (k,) + tuple(range(k)) + (k + 1,)
        controls = list(layout.controls(U).transpose(to_stage_major))
        mus = list(layout.mus(U).transpose(to_stage_major))
        x = np.empty(lead + (ocp.n_x,))
        x[...] = x0
        states = [x]
        for u in controls:
            x = ocp.stepper(x, u, p, dtau)
            states.append(x)
        terminal = ocp.Phi_grad(x, layout.nu(U), p)
        lam = terminal[0]
        costates = [lam]  # lam_N first; reversed below, so costates[i] is lam_{i+1}
        for i in range(n - 1, 0, -1):
            lam = lam + ocp.H_x(states[i], lam, controls[i], mus[i], p) * dtau
            costates.append(lam)
        costates.reverse()
        return np.concatenate([U, *states[1:], *costates], axis=-1), terminal

    def assemble_residual(self, x0, U) -> np.ndarray:
        """Stack the optimality residual over the whole horizon.

        A lifted U (length lifted_dim) gives, at the states and costates
        it carries, the H_u blocks, the H_mu = C blocks, Phi_nu = psi, the
        parameter stationarity rows Phi_p + dtau sum H_p, and then the
        state defects x_{i+1} - stepper(x_i, u_i, p, dtau) and the costate
        defects lam_i - lam_{i+1} - dtau H_x(x_i, lam_{i+1}, u_i, mu_i, p)
        for i < N and lam_N - Phi_x.  A condensed U (length dim) gives the
        same rows read at lift(x0, U) without the defect rows, which are
        zero there by construction; its terminal rows reuse the Phi_grad
        call that gave lam_N.  A single condensed U takes them from the
        backward pass of its float recursions (_sweep), one stage call per
        stage.  U may carry leading batch axes; the result then has the
        same leading axes.  A stack, or a lifted U, makes one stage call on
        whole stage stacks.
        """
        ocp, layout = self.ocp, self.layout
        U = np.asarray(U, dtype=float)
        lead, n = U.shape[:-1], layout.n_steps
        length = U.shape[-1] if U.ndim else None
        lifted = length == layout.lifted_dim
        if length == layout.dim and not lead:
            return self._sweep(x0, U)
        if length == layout.dim:
            U, terminal = self._lift_stack(x0, U)
        elif not lifted:
            raise DimensionMismatch(f"U has shape {U.shape}, layout dim "
                                    f"{layout.dim} or lifted dim {layout.lifted_dim}")
        p, nu, lam = layout.p(U), layout.nu(U), layout.costates(U)
        states = np.empty(lead + (n + 1, ocp.n_x))
        states[..., 0, :] = x0
        states[..., 1:, :] = layout.states(U)
        x, x_n = states[..., :n, :], states[..., n, :]
        p_stages = np.empty(lead + (n, layout.n_p))
        p_stages[...] = p[..., None, :]
        dtau = self.dtau
        x_next, hx, H_u, H_mu, H_p = ocp.stage(
            x, lam, layout.controls(U), layout.mus(U), p_stages, dtau)
        if lifted:
            terminal = ocp.Phi_grad(x_n, nu, p)
        Phi_x, psi, Phi_p = terminal
        rows = [
            (dtau * H_u).reshape(lead + (-1,)),
            (dtau * H_mu).reshape(lead + (-1,)),
            psi,
            Phi_p + dtau * H_p.sum(axis=-2),
        ]
        if lifted:  # the defect rows follow
            lam_target = np.empty(lam.shape)
            lam_target[..., :-1, :] = lam[..., 1:, :] + hx[..., 1:, :] * dtau
            lam_target[..., -1, :] = Phi_x
            rows += [(states[..., 1:, :] - x_next).reshape(lead + (-1,)),
                     (lam - lam_target).reshape(lead + (-1,))]
        return np.concatenate(rows, axis=-1)
