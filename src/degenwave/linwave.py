"""Linear wave solvers.

Three independent routes to the linear string are collected here: the exact
per-mode rotation group, a variation-of-parameters integrator whose Duhamel
integral is discretized by a closed Newton-Cotes rule and evaluated as
rotations of the discrete sine modes, and the closed-form single-mode
solution with viscous damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import Propagator, matrix_exponential
from .mesh import Mesh, SpatialOperators

# closed Newton-Cotes rules on [0, 1]: point count and weights (sum to 1)
NEWTON_COTES_RULES = {
    "boole": (5, np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0),
    "simpson38": (4, np.array([1.0, 3.0, 3.0, 1.0]) / 8.0),
}


def newton_cotes_weights(rule: str, step: float) -> np.ndarray:
    """Quadrature weights for one sub-interval of length ``step``."""
    try:
        _, w = NEWTON_COTES_RULES[rule]
    except KeyError:
        raise ValueError(f"unknown rule {rule!r}; choose from {sorted(NEWTON_COTES_RULES)}")
    return step * w


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled states (rows) of the first-order system."""

    times: np.ndarray
    states: np.ndarray
    delta: float

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times/states length mismatch")

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1] // 2

    def displacement(self) -> np.ndarray:
        return self.states[:, : self.n_nodes]

    def velocity(self) -> np.ndarray:
        return self.states[:, self.n_nodes:]

    def index_of(self, t: float) -> int:
        i = int(round((t - self.times[0]) / self.delta))
        if i < 0 or i >= len(self.times) or abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the trajectory grid")
        return i


# -- exact modal group -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModalState:
    """Finite sine-mode expansion u = sum a_k E_k, v = sum b_k E_k."""

    ks: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=int)
        if len(np.unique(ks)) != len(ks) or (ks < 1).any():
            raise ValueError("mode indices must be distinct and >= 1")

    def mode_energy(self) -> np.ndarray:
        lam = (np.asarray(self.ks) * np.pi) ** 2
        return 0.5 * lam * self.a**2 + 0.5 * self.b**2


def exact_group(modal: ModalState, t: float) -> ModalState:
    """Advance the modal state by the exact rotation of each mode.

    a_k(t) = cos(w t) a_k + sin(w t)/w b_k and
    b_k(t) = -w sin(w t) a_k + cos(w t) b_k with w = k pi.
    """
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    w = np.asarray(modal.ks) * np.pi
    c, s = np.cos(w * t), np.sin(w * t)
    return ModalState(
        ks=modal.ks,
        a=c * modal.a + s / w * modal.b,
        b=-w * s * modal.a + c * modal.b,
    )


def modal_nodal_state(modal: ModalState, mesh: Mesh) -> np.ndarray:
    """Sample a modal state at the mesh nodes as a stacked (u, v) vector."""
    basis = np.sqrt(2.0) * np.sin(np.pi * np.outer(modal.ks, mesh.nodes))
    return np.concatenate([modal.a @ basis, modal.b @ basis])


# -- Duhamel stepping --------------------------------------------------------

def sweep(prop: Propagator, y0: np.ndarray, f_absc: np.ndarray,
          rule: str = "boole") -> np.ndarray:
    """Repeated Duhamel steps with pre-tabulated forcing.

    Step i applies y_{i+1} = P y_i + sum_j w_j exp((step - j theta) A) (0, f_ij)
    with the forcing f_ij sampled at the rule's equally spaced abscissae.
    ``f_absc`` holds the second-block forcing at every abscissa of the run,
    shape ((points-1)*nsteps + 1, n); consecutive steps share their endpoint
    sample.  Returns the (nsteps+1, 2n) array of states including y0.

    In the modal amplitudes z of ``Propagator.modal`` the forcing enters as
    z' = -i omega z + i S f, so with P_i = exp(-i omega i step) the states are
    z_i = P_i (z_0 + sum_{l<i} conj(P_{l+1}) c_l), where c_l is the step's
    weighted, phase-shifted forcing sum: one cumulative sum over the steps.
    """
    m, _ = NEWTON_COTES_RULES[rule]
    if prop.points != m:
        raise ValueError(f"propagator caches {prop.points} powers, rule needs {m}")
    r = m - 1
    nsteps = (f_absc.shape[0] - 1) // r
    if f_absc.shape[0] != r * nsteps + 1:
        raise ValueError("forcing sample count does not tile the steps")
    w = newton_cotes_weights(rule, prop.step)
    g = f_absc @ prop.sine
    c = sum(1j * w[j] * prop.powers[r - j] * g[j: j + r * (nsteps - 1) + 1: r]
            for j in range(m))
    phase = np.exp(-1j * np.outer(prop.step * np.arange(nsteps + 1), prop.omega))
    z = np.empty_like(phase)
    z[0] = prop.modal(y0)
    z[1:] = z[0] + np.cumsum(phase[1:].conj() * c, axis=0)
    states = prop.nodal(phase * z)
    states[0] = y0
    return states


def solve_linear_inhomogeneous(ops: SpatialOperators, y0: np.ndarray, forcing,
                               t_final: float, delta: float, rule: str = "boole",
                               propagator: Propagator | None = None,
                               t0: float = 0.0) -> Trajectory:
    """Integrate y' = A y + (0, f(t)) over [t0, t_final] on a uniform grid.

    ``forcing`` is a callable mapping an array of times to the (len, n) array
    of forcing coefficient vectors; it is evaluated directly at the
    quadrature abscissae.  The homogeneous part is advanced by the exact
    per-mode rotations of the propagator.
    """
    nsteps = int(round((t_final - t0) / delta))
    if nsteps < 1 or abs(t0 + nsteps * delta - t_final) > 1e-9:
        raise ValueError("the step must tile the interval")
    m, _ = NEWTON_COTES_RULES[rule]
    if propagator is None:
        propagator = matrix_exponential(ops, delta, points=m)
    absc = t0 + propagator.theta * np.arange((m - 1) * nsteps + 1)
    f_absc = np.asarray(forcing(absc), dtype=float)
    states = sweep(propagator, y0, f_absc, rule=rule)
    times = t0 + delta * np.arange(nsteps + 1)
    return Trajectory(times=times, states=states, delta=delta)


# -- closed-form single-mode solution with viscous damping -------------------

def analytic_linear_damped(beta: float, k: int, c0: float, t: float,
                           x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution of w_tt - w_xx + beta w_t = 0 for single-mode data.

    Initial data w(0) = c0 sin(k pi x), w_t(0) = 0; requires the underdamped
    regime beta < 2 k pi.  Returns (w(t, x), w_t(t, x)).
    """
    lam = (k * np.pi) ** 2
    if not 0.0 < beta < 2.0 * np.sqrt(lam):
        raise ValueError("damping must satisfy 0 < beta < 2 k pi (underdamped)")
    w = np.sqrt(lam - beta**2 / 4.0)
    decay = np.exp(-0.5 * beta * t)
    shape = np.sin(k * np.pi * np.asarray(x))
    u = c0 * decay * (np.cos(w * t) + beta / (2.0 * w) * np.sin(w * t)) * shape
    v = -c0 * decay * (lam / w) * np.sin(w * t) * shape
    return u, v
