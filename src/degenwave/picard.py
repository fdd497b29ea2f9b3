"""Successive approximations for the semilinear string.

Each iterate solves a linear inhomogeneous problem whose forcing comes from
the previous iterate: y' = A y + (0, f) with f the L^2-projected nonlinear
term, handed to the sweep as its load vector M f.  The loop runs window by
window so the fixed-point map stays firmly contractive, restarting from each
window's endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linop import Propagator, energy_norm, matrix_exponential
from .linwave import BOOLE_WEIGHTS, Trajectory, sweep
from .mesh import SpatialOperators, hat_load_from_values, values_at_gauss


class PicardDivergenceError(RuntimeError):
    """Consecutive iterates moved apart; the window is too long."""


# -- forcing models ----------------------------------------------------------
#
# A model maps displacement/velocity coefficient vectors to the load vector
# (f, phi_i) of the forcing f of y' = A y + (0, f), i.e. minus the damping
# term's load; ``coefficients`` solves for f itself.

class _ForcingModel:
    def coefficients(self, ops: SpatialOperators, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Forcing coefficient vector f = M^{-1} load (batched)."""
        return ops.solve_mass(self.load(ops, u, v))


class _PowerDamping(_ForcingModel):
    """The power-law dampings' shared parameters: strength alpha >= 0 and
    exponent half m, a positive integer."""

    def __init__(self, alpha: float = 1.0, m: int = 1):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if m < 1 or int(m) != m:
            raise ValueError("the exponent half m must be a positive integer")
        self.alpha = float(alpha)
        self.m = int(m)


class DegenerateDamping(_PowerDamping):
    """f = -proj(alpha u^{2m} v): damping that switches off at zero displacement."""

    def load(self, ops: SpatialOperators, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.alpha == 0.0:
            return np.zeros_like(u)
        if self.m == 1:
            # cubic case: the quartic hat tensor integrates u*u*v exactly
            return -self.alpha * ops.quartic.contract(u, u, v)
        return -self.alpha * _nonlinear_load(ops, lambda ug, vg: ug ** (2 * self.m) * vg,
                                             u, v, degree=2 * self.m + 2)


class PrimitiveDamping(_PowerDamping):
    """f = -proj(alpha v^{2m+1}/(2m+1)): the monotone antiderivative damping.

    Acting on the velocity alone, this is the damping of the problem whose
    time derivative solves the degenerately damped equation.
    """

    def antiderivative(self, s):
        return self.alpha * s ** (2 * self.m + 1) / (2 * self.m + 1)

    def load(self, ops: SpatialOperators, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.alpha == 0.0:
            return np.zeros_like(v)
        scale = -self.alpha / (2 * self.m + 1)
        if self.m == 1:
            return scale * ops.quartic.contract(v, v, v)
        return scale * _nonlinear_load(ops, lambda ug, vg: vg ** (2 * self.m + 1),
                                       u, v, degree=2 * self.m + 2)


class LinearDamping(_ForcingModel):
    """f = -beta v: classical viscous damping (already in the FEM space)."""

    def __init__(self, beta: float):
        self.beta = float(beta)

    def load(self, ops, u, v):
        return -self.beta * ops.apply_mass(v)


def _nonlinear_load(ops, pointwise, u, v, degree: int):
    """Load vector of a pointwise nonlinearity of the interpolants.

    Per-element Gauss with enough points for polynomial ``degree`` plus the
    hat factor; batched over leading axes of u, v.
    """
    npts = max(4, (degree + 2) // 2)
    _, xi, w = ops.mesh.element_gauss(npts)
    ug = values_at_gauss(ops.mesh, u, xi)
    vg = values_at_gauss(ops.mesh, v, xi)
    return hat_load_from_values(ops.mesh, pointwise(ug, vg), xi, w)


# -- configuration and results ------------------------------------------------

@dataclass(frozen=True)
class PicardConfig:
    t_final: float
    delta: float
    alpha: float = 1.0
    m: int = 1
    epsilon: float = 1e-8
    max_iterations: int = 50
    window: float = 1.0

    def __post_init__(self):
        if self.t_final <= 0 or self.delta <= 0 or self.epsilon <= 0 or self.window <= 0:
            raise ValueError("t_final, delta, epsilon and window must be positive")
        nsteps = round(self.t_final / self.delta)
        if nsteps < 1 or abs(nsteps * self.delta - self.t_final) > 1e-9:
            raise ValueError("delta must divide t_final")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.m < 1 or int(self.m) != self.m:
            raise ValueError("m must be a positive integer")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.delta))

    @property
    def window_steps(self) -> int:
        return max(1, int(round(self.window / self.delta)))


@dataclass
class WindowReport:
    t_start: float
    iterations: int
    distance: float
    converged: bool
    distances: list = field(default_factory=list)


@dataclass
class PicardResult:
    trajectory: Trajectory
    iterations: int
    final_distance: float
    converged: bool
    windows: list


# -- the solver ---------------------------------------------------------------

def _interp_abscissae(x: np.ndarray) -> np.ndarray:
    """Linear-in-time interpolation of grid samples onto the quadrature abscissae."""
    r = len(BOOLE_WEIGHTS) - 1
    nsteps = x.shape[0] - 1
    out = np.empty((r * nsteps + 1,) + x.shape[1:])
    out[::r] = x
    for j in range(1, r):
        fr = j / r
        out[j::r] = (1.0 - fr) * x[:-1] + fr * x[1:]
    return out


# a blow-up is reported by the finiteness guard, not through overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def picard_solve(ops: SpatialOperators, y0: np.ndarray, config: PicardConfig,
                 forcing=None, propagator: Propagator | None = None) -> PicardResult:
    """Fixed-point solve of the semilinear problem on [0, t_final].

    The first iterate of every window uses the constant-in-time forcing of
    the window's initial state; subsequent forcings come from the previous
    iterate's trajectory, interpolated linearly in time at the quadrature
    abscissae.  Iteration stops when consecutive trajectories differ by less
    than ``epsilon`` in the sup-in-time energy norm.  Three consecutive
    increases of that distance abort with a hint to shorten the window, and
    so does a non-finite distance (a non-finite forcing or iterate).
    """
    if forcing is None:
        forcing = DegenerateDamping(config.alpha, config.m)
    if propagator is None:
        propagator = matrix_exponential(ops, config.delta)
    n = ops.mesh.n

    chunks = [y0[None, :]]
    y = np.asarray(y0, dtype=float)
    windows: list[WindowReport] = []
    total_iters = 0
    done = 0
    while done < config.n_steps:
        nst = min(config.window_steps, config.n_steps - done)
        t_start = done * config.delta
        f0 = forcing.load(ops, y[:n], y[n:])
        f_absc = np.broadcast_to(f0, ((len(BOOLE_WEIGHTS) - 1) * nst + 1, n))
        prev = sweep(propagator, y, f_absc)

        report = WindowReport(t_start=t_start, iterations=0, distance=np.inf,
                              converged=False)
        grow = 0
        for _ in range(config.max_iterations):
            ua = _interp_abscissae(prev[:, :n])
            va = _interp_abscissae(prev[:, n:])
            f_absc = forcing.load(ops, ua, va)
            cur = sweep(propagator, y, f_absc)
            dist = float(energy_norm(ops, cur - prev).max())
            if not np.isfinite(dist):
                # a non-finite forcing or iterate makes the distance non-finite
                raise PicardDivergenceError(
                    f"non-finite iterate on window starting at t={t_start:g}; "
                    "reduce the damping or the window")
            report.iterations += 1
            report.distances.append(dist)
            grow = grow + 1 if dist > report.distance else 0
            report.distance = dist
            prev = cur
            if dist < config.epsilon:
                report.converged = True
                break
            if grow >= 3:
                raise PicardDivergenceError(
                    f"iterates diverge on window starting at t={t_start:g} "
                    f"(distance {dist:.3e}); use a shorter window")

        total_iters += report.iterations
        windows.append(report)
        chunks.append(prev[1:])
        y = prev[-1]
        done += nst

    states = np.concatenate(chunks, axis=0)
    times = config.delta * np.arange(config.n_steps + 1)
    traj = Trajectory(times=times, states=states, delta=config.delta)
    return PicardResult(trajectory=traj,
                        iterations=total_iters,
                        final_distance=windows[-1].distance,
                        converged=all(w.converged for w in windows),
                        windows=windows)


# -- a priori contraction bound ------------------------------------------------

def estimate_contraction(radius: float, t_window: float, alpha: float, m: int) -> float:
    """Upper bound on the Lipschitz constant of the fixed-point map.

    On the energy-space ball of radius R the damping difference factors as
    f(s) - f(r) = M(s, r)(s - r) with |M| <= 2 m alpha (R/2)^{2m-1}, using the
    one-dimensional embedding sup|w| <= |w'|_{L^2}/2 for the displacement.
    Stacking the two components gives

        gamma = t_window * alpha * (R/2)^{2m-1} * R * sqrt(m^2 + 1/4).

    A value below one certifies convergence on the window and turns a
    consecutive-iterate distance eps into the absolute error bound
    eps*gamma/(1-gamma); at or above one the bound is only a heuristic.
    """
    if radius < 0 or t_window < 0:
        raise ValueError("radius and window length must be nonnegative")
    return (t_window * alpha * (0.5 * radius) ** (2 * m - 1)
            * radius * np.sqrt(m**2 + 0.25))
