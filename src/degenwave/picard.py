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

from .linop import Propagator, matrix_exponential
from .linwave import BOOLE_WEIGHTS, ModalTrajectory, sweep
from .mesh import (SpatialOperators, gauss_rule, hat_load_from_values,
                   values_at_gauss, whole_steps)


class PicardDivergenceError(RuntimeError):
    """Consecutive iterates moved apart; the window is too long."""


# -- forcing models ----------------------------------------------------------
#
# A model maps displacement/velocity coefficient vectors to the load vector
# (f, phi_i) of the forcing f of y' = A y + (0, f), i.e. minus the damping
# term's load; ``coefficients`` solves for f itself.

class _ForcingModel:
    # test-only: kept for perfbench/traced.py until the next benchmark change
    def coefficients(self, ops: SpatialOperators, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Forcing coefficient vector f = M^{-1} load (batched)."""
        return ops.solve_mass(self.load(ops, u, v))


def check_damping(alpha: float, m) -> None:
    """The damping alpha u^{2m} u_t dissipates for finite alpha >= 0 and
    integer m >= 1.  NaN fails the chained comparisons, so it is rejected."""
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha!r}")
    if not (1 <= m < np.inf and int(m) == m):
        raise ValueError("the exponent half m must be a positive integer, "
                         f"got {m!r}")


class _PowerDamping(_ForcingModel):
    """The power-law dampings' shared parameters: strength alpha >= 0 and
    exponent half m, a positive integer."""

    def __init__(self, alpha: float = 1.0, m: int = 1):
        check_damping(alpha, m)
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
        return -self.alpha * _nonlinear_load(ops, lambda ug, vg: _even_power(ug, self.m) * vg,
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
        return scale * _nonlinear_load(ops, lambda ug, vg: _even_power(vg, self.m) * vg,
                                       u, v, degree=2 * self.m + 2)


class LinearDamping(_ForcingModel):
    """f = -beta v: classical viscous damping (already in the FEM space)."""

    def __init__(self, beta: float):
        self.beta = float(beta)

    def load(self, ops, u, v):
        return -self.beta * ops.apply_mass(v)


def _even_power(x: np.ndarray, m: int) -> np.ndarray:
    """x^(2m) by repeated squaring: a float power costs several times as
    much per element and agrees to rounding."""
    square, out = x * x, None
    while True:
        if m & 1:
            out = square if out is None else out * square
        m >>= 1
        if not m:
            return out
        square = square * square


def _nonlinear_load(ops, pointwise, u, v, degree: int):
    """Load vector of a pointwise nonlinearity of the interpolants.

    Per-element Gauss with enough points for polynomial ``degree`` plus the
    hat factor; batched over leading axes of u, v.
    """
    npts = max(4, (degree + 2) // 2)
    xi, w = gauss_rule(npts)
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
    window: float = 1.0

    def __post_init__(self):
        if self.t_final <= 0 or self.delta <= 0 or self.epsilon <= 0 or self.window <= 0:
            raise ValueError("t_final, delta, epsilon and window must be positive")
        self.n_steps, self.window_steps   # each raises unless a whole number
        check_damping(self.alpha, self.m)

    @property
    def n_steps(self) -> int:
        return whole_steps(self.t_final, self.delta, "delta must divide t_final")

    @property
    def window_steps(self) -> int:
        return whole_steps(self.window, self.delta, "delta must divide window")

    @property
    def times(self) -> np.ndarray:
        """The run's time grid, delta times the step index."""
        return self.delta * np.arange(self.n_steps + 1)


@dataclass
class WindowReport:
    t_start: float
    iterations: int
    distance: float
    converged: bool
    distances: list = field(default_factory=list)
    modes: int = 0        # active sine modes |J| when the window was accepted
    # the certificate: the energy-norm effect of the modes off J, bound =
    # (sum of terms) / (1 - gamma), its terms the forcing's and the start
    # state's parts off J; a window solved again on all modes keeps the
    # certificate that failed, and one that ran on all modes has none (0)
    bound: float = 0.0
    terms: tuple = (0.0, 0.0)
    gamma: float = 0.0
    redone: int = 0       # times the window was solved again on more modes


@dataclass
class PicardResult:
    trajectory: ModalTrajectory
    iterations: int
    final_distance: float
    converged: bool
    windows: list


# -- the solver ---------------------------------------------------------------
#
# Picard runs on an active set J of sine modes (a Galerkin truncation in the
# eigenbasis of the finite-element system).  J starts with the modes of the
# initial state and grows whenever the forcing reaches another mode; each
# window is then certified.  The propagator is an isometry of the energy
# norm, so to first order the truncation changes the window by at most the
# start state's part off J plus the time integral of the forcing's part off
# J, amplified by 1/(1 - gamma) for a map contracting by gamma, the ratio of
# the window's last two distances.  Each window starts from the amplitudes
# on J that the previous one ended with, so the start state's part is zero
# after the first window; in the first it is that of the initial amplitudes.
# The forcing's part is bounded without the full transform: with
# r = L - (L S_J) S_J^T a load's part off J, the sum over the modes j off J
# of mu_j g_j^2 is r^T M^{-1} r <= |r|^2 / mu_min, mu_min the least mu_j off
# J, which is looser by at most sqrt(max mu / min mu) = sqrt(3).  A window
# whose bound exceeds TOL ||y0||_E, or that did not contract, is solved
# again on all modes, and J keeps every mode from then on.  Both constants
# are fixed: below DETECT = 1e-1 the detection picks up the rounding noise
# of the high modes (about 2e-14 ||y0||_E at n = 499).

TOL = 1e-13        # certified truncation error, relative to ||y0||_E
DETECT = 1e-1      # a mode joins J at DETECT * TOL ||y0||_E of reach
MAX_ITERATIONS = 50   # a window that has not converged by then is reported
_DETECT_ROWS = 9   # abscissa rows of each forcing searched for new modes


# steps per block of a window's streamed forcing (at most 129 abscissae):
# on a (501, 2n) window of states with the cubic damping, one thread on a
# Xeon with 2 MiB of L2 per core, 32 beat 4, 8, 16, 64, 128 and the whole
# window at n = 99 (5.6-6.3 ms against 8.7-9.6 ms) and tied 8-128 at n = 499
# (24-30 ms against 43-56 ms)
_LOAD_STEPS = 32


def _abscissa_loads(ops: SpatialOperators, forcing, grid: np.ndarray, nodal,
                    out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the forcing's loads at every quadrature abscissa.

    ``nodal`` maps rows of ``grid`` to the grid states (``Propagator.nodal``
    of amplitudes), ``_LOAD_STEPS`` steps at a time, and the nst + 1 states
    are interpolated linearly in time onto the 4 nst + 1 abscissae, so one
    block of states and of interpolated states exists at once; ``out`` has
    shape (4 nst + 1, n).  Every row equals that of the whole-window
    evaluation of the same states bit for bit.
    """
    r = len(BOOLE_WEIGHTS) - 1
    n = ops.mesh.n
    nst = len(grid) - 1
    for s in range(0, nst, _LOAD_STEPS):
        e = min(s + _LOAD_STEPS, nst)
        x = nodal(grid[s:e + 1])
        # the abscissae of steps s..e-1; the last block adds the window's end
        ya = np.empty((r * (e - s) + (e == nst), 2 * n))
        ya[::r] = x[:e - s + (e == nst)]
        for j in range(1, r):
            fr = j / r
            ya[j::r] = (1.0 - fr) * x[:-1] + fr * x[1:]
        out[r * s:r * s + len(ya)] = forcing.load(ops, ya[:, :n], ya[:, n:])
    return out


def _off_norms(sine: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Norm of each load row's part r = L - (L S_J) S_J^T off the modes J of
    the column block ``sine`` = S[:, J], ``_LOAD_STEPS`` steps at a time."""
    rows = (len(BOOLE_WEIGHTS) - 1) * _LOAD_STEPS
    out = np.empty(len(load))
    for a in range(0, len(load), rows):
        x = load[a:a + rows]
        out[a:a + rows] = np.linalg.norm(x - (x @ sine) @ sine.T, axis=1)
    return out


def _boole_integral(values: np.ndarray, delta: float) -> float:
    """Composite Boole integral of samples at every abscissa of the steps."""
    r = len(BOOLE_WEIGHTS) - 1
    nsteps = (len(values) - 1) // r
    return float(sum(delta * BOOLE_WEIGHTS[j] * values[j: j + r * (nsteps - 1) + 1: r].sum()
                     for j in range(r + 1)))


def _mode_energy(z: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Squared energy norm sum_j mu_j |z_j|^2 of modal amplitudes (batched)."""
    return (z.real ** 2 + z.imag ** 2) @ mu


def _non_finite(t_start: float) -> PicardDivergenceError:
    return PicardDivergenceError(
        f"non-finite iterate on window starting at t={t_start:g}; "
        "reduce the damping or the window")


class _Window:
    """One window's fixed-point iteration on the active modes J."""

    def __init__(self, ops, forcing, full: Propagator, active: np.ndarray,
                 config: PicardConfig, nst: int, t_start: float, tol: float):
        self.ops, self.forcing, self.full, self.config = ops, forcing, full, config
        self.nst, self.t_start = nst, t_start
        # a mode joins J once the forcing can move it by DETECT * tol in the window
        self.level = DETECT * tol / (nst * config.delta)
        self.active, self.prop = active, full.restrict(active)

    def _sweep(self, z0: np.ndarray, load: np.ndarray, z_prev: np.ndarray | None):
        """Widen J by the modes ``load`` reaches, then sweep from the start
        amplitudes ``z0`` (on every mode); returns the iterate's amplitudes
        and ``z_prev`` on the new J."""
        old = self.active
        if len(old) < len(self.full.omega):
            rows = np.linspace(0, len(load) - 1, _DETECT_ROWS).round().astype(int)
            g = self.full.forcing_modes(load[rows])
            if not np.isfinite(g).all():
                raise _non_finite(self.t_start)
            joins = np.sqrt(self.full.mu) * np.abs(g).max(axis=0) > self.level
            joins[old] = True
            self.active = np.flatnonzero(joins)
            if len(self.active) > len(old):
                self.prop = self.full.restrict(self.active)
                if z_prev is not None:
                    z_prev, kept = np.zeros((len(z_prev), len(self.active)), complex), z_prev
                    z_prev[:, np.searchsorted(self.active, old)] = kept
        return sweep(self.prop, z0[self.active], load), z_prev

    def solve(self, z0: np.ndarray) -> tuple:
        """Iterate from the amplitudes ``z0`` on every mode; returns the
        report, the accepted iterate's amplitudes on J and the last load."""
        ops, forcing, config = self.ops, self.forcing, self.config
        n = ops.mesh.n
        rows = (len(BOOLE_WEIGHTS) - 1) * self.nst + 1
        y = self.prop.nodal(z0[self.active])
        load = np.broadcast_to(forcing.load(ops, y[:n], y[n:]), (rows, n))
        prev, _ = self._sweep(z0, load, None)

        report = WindowReport(t_start=self.t_start, iterations=0, distance=np.inf,
                              converged=False)
        grow = 0
        buffer = np.empty((rows, n))   # every iteration's load
        for _ in range(MAX_ITERATIONS):
            load = _abscissa_loads(ops, forcing, prev, self.prop.nodal, buffer)
            cur, prev = self._sweep(z0, load, prev)
            dist = float(np.sqrt(_mode_energy(cur - prev, self.prop.mu).max()))
            if not np.isfinite(dist):
                # a non-finite forcing or iterate makes the distance non-finite
                raise _non_finite(self.t_start)
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
                    f"iterates diverge on window starting at t={self.t_start:g} "
                    f"(distance {dist:.3e}); use a shorter window")
        report.modes = len(self.active)
        return report, prev, load

    def certify(self, report: WindowReport, z0: np.ndarray, load: np.ndarray) -> None:
        """Record the energy-norm bound on what the modes off J change in the
        window, its two terms and the gamma it divides by."""
        full = self.full
        d = report.distances
        gamma = d[-1] / d[-2] if len(d) >= 2 and d[-2] > 0 else 0.0
        off = np.ones(len(full.mu), bool)
        off[self.active] = False
        terms = (_boole_integral(_off_norms(self.prop.sine, load), self.config.delta)
                 / float(np.sqrt(full.mu[off].min())),
                 float(np.sqrt(_mode_energy(z0[off], full.mu[off]))))
        if not np.isfinite(sum(terms)):
            raise _non_finite(self.t_start)
        report.terms, report.gamma = terms, float(gamma)
        report.bound = sum(terms) / (1.0 - gamma) if gamma < 1 else np.inf


# a blow-up is reported by the finiteness guard, not through overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def picard_solve(ops: SpatialOperators, y0: np.ndarray, config: PicardConfig,
                 forcing=None, z0: np.ndarray | None = None) -> PicardResult:
    """Fixed-point solve of the semilinear problem on [0, t_final].

    The first iterate of every window uses the constant-in-time forcing of
    the window's initial state; subsequent forcings come from the previous
    iterate's trajectory, interpolated linearly in time at the quadrature
    abscissae.  Iteration stops when consecutive trajectories differ by less
    than ``epsilon`` in the sup-in-time energy norm.  Three consecutive
    increases of that distance abort with a hint to shorten the window, and
    so does a non-finite distance (a non-finite forcing or iterate).

    The iterates live on the active sine modes J (see the comment above
    ``TOL``); a window is accepted once its certificate is at most
    TOL ||y0||_E, or once J holds every mode.  Each window starts from the
    amplitudes the previous one ended with.  ``z0`` gives ``y0``'s
    amplitudes on every mode (``Propagator.modal``) where they are known
    exactly, as for single-mode data; by default they are ``modal(y0)``,
    whose rounding off J counts in the first window's certificate.  The
    result's trajectory keeps each window's amplitudes on its J, not its
    nodal states (see ``ModalTrajectory``).
    """
    if forcing is None:
        forcing = DegenerateDamping(config.alpha, config.m)
    propagator = matrix_exponential(ops, config.delta)
    n = ops.mesh.n
    y0 = np.array(y0, dtype=float)
    z_start = propagator.modal(y0) if z0 is None else np.asarray(z0, dtype=complex)
    tol = TOL * float(np.sqrt(_mode_energy(z_start, propagator.mu)))
    active = np.flatnonzero(np.sqrt(propagator.mu) * np.abs(z_start) > DETECT * tol)

    segments = []
    windows: list[WindowReport] = []
    total_iters = 0
    done = 0
    while done < config.n_steps:
        nst = min(config.window_steps, config.n_steps - done)
        t_start = done * config.delta
        redone, failed = 0, None   # failed: the report of the attempt redone
        while True:
            window = _Window(ops, forcing, propagator, active, config, nst,
                             t_start, tol)
            report, z, load = window.solve(z_start)
            active = window.active
            if len(active) < n:
                window.certify(report, z_start, load)
            # free this attempt's loads before the next allocates
            del load
            if len(active) == n or report.bound <= tol:
                break
            active = np.arange(n)
            redone, failed = redone + 1, report
        report.redone = redone
        if failed is not None:
            report.bound, report.terms, report.gamma = (failed.bound, failed.terms,
                                                         failed.gamma)
        total_iters += report.iterations
        windows.append(report)
        segments.append((active, z))
        z_start = np.zeros(n, complex)
        z_start[active] = z[-1]
        done += nst

    traj = ModalTrajectory(times=config.times, y0=y0,
                           segments=segments, propagator=propagator)
    return PicardResult(trajectory=traj,
                        iterations=total_iters,
                        final_distance=windows[-1].distance,
                        converged=all(w.converged for w in windows),
                        windows=windows)
