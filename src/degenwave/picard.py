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
from .mesh import SpatialOperators, power_load, whole_steps


class PicardDivergenceError(RuntimeError):
    """Consecutive iterates moved apart; the window is too long."""


# -- forcing models ----------------------------------------------------------
#
# A model's ``load(ops, u, v, out=None)`` maps displacement/velocity
# coefficient vectors to the load vector (f, phi_i) of the forcing f of
# y' = A y + (0, f), minus the damping term's load, written into ``out``
# when given; ``coefficients`` solves for f itself.  ``terms`` counts the
# factors u or v of the load's polynomial, which bound the modes it reaches.

class _ForcingModel:
    # test-only: kept for perfbench/traced.py until the next benchmark change
    def coefficients(self, ops: SpatialOperators, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Forcing coefficient vector f = M^{-1} load (batched)."""
        return ops.solve_mass(self.load(ops, u, v))


def is_bool(value) -> bool:
    """Python's or NumPy's boolean, which arithmetic takes for 1 or 0."""
    return isinstance(value, (bool, np.bool_))


def check_damping(alpha: float, m) -> None:
    """The damping alpha u^{2m} u_t dissipates for finite alpha >= 0 and
    integer m >= 1.  NaN fails the chained comparisons; bools are rejected."""
    if is_bool(alpha) or not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha!r}")
    if is_bool(m) or not (1 <= m < np.inf and int(m) == m):
        raise ValueError("the exponent half m must be a positive integer, "
                         f"got {m!r}")


class _PowerDamping(_ForcingModel):
    """The power-law dampings: strength alpha >= 0, exponent half m, a
    positive integer, and the load ``scale`` (x^{2m} v, phi_i), x = ``squared(u, v)``."""

    def __init__(self, alpha: float = 1.0, m: int = 1):
        check_damping(alpha, m)
        self.alpha = float(alpha)
        self.m = int(m)
        self.terms = 2 * self.m + 1

    def load(self, ops: SpatialOperators, u: np.ndarray, v: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        x = self.squared(u, v)
        out = np.empty(np.shape(v)) if out is None else out
        if self.alpha == 0.0:
            out.fill(0.0)
        elif self.m == 1:
            # cubic case: the quartic hat tensor integrates x*x*v exactly
            ops.quartic.contract(x, x, v, out)
            out *= self.scale
        else:
            np.multiply(power_load(ops.mesh, x, 2 * self.m, v, out), self.scale, out)
        return out


class DegenerateDamping(_PowerDamping):
    """f = -proj(alpha u^{2m} v): damping that switches off at zero displacement."""

    @property
    def scale(self) -> float:
        return -self.alpha

    def squared(self, u, v):
        return u


class PrimitiveDamping(_PowerDamping):
    """f = -proj(alpha v^{2m+1}/(2m+1)): the monotone antiderivative damping.

    Acting on the velocity alone, this is the damping of the problem whose
    time derivative solves the degenerately damped equation.
    """

    @property
    def scale(self) -> float:
        return -self.alpha / (2 * self.m + 1)

    def squared(self, u, v):
        return v


class LinearDamping(_ForcingModel):
    """f = -beta v: classical viscous damping (already in the FEM space)."""

    terms = 1

    def __init__(self, beta: float):
        if is_bool(beta) or not 0 <= beta < np.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {beta!r}")
        self.beta = float(beta)

    def load(self, ops, u, v, out=None):
        return np.multiply(-self.beta, ops.apply_mass(v), out)


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
        for name in ("t_final", "delta", "epsilon", "window"):
            value = getattr(self, name)
            if is_bool(value) or not 0 < value < np.inf:   # false for NaN too
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
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
# A load of ``terms`` factors of the sine modes of J lands exactly on the
# folded sums of ``terms`` signed indices of J (2m + 1 for the power
# dampings, 1 for LinearDamping), so it reaches J and a known set J' \ J
# (``_reach``) only.  A load model gives the forcing's sine coefficients on
# J and on J' \ J: ``_Triads`` for m = 1 while their coefficients hold at
# most _TRIAD_COST n entries, ``_NodalLoad`` otherwise.  Detection reads the
# forcing on J' \ J at a few abscissae, and the certificate integrates
# sqrt(sum over J' \ J of mu_j g_j^2) over the last load: exactly for the
# triads, to the rounding of its loads for the nodal model (1.217e-16 against
# 1.192e-16 on fig2's k = 1 first window at n = 99).  A window whose bound
# exceeds TOL ||y0||_E, or that did not contract, is solved again on all
# modes, and J keeps every mode from then on.  Both constants are fixed:
# below DETECT = 1e-1 the detection picks up the rounding noise of the high
# modes (about 2e-14 ||y0||_E at n = 499).

TOL = 1e-13        # certified truncation error, relative to ||y0||_E
DETECT = 1e-1      # a mode joins J at DETECT * TOL ||y0||_E of reach
MAX_ITERATIONS = 50   # a window that has not converged by then is reported
_DETECT_ROWS = 9   # abscissa rows of each forcing searched for new modes


# an abscissa costs the triads one multiply-add per coefficient, the nodal
# model a multiple of n; per 500-step window of five iterations, with the
# certificate and the coefficients' build (one thread, Xeon with 2 MiB of
# L2 per core), the two met between 500 and 800 coefficients per node:
# triad against nodal took 25 against 33 ms at n = 99, |J| = 14 (609 per
# node), 52 against 41 at |J| = 15 (800), 95 against 102 ms at n = 499,
# |J| = 20 (497), and 134 against 112 at |J| = 21 (603).  A model read a
# row at a time (the AB5 extension) counts only its coefficients on J, all
# that a step reads, against the same budget: one row took the triads
# against the nodal model (two products with S[J, :], one with its
# transpose and the load) 8.1 against 30.6 us at n = 99, |J| = 14 (20,580
# coefficients), 13.7 against 38.0 at |J| = 18 (55,404), 39.1 against 39.9
# at |J| = 24 (172,800), and 16.0 against 54.0 us at n = 999, |J| = 18
_TRIAD_COST = 600

# steps per block of a window's streamed forcing (at most 129 abscissae):
# on a (501, 2n) window of states with the cubic damping, one thread on a
# Xeon with 2 MiB of L2 per core, 32 beat 4, 8, 16, 64, 128 and the whole
# window at n = 99 (5.6-6.3 ms against 8.7-9.6 ms) and tied 8-128 at n = 499
# (24-30 ms against 43-56 ms)
_LOAD_STEPS = 32
_LOAD_ROWS = (len(BOOLE_WEIGHTS) - 1) * _LOAD_STEPS   # the abscissae of a block

# products per block of the triad sums (rows x |J| x targets), 4 x elements per build block
_TRIAD_BLOCK = 2**16


def _interpolate(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Fill ``out`` with the rows ``x`` interpolated linearly in time at
    the abscissae: row r i + j is (1 - j/r) x[i] + (j/r) x[i + 1]."""
    r = len(BOOLE_WEIGHTS) - 1
    out[::r] = x[:len(out[::r])]
    for j in range(1, r):
        fr = j / r
        np.add(np.multiply(1.0 - fr, x[:-1], out[j::r]),
               np.multiply(fr, x[1:], scratch), out[j::r])


def _at_abscissae(grid: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The amplitude rows ``grid`` interpolated linearly in time at the
    abscissae ``rows``; a single row stands for every abscissa."""
    if len(grid) == 1:
        return grid
    r = len(BOOLE_WEIGHTS) - 1
    i = np.minimum(rows // r, len(grid) - 2)
    fr = ((rows - r * i) / r)[:, None]
    return (1.0 - fr) * grid[i] + fr * grid[i + 1]


def _reach(active: np.ndarray, n: int, terms: int) -> np.ndarray:
    """The modes J' \\ J a load of ``terms`` factors on the modes J =
    ``active`` reaches: sums of ``terms`` signed 1-based indices of J,
    folded into 1..n with period 2(n + 1) (a mask: ``np.unique`` and its
    kin import ``numpy.ma``, 30 ms and 1 MB)."""
    period = 2 * (n + 1)
    signed = np.concatenate([active + 1, period - 1 - active])
    sums = np.zeros(period, bool)
    sums[0] = True
    for _ in range(terms):
        reached = np.zeros(period, bool)
        # about 64 |sums| products at a time
        for part in np.array_split(np.flatnonzero(sums), 1 + len(signed) // 64):
            reached[np.add.outer(part, signed) % period] = True
        sums = reached
    # the sums are symmetric, -k a sum whenever k is
    sums[active + 1] = False
    return np.flatnonzero(sums[1:n + 1])


class _Triads:
    """The m = 1 load of amplitudes on J as exact sums over triads of modes.

    With u = S_J a and v = S_J b, the load scale * contract(x, x, v), x the
    factor ``squared(a, b)``, has the sine coefficients g_s = sum over pairs
    p <= q and c in J of x_p x_q b_c C[(p, q), c, s], where
    C[(p, q), c, s] = scale (2 - delta_pq) S_s^T contract(S_p, S_q, S_c) / mu_s,
    for s in J (``on``) and in the rest ``off`` of its reach, and no other s.
    """

    def __init__(self, ops: SpatialOperators, forcing: _PowerDamping,
                 full: Propagator, active: np.ndarray, off: np.ndarray):
        n, j = len(full.omega), len(active)
        self.active, self.off, self.forcing = active, off, forcing
        self.prop = full.restrict(active)
        targets = np.concatenate([active, off])
        self.p, self.q = np.triu_indices(j)
        cols = self.prop.sine.T
        c = np.empty((len(self.p), j, len(targets)))
        per = max(1, _TRIAD_BLOCK // 4 // (n * max(1, j)))   # pairs per block
        for i in range(0, len(self.p), per):
            pairs = slice(i, i + per)
            c[pairs] = ops.quartic.contract(cols[self.p[pairs], None],
                                            cols[self.q[pairs], None],
                                            cols) @ full.sine[:, targets]
        weight = forcing.scale * np.where(self.p == self.q, 1.0, 2.0)
        c *= weight[:, None, None] / full.mu[targets]
        self.on = c[..., :j].reshape(len(self.p), j * j)
        self.off_coefficients = c[..., j:].reshape(len(self.p), j * len(off))

    def at(self, z: np.ndarray, off: bool = False) -> np.ndarray:
        """The sine coefficients g on J (``off`` if ``off``) of the amplitude rows ``z``."""
        c, cols = ((self.off_coefficients, len(self.off)) if off
                   else (self.on, len(self.active)))
        a, b = z.real / self.prop.omega, z.imag
        x = self.forcing.squared(a, b)
        pairs = x[:, self.p] * x[:, self.q]
        return np.matmul(b[:, None, :], (pairs @ c).reshape(len(z), b.shape[1], cols))[:, 0]

    def abscissae(self, grid: np.ndarray, off: bool = False) -> np.ndarray:
        """``at`` every abscissa of the amplitude rows ``grid`` (of a single
        row, that row's), a block of whole steps and at most ``_TRIAD_BLOCK``
        products at a time; ``grid`` is kept for ``off_blocks``."""
        self.last = grid
        r, j = len(BOOLE_WEIGHTS) - 1, len(self.active)
        rows, cols = r * (len(grid) - 1) + 1, len(self.off) if off else j
        per = r * max(1, min(len(grid) - 1, _TRIAD_BLOCK // (r * max(1, j * cols))))
        out = np.empty((rows, cols))
        # the last block adds the window's end
        for block in np.split(np.arange(rows), range(per, rows - 1, per)):
            out[block] = self.at(_at_abscissae(grid, block), off)
        return out

    def off_blocks(self):
        """The coefficients on J' \\ J at every abscissa of the last grid,
        in one block."""
        yield self.abscissae(self.last, off=True)


class _NodalLoad:
    """Any forcing's load of amplitudes on J, evaluated at the nodes; the
    certificate reads the loads of the last grid, so none is evaluated twice."""

    def __init__(self, ops: SpatialOperators, forcing, full: Propagator,
                 active: np.ndarray, off: np.ndarray):
        self.ops, self.forcing, self.active, self.off = ops, forcing, active, off
        self.prop, self.off_prop = full.restrict(active), full.restrict(off)
        self.last = None

    def at(self, z: np.ndarray, off: bool = False) -> np.ndarray:
        """The sine coefficients g on J (``off`` if ``off``) of the amplitude rows ``z``."""
        load = self.forcing.load(self.ops, *np.split(self.prop.nodal(z), 2, axis=-1))
        return (self.off_prop if off else self.prop).forcing_modes(load)

    def abscissae(self, grid: np.ndarray) -> np.ndarray:
        """``at`` every abscissa of the amplitude rows ``grid`` (of a single
        row, that row's), ``_LOAD_STEPS`` steps at a time.

        Each block's states are synthesized and interpolated linearly in
        time onto its abscissae, in place into one reused buffer per half
        (u, v), so the forcing gets contiguous halves; it writes the
        block's loads straight into ``last``, one buffer reused by every
        grid of its length, and they are transformed onto J.  Every load
        equals that of the whole-window evaluation of the same states bit
        for bit.
        """
        if len(grid) == 1:
            return self.at(grid)
        r, n, nst = len(BOOLE_WEIGHTS) - 1, self.ops.mesh.n, len(grid) - 1
        if self.last is None or len(self.last) != r * nst + 1:
            self.last = None   # freed before its successor is allocated
            self.last = np.empty((r * nst + 1, n))
        # on all modes nothing is certified, so the loads make way for g
        g = self.last if len(self.active) == n else np.empty((r * nst + 1, len(self.active)))
        halves = np.empty((2, r * min(_LOAD_STEPS, nst) + 1, n))
        scratch = np.empty((min(_LOAD_STEPS, nst), n))
        for s in range(0, nst, _LOAD_STEPS):
            e = min(s + _LOAD_STEPS, nst)
            x = self.prop.nodal(grid[s:e + 1])
            # the abscissae of steps s..e-1; the last block adds the window's end
            rows = r * (e - s) + (e == nst)
            for ya, xs in zip(halves[:, :rows], (x[:, :n], x[:, n:])):
                _interpolate(xs, ya, scratch[:e - s])
            block = slice(r * s, r * s + rows)
            self.forcing.load(self.ops, *halves[:, :rows], out=self.last[block])
            g[block] = self.prop.forcing_modes(self.last[block])
        return g

    def off_blocks(self):
        """The coefficients on J' \\ J at every abscissa of the last grid,
        transformed from the loads ``_LOAD_STEPS`` steps at a time."""
        for a in range(0, len(self.last), _LOAD_ROWS):
            yield self.off_prop.forcing_modes(self.last[a:a + _LOAD_ROWS])


def load_model(ops: SpatialOperators, forcing, full: Propagator,
               active: np.ndarray, single_rows: bool = False):
    """The load model of ``forcing`` on the modes J = ``active`` and its
    reach J' \\ J: ``_Triads`` for m = 1 while their coefficients hold at
    most _TRIAD_COST n entries, ``_NodalLoad`` otherwise.  For a model that
    is evaluated a row at a time (``single_rows``), only the coefficients
    on J count against that budget."""
    n, j = len(full.omega), len(active)
    off = _reach(active, n, forcing.terms) if j < n else active[:0]
    pairs = j * (j + 1) // 2
    triads = (isinstance(forcing, _PowerDamping) and forcing.m == 1 and j < n
              and pairs * j * (j if single_rows else j + len(off)) <= _TRIAD_COST * n)
    return (_Triads if triads else _NodalLoad)(ops, forcing, full, active, off)


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
                 config: PicardConfig, nst: int, t_start: float, tol: float,
                 model=None):
        self.ops, self.forcing, self.full, self.config = ops, forcing, full, config
        self.t_start, self.model = t_start, model
        self.rows = (len(BOOLE_WEIGHTS) - 1) * nst + 1
        # a mode joins J once the forcing can move it by DETECT * tol in the window
        self.level = DETECT * tol / (nst * config.delta)
        self._set(active)

    def _set(self, active: np.ndarray) -> None:
        """Make ``active`` J: the load model holds J, its reach and its
        propagator, and one built for J is kept."""
        if self.model is None or not np.array_equal(self.model.active, active):
            self.model = None   # its loads are freed before the next model's
            self.model = load_model(self.ops, self.forcing, self.full, active)
        self.active, self.prop = self.model.active, self.model.prop

    def _forcing(self, grid: np.ndarray) -> tuple:
        """Widen J by the modes the forcing of the amplitude rows ``grid``
        reaches; return its sine coefficients on J at every abscissa (of a
        single row, that row's) and ``grid`` on J."""
        old, off = self.active, self.model.off
        if len(off):
            picks = np.linspace(0, self.rows - 1, _DETECT_ROWS).round().astype(int)
            reach = self.model.at(_at_abscissae(grid, picks), off=True)
            if not np.isfinite(reach).all():
                raise _non_finite(self.t_start)
            new = off[np.sqrt(self.full.mu[off]) * np.abs(reach).max(axis=0) > self.level]
            if len(new):
                active = np.sort(np.concatenate([old, new]))
                self._set(active)
                grid, kept = np.zeros((len(grid), len(active)), complex), grid
                grid[:, np.searchsorted(active, old)] = kept
        return self.model.abscissae(grid), grid

    def solve(self, z0: np.ndarray) -> tuple:
        """Iterate from the amplitudes ``z0`` on every mode; returns the
        report and the accepted iterate's amplitudes on J."""
        g, _ = self._forcing(z0[self.active][None])
        prev = sweep(self.prop, z0[self.active], np.broadcast_to(g, (self.rows, g.shape[1])))
        report = WindowReport(t_start=self.t_start, iterations=0, distance=np.inf,
                              converged=False)
        grow = 0
        for _ in range(MAX_ITERATIONS):
            g, prev = self._forcing(prev)
            cur = sweep(self.prop, z0[self.active], g)
            dist = float(np.sqrt(_mode_energy(cur - prev, self.prop.mu).max()))
            if not np.isfinite(dist):
                # a non-finite forcing or iterate makes the distance non-finite
                raise _non_finite(self.t_start)
            report.iterations += 1
            report.distances.append(dist)
            grow = grow + 1 if dist > report.distance else 0
            report.distance = dist
            prev = cur
            if dist < self.config.epsilon:
                report.converged = True
                break
            if grow >= 3:
                raise PicardDivergenceError(
                    f"iterates diverge on window starting at t={self.t_start:g} "
                    f"(distance {dist:.3e}); use a shorter window")
        report.modes = len(self.active)
        return report, prev

    def certify(self, report: WindowReport, z0: np.ndarray) -> None:
        """Record the energy-norm bound on what the modes off J change in the
        window, its two terms and the gamma it divides by."""
        d = report.distances
        gamma = d[-1] / d[-2] if len(d) >= 2 and d[-2] > 0 else 0.0
        # the forcing's energy norm on J' \ J at every abscissa, a block at a time
        mu = self.full.mu[self.model.off]
        norms = np.concatenate([np.sqrt(g ** 2 @ mu) for g in self.model.off_blocks()])
        off_j = (np.delete(z0, self.active), np.delete(self.full.mu, self.active))
        terms = (_boole_integral(norms, self.config.delta),
                 float(np.sqrt(_mode_energy(*off_j))))
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
    window = None   # the last one's load model is kept while J stays
    while done < config.n_steps:
        nst = min(config.window_steps, config.n_steps - done)
        t_start = done * config.delta
        redone, failed = 0, None   # failed: the report of the attempt redone
        while True:
            # the attempt before, and a load model this one replaces, are
            # freed before this one allocates its loads
            window = _Window(ops, forcing, propagator, active, config, nst,
                             t_start, tol, None if window is None else window.model)
            report, z = window.solve(z_start)
            active = window.active
            if len(active) < n:
                window.certify(report, z_start)
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
