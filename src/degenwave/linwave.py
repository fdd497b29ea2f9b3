"""Linear wave solvers.

Two independent routes to the linear string are collected here: a
variation-of-parameters integrator whose Duhamel integral is discretized by
Boole's rule and evaluated as rotations of the discrete sine modes, and the
closed-form single-mode solution with viscous damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import Propagator

# Boole's rule on [0, 1]: weights of the five equally spaced abscissae (sum to 1)
BOOLE_WEIGHTS = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0

# rows per block when a trajectory is read block by block
BLOCK_ROWS = 256


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

    def blocks(self, size: int = BLOCK_ROWS, start: int = 0, stop: int | None = None):
        """The rows ``start``..``stop``-1 in consecutive blocks of at most
        ``size`` rows."""
        stop = len(self.times) if stop is None else stop
        for a in range(start, stop, size):
            yield self.states[a:min(a + size, stop)]


@dataclass(eq=False)
class ModalTrajectory:
    """Uniformly sampled states kept as modal amplitudes, window by window.

    Row 0 is the nodal state ``y0``.  Each entry of ``segments`` is one
    window's (modes J, amplitudes z): z has shape (nst + 1, |J|) and holds
    the window's rows on the sine modes J of ``propagator`` (see
    ``Propagator.restrict``), its row 0 being the previous window's last row.
    A row thus costs 16 |J| bytes where a nodal row costs 16 n.

    ``rows`` and ``blocks`` synthesize nodal rows from the amplitudes with
    each window's restricted propagator, a block at a time, so no whole
    window of nodal rows is built.  A read of a nonempty range of rows
    outside 0..len(times)-1 raises ``ValueError``.
    """

    times: np.ndarray
    y0: np.ndarray
    segments: list
    propagator: Propagator

    def __post_init__(self):
        if len(self.times) != 1 + sum(len(z) - 1 for _, z in self.segments):
            raise ValueError("times/segments length mismatch")

    @property
    def delta(self) -> float:
        return self.propagator.step

    def _check(self, start: int, stop: int) -> None:
        if stop > start and not 0 <= start < stop <= len(self.times):
            raise ValueError(f"rows {start}..{stop - 1} are not all within "
                             f"0..{len(self.times) - 1}")

    def _windows(self, start: int, stop: int):
        """(w, i, j, z) for each window w that holds rows of start..stop-1
        past row 0: its rows i..j-1 and their amplitudes z on its modes."""
        self._check(start, stop)
        first = 0     # the row a window starts from, its z[0]
        for w, (_, z) in enumerate(self.segments):
            i, j = max(start, first + 1), min(stop, first + len(z))
            if i < j:
                yield w, i, j, z[i - first:j - first]
            first += len(z) - 1

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Nodal rows ``start``..``stop``-1; none when stop <= start."""
        out = np.empty((max(stop - start, 0), len(self.y0)))
        for w, i, j, z in self._windows(start, stop):
            prop = self.propagator.restrict(self.segments[w][0])
            out[i - start:j - start] = prop.nodal(z)
        if start == 0 < stop:
            out[0] = self.y0
        return out

    def blocks(self, size: int = BLOCK_ROWS, start: int = 0, stop: int | None = None):
        """The nodal rows ``start``..``stop``-1 in consecutive blocks of at
        most ``size`` rows."""
        stop = len(self.times) if stop is None else stop
        self._check(start, stop)
        return (self.rows(a, min(a + size, stop)) for a in range(start, stop, size))

    def amplitudes(self, start: int, stop: int) -> np.ndarray:
        """The amplitudes of rows ``start``..``stop``-1 on every mode, zero
        off each window's modes; row 0 has those of ``modal(y0)``."""
        out = np.zeros((max(stop - start, 0), len(self.propagator.omega)), complex)
        for w, i, j, z in self._windows(start, stop):
            out[i - start:j - start, self.segments[w][0]] = z
        if start == 0 < stop:
            out[0] = self.propagator.modal(self.y0)
        return out

    def prefix(self, stop: int) -> ModalTrajectory:
        """The rows 0..``stop``-1 as a trajectory of their own."""
        return ModalTrajectory(self.times[:stop], self.y0, [
            (self.segments[w][0], self.segments[w][1][:j - i + 1])
            for w, i, j, _ in self._windows(1, stop)], self.propagator)


# -- Duhamel stepping --------------------------------------------------------

# amplitudes per block of a sweep's streamed forcing transform and
# cumulative sum: a 500-step window on up to 32 modes is one block, an
# all-mode sweep takes 32 steps at a time at n = 499 and 16 at n = 999
SWEEP_BLOCK = 2**14


def sweep(prop: Propagator, z0: np.ndarray, f_absc: np.ndarray) -> np.ndarray:
    """Repeated Duhamel steps with pre-tabulated forcing loads.

    Step i applies y_{i+1} = P y_i + sum_j w_j exp((step - j step/4) A) (0, f_ij)
    with the forcing f_ij sampled at Boole's five equally spaced abscissae,
    to states y_i given by their complex amplitudes z_i on the modes J of
    ``prop`` (see ``Propagator.restrict``).  ``z0`` holds the start
    amplitudes, shape (|J|,), and ``f_absc`` the forcing's load vectors M f
    at every abscissa of the run, shape (4*nsteps + 1, n); consecutive steps
    share their endpoint sample.  Returns the (nsteps+1, |J|) amplitudes,
    ``z0`` first.

    In the modal amplitudes z of ``Propagator.modal`` the forcing enters as
    z' = -i omega z + i S f, where S f = (S M f) / mu as S M S = diag(mu).
    With P_i = exp(-i omega i step) the states are
    z_i = P_i (z_0 + sum_{l<i} conj(P_{l+1}) c_l), where c_l is the step's
    weighted, phase-shifted forcing sum: one cumulative sum over the steps.
    The loads are transformed, weighted and summed in blocks of
    ``SWEEP_BLOCK // |J|`` steps; each block's cumulative sum starts from
    the previous block's last partial sum, so it adds in the order of one
    sum over all steps.  A load broadcast along time (first-axis stride 0)
    is transformed as one row.
    """
    r = len(BOOLE_WEIGHTS) - 1
    nsteps = (f_absc.shape[0] - 1) // r
    if f_absc.shape[0] != r * nsteps + 1:
        raise ValueError("forcing sample count does not tile the steps")
    w = prop.step * BOOLE_WEIGHTS
    weights = [1j * w[j] * prop.powers[r - j] for j in range(r + 1)]
    phase = prop.phases(nsteps)
    # z[i] holds the partial sums until the start amplitudes are added
    z = np.empty_like(phase)
    block = max(1, SWEEP_BLOCK // max(1, len(prop.omega)))
    for s in range(0, nsteps, block):
        e = min(s + block, nsteps)
        loads = f_absc[r * s:r * e + 1]
        g = prop.forcing_modes(loads[:1] if loads.strides[0] == 0 else loads)
        g = np.broadcast_to(g, (len(loads), g.shape[-1]))
        c = sum(weights[j] * g[j: j + r * (e - s - 1) + 1: r] for j in range(r + 1))
        np.multiply(phase[s + 1:e + 1].conj(), c, out=z[s + 1:e + 1])
        # the first block has no partial sum before it
        np.cumsum(z[max(s, 1):e + 1], axis=0, out=z[max(s, 1):e + 1])
    z[0] = z0
    z[1:] += z[0]
    np.multiply(phase, z, out=z)   # in the parent's operand order: bit for bit
    return z


# -- closed-form single-mode solution with viscous damping -------------------

def analytic_linear_damped(beta: float, k: int, c0: float, t: np.ndarray | float,
                           x: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Exact solution of w_tt - w_xx + beta w_t = 0 for single-mode data.

    Initial data w(0) = c0 sin(k pi x), w_t(0) = 0; requires the underdamped
    regime beta < 2 k pi.  Returns (w(t, x), w_t(t, x)) with ``t`` and ``x``
    broadcast against each other.
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
