"""Linear wave solvers.

Two independent routes to the linear string are collected here: a
variation-of-parameters integrator whose Duhamel integral is discretized by
Boole's rule and evaluated as rotations of the discrete sine modes, and the
closed-form single-mode solution with viscous damping.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .linop import Propagator

# Boole's rule on [0, 1]: weights of the five equally spaced abscissae (sum to 1)
BOOLE_WEIGHTS = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) / 90.0


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled states (rows) of the first-order system."""

    times: np.ndarray
    states: np.ndarray
    delta: float

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times/states length mismatch")


@dataclass(eq=False)
class ModalTrajectory:
    """Uniformly sampled states kept as modal amplitudes, window by window.

    Row 0 is the nodal state ``y0``.  Each entry of ``segments`` is one
    window's (modes J, amplitudes z): z has shape (nst + 1, |J|) and holds
    the window's rows on the sine modes J of ``propagator`` (see
    ``Propagator.restrict``), its row 0 being the previous window's last row.
    A row thus costs 16 |J| bytes where a nodal row costs 16 n.

    Its readers take the amplitudes as they are: ``windows`` hands out each
    window's rows on its modes, ``amplitudes`` rows on every mode.  A read
    of a nonempty range of rows outside 0..len(times)-1 raises
    ``ValueError``.
    """

    times: np.ndarray
    y0: np.ndarray
    segments: list
    propagator: Propagator

    def __post_init__(self):
        # each window's first row, its z[0]
        self._firsts = list(accumulate((len(z) - 1 for _, z in self.segments), initial=0))
        if len(self.times) != 1 + self._firsts.pop():
            raise ValueError("times/segments length mismatch")

    @property
    def delta(self) -> float:
        return self.propagator.step

    def windows(self, start: int, stop: int):
        """(J, i, j, z) for each window that holds rows of start..stop-1:
        its modes J, its rows i..j-1 and their amplitudes z on J.  Row 0
        comes first as a window of its own, ``modal(y0)`` on every mode."""
        if stop > start and not 0 <= start < stop <= len(self.times):
            raise ValueError(f"rows {start}..{stop - 1} are not all within "
                             f"0..{len(self.times) - 1}")
        if start == 0 < stop:
            yield np.arange(len(self.propagator.omega)), 0, 1, self.propagator.modal(self.y0)[None]
        # from the window that holds row start, to the one that holds stop - 1
        for w in range(max(bisect_left(self._firsts, start) - 1, 0), len(self.segments)):
            first = self._firsts[w]
            if max(start, first + 1) >= stop:
                break
            modes, z = self.segments[w]
            i, j = max(start, first + 1), min(stop, first + len(z))
            yield modes, i, j, z[i - first:j - first]

    def amplitudes(self, start: int, stop: int) -> np.ndarray:
        """The amplitudes of rows ``start``..``stop``-1 on every mode, zero
        off each window's modes."""
        out = np.zeros((max(stop - start, 0), len(self.propagator.omega)), complex)
        for modes, i, j, z in self.windows(start, stop):
            out[i - start:j - start, modes] = z
        return out

    def prefix(self, stop: int) -> ModalTrajectory:
        """The rows 0..``stop``-1 as a trajectory of their own."""
        return ModalTrajectory(self.times[:stop], self.y0, [
            (modes, z[:j - i + 1]) for (modes, z), (_, i, j, _) in
            zip(self.segments, self.windows(1, stop))], self.propagator)


# -- Duhamel stepping --------------------------------------------------------

# amplitudes per block of a sweep's weighted sums and cumulative sum: a
# 500-step window on up to 32 modes is one block, an all-mode sweep takes
# 32 steps at a time at n = 499 and 16 at n = 999
SWEEP_BLOCK = 2**14


def sweep(prop: Propagator, z0: np.ndarray, f_absc: np.ndarray) -> np.ndarray:
    """Repeated Duhamel steps with pre-tabulated modal forcing.

    Step i applies y_{i+1} = P y_i + sum_j w_j exp((step - j step/4) A) (0, f_ij)
    with the forcing f_ij sampled at Boole's five equally spaced abscissae,
    to states y_i given by their complex amplitudes z_i on the modes J of
    ``prop`` (see ``Propagator.restrict``).  ``z0`` holds the start
    amplitudes, shape (|J|,), and ``f_absc`` the forcing's sine
    coefficients S f on J at every abscissa of the run, shape
    (4*nsteps + 1, |J|) (``Propagator.forcing_modes`` of the loads M f);
    consecutive steps share their endpoint sample, and a forcing
    broadcast along time is read as it is.  Returns the (nsteps+1, |J|)
    amplitudes, ``z0`` first.

    In the modal amplitudes z of ``Propagator.modal`` the forcing enters as
    z' = -i omega z + i S f.  With P_i = exp(-i omega i step) the states are
    z_i = P_i (z_0 + sum_{l<i} conj(P_{l+1}) c_l), where c_l is the step's
    weighted, phase-shifted forcing sum: one cumulative sum over the steps.
    The forcing is weighted and summed in blocks of ``SWEEP_BLOCK // |J|``
    steps; each block's cumulative sum starts from the previous block's
    last partial sum, so it adds in the order of one sum over all steps.
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
        g = f_absc[r * s:r * e + 1]
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
