"""The wave generator's exponential in the discrete sine modes, and energies.

States are stacked coefficient vectors y = (u, v) of length 2n where u holds
displacement and v velocity coefficients.  The generator acts as
y -> (v, -M^{-1} K u) and is skew-adjoint in the energy inner product
<(u,v),(w,z)> = u^T K w + v^T M z, so its exponential is an isometry of the
energy norm.  On the uniform mesh the discrete sine vectors diagonalize M and
K, so the exponential is one rotation per sine mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import SpatialOperators


@dataclass(frozen=True, eq=False)
class Propagator:
    """exp(step * A) in the discrete sine modes, with its sub-step phases.

    With u = S a and v = S b, the generator decouples into one oscillator
    a_j'' = -omega_j^2 a_j per mode, and the complex amplitude
    z_j = omega_j a_j + i b_j rotates as z_j(t) = exp(-i omega_j t) z_j(0).
    ``powers[j]`` holds the per-mode phase factors of exp(j * theta * A)
    with theta = step/(points-1); the last entry is the full step.  No array
    is modified after construction, and ``phases`` stores a table only once
    it is fully built.

    ``restrict`` keeps a subset J of the modes: ``sine`` becomes the column
    block S[:, J], and ``modal``, ``forcing_modes``, ``nodal`` and the phase
    tables then work on (..., |J|) amplitudes.
    """

    step: float
    sine: np.ndarray      # orthonormal, symmetric sine matrix S (S @ S = I),
                          # or its column block S[:, J] once restricted
    omega: np.ndarray     # discrete frequencies sqrt(kappa_j / mu_j)
    mu: np.ndarray        # mass eigenvalues: S M S = diag(mu)
    powers: tuple
    _phases: dict = field(default_factory=dict, repr=False)

    @property
    def points(self) -> int:
        return len(self.powers)

    @property
    def theta(self) -> float:
        return self.step / (self.points - 1)

    def phases(self, nsteps: int) -> np.ndarray:
        """Read-only (nsteps+1, n) table exp(-i omega_j i step), i = 0..nsteps."""
        if nsteps not in self._phases:
            table = np.exp(-1j * np.outer(self.step * np.arange(nsteps + 1), self.omega))
            table.flags.writeable = False
            self._phases[nsteps] = table
        return self._phases[nsteps]

    def restrict(self, modes: np.ndarray) -> Propagator:
        """This propagator on the ascending mode indices ``modes`` only."""
        if len(modes) == len(self.omega):
            return self
        sine = self.sine[:, modes]
        sine.flags.writeable = False
        return Propagator(step=self.step, sine=sine, omega=self.omega[modes],
                          mu=self.mu[modes],
                          powers=tuple(p[modes] for p in self.powers))

    def modal(self, y: np.ndarray) -> np.ndarray:
        """Complex modal amplitudes z = omega S u + i S v of stacked states."""
        n = self.sine.shape[0]
        return self.omega * (y[..., :n] @ self.sine) + 1j * (y[..., n:] @ self.sine)

    def forcing_modes(self, load: np.ndarray) -> np.ndarray:
        """Sine coefficients S f of the forcing f = M^{-1} load, as
        (S load) / mu: S M S = diag(mu), so no solve with M is needed."""
        g = load @ self.sine
        g /= self.mu
        return g

    def nodal(self, z: np.ndarray) -> np.ndarray:
        """Stacked states (u, v) of complex modal amplitudes; inverts ``modal``."""
        # S is symmetric, so the full S synthesizes as it analyzes; a column
        # block S[:, J] synthesizes through its transpose, the row block S[J, :]
        rows = self.sine if self.sine.shape[0] == self.sine.shape[1] else self.sine.T
        n = rows.shape[1]
        out = np.empty(z.shape[:-1] + (2 * n,))
        np.matmul(z.real / self.omega, rows, out=out[..., :n])
        np.matmul(z.imag, rows, out=out[..., n:])
        return out


def matrix_exponential(ops: SpatialOperators, step: float) -> Propagator:
    """Propagator for the wave generator of ``ops`` over one time step.

    The phases of the quarter steps j*step/4, j = 0..4, the abscissae of
    the Duhamel sweep's Boole rule, get cached alongside the full step.
    """
    if not np.isfinite(step):
        raise ValueError("step must be finite")
    mu, kappa = ops.sine_eigenvalues()
    omega = np.sqrt(kappa / mu)
    theta = step / 4
    powers = tuple(np.exp(-1j * (j * theta) * omega) for j in range(5))
    return Propagator(step=step, sine=ops.sine_basis(), omega=omega, mu=mu,
                      powers=powers)


# -- energy functionals ------------------------------------------------------

def split_state(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    return y[..., :n], y[..., n:]


def energy_inner(ops: SpatialOperators, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Energy inner product u^T K w + v^T M z (batched)."""
    n = ops.mesh.n
    uy, vy = split_state(y, n)
    uz, vz = split_state(z, n)
    return (np.sum(uy * ops.apply_stiffness(uz), axis=-1)
            + np.sum(vy * ops.apply_mass(vz), axis=-1))


def energy_norm(ops: SpatialOperators, y: np.ndarray) -> np.ndarray:
    return np.sqrt(energy_inner(ops, y, y))


def energy(ops: SpatialOperators, y: np.ndarray) -> np.ndarray:
    """Discrete wave energy 1/2 u^T K u + 1/2 v^T M v (batched)."""
    return 0.5 * energy_inner(ops, y, y)


def l2_norm(ops: SpatialOperators, u: np.ndarray) -> np.ndarray:
    """Discrete L^2 norm sqrt(u^T M u) of a displacement/velocity vector."""
    return np.sqrt(np.sum(u * ops.apply_mass(u), axis=-1))


def h1_norm(ops: SpatialOperators, u: np.ndarray) -> np.ndarray:
    """Discrete H^1_0 seminorm sqrt(u^T K u)."""
    return np.sqrt(np.sum(u * ops.apply_stiffness(u), axis=-1))
