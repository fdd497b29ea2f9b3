"""Independent reference solutions for validation.

For single-eigenfunction data the string problem collapses pointwise to a
family of damped oscillator equations parameterized by position: at each x
the value u(t, x) obeys u'' + lambda_k u + alpha E_k(x)^{2m} phi^{2m} phi' = 0
written for the modal amplitude phi with u = phi E_k.  Solving that family
with Lawson's Runge-Kutta and interpolating in space gives an accuracy
reference that never touches the finite element machinery.  Lawson RK4
(classical RK4 in the frame that rotates with exp(i sqrt(lambda_k) t)) is
exact for the linear flow, so one step per stored step suffices for every
mode.

Each member is the degenerately damped oscillator x'' + khat x +
alpha x^{2m} x' = 0, khat = lambda_k, whose two-dimensional form is the
finite-dimensional counterpart that is uniformly stable where the string is
not.  The same Lawson kernel steps that oscillator, with sqrt(khat) in the
place of sqrt(lambda_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import SpatialOperators, energy, energy_norm
from .linwave import Trajectory
from .mesh import Mesh, whole_steps
from .picard import check_damping, is_bool


def _check_finite(problem, *names: str) -> None:
    """Raise ``ValueError`` naming the first field in ``names`` that is a
    boolean or not finite: an infinite or NaN datum would only surface as a
    non-finite state once the integration runs."""
    for name in names:
        value = getattr(problem, name)
        if is_bool(value):
            raise ValueError(f"{name} must be a number, not a boolean, got {value!r}")
        if not abs(value) < np.inf:   # false for NaN too
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, eq=False)
class AnsatzProblem:
    """Per-position oscillator family for single-mode initial data.

    The data are u(0) = c0 E_k, u_t(0) = c1 E_k with E_k = sqrt(2) sin(k pi x);
    the family is sampled at the interior nodes ``x`` of ``mesh``.
    """

    k: int
    c0: float
    c1: float
    alpha: float
    m: int
    mesh: Mesh

    def __post_init__(self):
        # damping_classes indexes with multiples of k
        if is_bool(self.k) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"mode index k must be an integer >= 1, got {self.k!r}")
        _check_finite(self, "c0", "c1")
        check_damping(self.alpha, self.m)

    @classmethod
    def for_mesh(cls, mesh: Mesh, k: int, c0: float, c1: float = 0.0,
                 alpha: float = 1.0, m: int = 1) -> "AnsatzProblem":
        """Sample the family at the mesh nodes."""
        return cls(k=k, c0=c0, c1=c1, alpha=alpha, m=m, mesh=mesh)

    @property
    def x(self) -> np.ndarray:
        return self.mesh.nodes

    @property
    def lam(self) -> float:
        return (self.k * np.pi) ** 2

    def eigenfunction(self) -> np.ndarray:
        return np.sqrt(2.0) * np.sin(self.k * np.pi * self.x)

    def damping_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct damping coefficients alpha E_k(x_j)^{2m} over the
        nodes, and each node's index into them.

        At node j of a mesh with N = n + 1 elements, sin^2(k pi x_j) depends
        on j only through the class q = min(kj mod N, N - kj mod N), the
        same integer reduction ``SpatialOperators.sine_basis`` applies to
        i j; each class's coefficient is taken at the angle pi q / N.
        """
        elements = self.mesh.n + 1
        r = self.k * np.arange(1, elements) % elements
        q = np.minimum(r, elements - r)
        # the classes present in increasing order, by a table rather than
        # np.unique, whose sort kernels add 0.5 MB of code to a run's peak RSS
        present = np.zeros(elements // 2 + 1, bool)
        present[q] = True
        classes = np.flatnonzero(present)
        coeff = self.alpha * (np.sqrt(2.0) * np.sin(np.pi * self.mesh.h * classes)
                              ) ** (2 * self.m)
        return coeff, (np.cumsum(present) - 1)[q]


@dataclass(eq=False)
class OracleSolution:
    """Modal amplitudes phi, phi' per sample position on a uniform time grid."""

    problem: AnsatzProblem
    times: np.ndarray
    phi: np.ndarray      # (n_times, n_samples)
    phidot: np.ndarray


# the grid rule of an RK4 run that stores every store_stride-th step
_STORED_GRID = "the stored step, step * store_stride, must divide the horizon"


def _lawson_oscillators(omega, coeff, m: int, z0: np.ndarray, h: float,
                        nsteps: int, after, every: int = 1) -> None:
    """Lawson RK4 on x'' = -omega^2 x - coeff x^{2m} x', vectorized.

    The state is z = omega x + i x', a complex ``z0`` over a shape to which
    ``omega`` and ``coeff`` broadcast.  It obeys z' = -i omega z + N(z) with
    N(z) = -i coeff x^{2m} x', and in the frame w = exp(i omega t) z
    classical RK4 steps the damping N alone (Lawson's integrating factor),
    exact for the linear flow at any omega h.  Every phase is a product of
    E = exp(-i omega h / 2) and E^2:
        k1 = N(z),  k2 = N(E z + h/2 E k1),  k3 = N(E z + h/2 k2),
        k4 = N(E^2 z + h E k3),
        z <- ((E^2 z + h/6 E^2 k1) + h/3 E (k2 + k3)) + h/6 k4.
    N is imaginary: with x = Re z / omega, Im k = -coeff omega^{-2m}
    (Re z)^{2m} Im z.  After every ``every``-th step i, ``after(i, z)`` gets
    the live state, which the next step overwrites; true stops the loop.
    """
    shape = np.shape(z0)
    omega, coeff = (np.broadcast_to(c, shape).astype(float) for c in (omega, coeff))
    half = np.exp(-0.5j * h * omega)
    full = half * half
    # the slope's real factor, x^{2m} taken from Re z = omega x
    scaled = -coeff / omega ** (2 * m)
    # stage inputs by their offsets c k_{j-1} from E z or E^2 z, and the
    # update's weights of k1 and k2 + k3
    reach2, reach4 = (0.5 * h) * half, h * half
    weight1, weight23 = (h / 6.0) * full, (h / 3.0) * half
    z, ez, a = np.empty((3,) + shape, complex)
    # the slopes k_j = i r_j: only their imaginary parts are ever written
    k1, k2, k3, k4 = np.zeros((4,) + shape, complex)
    w = np.empty(shape)
    z[...] = z0

    def slope(y, k):
        p = y.real
        np.multiply(p, p, w)     # (Re z)^{2m} as (p*p)**m
        if m != 1:
            np.power(w, m, w)
        np.multiply(np.multiply(scaled, w, w), y.imag, k.imag)

    for i in range(1, nsteps + 1):
        slope(z, k1)
        np.multiply(half, z, ez)
        slope(np.add(ez, np.multiply(reach2, k1, a), a), k2)
        slope(np.add(ez, np.multiply(0.5 * h, k2, a), a), k3)
        np.multiply(full, z, ez)   # E^2 z; in place, a size-1 product rounds apart
        slope(np.add(ez, np.multiply(reach4, k3, a), a), k4)
        np.add(ez, np.multiply(weight1, k1, a), z)
        np.add(k2, k3, k2)
        np.add(z, np.multiply(weight23, k2, a), z)
        np.add(z, np.multiply(h / 6.0, k4, a), z)
        if i % every == 0 and after(i, z):
            break


def _classes(problems: list) -> tuple:
    """Each problem's class coefficients, each node's class among those of all
    problems in turn, and where each problem's start (``damping_classes``)."""
    coeffs, index = zip(*(p.damping_classes() for p in problems))
    offsets = np.cumsum([0] + [len(c) for c in coeffs])
    return coeffs, [q + o for q, o in zip(index, offsets)], offsets


# stored steps per block handed to ``observe`` (16 bytes per class each):
# fig2's comparison with its RK4 loop took 0.086, 0.071, 0.074 and 0.075 s
# at 16, 64, 256 and 1,024, fine-mesh's 0.033, 0.030, 0.038 and 0.036 s
_OBSERVE_BLOCK = 64


def rk4_ansatz(problems, t_final: float, step: float, store_stride: int = 1, *,
               observe) -> None:
    """Lawson RK4 (``_lawson_oscillators``) on a sequence of per-position
    oscillator families.

    The families must share the mesh and the damping exponent m (one
    integer power for the whole batch).  Nodes whose damping coefficients
    coincide (``AnsatzProblem.damping_classes``) carry the same oscillator,
    so one oscillator per class and problem is stepped, all of them as one
    state z = k pi phi + i phi' over the classes of every problem in turn.
    The stored steps are t = 0 and every ``store_stride``-th step; stored
    step i is at time i * step * store_stride.  In blocks of at most
    ``_OBSERVE_BLOCK`` stored steps, starting at stored step i0, the loop
    calls ``observe(i0, phi, psi)`` with the class amplitudes phi = Re z /
    k pi and psi = Im z of the block, fresh (steps, classes) arrays.

    A state that stops being finite raises ``FloatingPointError``, checked
    once per block and naming the block's first non-finite stored step.
    """
    batch = list(problems)
    if not batch:
        raise ValueError("need at least one problem")
    first = batch[0]
    if any(p.m != first.m for p in batch):
        raise ValueError("problems in one batch must share the exponent m")
    if any(p.mesh.n != first.mesh.n for p in batch):
        raise ValueError("problems in one batch must share the sample positions")
    n_stored = whole_steps(t_final, step * store_stride, _STORED_GRID)
    coeffs, _, offsets = _classes(batch)
    omega = np.repeat([p.k * np.pi for p in batch], np.diff(offsets))
    z = np.repeat([p.k * np.pi * float(p.c0) + 1j * float(p.c1) for p in batch],
                  np.diff(offsets))
    block = np.empty((min(_OBSERVE_BLOCK, n_stored + 1), offsets[-1]), complex)

    def store(i, z):
        i //= store_stride
        j = i % _OBSERVE_BLOCK
        block[j] = z
        if j == len(block) - 1 or i == n_stored:
            rows = block[:j + 1]
            if not np.isfinite(rows).all():   # named at its first bad row
                r = np.isfinite(rows).all(axis=1).argmin()
                ks = ", ".join(str(p.k) for p, part in zip(batch, np.split(rows[r], offsets[1:-1]))
                               if not np.isfinite(part).all())
                raise FloatingPointError(
                    f"reference solution for k={ks} is not finite at "
                    f"t={(i - j + r) * step * store_stride:g}; reduce the step or the damping")
            observe(i - j, rows.real / omega, rows.imag.copy())

    # a blow-up is reported by ``store``, not through overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        store(0, z)
        _lawson_oscillators(omega, np.concatenate(coeffs), first.m, z, step,
                            n_stored * store_stride, store, store_stride)


class ClassForms:
    """The reference field's energies as exact sparse quadratic forms of the
    class amplitudes that ``rk4_ansatz`` hands ``observe``.

    Node i of a problem carries u_i = phi_c E_k(x_i), c its class, and K is
    tridiagonal: u^T K u = sum_i K_ii E_k(x_i)^2 phi_c(i)^2 + 2 sum_i K_i,i+1
    E_k(x_i) E_k(x_i+1) phi_c(i) phi_c(i+1), a weight on each class and on
    each pair of neighbouring classes (about three per class) summed over
    the nodes that carry it; M alike.  ``projection`` gives S^T u = P^T phi
    on the columns of S it is given, P[c, j] = sum_{i in c} S[i, j] E_k(x_i).
    """

    def __init__(self, problems: list, ops: SpatialOperators):
        _check_on_mesh(problems[0], ops.mesh)
        _, self.index, self.offsets = _classes(problems)
        self.eigen = [p.eigenfunction() for p in problems]
        self.pairs = []   # per problem: classes a <= b of each pair, their K and M weights
        for q, e, o, c in zip(self.index, self.eigen, self.offsets, np.diff(self.offsets)):
            # node i with itself and with i + 1, keyed a c + b counted from o
            a, b = np.sort([q[:-1], q[1:]], axis=0) - o
            key = np.concatenate([(q - o) * (c + 1), a * c + b])
            pairs = np.flatnonzero(np.bincount(key, minlength=c * c))
            self.pairs.append((o + pairs // c, o + pairs % c, np.stack([np.bincount(
                key, np.concatenate([diag * e * e, 2.0 * off * e[:-1] * e[1:]]), c * c)[pairs]
                for diag, off in ((ops.stiffness_diag, ops.stiffness_off),
                                  (ops.mass_diag, ops.mass_off))], axis=1)))

    def quadratic(self, x: np.ndarray) -> np.ndarray:
        """u^T K u and u^T M u of each problem's field for the class
        amplitude rows ``x``, shape (rows, problems, 2)."""
        return np.stack([(x[:, a] * x[:, b]) @ w for a, b, w in self.pairs], axis=1)

    def projection(self, r: int, sine: np.ndarray) -> np.ndarray:
        """P of problem ``r`` on the columns ``sine`` of S, (classes, columns)."""
        out = np.zeros((self.offsets[r + 1] - self.offsets[r], sine.shape[1]))
        np.add.at(out, self.index[r] - self.offsets[r], sine * self.eigen[r][:, None])
        return out


def reference_errors(trajectories: list, energies: list, problems: list,
                     ops: SpatialOperators, t_final: float, step: float,
                     store_stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-problem errors of finite element runs against the reference.

    Returns two arrays over the problems: the largest |E_y - E_r| and
    ||y - r||_E over the stored steps (``compare_energy_decay`` and
    ``compare_energy_norm``, to rounding) of the ``ModalTrajectory``
    ``trajectories[j]`` on the stored grid, whose energies E_y are
    ``energies[j]``, against ``problems[j]``.  One ``rk4_ansatz`` run
    advances every problem; each block it hands over is compared and
    dropped, so memory does not grow with the horizon.

    No nodal row is built: E_r is the ``ClassForms`` energy of the class
    amplitudes phi, psi, and ||y - r||^2_E = 2 E_y + 2 E_r - 2 <y, r>_E,
    <y, r>_E = sum_j mu_j (omega_j Re z_j (P^T phi)_j + Im z_j (P^T psi)_j)
    on each window's modes J (S_J^T K = diag(kappa_J) S_J^T), P being the
    ``projection`` on J, built once per J.  Row 0 is the nodal y0 itself.
    """
    if not problems or not len(trajectories) == len(energies) == len(problems):
        raise ValueError("need at least one problem, and one trajectory and one "
                         "energy history per problem")
    grid = (step * store_stride) * np.arange(
        whole_steps(t_final, step * store_stride, _STORED_GRID) + 1)
    for traj in trajectories:
        _check_aligned(traj.times, grid)
    forms = ClassForms(problems, ops)
    gap, sq = np.zeros((2, len(problems)))
    projections = [(None, None)] * len(problems)   # each run's last (J, P)

    def observe(i0, phi, psi):
        e_ref = 0.5 * (forms.quadratic(phi)[..., 0] + forms.quadratic(psi)[..., 1])
        for r, (traj, e_fem) in enumerate(zip(trajectories, energies)):
            prop, cls = traj.propagator, slice(*forms.offsets[r:r + 2])
            inner = np.empty(len(phi))
            if i0 == 0:   # row 0, the nodal y0, against r = phi_c(i) E_k(x_i)
                u, v = np.split(traj.y0, 2)
                inner[0] = forms.eigen[r] @ (phi[0, forms.index[r]] * ops.apply_stiffness(u)
                                             + psi[0, forms.index[r]] * ops.apply_mass(v))
            for modes, i, j, z in traj.windows(max(i0, 1), i0 + len(phi)):
                if not np.array_equal(projections[r][0], modes):
                    projections[r] = modes, forms.projection(r, prop.sine[:, modes])
                p, rows, mu = projections[r][1], slice(i - i0, j - i0), prop.mu[modes]
                inner[rows] = ((z.real * (phi[rows, cls] @ p)) @ (mu * prop.omega[modes])
                               + (z.imag * (psi[rows, cls] @ p)) @ mu)
            e = e_fem[i0:i0 + len(phi)]
            gap[r] = max(gap[r], np.abs(e - e_ref[:, r]).max())
            sq[r] = max(sq[r], (2.0 * (e + e_ref[:, r] - inner)).max())

    rk4_ansatz(problems, t_final, step, store_stride, observe=observe)
    return gap, np.sqrt(np.maximum(sq, 0.0))


def _check_on_mesh(problem: AnsatzProblem, mesh: Mesh) -> None:
    if problem.mesh.n != mesh.n:
        raise ValueError("oracle sample positions do not match the mesh nodes")


def oracle_states(sol: OracleSolution, mesh: Mesh) -> np.ndarray:
    """All stored reference states as stacked (u, v) rows."""
    _check_on_mesh(sol.problem, mesh)
    ek = sol.problem.eigenfunction()
    return np.concatenate([sol.phi * ek, sol.phidot * ek], axis=1)


def _check_aligned(times: np.ndarray, grid: np.ndarray) -> None:
    if len(times) != len(grid) or not np.allclose(times, grid):
        raise ValueError("trajectory and oracle time grids do not match")


# test-only: kept for perfbench/traced.py until the next benchmark change
def compare_energy_norm(traj: Trajectory, sol: OracleSolution,
                        ops: SpatialOperators) -> float:
    """Max-over-time energy norm of the state difference.

    This measures phase and amplitude mismatch together and is dominated by
    the slow phase drift between the reduced oscillator family and the full
    dynamics; see ``compare_energy_decay`` for the decay-history comparison.
    """
    _check_aligned(traj.times, sol.times)
    diff = traj.states - oracle_states(sol, ops.mesh)
    return float(energy_norm(ops, diff).max())


# test-only: kept for perfbench/traced.py until the next benchmark change
def compare_energy_decay(traj: Trajectory, sol: OracleSolution,
                         ops: SpatialOperators) -> float:
    """Max-over-time absolute gap between the two energy histories.

    Both trajectories start at the same energy, so this isolates how well
    the scheme reproduces the reference's dissipation, insensitive to the
    accumulated phase drift that inflates the state-difference norm.
    """
    _check_aligned(traj.times, sol.times)
    e_ref = energy(ops, oracle_states(sol, ops.mesh))
    return float(np.abs(energy(ops, traj.states) - e_ref).max())


# -- finite-dimensional counterpart -------------------------------------------

@dataclass(frozen=True)
class OscillatorProblem:
    """x'' + khat x + alpha x^{2m} x' = 0 with its equivalent norm."""

    khat: float
    alpha: float
    m: int
    x0: float
    x1: float

    def __post_init__(self):
        if is_bool(self.khat) or not 0 < self.khat < np.inf:   # false for NaN too
            raise ValueError(f"stiffness khat must be finite and positive, "
                             f"got {self.khat!r}")
        _check_finite(self, "x0", "x1")
        check_damping(self.alpha, self.m)

    def equivalent_norm(self, y: np.ndarray) -> np.ndarray:
        """sqrt(khat/2 y1^2 + 1/2 y2^2), batched over leading axes."""
        y = np.asarray(y)
        return np.sqrt(0.5 * self.khat * y[..., 0] ** 2 + 0.5 * y[..., 1] ** 2)


@dataclass(eq=False)
class OscillatorTrace:
    times: np.ndarray
    states: np.ndarray   # (n_times, 2)
    norms: np.ndarray


def simulate_oscillator(problem: OscillatorProblem, t_final: float,
                        step: float) -> OscillatorTrace:
    """Lawson RK4 trajectory (x, x') of the oscillator as z = sqrt(khat) x + i x',
    with its equivalent-norm history; a non-finite state raises FloatingPointError."""
    nsteps = whole_steps(t_final, step, "step must divide t_final")
    omega = np.sqrt(problem.khat)
    z = np.empty(nsteps + 1, complex)
    z[0] = omega * problem.x0 + 1j * problem.x1

    def record(i, zi):
        z[i] = zi[0]

    with np.errstate(over="ignore", invalid="ignore"):   # raised below
        _lawson_oscillators(omega, problem.alpha, problem.m, z[:1], step,
                            nsteps, record)
    finite = np.isfinite(z)
    if not finite.all():
        raise FloatingPointError(f"oscillator state is not finite at t="
                                 f"{step * finite.argmin():g}; reduce osc_step")
    z.real /= omega   # the (Re, Im) pairs of z become the rows (x, x')
    states = z.view(float).reshape(-1, 2)
    states[0] = problem.x0, problem.x1   # the datum, not its round trip
    return OscillatorTrace(times=step * np.arange(nsteps + 1), states=states,
                           norms=problem.equivalent_norm(states))


def ball_samples(radius: float, n: int, khat: float, angle_offset: float = 0.0) -> np.ndarray:
    """Deterministic low-discrepancy samples of the equivalent-norm ball.

    Golden-angle spiral in the coordinates that make the equivalent norm
    euclidean, so the points cover the ball of the given radius evenly.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    i = np.arange(n)
    rho = radius * np.sqrt((i + 0.5) / n)
    theta = angle_offset + np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.stack([rho * np.cos(theta) * np.sqrt(2.0 / khat),
                     rho * np.sin(theta) * np.sqrt(2.0)], axis=1)


@dataclass(eq=False)
class StabilitySweep:
    samples: np.ndarray
    initial_norms: np.ndarray
    times_to_eps: np.ndarray     # inf where the target was never reached

    @property
    def reached(self) -> np.ndarray:
        return np.isfinite(self.times_to_eps)

    @property
    def max_time(self) -> float:
        return float(self.times_to_eps.max())

    @property
    def all_reached(self) -> bool:
        return bool(self.reached.all())


def uniform_stability_sweep(khat: float, alpha: float, m: int, radius: float,
                            n_samples: int, eps_target: float,
                            horizon: float = 400.0, step: float = 0.01,
                            angle_offset: float = 0.0) -> StabilitySweep:
    """First time each sampled trajectory enters the eps-ball.

    All samples integrate in lockstep; a sample's clock stops at the first
    grid time its equivalent norm drops below ``eps_target``.  Samples that
    never get there within the horizon are reported with an infinite time,
    not an error, so conservative runs (alpha = 0) remain inspectable.
    Lawson RK4 steps z = sqrt(khat) x + i x', whose equivalent norm is
    |z| / sqrt(2); a state that stops being finite raises FloatingPointError.
    """
    nsteps = whole_steps(horizon, step, "step must divide the horizon")
    y = ball_samples(radius, n_samples, khat, angle_offset)
    problem = OscillatorProblem(khat=khat, alpha=alpha, m=m, x0=0.0, x1=0.0)
    norms0 = problem.equivalent_norm(y)
    first = np.where(norms0 < eps_target, 0.0, np.inf)
    omega = np.sqrt(khat)

    def record(i, z):
        norms = np.abs(z) / np.sqrt(2.0)
        if not np.isfinite(norms).all():
            raise FloatingPointError(f"oscillator state is not finite at "
                                     f"t={i * step:g}; reduce osc_step")
        hit = (norms < eps_target) & np.isinf(first)
        first[hit] = i * step
        return np.isfinite(first).all()

    with np.errstate(over="ignore", invalid="ignore"):   # raised by record
        _lawson_oscillators(omega, alpha, m, omega * y[:, 0] + 1j * y[:, 1],
                            step, nsteps, record)
    return StabilitySweep(samples=y, initial_norms=norms0, times_to_eps=first)
