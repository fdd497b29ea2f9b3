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

    def modal_energy(self) -> np.ndarray:
        """Per-sample oscillator energy 1/2 lam phi^2 + 1/2 phi'^2, (n_times, n_samples)."""
        return 0.5 * self.problem.lam * self.phi**2 + 0.5 * self.phidot**2


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


def rk4_ansatz(problems, t_final: float, step: float, store_stride: int = 1,
               observe=None):
    """Lawson RK4 (``_lawson_oscillators``) on a sequence of per-position
    oscillator families.

    The families must share the mesh and the damping exponent m (one
    integer power for the whole batch).  Nodes whose damping coefficients
    coincide (``AnsatzProblem.damping_classes``) carry the same oscillator,
    so one oscillator per class and problem is stepped, all of them as one
    state z = k pi phi + i phi', and the (K, n) amplitudes phi, phi' at the
    nodes are gathered from it at the stored steps only.  Every
    ``store_stride`` steps, and at t = 0, the loop calls
    ``observe(i, phi, psi)`` with the stored-step index i (the time is
    i * step * store_stride) and those amplitudes, which the loop does not
    modify afterwards.  Without ``observe`` the
    stored states are collected into a list of ``OracleSolution``, one per
    problem.  With it, nothing is kept and None is returned.

    A state that stops being finite raises ``FloatingPointError``.
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
    collect = observe is None
    if collect:
        history = np.empty((2, len(batch), n_stored + 1, first.mesh.n))

        def observe(i, phi, psi):
            history[0, :, i] = phi
            history[1, :, i] = psi

    coeffs, index = zip(*(p.damping_classes() for p in batch))
    sizes = [len(c) for c in coeffs]
    coeff = np.concatenate(coeffs)
    # each problem's class indices, offset to its part of the state
    index = np.array(index) + np.cumsum([0] + sizes[:-1])[:, None]
    omega = [p.k * np.pi for p in batch]
    z = np.repeat([w * float(p.c0) + 1j * float(p.c1)
                   for p, w in zip(batch, omega)], sizes)
    omega_rows = np.array(omega)[:, None]

    def store(i, z):
        nodal = z[index]   # a fresh (K, n) array: the loop overwrites z
        ok = np.isfinite(nodal).all(axis=1)
        if not ok.all():
            ks = ", ".join(str(p.k) for p, good in zip(batch, ok) if not good)
            raise FloatingPointError(
                f"reference solution for k={ks} is not finite at "
                f"t={i * step:g}; reduce the step or the damping")
        observe(i // store_stride, nodal.real / omega_rows, nodal.imag)

    # a blow-up is reported by ``store``, not through overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        store(0, z)
        _lawson_oscillators(np.repeat(omega, sizes), coeff, first.m, z, step,
                            n_stored * store_stride, store, store_stride)

    if not collect:
        return None
    times = (step * store_stride) * np.arange(n_stored + 1)
    return [OracleSolution(problem=p, times=times, phi=phi, phidot=psi)
            for p, phi, psi in zip(batch, *history)]


# stored steps per block of the streamed comparison: the fold's traced peak
# on fig2's four modes (n = 99) and fine-mesh's three (n = 499) is 7.9 and
# 30.8 MB at 256, 5.1 and 20.0 MB at 64, and 4.4 and 17.3 MB at 16, the rest
# being each reader's synthesized window; the time, 0.6-1.3 s, is the RK4
# loop's at every size (one thread)
_COMPARE_BLOCK = 64


def reference_errors(trajectories: list, energies: list, problems: list,
                     ops: SpatialOperators, t_final: float, step: float,
                     store_stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-problem errors of finite element runs against the reference.

    Returns two arrays over the problems: the values of
    ``compare_energy_decay`` and ``compare_energy_norm`` for
    ``trajectories[j]``, whose energies are ``energies[j]``, against
    ``problems[j]``, bit for bit.  One ``rk4_ansatz`` run advances every
    problem, and each block of ``_COMPARE_BLOCK`` stored steps is compared
    and dropped, so memory does not grow with the horizon.  Each trajectory
    (a ``ModalTrajectory``, or any with its ``times`` and ``blocks``) must
    lie on the stored reference grid; its rows are read block by block.
    """
    if not problems or not len(trajectories) == len(energies) == len(problems):
        raise ValueError("need at least one problem, and one trajectory and one "
                         "energy history per problem")
    n_stored = whole_steps(t_final, step * store_stride, _STORED_GRID)
    grid = (step * store_stride) * np.arange(n_stored + 1)
    for traj in trajectories:
        _check_aligned(traj.times, grid)
    _check_on_mesh(problems[0], ops.mesh)
    gap, norm = np.zeros((2, len(problems)))
    # phi and phi' of the current block: (2, problems, block, positions)
    block = np.empty((2, len(problems), _COMPARE_BLOCK, ops.mesh.n))
    readers = [traj.blocks(_COMPARE_BLOCK) for traj in trajectories]

    def observe(i, phi, psi):
        j = i % _COMPARE_BLOCK
        block[:, :, j] = phi, psi
        if j == _COMPARE_BLOCK - 1 or i == n_stored:
            rows = slice(i - j, i + 1)
            for r, (reader, e_fem, prob) in enumerate(zip(readers, energies,
                                                          problems)):
                ref = oracle_states(OracleSolution(prob, grid[rows],
                                                   *block[:, r, :j + 1]), ops.mesh)
                gap[r] = max(gap[r], np.abs(e_fem[rows] - energy(ops, ref)).max())
                norm[r] = max(norm[r], energy_norm(ops, next(reader) - ref).max())

    rk4_ansatz(problems, t_final, step, store_stride, observe=observe)
    return gap, norm


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
