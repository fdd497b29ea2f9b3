"""Independent reference solutions for validation.

For single-eigenfunction data the string problem collapses pointwise to a
family of damped oscillator equations parameterized by position: at each x
the value u(t, x) obeys u'' + lambda_k u + alpha E_k(x)^{2m} phi^{2m} phi' = 0
written for the modal amplitude phi with u = phi E_k.  Solving that family
with classical Runge-Kutta and interpolating in space gives an accuracy
reference that never touches the finite element machinery.

The same file carries the two-dimensional degenerately damped oscillator,
the finite-dimensional counterpart whose uniform stability contrasts the
string's lack of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import SpatialOperators, energy, energy_norm
from .linwave import Trajectory
from .mesh import Mesh


@dataclass(frozen=True, eq=False)
class AnsatzProblem:
    """Per-position oscillator family for single-mode initial data.

    The data are u(0) = c0 E_k, u_t(0) = c1 E_k with E_k = sqrt(2) sin(k pi x);
    ``x`` holds the positions at which the family is sampled.
    """

    k: int
    c0: float
    c1: float
    alpha: float
    m: int
    x: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("mode index must be >= 1")
        if len(self.x) < 2:
            raise ValueError("need at least two sample positions")
        x = np.asarray(self.x)
        if (x < 0).any() or (x > 1).any():
            raise ValueError("sample positions must lie in [0, 1]")

    @classmethod
    def for_mesh(cls, mesh: Mesh, k: int, c0: float, c1: float = 0.0,
                 alpha: float = 1.0, m: int = 1) -> "AnsatzProblem":
        """Sample the family exactly at the mesh nodes."""
        return cls(k=k, c0=c0, c1=c1, alpha=alpha, m=m, x=mesh.nodes.copy())

    @property
    def lam(self) -> float:
        return (self.k * np.pi) ** 2

    def eigenfunction(self) -> np.ndarray:
        return np.sqrt(2.0) * np.sin(self.k * np.pi * self.x)


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


def _stored_step_count(t_final: float, step: float, store_stride: int) -> int:
    """Stored steps after t = 0 of an RK4 run; validates the grid."""
    nsteps = int(round(t_final / step))
    if nsteps < 1 or abs(nsteps * step - t_final) > 1e-9:
        raise ValueError("step must divide the horizon")
    if store_stride < 1 or nsteps % store_stride != 0:
        raise ValueError("store stride must divide the step count")
    return nsteps // store_stride


def rk4_ansatz(problems, t_final: float, step: float, store_stride: int = 1,
               observe=None):
    """Classical RK4 on one or more per-position oscillator families.

    ``problems`` is one ``AnsatzProblem`` or a sequence of them; all of them
    advance together as one (K, n) state, vectorized over problems and
    positions, so they must share the sample positions and the damping
    exponent m (one integer power for the whole batch).  Every
    ``store_stride`` steps, and at t = 0, the loop calls
    ``observe(i, phi, psi)`` with the stored-step index i (the time is
    i * step * store_stride) and the (K, n) amplitudes phi, phi', which the
    loop does not modify afterwards.  Without ``observe`` the stored states
    are collected: the result is an ``OracleSolution``, or a list of them
    when ``problems`` is a sequence.  With it, nothing is kept and None is
    returned.

    A state that stops being finite raises ``FloatingPointError``.
    """
    single = isinstance(problems, AnsatzProblem)
    batch = [problems] if single else list(problems)
    if not batch:
        raise ValueError("need at least one problem")
    first = batch[0]
    if any(p.m != first.m for p in batch):
        raise ValueError("problems in one batch must share the exponent m")
    if any(not np.array_equal(p.x, first.x) for p in batch):
        raise ValueError("problems in one batch must share the sample positions")
    n_stored = _stored_step_count(t_final, step, store_stride)
    collect = observe is None
    if collect:
        history = np.empty((2, len(batch), n_stored + 1, len(first.x)))

        def observe(i, phi, psi):
            history[0, :, i] = phi
            history[1, :, i] = psi

    two_m = 2 * first.m
    neg_lam = np.array([[-p.lam] for p in batch])
    # damping coefficient of the reduced oscillator at each position
    coeff = np.array([p.alpha * p.eigenfunction() ** two_m for p in batch])
    # y[0] = phi, y[1] = phi'; one stacked array saves a call per update
    y = np.empty((2,) + coeff.shape)
    y[0] = [[float(p.c0)] for p in batch]
    y[1] = [[float(p.c1)] for p in batch]
    stages = np.empty((4,) + y.shape)

    def slope(z, out):
        p, q = z
        out[0] = q
        np.subtract(neg_lam * p, coeff * p**two_m * q, out=out[1])
        return out

    def store(i, y):
        ok = np.isfinite(y).all(axis=(0, 2))
        if not ok.all():
            ks = ", ".join(str(p.k) for p, good in zip(batch, ok) if not good)
            raise FloatingPointError(
                f"reference solution for k={ks} is not finite at "
                f"t={i * step * store_stride:g}; reduce the step or the damping")
        observe(i, y[0], y[1])

    h = step
    half_h = 0.5 * h
    # a blow-up is reported by ``store``, not through overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        store(0, y)
        for i in range(1, n_stored * store_stride + 1):
            k1 = slope(y, stages[0])
            k2 = slope(y + half_h * k1, stages[1])
            k3 = slope(y + half_h * k2, stages[2])
            k4 = slope(y + h * k3, stages[3])
            y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            if i % store_stride == 0:
                store(i // store_stride, y)

    if not collect:
        return None
    times = (step * store_stride) * np.arange(n_stored + 1)
    sols = [OracleSolution(problem=p, times=times, phi=phi, phidot=psi)
            for p, phi, psi in zip(batch, *history)]
    return sols[0] if single else sols


# stored steps per block of the streamed comparison
_COMPARE_BLOCK = 256


def reference_errors(trajectories: list, problems: list, ops: SpatialOperators,
                     t_final: float, step: float,
                     store_stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per-problem errors of finite element runs against the reference.

    Returns two arrays over the problems: the values of
    ``compare_energy_decay`` and ``compare_energy_norm`` for
    ``trajectories[j]`` against ``problems[j]``, bit for bit.  One
    ``rk4_ansatz`` run advances every problem, and each block of 256 stored
    steps is compared and dropped, so memory does not grow with the
    horizon.  Each trajectory must lie on the stored reference grid.
    """
    if len(trajectories) != len(problems):
        raise ValueError("need one trajectory per problem")
    n_stored = _stored_step_count(t_final, step, store_stride)
    grid = (step * store_stride) * np.arange(n_stored + 1)
    for traj in trajectories:
        if len(traj.times) != len(grid) or not np.allclose(traj.times, grid):
            raise ValueError("trajectory and oracle time grids do not match")
    _check_on_mesh(problems[0], ops.mesh)
    n = ops.mesh.n
    ek = np.array([p.eigenfunction() for p in problems])
    gap = np.zeros(len(problems))
    norm = np.zeros(len(problems))
    ref = np.empty((len(problems), _COMPARE_BLOCK, 2 * n))

    def observe(i, phi, psi):
        j = i % _COMPARE_BLOCK
        ref[:, j, :n] = phi * ek
        ref[:, j, n:] = psi * ek
        if j == _COMPARE_BLOCK - 1 or i == n_stored:
            fem = np.stack([traj.states[i - j:i + 1] for traj in trajectories])
            cur = ref[:, :j + 1]
            np.maximum(gap, np.abs(energy(ops, fem) - energy(ops, cur)).max(axis=1),
                       out=gap)
            np.maximum(norm, energy_norm(ops, fem - cur).max(axis=1), out=norm)

    rk4_ansatz(problems, t_final, step, store_stride, observe=observe)
    return gap, norm


def _check_on_mesh(problem: AnsatzProblem, mesh: Mesh) -> None:
    if len(problem.x) != mesh.n or not np.allclose(problem.x, mesh.nodes):
        raise ValueError("oracle sample positions do not match the mesh nodes")


def oracle_states(sol: OracleSolution, mesh: Mesh) -> np.ndarray:
    """All stored reference states as stacked (u, v) rows."""
    _check_on_mesh(sol.problem, mesh)
    ek = sol.problem.eigenfunction()
    return np.concatenate([sol.phi * ek, sol.phidot * ek], axis=1)


def _check_aligned(traj: Trajectory, sol: OracleSolution):
    if len(traj.times) != len(sol.times) or not np.allclose(traj.times, sol.times):
        raise ValueError("trajectory and oracle time grids do not match")


def compare_energy_norm(traj: Trajectory, sol: OracleSolution,
                        ops: SpatialOperators) -> float:
    """Max-over-time energy norm of the state difference.

    This measures phase and amplitude mismatch together and is dominated by
    the slow phase drift between the reduced oscillator family and the full
    dynamics; see ``compare_energy_decay`` for the decay-history comparison.
    """
    _check_aligned(traj, sol)
    diff = traj.states - oracle_states(sol, ops.mesh)
    return float(energy_norm(ops, diff).max())


def compare_energy_decay(traj: Trajectory, sol: OracleSolution,
                         ops: SpatialOperators) -> float:
    """Max-over-time absolute gap between the two energy histories.

    Both trajectories start at the same energy, so this isolates how well
    the scheme reproduces the reference's dissipation, insensitive to the
    accumulated phase drift that inflates the state-difference norm.
    """
    _check_aligned(traj, sol)
    e_fem = energy(ops, traj.states)
    e_ref = energy(ops, oracle_states(sol, ops.mesh))
    return float(np.abs(e_fem - e_ref).max())


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
        if self.khat <= 0:
            raise ValueError("stiffness must be positive")

    def equivalent_norm(self, y: np.ndarray) -> np.ndarray:
        """sqrt(khat/2 y1^2 + 1/2 y2^2), batched over leading axes."""
        y = np.asarray(y)
        return np.sqrt(0.5 * self.khat * y[..., 0] ** 2 + 0.5 * y[..., 1] ** 2)


@dataclass(eq=False)
class OscillatorTrace:
    problem: OscillatorProblem
    times: np.ndarray
    states: np.ndarray   # (n_times, 2)
    norms: np.ndarray


def _oscillator_rhs(khat, alpha, m):
    def rhs(y):
        x, v = y[..., 0], y[..., 1]
        return np.stack([v, -khat * x - alpha * x ** (2 * m) * v], axis=-1)
    return rhs


def _rk4_batch(rhs, y, h, nsteps, callback=None):
    """Vectorized RK4; a callback returning True stops the run early."""
    for i in range(nsteps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if callback is not None and callback(i, y):
            break
    return y


def simulate_oscillator(problem: OscillatorProblem, t_final: float,
                        step: float) -> OscillatorTrace:
    """RK4 trajectory of the oscillator with its equivalent-norm history."""
    if step <= 0:
        raise ValueError("step must be positive")
    nsteps = int(round(t_final / step))
    rhs = _oscillator_rhs(problem.khat, problem.alpha, problem.m)
    states = np.empty((nsteps + 1, 2))
    states[0] = (problem.x0, problem.x1)

    def record(i, y):
        states[i + 1] = y

    _rk4_batch(rhs, states[0].copy(), step, nsteps, record)
    times = step * np.arange(nsteps + 1)
    return OscillatorTrace(problem=problem, times=times, states=states,
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
    problem_khat: float
    alpha: float
    m: int
    radius: float
    eps_target: float
    horizon: float
    step: float
    samples: np.ndarray
    initial_norms: np.ndarray
    times_to_eps: np.ndarray     # inf where the target was never reached
    reached: np.ndarray

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
    """
    y = ball_samples(radius, n_samples, khat, angle_offset)
    problem = OscillatorProblem(khat=khat, alpha=alpha, m=m, x0=0.0, x1=0.0)
    norms0 = problem.equivalent_norm(y)
    rhs = _oscillator_rhs(khat, alpha, m)
    nsteps = int(round(horizon / step))
    first = np.where(norms0 < eps_target, 0.0, np.inf)

    def record(i, y):
        nm = problem.equivalent_norm(y)
        hit = (nm < eps_target) & np.isinf(first)
        first[hit] = (i + 1) * step
        return np.isfinite(first).all()

    _rk4_batch(rhs, y, step, nsteps, record)
    return StabilitySweep(problem_khat=khat, alpha=alpha, m=m, radius=radius,
                          eps_target=eps_target, horizon=horizon, step=step,
                          samples=y, initial_norms=norms0, times_to_eps=first,
                          reached=np.isfinite(first))
