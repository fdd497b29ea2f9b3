"""Experiment drivers: frequency sweeps, the primitive problem, decay fits.

The central experiment holds the initial energy fixed at one while pushing
the initial data to higher frequencies, then watches the decay deteriorate.
Companion constructions (the primitive problem whose velocity reproduces
the damped solution, and the resulting L^2 bound) turn the qualitative
statements into checkable numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import energy, h1_norm, l2_norm
from .linwave import ModalTrajectory, Trajectory
from .mesh import (Mesh, SpatialOperators, hat_load_from_values,
                   values_at_gauss, whole_steps)
from .multistep import ab5_init, ab5_step
from .picard import (PicardConfig, PicardResult, PrimitiveDamping,
                     picard_solve)


# -- initial data --------------------------------------------------------------

@dataclass(frozen=True)
class ModeData:
    """Discrete single-mode initial state with unit energy.

    The nodal interpolant of (2/(k pi)) sin(k pi x) misses unit energy by
    (k pi h)^2/12, which at k = 8, h = 0.01 exceeds the fixed-energy premise
    of the sweep; the amplitude is therefore rescaled so the discrete energy
    is exactly one (``scale`` records the factor, within 0.6% of one for all
    resolvable k).
    """

    k: int
    amplitude: float       # multiplies sin(k pi x); 2/(k pi) before rescaling
    scale: float
    y0: np.ndarray

    def amplitudes(self, ops: SpatialOperators) -> np.ndarray:
        """The modal amplitudes z = omega S u + i S v of the state, exactly.

        The nodal sine is amplitude / sqrt(2h) times the sine column k (see
        ``SpatialOperators.sine_basis``), so z has the one entry
        omega_k amplitude / sqrt(2h); ``Propagator.modal(y0)`` adds rounding
        in every mode.
        """
        mu, kappa = ops.sine_eigenvalues()
        z = np.zeros(ops.mesh.n, dtype=complex)
        z[self.k - 1] = (np.sqrt(kappa[self.k - 1] / mu[self.k - 1]) * self.amplitude
                         / np.sqrt(2.0 * ops.mesh.h))
        return z


def check_resolved(mesh: Mesh, k: int) -> None:
    """Reject a mode index below one or too fine for the mesh (8k > n)."""
    if k < 1:
        raise ValueError("mode index must be >= 1")
    if 8 * k > mesh.n:
        raise ValueError(f"mode {k} is under-resolved on n={mesh.n} "
                         "(need k <= n/8)")


def mode_initial_state(ops: SpatialOperators, k: int) -> ModeData:
    mesh = ops.mesh
    check_resolved(mesh, k)
    raw = 2.0 / (k * np.pi)
    u0 = raw * np.sin(k * np.pi * mesh.nodes)
    e0 = 0.5 * float(np.sum(u0 * ops.apply_stiffness(u0)))
    scale = 1.0 / np.sqrt(e0)
    u0 = scale * u0
    return ModeData(k=k, amplitude=raw * scale, scale=scale,
                    y0=np.concatenate([u0, np.zeros(mesh.n)]))


# -- energy traces --------------------------------------------------------------

@dataclass(eq=False)
class EnergyTrace:
    """Time series of the energy and the two component norms of a run."""

    times: np.ndarray
    energy: np.ndarray
    l2: np.ndarray
    h1: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.energy).all() and np.isfinite(self.l2).all()
                and np.isfinite(self.h1).all()):
            raise ValueError("trace contains non-finite entries")

    @classmethod
    def from_trajectory(cls, traj: Trajectory,
                        ops: SpatialOperators) -> "EnergyTrace":
        u = traj.displacement()
        return cls(times=traj.times.copy(),
                   energy=energy(ops, traj.states),
                   l2=l2_norm(ops, u),
                   h1=h1_norm(ops, u))

    @classmethod
    def from_modal(cls, traj: ModalTrajectory) -> "EnergyTrace":
        """The trace straight from the amplitudes, with no nodal row.

        Per sine mode S u = Re z / omega and S v = Im z, and S M S =
        diag(mu), S K S = diag(mu omega^2), so E = 1/2 sum mu |z|^2,
        |u|_1^2 = sum mu (Re z)^2 and |u|_0^2 = sum mu (Re z / omega)^2.
        Row 0 takes every mode of ``y0``.
        """
        prop = traj.propagator
        squares = np.empty((3, len(traj.times)))   # 2E, |u|_1^2, |u|_0^2
        i = 0
        for modes, z in [(slice(None), prop.modal(traj.y0)[None])] + [
                (modes, z[1:]) for modes, z in traj.segments]:
            mu, omega = prop.mu[modes], prop.omega[modes]
            stiff = z.real ** 2 @ mu
            squares[:, i:i + len(z)] = (stiff + z.imag ** 2 @ mu, stiff,
                                        (z.real / omega) ** 2 @ mu)
            i += len(z)
        return cls(times=traj.times.copy(), energy=0.5 * squares[0],
                   l2=np.sqrt(squares[2]), h1=np.sqrt(squares[1]))


# -- frequency sweep -------------------------------------------------------------

@dataclass(eq=False)
class FrequencyRun:
    k: int
    data: ModeData
    result: PicardResult
    trace: EnergyTrace

    @property
    def trajectory(self) -> ModalTrajectory:
        return self.result.trajectory


def frequency_sweep(ks, alpha: float, m: int, ops: SpatialOperators,
                    delta: float, t_final: float, window: float = 1.0,
                    epsilon: float = 1e-8) -> list[FrequencyRun]:
    """One converged run per frequency, all from unit-energy data, in the
    order of ``ks``."""
    config = PicardConfig(t_final=t_final, delta=delta, alpha=alpha, m=m,
                          epsilon=epsilon, window=window)
    runs = []
    for k in ks:
        data = mode_initial_state(ops, k)
        result = picard_solve(ops, data.y0, config, z0=data.amplitudes(ops))
        runs.append(FrequencyRun(k=k, data=data, result=result,
                                 trace=EnergyTrace.from_modal(result.trajectory)))
    return runs


# -- primitive problem ------------------------------------------------------------

@dataclass(eq=False)
class PrimitiveSetup:
    """Displacement potential data for the velocity-reproduction identity.

    ``phi0`` solves the discrete elliptic problem K phi0 = -(g, hat basis)
    with g the antiderivative damping of the initial displacement, so the
    primitive trajectory starts with zero acceleration and its velocity
    follows the degenerately damped solution.
    """

    k: int
    m: int
    alpha: float
    data: ModeData
    phi0: np.ndarray
    damping: PrimitiveDamping

    def initial_state(self) -> np.ndarray:
        return np.concatenate([self.phi0, self.data.y0[: len(self.phi0)]])

    def energy_bound(self, ops: SpatialOperators) -> float:
        """|phi0|_1^2 + |u0|_0^2, twice the primitive problem's initial energy."""
        u0 = self.data.y0[: len(self.phi0)]
        return float(np.sum(self.phi0 * ops.apply_stiffness(self.phi0))
                     + np.sum(u0 * ops.apply_mass(u0)))


def primitive_setup(k: int, m: int, ops: SpatialOperators,
                    alpha: float = 1.0) -> PrimitiveSetup:
    """Solve the elliptic problem for the displacement potential.

    The antiderivative damping is evaluated on the piecewise-linear
    interpolant of the initial displacement (the same object the wave solver
    evolves), integrated per element with Gauss points matching its degree.
    """
    mesh = ops.mesh
    damping = PrimitiveDamping(alpha=alpha, m=m)
    data = mode_initial_state(ops, k)
    u0 = data.y0[: mesh.n]
    npts = max(4, m + 2)
    _, xi, w = mesh.element_gauss(npts)
    vals = damping.antiderivative(values_at_gauss(mesh, u0, xi))
    load = hat_load_from_values(mesh, vals, xi, w)
    # K phi0 = -load, solved in the sine modes that diagonalize K
    sine = ops.sine_basis()
    _, kappa = ops.sine_eigenvalues()
    phi0 = sine @ (sine @ -load / kappa)
    return PrimitiveSetup(k=k, m=m, alpha=alpha, data=data, phi0=phi0,
                          damping=damping)


def closed_form_potential_m1(amplitude: float, k: int, x: np.ndarray) -> np.ndarray:
    """Closed form of the displacement potential for cubic damping.

    With g(s) = s^3/3 and u0 = c sin(k pi x), expanding sin^3 into the first
    and third harmonics gives
    phi0 = -(c^3/3) [ 3 sin(k pi x)/(4 k^2 pi^2) - sin(3 k pi x)/(36 k^2 pi^2) ].
    """
    c = amplitude
    kk = (k * np.pi) ** 2
    return -(c**3 / 3.0) * (3.0 / (4.0 * kk) * np.sin(k * np.pi * x)
                            - 1.0 / (36.0 * kk) * np.sin(3 * k * np.pi * x))


@dataclass(eq=False)
class PrimitiveResult:
    setup: PrimitiveSetup
    trajectory: ModalTrajectory
    trace: EnergyTrace
    velocity_gap_l2: float          # sup-in-time |phi' - u|_0 against the damped run
    damped_run: FrequencyRun
    windows: list                   # the primitive run's Picard WindowReports


def primitive_solve(setup: PrimitiveSetup, ops: SpatialOperators,
                    delta: float, t_final: float,
                    window: float = 1.0, epsilon: float = 1e-8,
                    damped_run: FrequencyRun | None = None) -> PrimitiveResult:
    """Integrate the primitive problem and compare its velocity to the damped
    run, which must be a run of mode ``setup.k`` on this run's time grid."""
    config = PicardConfig(t_final=t_final, delta=delta, alpha=setup.alpha,
                          m=setup.m, epsilon=epsilon, window=window)
    if damped_run is not None and (damped_run.k != setup.k or not np.array_equal(
            damped_run.trajectory.times, config.times)):
        raise ValueError("damped_run must be a run of the same mode on the same "
                         "time grid")
    result = picard_solve(ops, setup.initial_state(), config,
                          forcing=setup.damping)
    if damped_run is None:
        damped_run = frequency_sweep([setup.k], setup.alpha, setup.m, ops,
                                     delta, t_final, window=window,
                                     epsilon=epsilon)[0]
    n = ops.mesh.n
    gap = max(float(l2_norm(ops, primitive[:, n:] - damped[:, :n]).max())
              for primitive, damped in zip(result.trajectory.blocks(),
                                           damped_run.trajectory.blocks()))
    trace = EnergyTrace.from_modal(result.trajectory)
    return PrimitiveResult(setup=setup, trajectory=result.trajectory,
                           trace=trace, velocity_gap_l2=gap,
                           damped_run=damped_run, windows=result.windows)


# output steps per block handed to an extension's observer
EXTENSION_BLOCK = 256


def _extension_grid(trajs: list, t_final: float) -> tuple:
    """(t1, delta, output steps) of extending ``trajs`` to ``t_final``."""
    t1, delta = trajs[0].times[-1], trajs[0].delta
    if any(tr.times[-1] != t1 or tr.delta != delta for tr in trajs):
        raise ValueError("the trajectories must end on one shared time grid")
    if t_final < t1 - 1e-9:
        raise ValueError("extension target lies before the trajectory end")
    return t1, delta, whole_steps(t_final - t1, delta,
                                  "delta must tile the extension interval",
                                  least=0)


def extend_with_ab5(trajs: list, ops: SpatialOperators, forcing,
                    t_final: float, observe) -> None:
    """Extend the trajectories ``trajs`` to ``t_final`` by AB5 in the
    rotating sine frame, all in one loop, keeping no extended history.

    The ``ModalTrajectory`` inputs share one time grid; only the amplitudes
    of their last five rows are read.  Output step j, at
    t1 + (j + 1) delta with t1 the grid's end, reaches ``observe(j0, block)``
    in blocks of at most ``EXTENSION_BLOCK`` steps: ``block`` has shape
    (len(trajs), b, 2n), its row i is step j0 + i, and it is overwritten
    once ``observe`` returns.

    The modal amplitudes z of ``Propagator.modal`` rotate exactly as
    exp(-i omega t) under the linear flow, so w = exp(i omega (t - t1)) z
    moves under the forcing alone:
    w' = exp(i omega (t - t1)) i S f(u, v) (Lawson's integrating factor),
    with S f from the forcing's load by ``Propagator.forcing_modes``.
    AB5 steps w, as the float view of its complex array (Re, Im pairs),
    from the last five rows' ``ModalTrajectory.amplitudes``, one step per
    output step on any mesh.
    ``BlowupError`` stops the run once a member's modal energy
    1/2 sum mu_j |w_j|^2 exceeds ten times its start.
    """
    _, delta, n_out = _extension_grid(trajs, t_final)
    if min(len(tr.times) for tr in trajs) < 5:
        raise ValueError("need five history points to start the scheme")
    propagator = trajs[0].propagator
    n, omega = ops.mesh.n, propagator.omega
    block = np.empty((len(trajs), min(n_out, EXTENSION_BLOCK), 2 * n))
    # (j delta)(-i omega) rounds as -i (j delta omega): Propagator.phases' values
    neg_i_omega = -1j * omega

    # AB5 counts time in steps j = (t - t1)/delta, so that every phase is
    # taken at an exact multiple of delta; in these units w' = delta * g
    def rhs(j, y):
        phase = np.exp((j * delta) * neg_i_omega)
        state = propagator.nodal(phase * y.view(complex))
        if j > 0:
            # ab5_step evaluates each new step j once: its output row
            block[:, (int(j) - 1) % EXTENSION_BLOCK] = state
        g = propagator.forcing_modes(forcing.load(ops, state[:, :n], state[:, n:]))
        return (1j * delta * phase.conj() * g).view(float)

    steps = np.arange(-4.0, 1.0)
    z0 = np.stack([tr.amplitudes(len(tr.times) - 5, len(tr.times))
                   for tr in trajs], axis=1)
    w = np.exp(1j * delta * steps[:, None, None] * omega) * z0
    half_mu = np.repeat(0.5 * propagator.mu, 2)
    ab = ab5_init(steps, w.view(float), rhs,
                  norm_fn=lambda y: (y * y) @ half_mu)
    for j0 in range(0, n_out, EXTENSION_BLOCK):
        b = min(EXTENSION_BLOCK, n_out - j0)
        for _ in range(b):
            ab5_step(ab)
        observe(j0, block[:, :b])


def extend_traces(trajs: list, traces: list, ops: SpatialOperators, forcing,
                  t_final: float) -> list[EnergyTrace]:
    """Each run's ``EnergyTrace`` continued to ``t_final`` by one
    ``extend_with_ab5`` of all the runs; its rows up to the runs' end are
    kept as they are."""
    t1, delta, n_out = _extension_grid(trajs, t_final)
    n = ops.mesh.n
    rows = np.empty((3, len(trajs), n_out))

    def observe(j0, block):
        u = block[..., :n]
        for row, values in zip(rows, (energy(ops, block), l2_norm(ops, u),
                                      h1_norm(ops, u))):
            row[:, j0:j0 + block.shape[1]] = values

    extend_with_ab5(trajs, ops, forcing, t_final, observe)
    times = t1 + delta * np.arange(1, n_out + 1)
    return [EnergyTrace(times=np.concatenate([tr.times, times]),
                        energy=np.concatenate([tr.energy, e]),
                        l2=np.concatenate([tr.l2, l2]),
                        h1=np.concatenate([tr.h1, h1]))
            for tr, e, l2, h1 in zip(traces, *rows)]


# -- diagnostics -----------------------------------------------------------------

def decay_rate_fit(trace: EnergyTrace, window: tuple[float, float]) -> float:
    """Least-squares exponent p of E ~ c t^{-p} on the given time window."""
    t1, t2 = window
    mask = (trace.times >= t1 - 1e-12) & (trace.times <= t2 + 1e-12)
    if mask.sum() < 2:
        raise ValueError("window contains fewer than two samples")
    e = trace.energy[mask]
    if (e <= 0).any():
        raise ValueError("energy must be positive throughout the fit window")
    slope = np.polyfit(np.log(trace.times[mask]), np.log(e), 1)[0]
    return float(-slope)


def dissipation_exponent(trace: EnergyTrace,
                         window: tuple[float, float]) -> float:
    """Exponent p of E ~ (t + t0)^{-p} from the dissipation law, free of t0.

    Such an E obeys dE/dt = -C E^{1 + 1/p}.  E is sampled at unit steps on
    the window; the slope q of log(E_i - E_{i+1}) against
    log sqrt(E_i E_{i+1}) estimates 1 + 1/p, so p = 1/(q - 1).  Unlike
    ``decay_rate_fit`` it is not biased by the shift t0.
    """
    t1, t2 = window
    samples = np.interp(np.arange(t1, t2 + 0.5), trace.times, trace.energy)
    if len(samples) < 3:
        raise ValueError(f"window [{t1:g}, {t2:g}] holds fewer than three "
                         "unit-step samples")
    loss = samples[:-1] - samples[1:]
    if (loss <= 0).any():
        raise ValueError("energy loss over a sampling interval is not "
                         "positive, so its logarithm is undefined")
    mean = np.sqrt(samples[:-1] * samples[1:])
    q = np.polyfit(np.log(mean), np.log(loss), 1)[0]
    return float(1.0 / (q - 1.0))


@dataclass(eq=False)
class LowerOrderReport:
    """Pointwise check of |u(t)|_0^2 against the primitive energy bound."""

    times: np.ndarray
    l2: np.ndarray
    bound: float                 # |phi0|_1^2 + |u0|_0^2
    satisfied: np.ndarray

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())


def lower_order_decay(trace: EnergyTrace, setup: PrimitiveSetup,
                      ops: SpatialOperators) -> LowerOrderReport:
    bound = setup.energy_bound(ops)
    return LowerOrderReport(times=trace.times.copy(), l2=trace.l2.copy(),
                            bound=bound,
                            satisfied=trace.l2**2 <= bound + 1e-12)
