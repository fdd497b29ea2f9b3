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

from .linop import Propagator
from .linwave import ModalTrajectory
from .mesh import Mesh, SpatialOperators, whole_steps
from .multistep import ab5_init, ab5_step, blowup_at
from .picard import (DETECT, TOL, _DETECT_ROWS, PicardConfig, PicardResult,
                     PrimitiveDamping, _mode_energy, _Triads, load_model,
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
    def from_modal(cls, traj: ModalTrajectory) -> "EnergyTrace":
        """The trace straight from the amplitudes by ``modal_norms``."""
        energy, l2, h1 = (np.concatenate(parts) for parts in zip(*(
            modal_norms(traj.propagator, modes, z)
            for modes, _, _, z in traj.windows(0, len(traj.times)))))
        return cls(times=traj.times.copy(), energy=energy, l2=l2, h1=h1)


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

    Its load is the primitive damping's own exact load, taken with the
    piecewise-linear interpolant of the initial displacement (the same
    object the wave solver evolves) as the velocity.
    """
    damping = PrimitiveDamping(alpha=alpha, m=m)
    data = mode_initial_state(ops, k)
    u0 = data.y0[: ops.mesh.n]
    # K phi0 = -(g(u0), phi_i) = damping.load(u0, u0), in the sine modes of K
    sine = ops.sine_basis()
    _, kappa = ops.sine_eigenvalues()
    phi0 = sine @ (sine @ damping.load(ops, u0, u0) / kappa)
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
    # |phi' - u|_0^2 = sum_j mu_j (Im z_j - Re z'_j / omega_j)^2 of the two
    # runs' amplitudes z and z', read a window at a time
    traj, prop = result.trajectory, result.trajectory.propagator
    gap = max(float(np.sqrt((d * d) @ prop.mu).max()) for d in (
        traj.amplitudes(i, j).imag - damped_run.trajectory.amplitudes(i, j).real / prop.omega
        for _, i, j, _ in traj.windows(0, len(traj.times))))
    trace = EnergyTrace.from_modal(result.trajectory)
    return PrimitiveResult(setup=setup, trajectory=result.trajectory,
                           trace=trace, velocity_gap_l2=gap,
                           damped_run=damped_run, windows=result.windows)


# output steps per extension block, searched for new modes, then observed;
# fig3-short's extension (one thread, min of 4) took 0.214, 0.205, 0.197,
# 0.201 and 0.222 s at 16, 32, 64, 128 and 256
EXTENSION_BLOCK = 64


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


class _StackedTriads:
    """Several runs' ``_Triads`` in one pair of batched products.  ``at``
    takes a (runs, width) array, each run's amplitudes on its J
    zero-padded to the widest J (``omega`` reads one there), and each
    run's coefficients are zero-padded alike."""

    def __init__(self, models: list, omega: np.ndarray):
        self.forcing, self.omega = models[0].forcing, omega
        runs, width = omega.shape
        pairs = max(len(model.p) for model in models)
        # C[run, pair, c, s], and each pair's factors' flat indices into x
        c = np.zeros((runs, pairs, width, width))
        self.p, self.q = np.zeros((2, runs, pairs), int)
        for row, model in enumerate(models):
            k, j = len(model.p), len(model.active)
            c[row, :k, :j, :j] = model.on.reshape(k, j, j)
            self.p[row, :k], self.q[row, :k] = row * width + model.p, row * width + model.q
        self.coefficients = c.reshape(runs, pairs, width * width)

    def at(self, z: np.ndarray) -> np.ndarray:
        """The sine coefficients g on each J of the stacked amplitudes ``z``."""
        b = z.imag
        x = self.forcing.squared(z.real / self.omega, b)
        pairs = x.take(self.p) * x.take(self.q)
        s = np.matmul(pairs[:, None], self.coefficients)
        return np.matmul(b[:, None], s.reshape(b.shape + (-1,)))[:, 0]


class _StackedNodal:
    """Several runs' ``_NodalLoad`` in one load call.  ``at`` takes the
    amplitudes as ``_StackedTriads.at`` does; each run's sine rows S[J, :],
    zero-padded alike, synthesize its nodal row and transform its load
    back."""

    def __init__(self, models: list, omega: np.ndarray):
        self.ops, self.forcing, self.omega = models[0].ops, models[0].forcing, omega
        self.sines = np.zeros(omega.shape + (models[0].ops.mesh.n,))
        self.mu = np.ones(omega.shape)
        for sine, mu, model in zip(self.sines, self.mu, models):
            sine[:len(model.active)], mu[:len(model.active)] = model.prop.sine.T, model.prop.mu

    def at(self, z: np.ndarray) -> np.ndarray:
        """The sine coefficients g on each J of the stacked amplitudes ``z``."""
        u = np.matmul((z.real / self.omega)[:, None], self.sines)[:, 0]
        v = np.matmul(z.imag[:, None], self.sines)[:, 0]
        load = self.forcing.load(self.ops, u, v)
        g = np.matmul(self.sines, load[:, :, None])[..., 0]
        g /= self.mu
        return g


class _Members:
    """The active sets J_i of the runs extended together, stacked: run i's
    amplitudes fill the first |J_i| columns of a (runs, max |J_i|) array
    and are zero beyond, where ``omega`` reads one and ``mu`` zero.

    Each run keeps its Picard load model (``picard.load_model``), rebuilt
    only when its J changes, for the search of new modes.  ``at`` gives the
    forcing's sine coefficients on every J_i: the runs with triads in one
    ``_StackedTriads``, the others in one ``_StackedNodal``.
    """

    def __init__(self, ops, forcing, full: Propagator, actives: list,
                 old: "_Members | None" = None):
        self.full, self.actives = full, actives
        self.models = [old.models[i] if old is not None
                       and np.array_equal(active, old.actives[i])
                       else load_model(ops, forcing, full, active, single_rows=True)
                       for i, active in enumerate(actives)]
        width = self.width = max(len(a) for a in actives)
        self.omega, self.mu = np.ones((len(actives), width)), np.zeros((len(actives), width))
        for omega, mu, active in zip(self.omega, self.mu, actives):
            omega[:len(active)], mu[:len(active)] = full.omega[active], full.mu[active]
        self.neg_i_omega = -1j * self.omega
        self.half_mu = np.repeat(0.5 * self.mu, 2, axis=1)   # of the float view
        triads = [i for i, m in enumerate(self.models) if isinstance(m, _Triads)]
        nodal = [i for i, m in enumerate(self.models) if not isinstance(m, _Triads)]
        # (runs, columns, group): a group's columns are its widest J
        self.groups = []
        for runs in (triads, nodal):
            if runs:
                cols = max(len(actives[i]) for i in runs)
                stack = _StackedTriads if runs is triads else _StackedNodal
                group = stack([self.models[i] for i in runs], self.omega[runs, :cols])
                self.groups.append((runs if len(runs) < len(actives) else slice(None),
                                    cols, group))

    def at(self, z: np.ndarray) -> np.ndarray:
        """The sine coefficients g on each J_i of the stacked amplitudes ``z``."""
        if len(self.groups) == 1:
            return self.groups[0][2].at(z)
        g = np.zeros(z.shape)
        for runs, cols, group in self.groups:
            g[runs, :cols] = group.at(z[runs, :cols])
        return g

    def widened(self, z: np.ndarray, levels: np.ndarray) -> list | None:
        """Each J_i widened by the modes of its reach where the forcing of
        the stacked amplitude rows ``z`` (rows, runs, width) exceeds
        ``levels[i]`` in energy norm; None if no J widens."""
        actives, grew = [], False
        for i, (active, model, level) in enumerate(zip(self.actives, self.models, levels)):
            if len(model.off):
                reach = model.at(z[:, i, :len(active)], off=True)
                new = model.off[np.sqrt(self.full.mu[model.off])
                                * np.abs(reach).max(axis=0) > level]
                if len(new):
                    active, grew = np.sort(np.concatenate([active, new])), True
            actives.append(active)
        return actives if grew else None

    def place(self, old: "_Members", z: np.ndarray) -> np.ndarray:
        """Stacked amplitudes ``z`` (..., runs, old.width) laid out by
        ``old``, moved to this layout; zero on the modes ``old`` lacks."""
        out = np.zeros(z.shape[:-1] + (self.width,), complex)
        for i, (was, active) in enumerate(zip(old.actives, self.actives)):
            out[..., i, np.searchsorted(active, was)] = z[..., i, :len(was)]
        return out


def extend_with_ab5(trajs: list, ops: SpatialOperators, forcing,
                    t_final: float, observe) -> None:
    """Extend the trajectories ``trajs`` to ``t_final`` by AB5 in the
    rotating sine frame, all in one loop, each on its active modes,
    keeping no extended history.

    The ``ModalTrajectory`` inputs share one time grid; only their last
    window's modes J and the amplitudes of their last five rows are read.
    Output step j, at t1 + (j + 1) delta with t1 the grid's end, reaches
    ``observe(j0, block)`` in blocks of at most ``EXTENSION_BLOCK`` steps:
    ``block`` holds one (J, z) per run, z the (b, |J|) complex amplitudes
    on the run's modes J (as in ``ModalTrajectory.segments``), row i being
    step j0 + i; z is overwritten once ``observe`` returns.

    The modal amplitudes z of ``Propagator.modal`` rotate exactly as
    exp(-i omega t) under the linear flow, so w = exp(i omega (t - t1)) z
    moves under the forcing alone:
    w' = exp(i omega (t - t1)) i S f(u, v) (Lawson's integrating factor),
    with S f on J from the run's Picard load model (see ``_Members``).  AB5
    steps w on J, as the float view of its complex array (Re, Im pairs),
    one step per output step on any mesh.  Each block is searched, before
    ``observe`` sees it, as a Picard window is: the forcing on J' \\ J at
    ``_DETECT_ROWS`` of its rows against DETECT TOL ||y0||_E per unit of
    time (Picard's level for a unit window).  A run whose forcing reaches
    a new mode has its J widened, and the block is stepped again from its
    start history on the wider modes.
    ``BlowupError`` stops the run at the first step whose w is not finite or
    has a member's modal energy 1/2 sum mu_j |w_j|^2 above ten times its
    largest over the five seed rows, checked once a block is stepped; the
    limit is kept when a block is stepped again.
    """
    t1, delta, n_out = _extension_grid(trajs, t_final)
    if min(len(tr.times) for tr in trajs) < 5:
        raise ValueError("need five history points to start the scheme")
    full = trajs[0].propagator
    members = _Members(ops, forcing, full, [tr.segments[-1][0] for tr in trajs])
    levels = DETECT * TOL * np.sqrt([_mode_energy(full.modal(tr.y0), full.mu)
                                     for tr in trajs])

    def buffers(width):
        """The block's z and w (as the float view AB5 steps): rows 0-4 its
        start history, steps j0 - 4..j0, then its output rows."""
        z, w = np.zeros((2, 5 + min(n_out, EXTENSION_BLOCK), len(trajs), width), complex)
        return z, w.view(float)

    # AB5 counts time in steps j = (t - t1)/delta, so that every phase is
    # taken at an exact multiple of delta; in these units w' = delta * g.
    # Row r of the block's tables is step j0 - 4 + r: (j delta)(-i omega)
    # rounds as -i (j delta omega), Propagator.phases' values
    def rhs(j, y):
        r = int(j) - j0 + 4
        z = np.multiply(phases[r], y.view(complex), out=block[r])
        return (twins[r] * members.at(z)).view(float)

    def energies(y):
        return (y * y * members.half_mu).sum(axis=-1)

    steps = np.arange(-4.0, 1.0)
    block, ws = buffers(members.width)
    for i, (tr, active) in enumerate(zip(trajs, members.actives)):
        block[:5, i, :len(active)] = tr.amplitudes(len(tr.times) - 5, len(tr.times))[:, active]
    ws[:5] = (np.exp(1j * delta * steps[:, None, None] * members.omega) * block[:5]).view(float)
    limit = ab = None
    for j0 in range(0, n_out, EXTENSION_BLOCK):
        c = min(EXTENSION_BLOCK, n_out - j0)
        picks = np.linspace(0, c - 1, _DETECT_ROWS).round().astype(int)
        while True:
            phases = np.exp((np.arange(j0 - 4.0, j0 + c + 1.0) * delta)[:, None, None]
                            * members.neg_i_omega)
            twins = (1j * delta) * phases.conj()
            if ab is None:   # the first block, or one stepped again on wider modes
                ab = ab5_init(steps + j0, ws[:5], rhs, norm_fn=energies)
                limit = ab.norm_limit if limit is None else limit
                # held to the seeds' limit below, once per block
                ab.norm_fn, ab.norm_limit = None, limit
            # the guard reads the block's rows once it is stepped, so a
            # blow-up may overflow on the way to the block's end
            with np.errstate(over="ignore", invalid="ignore"):
                for r in range(5, 5 + c):
                    ws[r] = ab5_step(ab)
                bad = ((energies(ws[5:5 + c]) > limit)
                       | ~np.isfinite(ws[5:5 + c]).all(axis=-1)).any(axis=1)
            if bad.any():
                raise blowup_at(t1 + (j0 + 1 + bad.argmax()) * delta)
            actives = members.widened(block[5 + picks], levels)
            if actives is None:
                break
            wider = _Members(ops, forcing, full, actives, members)
            history = wider.place(members, ws[:5].view(complex))
            members, ab = wider, None   # the narrower models are freed here
            block, ws = buffers(members.width)
            ws[:5] = history.view(float)
        observe(j0, [(active, block[5:5 + c, i, :len(active)])
                     for i, active in enumerate(members.actives)])
        ws[:5] = ws[c:c + 5]


def modal_norms(prop: Propagator, modes, z: np.ndarray) -> tuple:
    """E, |u|_0 and |u|_1 of the amplitude rows ``z`` on the sine modes
    ``modes`` of ``prop``.

    Per sine mode S u = Re z / omega and S v = Im z, and S M S =
    diag(mu), S K S = diag(mu omega^2), so E = 1/2 sum mu |z|^2,
    |u|_1^2 = sum mu (Re z)^2 and |u|_0^2 = sum mu (Re z / omega)^2.
    """
    mu, omega = prop.mu[modes], prop.omega[modes]
    stiff = z.real ** 2 @ mu
    return (0.5 * (stiff + z.imag ** 2 @ mu), np.sqrt((z.real / omega) ** 2 @ mu),
            np.sqrt(stiff))


def extend_traces(trajs: list, traces: list, ops: SpatialOperators, forcing,
                  t_final: float) -> list[EnergyTrace]:
    """Each run's ``EnergyTrace`` continued to ``t_final`` by one
    ``extend_with_ab5`` of all the runs, its rows by ``modal_norms`` as
    ``EnergyTrace.from_modal``'s; its rows up to the runs' end are kept as
    they are."""
    t1, delta, n_out = _extension_grid(trajs, t_final)
    prop = trajs[0].propagator
    rows = np.empty((3, len(trajs), n_out))

    def observe(j0, block):
        for i, (modes, z) in enumerate(block):
            rows[:, i, j0:j0 + len(z)] = modal_norms(prop, modes, z)

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
