import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from degenwave import (AB5_COEFFS, ABState, BlowupError, DegenerateDamping,
                       PicardConfig, ab5_init, ab5_step, assemble, energy,
                       energy_norm, extend_trajectory, h1_norm, l2_norm,
                       mesh_from_h, picard_solve, semilinear_rhs)
from degenwave import experiments
from degenwave.experiments import (EXTENSION_BLOCK, EnergyTrace,
                                   extend_traces, extend_with_ab5,
                                   frequency_sweep, modal_norms,
                                   mode_initial_state, primitive_setup)
from degenwave.picard import _NodalLoad, _Triads, load_model
from extension_helpers import extended
from reference import (dense_mass, dense_stiffness, extend_on_all_modes,
                       nodal_trajectory, solve_linear_inhomogeneous)

# alpha = 0 switches the damping off: the right-hand side is A y alone
UNDAMPED = DegenerateDamping(alpha=0.0)


def scalar_decay_error(delta, t_final=10.0):
    """AB5 on y' = -y from exact history, compared with the exact solution."""
    rhs = lambda t, y: -y
    times = delta * np.arange(5)
    states = [np.array([np.exp(-t)]) for t in times]
    state = ab5_init(times, states, rhs)
    n = int(round(t_final / delta)) - 4
    y = states[-1]
    for _ in range(n):
        y = ab5_step(state)
    return abs(y[0] - np.exp(-t_final))


class TestAB5Basics:
    def test_weights_are_consistent(self):
        # a consistent multistep scheme integrates constants exactly
        assert AB5_COEFFS.sum() == pytest.approx(1.0, rel=1e-15)

    def test_scalar_decay_accuracy(self):
        assert scalar_decay_error(0.01) < 1e-9

    def test_fifth_order_convergence(self):
        errs = [scalar_decay_error(d, t_final=4.0) for d in (0.02, 0.01, 0.005)]
        for e1, e2 in zip(errs, errs[1:]):
            assert e1 / e2 == pytest.approx(32.0, rel=0.2)

    def test_zero_rhs_keeps_state(self):
        rhs = lambda t, y: np.zeros_like(y)
        times = 0.1 * np.arange(5)
        val = np.array([1.7, -2.0])
        state = ab5_init(times, [val.copy() for _ in range(5)], rhs)
        for _ in range(10):
            y = ab5_step(state)
        np.testing.assert_allclose(y, val)

    def test_history_from_linear_flow(self, ops99):
        # rhs of the undamped system evaluated on its own trajectory
        data = mode_initial_state(ops99, 1)
        traj = solve_linear_inhomogeneous(ops99, data.y0,
                                          lambda t: np.zeros((len(t), 99)),
                                          0.01, 2e-3)
        rhs = semilinear_rhs(ops99, UNDAMPED)
        state = ab5_init(traj.times[-5:], list(traj.states[-5:]), rhs)
        # dense reference (v, -M^{-1} K u); on the smooth mode K u cancels
        # terms of size 1/h, so it agrees with the modal route to ~2e-12
        mass, stiff = dense_mass(ops99), dense_stiffness(ops99)
        for t, y, g in zip(state.times, state.ys, state.gs):
            u, v = y[:99], y[99:]
            dense = np.concatenate([v, -np.linalg.solve(mass, stiff @ u)])
            np.testing.assert_allclose(g, dense, rtol=0, atol=1e-11)

    def test_nonuniform_history_rejected(self):
        rhs = lambda t, y: -y
        times = np.array([0.0, 0.1, 0.2, 0.35, 0.45])
        with pytest.raises(ValueError):
            ab5_init(times, [np.zeros(1)] * 5, rhs)

    def test_wrong_history_length(self):
        rhs = lambda t, y: -y
        with pytest.raises(ValueError):
            ab5_init(np.arange(4) * 0.1, [np.zeros(1)] * 4, rhs)

    def test_blowup_detected(self):
        rhs = lambda t, y: y            # e^t crosses 10x the start near t=2.3
        times = 0.01 * np.arange(5)
        states = [np.array([np.exp(t)]) for t in times]
        state = ab5_init(times, states, rhs)
        with pytest.raises(BlowupError):
            for _ in range(100000):
                ab5_step(state)

    def test_state_built_directly_with_float_norm(self):
        # a float norm against the default float limit, without ab5_init
        rhs = lambda t, y: -y
        times = 0.01 * np.arange(5)
        ys = [np.array([np.exp(-t)]) for t in times]
        state = ABState(delta=0.01, rhs=rhs, times=list(times), ys=ys,
                        gs=[rhs(t, y) for t, y in zip(times, ys)],
                        norm_fn=lambda y: float(np.linalg.norm(y)))
        y = ab5_step(state)
        assert abs(y[0] - np.exp(-0.05)) < 1e-12
        state.norm_limit = 0.5
        with pytest.raises(BlowupError):
            ab5_step(state)

    def test_blowup_guard_is_per_member(self):
        # member 0 grows as e^t from 1e-3, member 1 stays at 1: a guard on
        # the batch maximum would wait until t ~ 9.2, member 0's own limit
        # trips near t = 2.3
        rhs = lambda t, y: y * np.array([[1.0], [0.0]])
        times = 0.01 * np.arange(5)
        states = [np.array([[1e-3 * np.exp(t)], [1.0]]) for t in times]
        state = ab5_init(times, states, rhs, norm_fn=lambda y: np.abs(y[:, 0]))
        with pytest.raises(BlowupError):
            for _ in range(500):        # to t = 5
                ab5_step(state)


class TestExtendTrajectory:
    def _homogeneous_traj(self, ops, t_final, k=1):
        data = mode_initial_state(ops, k)
        return data, solve_linear_inhomogeneous(
            ops, data.y0, lambda t: np.zeros((len(t), 99)), t_final, 2e-3)

    def _free_modal_traj(self, ops, t_final, k=1):
        """The undamped flow of mode k as Picard's modal history."""
        data = mode_initial_state(ops, k)
        return data, picard_solve(ops, data.y0,
                                  PicardConfig(t_final=t_final, delta=2e-3,
                                               alpha=0.0),
                                  z0=data.amplitudes(ops)).trajectory

    def test_extension_to_same_time_returns_input(self, ops99):
        _, traj = self._homogeneous_traj(ops99, 0.1)
        rhs = semilinear_rhs(ops99, UNDAMPED)
        assert extend_trajectory(traj, rhs, 0.1) is traj

    def test_literal_step_blows_up_on_stiff_wave(self, ops99):
        # the output step is far outside the scheme's imaginary-axis
        # stability for the top mesh frequencies; the guard must trip
        _, traj = self._homogeneous_traj(ops99, 0.1)
        rhs = semilinear_rhs(ops99, UNDAMPED)
        with pytest.raises(BlowupError):
            extend_trajectory(traj, rhs, 2.0,
                              norm_fn=lambda y: float(energy_norm(ops99, y)),
                              substeps=1)

    @pytest.mark.parametrize("k", [1, 8])
    def test_stabilized_extension_tracks_discrete_rotation(self, ops99, k):
        # undamped, the rotating-frame amplitudes stand still: the extension
        # is the exact rotation up to rounding
        data, traj = self._free_modal_traj(ops99, 2.0, k)
        full, = extended([traj], ops99, UNDAMPED, 6.0)
        h = ops99.mesh.h
        c = np.cos(k * np.pi * h)
        w = np.sqrt((6 / h**2) * (1 - c) / (2 + c))
        u0 = data.y0[:99]
        t = full.times[:, None]
        exact = np.concatenate([np.cos(w * t) * u0, -w * np.sin(w * t) * u0],
                               axis=1)
        err = energy_norm(ops99, full.states - exact).max()
        assert err <= 1e-11
        e = energy(ops99, full.states)
        assert np.abs(e - e[0]).max() / e[0] <= 1e-13

    def test_splice_grid_and_continuity(self, ops99):
        _, traj = self._free_modal_traj(ops99, 2.0)
        full, = extended([traj], ops99, UNDAMPED, 4.0)
        assert full.delta == traj.delta
        np.testing.assert_allclose(full.times[:len(traj.times)], traj.times)
        i1 = len(traj.times) - 1     # t = 2, the splice
        assert energy_norm(ops99, full.states[i1]
                           - nodal_trajectory(traj).states[-1]) == 0.0
        np.testing.assert_allclose(np.diff(full.times), traj.delta, rtol=1e-9)

    def test_nonlinear_extension_monotone_energy(self, ops99):
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=2.0, delta=2e-3)
        result = picard_solve(ops99, data.y0, config)
        forcing = DegenerateDamping(1.0, 1)
        full, = extended([result.trajectory], ops99, forcing, 4.0)
        e = energy(ops99, full.states)
        assert (np.diff(e) <= 1e-5 * e[0]).all()
        assert e[-1] < e[len(result.trajectory.times) - 1]   # t = 2

    @pytest.mark.parametrize("k", [8, 12])
    def test_matches_literal_scheme_at_sixteen_substeps(self, ops99, k):
        # the literal AB5 at 16 substeps is the reference; the energies of
        # the two extensions over [1, 3] were 5.6e-9 apart at most, while
        # the literal scheme at 4 substeps misses it by 1.0e-8 (k = 8) and
        # 1.2e-7 (k = 12)
        data = mode_initial_state(ops99, k)
        result = picard_solve(ops99, data.y0,
                              PicardConfig(t_final=1.0, delta=2e-3))
        forcing = DegenerateDamping(1.0, 1)
        new, = extended([result.trajectory], ops99, forcing, 3.0)
        literal = extend_trajectory(nodal_trajectory(result.trajectory),
                                    semilinear_rhs(ops99, forcing), 3.0,
                                    norm_fn=lambda y: float(energy(ops99, y)),
                                    substeps=16)
        np.testing.assert_array_equal(new.times, literal.times)
        gap = np.abs(energy(ops99, new.states) - energy(ops99, literal.states))
        assert gap.max() <= 1e-8

    def test_history_too_short_rejected(self, ops99):
        _, traj = self._free_modal_traj(ops99, 0.006)
        with pytest.raises(ValueError, match="five history points"):
            extended([traj], ops99, UNDAMPED, 0.1)

    def test_target_before_end_rejected(self, ops99):
        _, traj = self._homogeneous_traj(ops99, 0.1)
        rhs = semilinear_rhs(ops99, UNDAMPED)
        with pytest.raises(ValueError):
            extend_trajectory(traj, rhs, 0.05)


class TestBatchedExtension:
    @pytest.fixture(scope="class")
    def picard_runs(self, ops99):
        config = PicardConfig(t_final=0.2, delta=2e-3, window=0.2)
        return [picard_solve(ops99, mode_initial_state(ops99, k).y0,
                             config).trajectory
                for k in (1, 2, 4, 8, 12)]

    def test_batch_matches_one_member_runs(self, ops99, picard_runs):
        forcing = DegenerateDamping(1.0, 1)
        batch = extended(picard_runs, ops99, forcing, 1.2)
        for traj, full in zip(picard_runs, batch):
            alone, = extended([traj], ops99, forcing, 1.2)
            np.testing.assert_array_equal(full.times, alone.times)
            scale = np.abs(alone.states).max()
            assert np.abs(full.states - alone.states).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_out", [0, 1, 255, 256, 257])
    def test_observer_sees_each_step_once_in_order(self, ops99,
                                                   picard_runs, n_out):
        trajs = picard_runs[:2]
        seen = []

        def observe(j0, block):
            assert len(block) == 2
            b = len(block[0][1])
            assert 1 <= b <= EXTENSION_BLOCK
            assert all(z.shape == (b, len(modes)) for modes, z in block)
            seen.append((j0, b))

        extend_with_ab5(trajs, ops99, UNDAMPED, 0.2 + n_out * 2e-3, observe)
        steps = [j0 + i for j0, b in seen for i in range(b)]
        assert steps == list(range(n_out))

    def test_memory_does_not_grow_with_the_horizon(self, ops99,
                                                   picard_runs):
        # the load models and the output block grow with the active modes
        # J, so both horizons end on the same J: the four runs widen theirs
        # up to t = 14 and keep 14, 9, 6 and 4 modes through t = 19
        forcing = DegenerateDamping(1.0, 1)
        trajs = picard_runs[:4]

        def peak(t_final):
            modes = []
            tracemalloc.start()
            try:
                extend_with_ab5(trajs, ops99, forcing, t_final,
                                lambda j0, block: modes.append(
                                    [len(j) for j, _ in block]))
                return tracemalloc.get_traced_memory()[1], modes
            finally:
                tracemalloc.stop()

        (short, modes), (long, same) = peak(15.0), peak(19.0)
        assert modes[0] == [7, 6, 5, 4]
        assert modes[-1] == same[-1] == [14, 9, 6, 4]
        assert long <= 1.05 * short, (short, long)

    def test_a_widening_frees_the_narrower_models(self, ops99, picard_runs,
                                                  monkeypatch):
        # once a chunk is stepped again on a wider J, only the new
        # _Members and its load models are still referenced
        live = weakref.WeakSet()

        class Tracked(experiments._Members):
            def __init__(self, *args):
                super().__init__(*args)
                live.add(self)
                live.update(self.models)

        monkeypatch.setattr(experiments, "_Members", Tracked)
        widths = []

        def observe(j0, block):
            gc.collect()
            members = [m for m in live if isinstance(m, Tracked)]
            assert len(members) == 1
            assert {id(m) for m in live} - {id(members[0])} == {
                id(m) for m in members[0].models}
            widths.append([len(j) for j, _ in block])

        extend_with_ab5(picard_runs[:4], ops99, DegenerateDamping(1.0, 1),
                        6.1, observe)
        assert widths[0] == [7, 6, 5, 4] and widths[-1] == [12, 8, 6, 4]

    def test_seeds_are_zero_off_the_active_modes(self, ops99, monkeypatch):
        # AB5 starts from the amplitudes Picard kept on the last window's
        # modes J, which are zero off J, and steps J alone; a seed rebuilt
        # through nodal rows carries rounding into every other mode
        traj = picard_solve(ops99, mode_initial_state(ops99, 1).y0,
                            PicardConfig(t_final=1.0, delta=2e-3)).trajectory
        seeds = []

        def capture(times, ys, rhs, **kwargs):
            seeds.append(np.array(ys).view(complex))
            return ab5_init(times, ys, rhs, **kwargs)

        monkeypatch.setattr(experiments, "ab5_init", capture)
        extend_with_ab5([traj], ops99, DegenerateDamping(1.0, 1), 1.01,
                        lambda j0, block: None)
        active = traj.segments[-1][0]
        rows = traj.amplitudes(len(traj.times) - 5, len(traj.times))
        assert seeds[0].shape == (5, 1, len(active)) and 0 < len(active) < 99
        assert (np.delete(rows, active, axis=1) == 0.0).all()
        assert (seeds[0] != 0.0).all()

    def test_grids_must_be_shared(self, ops99, picard_runs):
        traj = picard_runs[0]
        shorter = traj.prefix(len(traj.times) - 1)
        with pytest.raises(ValueError, match="shared time grid"):
            extend_with_ab5([traj, shorter], ops99, UNDAMPED, 0.4,
                            lambda j0, block: None)

    def test_traces_reject_a_target_before_the_end(self, ops99, picard_runs):
        # the target is checked before any row of the extension is allocated
        trajs = picard_runs[:2]
        traces = [EnergyTrace.from_modal(tr) for tr in trajs]
        with pytest.raises(ValueError, match="before the trajectory end"):
            extend_traces(trajs, traces, ops99, UNDAMPED, 0.1)


# -- the extension on the active modes against the one on every mode ----------

def active_mode_gaps(trajs, ops, forcing, t_final):
    """How far ``extend_with_ab5`` on the runs' active modes strays from
    ``extend_on_all_modes``: the largest distance of the states in energy
    norm and of E, L2 and H1, each relative to the reference's largest
    value, shape (4, runs).  Also returns each run's modes J at the end and
    the active extension's E, L2 and H1, shape (3, runs, steps)."""
    prop, n = trajs[0].propagator, ops.mesh.n
    blocks = []
    extend_with_ab5(trajs, ops, forcing, t_final, lambda j0, block: blocks.append(
        [(modes, z.copy()) for modes, z in block]))
    rows = np.concatenate([[modal_norms(prop, modes, z) for modes, z in block]
                           for block in blocks], axis=2).transpose(1, 0, 2)
    gaps, scale = np.zeros((2, 4, len(trajs)))

    def observe(j0, block):
        for i, (states, (modes, z)) in enumerate(zip(block, blocks[j0 // EXTENSION_BLOCK])):
            u = states[:, :n]
            want = np.array([energy_norm(ops, states), energy(ops, states),
                             l2_norm(ops, u), h1_norm(ops, u)])
            miss = np.abs(rows[:, i, j0:j0 + len(z)] - want[1:])
            miss = [energy_norm(ops, states - prop.restrict(modes).nodal(z)), *miss]
            gaps[:, i] = np.maximum(gaps[:, i], np.max(miss, axis=1))
            scale[:, i] = np.maximum(scale[:, i], want.max(axis=1))

    extend_on_all_modes(trajs, ops, forcing, t_final, observe)
    return gaps / scale, [modes for modes, _ in blocks[-1]], rows


class CubicGain(DegenerateDamping):
    """The cubic damping with its sign turned: it feeds energy in."""

    @property
    def scale(self) -> float:
        return self.alpha


@pytest.fixture(scope="module")
def fig3_short(ops99):
    """The runs that ``fig3 --T 2`` extends: k = 1, 2, 4, 8 at n = 99."""
    return [run.trajectory for run in
            frequency_sweep([1, 2, 4, 8], 1.0, 1, ops99, 2e-3, 2.0)]


class TestActiveModeExtension:
    def test_fig3_short_matches_every_mode(self, ops99, fig3_short):
        # fig3 --T 2 --T2 12: k = 1's J widens from 9 modes as it runs
        forcing = DegenerateDamping(1.0, 1)
        gaps, ends, rows = active_mode_gaps(fig3_short, ops99, forcing, 12.0)
        assert gaps.max() <= 1e-13, gaps
        assert len(ends[0]) > len(fig3_short[0].segments[-1][0])
        # extend_traces continues each trace by the same rows
        traces = extend_traces(fig3_short, [EnergyTrace.from_modal(tr)
                                            for tr in fig3_short],
                               ops99, forcing, 12.0)
        start = len(fig3_short[0].times)
        for trace, want in zip(traces, rows.transpose(1, 0, 2)):
            np.testing.assert_array_equal(
                [trace.energy[start:], trace.l2[start:], trace.h1[start:]], want)

    def test_nodal_members_match_every_mode(self, ops99):
        # three modes at once start with 29 active modes, past the triads'
        # budget; k = 1 at four times the amplitude starts on 11 with the
        # triads and outgrows them (19 modes) within 3 time units
        config = PicardConfig(t_final=0.2, delta=2e-3, window=0.2)
        data = [sum(mode_initial_state(ops99, k).y0 for k in (1, 2, 3)),
                4.0 * mode_initial_state(ops99, 1).y0,
                mode_initial_state(ops99, 2).y0]
        trajs = [picard_solve(ops99, y0, config).trajectory for y0 in data]
        forcing = DegenerateDamping(1.0, 1)
        prop = trajs[0].propagator

        def model(active):
            return type(load_model(ops99, forcing, prop, active, single_rows=True))

        assert [model(tr.segments[-1][0]) for tr in trajs] == [_NodalLoad, _Triads,
                                                                 _Triads]
        gaps, ends, _ = active_mode_gaps(trajs, ops99, forcing, 3.2)
        assert gaps.max() <= 1e-13, gaps
        assert model(ends[1]) is _NodalLoad

    @pytest.mark.parametrize("m", [1, 2])
    def test_primitive_damping_matches_every_mode(self, ops99, m):
        setup = primitive_setup(1, m, ops99)
        traj = picard_solve(ops99, setup.initial_state(),
                            PicardConfig(t_final=1.0, delta=2e-3, m=m),
                            forcing=setup.damping).trajectory
        gaps, _, _ = active_mode_gaps([traj], ops99, setup.damping, 3.0)
        assert gaps.max() <= 1e-13, gaps

    def test_quintic_damping_matches_every_mode(self, ops99):
        config = PicardConfig(t_final=0.4, delta=2e-3, m=2)
        trajs = [picard_solve(ops99, mode_initial_state(ops99, k).y0,
                              config).trajectory for k in (1, 4)]
        gaps, _, _ = active_mode_gaps(trajs, ops99, DegenerateDamping(1.0, 2), 2.4)
        assert gaps.max() <= 1e-13, gaps

    def test_fine_mesh_matches_every_mode(self):
        # fig3 --h 0.001 --T 2 --T2 3
        ops = assemble(mesh_from_h(0.001))
        trajs = [run.trajectory for run in
                 frequency_sweep([1, 2, 4, 8], 1.0, 1, ops, 2e-3, 2.0)]
        gaps, _, _ = active_mode_gaps(trajs, ops, DegenerateDamping(1.0, 1), 3.0)
        assert gaps.max() <= 1e-13, gaps

    def test_widening_keeps_the_seed_limit_and_the_failing_step(
            self, ops99, fig3_short, monkeypatch):
        # the gain pumps energy in until the guard trips; on the way J
        # widens and chunks are stepped again, from a history whose own
        # energy is above the seed's
        gain = CubicGain(20.0, 1)
        trajs = fig3_short[:2]
        with pytest.raises(BlowupError) as every:
            extend_on_all_modes(trajs, ops99, gain, 12.0, lambda j0, block: None)
        states = []

        def capture(*args, **kwargs):
            states.append(ab5_init(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(experiments, "ab5_init", capture)
        with pytest.raises(BlowupError) as active:
            extend_with_ab5(trajs, ops99, gain, 12.0, lambda j0, block: None)
        assert len(states) > 1
        assert all(np.array_equal(s.norm_limit, states[0].norm_limit)
                   for s in states)
        assert str(active.value) == str(every.value)
        # the failing step j = 353 after t1 = 2, reported at t1 + j delta
        assert "at t=2.706;" in str(active.value)
