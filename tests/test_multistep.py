import tracemalloc

import numpy as np
import pytest

from degenwave import (AB5_COEFFS, ABState, BlowupError, DegenerateDamping,
                       PicardConfig, ab5_init, ab5_step, energy, energy_norm,
                       extend_trajectory, picard_solve, semilinear_rhs)
from degenwave import experiments
from degenwave.experiments import (EXTENSION_BLOCK, EnergyTrace,
                                   extend_traces, extend_with_ab5,
                                   mode_initial_state)
from extension_helpers import extended
from reference import (dense_mass, dense_stiffness, nodal_trajectory,
                       solve_linear_inhomogeneous)

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
            assert block.shape[0] == 2 and block.shape[2] == 2 * 99
            assert 1 <= block.shape[1] <= EXTENSION_BLOCK
            seen.append((j0, block.shape[1]))

        extend_with_ab5(trajs, ops99, UNDAMPED, 0.2 + n_out * 2e-3, observe)
        steps = [j0 + i for j0, b in seen for i in range(b)]
        assert steps == list(range(n_out))

    def test_memory_does_not_grow_with_the_horizon(self, ops99,
                                                   picard_runs):
        forcing = DegenerateDamping(1.0, 1)
        trajs = picard_runs[:4]

        def peak(t_final):
            tracemalloc.start()
            try:
                extend_with_ab5(trajs, ops99, forcing, t_final,
                                lambda j0, block: None)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(2.1), peak(6.1)
        assert long <= 1.05 * short, (short, long)

    def test_seeds_are_zero_off_the_active_modes(self, ops99, monkeypatch):
        # AB5 starts from the amplitudes Picard kept on the last window's
        # modes J; a seed rebuilt through nodal rows carries rounding into
        # every other mode
        traj = picard_solve(ops99, mode_initial_state(ops99, 1).y0,
                            PicardConfig(t_final=1.0, delta=2e-3)).trajectory
        seeds = []

        def capture(times, ys, rhs, **kwargs):
            seeds.append(np.array(ys).view(complex))
            return ab5_init(times, ys, rhs, **kwargs)

        monkeypatch.setattr(experiments, "ab5_init", capture)
        extend_with_ab5([traj], ops99, DegenerateDamping(1.0, 1), 1.01,
                        lambda j0, block: None)
        off = np.ones(99, bool)
        off[traj.segments[-1][0]] = False
        assert seeds[0].shape == (5, 1, 99) and 0 < (~off).sum() < 99
        assert (seeds[0][..., off] == 0.0).all()
        assert (seeds[0][..., ~off] != 0.0).all()

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
