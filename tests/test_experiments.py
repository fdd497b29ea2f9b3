import numpy as np
import pytest

from degenwave import (EnergyTrace, assemble, build_mesh,
                       closed_form_potential_m1, decay_rate_fit,
                       frequency_sweep,
                       lower_order_decay, mode_initial_state, primitive_setup,
                       primitive_solve)
from reference import (conservative_comparison, continuum_energy_error, gauss_rule,
                       h1_norm, hat_load_from_values, l2_norm, values_at_gauss)


class TestModeInitialState:
    def test_unit_energy_exact(self, ops99):
        from degenwave import energy
        for k in (1, 2, 4, 8):
            data = mode_initial_state(ops99, k)
            assert energy(ops99, data.y0) == pytest.approx(1.0, abs=1e-12)

    def test_scale_factors_small(self, mesh99, ops99):
        # rescaling compensates the O((k pi h)^2) interpolation energy defect
        for k in (1, 2, 4, 8):
            data = mode_initial_state(ops99, k)
            defect = (k * np.pi * mesh99.h) ** 2 / 12.0
            assert data.scale == pytest.approx(1.0 / np.sqrt(1 - defect), rel=1e-3)

    def test_under_resolved_rejected(self, ops99):
        with pytest.raises(ValueError):
            mode_initial_state(ops99, 13)   # 8k > 99

    def test_zero_velocity_block(self, ops99):
        data = mode_initial_state(ops99, 3)
        np.testing.assert_allclose(data.y0[99:], np.zeros(99))


class TestEnergyTrace:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EnergyTrace(times=np.array([0.0, 1.0]),
                        energy=np.array([1.0, np.nan]),
                        l2=np.zeros(2), h1=np.zeros(2))

    def test_from_trajectory(self, ops99):
        runs = frequency_sweep([1], 1.0, 1, ops99, 2e-3, 0.1)
        tr = runs[0].trace
        assert tr.energy[0] == pytest.approx(1.0, abs=1e-12)
        assert tr.l2[0] == pytest.approx(l2_norm(ops99, runs[0].data.y0[:99]))
        assert tr.h1[0] == pytest.approx(h1_norm(ops99, runs[0].data.y0[:99]))


class TestFrequencySweep:
    def test_conservative_traces_flat(self, ops99):
        runs = frequency_sweep([1, 2], 0.0, 1, ops99, 2e-3, 1.0)
        for run in runs:
            np.testing.assert_allclose(run.trace.energy, 1.0, atol=1e-9)

    def test_order_is_input_order(self, ops99):
        runs = frequency_sweep([2, 1], 0.0, 1, ops99, 2e-3, 0.01)
        assert [r.k for r in runs] == [2, 1]


class TestConservativeComparison:
    def test_zero_at_start(self, ops99):
        runs = frequency_sweep([1], 1.0, 1, ops99, 2e-3, 0.5)
        tz = conservative_comparison(runs[0], ops99)
        assert tz.energy[0] < 1e-25

    def test_undamped_difference_vanishes(self, ops99):
        # with the reference at the mesh frequency, no damping means the two
        # flows coincide to rounding
        runs = frequency_sweep([1], 0.0, 1, ops99, 2e-3, 10.0)
        tz = conservative_comparison(runs[0], ops99)
        assert tz.energy.max() < 1e-18


class TestPrimitiveSetup:
    def test_closed_form_second_order(self):
        errs = []
        for n in (99, 199):
            mesh = build_mesh(n)
            ops = assemble(mesh)
            setup = primitive_setup(1, 1, ops)
            exact = closed_form_potential_m1(setup.data.amplitude, 1, mesh.nodes)
            errs.append(np.abs(setup.phi0 - exact).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_zero_amplitude_zero_potential(self, mesh99):
        np.testing.assert_allclose(
            closed_form_potential_m1(0.0, 1, mesh99.nodes), np.zeros(99))

    def test_elliptic_stability_uniform_in_k(self, ops99):
        # |phi0|_1 / |u0|_0 stays bounded by its lowest-frequency value
        ratios = {}
        for k in (1, 2, 4, 8):
            setup = primitive_setup(k, 1, ops99)
            u0 = setup.data.y0[:99]
            ratios[k] = h1_norm(ops99, setup.phi0) / l2_norm(ops99, u0)
        assert all(ratios[k] <= ratios[1] * 1.01 for k in (2, 4, 8))

    @pytest.mark.parametrize("n", [99, 499])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_potential_matches_gauss(self, m, n):
        # the potential's load is the primitive damping's own exact load; a
        # Gauss rule exact for g(u0) = alpha u0^(2m+1)/(2m+1) gives the same
        ops = assemble(build_mesh(n))
        setup = primitive_setup(3, m, ops, alpha=0.7)
        u0 = setup.data.y0[:n]
        xi, w = gauss_rule(max(4, m + 2))
        g = 0.7 * values_at_gauss(ops.mesh, u0, xi) ** (2 * m + 1) / (2 * m + 1)
        load = hat_load_from_values(ops.mesh, g, xi, w)
        sine = ops.sine_basis()
        _, kappa = ops.sine_eigenvalues()
        want = sine @ (sine @ -load / kappa)
        assert np.abs(setup.phi0 - want).max() <= 1e-14 * np.abs(want).max()

    def test_initial_energy_identity(self, ops99):
        # 2 E_phi(0) = |phi0|_1^2 + |u0|_0^2 by construction
        from degenwave import energy
        setup = primitive_setup(1, 1, ops99)
        e0 = energy(ops99, setup.initial_state())
        assert 2 * e0 == pytest.approx(setup.energy_bound(ops99), rel=1e-12)


@pytest.fixture(scope="module")
def short_primitive(ops99):
    setup = primitive_setup(1, 1, ops99)
    return setup, primitive_solve(setup, ops99, 2e-3, 2.0)


class TestPrimitiveSolve:

    def test_velocity_reproduces_damped_solution(self, short_primitive):
        # structural identity of the discretization: the elliptic solve and
        # the forcing quadratures match, so the gap sits at solver tolerance
        _, result = short_primitive
        assert result.velocity_gap_l2 < 1e-6

    @pytest.mark.parametrize("k,delta,t_final", [
        (2, 2e-3, 0.1), (1, 1e-2, 0.5), (1, 2e-3, 0.2)],
        ids=["other mode", "other step, same rows", "other length"])
    def test_damped_run_of_another_problem_rejected(self, ops99, k, delta,
                                                    t_final):
        # the velocity gap compares the runs row by row
        setup = primitive_setup(1, 1, ops99)
        other = frequency_sweep([k], 1.0, 1, ops99, delta, t_final)[0]
        with pytest.raises(ValueError, match="same mode on the same time grid"):
            primitive_solve(setup, ops99, 2e-3, 0.1, damped_run=other)

    def test_zero_initial_acceleration(self, short_primitive, ops99):
        setup, result = short_primitive
        from degenwave import semilinear_rhs
        rhs = semilinear_rhs(ops99, setup.damping)
        acc = rhs(0.0, setup.initial_state())[99:]
        assert l2_norm(ops99, acc) < 1e-12

    def test_energy_monotone(self, short_primitive, ops99):
        _, result = short_primitive
        e = result.trace.energy
        assert (np.diff(e) <= 1e-6 * e[0]).all()

    def test_lower_order_bound(self, short_primitive, ops99):
        setup, result = short_primitive
        report = lower_order_decay(result.damped_run.trace, setup, ops99)
        assert report.all_satisfied
        assert report.bound == pytest.approx(setup.energy_bound(ops99))

    def test_undamped_identity_exact(self, ops99):
        # without damping the potential vanishes and the velocity of the
        # potential flow equals the undamped solution to rounding
        setup = primitive_setup(1, 1, ops99, alpha=0.0)
        assert np.abs(setup.phi0).max() == 0.0
        result = primitive_solve(setup, ops99, 2e-3, 0.5)
        assert result.velocity_gap_l2 < 1e-10


class TestDecayRateFit:
    def test_exact_power_law(self):
        t = np.linspace(10.0, 50.0, 500)
        trace = EnergyTrace(times=t, energy=t**-1.0, l2=np.zeros(500),
                            h1=np.zeros(500))
        assert decay_rate_fit(trace, (10.0, 50.0)) == pytest.approx(1.0,
                                                                    abs=1e-10)

    def test_constant_energy(self):
        t = np.linspace(1.0, 2.0, 100)
        trace = EnergyTrace(times=t, energy=np.full(100, 0.7),
                            l2=np.zeros(100), h1=np.zeros(100))
        assert decay_rate_fit(trace, (1.0, 2.0)) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        t = np.linspace(1.0, 2.0, 10)
        trace = EnergyTrace(times=t, energy=np.linspace(1.0, -0.1, 10),
                            l2=np.zeros(10), h1=np.zeros(10))
        with pytest.raises(ValueError):
            decay_rate_fit(trace, (1.0, 2.0))

    def test_empty_window_rejected(self):
        t = np.linspace(1.0, 2.0, 10)
        trace = EnergyTrace(times=t, energy=np.ones(10), l2=np.zeros(10),
                            h1=np.zeros(10))
        with pytest.raises(ValueError):
            decay_rate_fit(trace, (5.0, 6.0))


class TestLowerOrderOscillation:
    def test_conservative_l2_does_not_decay(self, ops99):
        runs = frequency_sweep([1], 0.0, 1, ops99, 2e-3, 10.0)
        l2 = runs[0].trace.l2
        times = runs[0].trace.times
        early = l2[times <= 2.0].max()
        late = l2[times >= 8.0].max()
        assert late > 0.8 * early


class TestContinuumEnergyError:
    def test_zero_field(self, mesh99):
        err = continuum_energy_error(mesh99, np.zeros(198),
                                     lambda x: 0.0 * x, lambda x: 0.0 * x)
        assert err == 0.0

    def test_interpolation_error_first_order(self):
        # pure interpolant against the smooth field: error halves with h
        errs = []
        for n in (99, 199):
            mesh = build_mesh(n)
            u = np.sin(np.pi * mesh.nodes)
            state = np.concatenate([u, np.zeros(n)])
            errs.append(continuum_energy_error(
                mesh, state, lambda x: np.pi * np.cos(np.pi * x),
                lambda x: 0.0 * x))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)
