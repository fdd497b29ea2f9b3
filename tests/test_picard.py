import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from degenwave import (AnsatzProblem, DegenerateDamping, LinearDamping,
                       OscillatorProblem, PicardConfig, PicardDivergenceError,
                       PrimitiveDamping, assemble, build_mesh, energy,
                       energy_norm, picard, picard_solve)
from degenwave.experiments import mode_initial_state
from reference import (estimate_contraction, hat_load_from_values, nodal_sweep,
                       nodal_trajectory, nodes_full, solve_linear_inhomogeneous,
                       values_at_gauss)


def quadrature_projection(ops, pointwise, npts=20):
    """Independent oracle: f = -M^{-1} (g, phi_i) with dense Gauss quadrature."""
    mesh = ops.mesh
    gp, gw = leggauss(npts)
    xi = 0.5 * (gp + 1)
    w = 0.5 * gw
    x = nodes_full(mesh)[:-1][:, None] + mesh.h * xi
    load = np.zeros(mesh.n)
    vals = pointwise(x)
    sL = mesh.h * np.sum(vals * (1 - xi) * w, axis=1)
    sR = mesh.h * np.sum(vals * xi * w, axis=1)
    load = sL[1:] + sR[:-1]
    return -ops.solve_mass(load)


def interp(mesh, coef):
    up = np.concatenate([[0.0], coef, [0.0]])

    def f(x):
        idx = np.clip((x / mesh.h).astype(int), 0, mesh.n)
        frac = x / mesh.h - idx
        return up[idx] * (1 - frac) + up[np.minimum(idx + 1, mesh.n + 1)] * frac

    return f


# everything that takes a damping strength alpha and exponent half m
DAMPED = [
    DegenerateDamping,
    lambda alpha, m: PicardConfig(t_final=1.0, delta=0.1, alpha=alpha, m=m),
    lambda alpha, m: AnsatzProblem(k=1, c0=1.0, c1=0.0, alpha=alpha, m=m,
                                   mesh=build_mesh(2)),
    lambda alpha, m: OscillatorProblem(khat=1.0, alpha=alpha, m=m, x0=1.0, x1=0.0),
    PrimitiveDamping]
DAMPED_IDS = ["damping", "picard", "ansatz", "oscillator", "primitive"]


class TestForcingModels:
    def test_zero_displacement(self, ops99, rng):
        v = rng.normal(size=99)
        f = DegenerateDamping().coefficients(ops99, np.zeros(99), v)
        np.testing.assert_allclose(f, np.zeros(99), atol=1e-15)

    def test_zero_velocity(self, ops99, rng):
        u = rng.normal(size=99)
        f = DegenerateDamping().coefficients(ops99, u, np.zeros(99))
        np.testing.assert_allclose(f, np.zeros(99), atol=1e-15)

    def test_cubic_tensor_matches_quadrature(self, rng):
        ops = assemble(build_mesh(8))
        u, v = rng.normal(size=(2, 8))
        fu, fv = interp(ops.mesh, u), interp(ops.mesh, v)
        oracle = quadrature_projection(ops, lambda x: fu(x)**2 * fv(x))
        np.testing.assert_allclose(DegenerateDamping().coefficients(ops, u, v),
                                   oracle, atol=1e-12)

    def test_alpha_scaling(self, rng):
        ops = assemble(build_mesh(8))
        u, v = rng.normal(size=(2, 8))
        np.testing.assert_allclose(
            DegenerateDamping(alpha=2.5).coefficients(ops, u, v),
            2.5 * DegenerateDamping().coefficients(ops, u, v), atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3])
    def test_squared_powers_match_float_powers(self, ops99, rng, m):
        # the m >= 2 loads are exact Beta-moment sums; a Gauss path with
        # float powers and a fresh Legendre rule must agree to rounding on a
        # batch of (u, v) rows
        mesh = ops99.mesh
        u, v = rng.normal(size=(2, 7, mesh.n))
        npts = max(4, (2 * m + 4) // 2)
        gp, gw = leggauss(npts)
        xi, w = 0.5 * (gp + 1.0), 0.5 * gw
        ug, vg = values_at_gauss(mesh, u, xi), values_at_gauss(mesh, v, xi)
        for model, values in [
                (DegenerateDamping(1.3, m), -1.3 * ug ** (2 * m) * vg),
                (PrimitiveDamping(0.7, m), -0.7 / (2 * m + 1) * vg ** (2 * m + 1))]:
            expected = hat_load_from_values(mesh, values, xi, w)
            got = model.load(ops99, u, v)
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_higher_exponent_matches_quadrature(self, rng):
        ops = assemble(build_mesh(8))
        u, v = rng.normal(size=(2, 8))
        fu, fv = interp(ops.mesh, u), interp(ops.mesh, v)
        model = DegenerateDamping(alpha=1.3, m=2)
        oracle = quadrature_projection(ops, lambda x: 1.3 * fu(x)**4 * fv(x))
        np.testing.assert_allclose(model.coefficients(ops, u, v), oracle,
                                   atol=1e-12)

    def test_primitive_tensor_matches_quadrature(self, rng):
        ops = assemble(build_mesh(8))
        v = rng.normal(size=8)
        fv = interp(ops.mesh, v)
        model = PrimitiveDamping(alpha=1.0, m=1)
        oracle = quadrature_projection(ops, lambda x: fv(x)**3 / 3.0)
        np.testing.assert_allclose(model.coefficients(ops, np.zeros(8), v),
                                   oracle, atol=1e-12)

    def test_primitive_higher_exponent(self, rng):
        ops = assemble(build_mesh(8))
        v = rng.normal(size=8)
        fv = interp(ops.mesh, v)
        model = PrimitiveDamping(alpha=2.0, m=2)
        oracle = quadrature_projection(ops, lambda x: 2.0 * fv(x)**5 / 5.0)
        np.testing.assert_allclose(model.coefficients(ops, np.zeros(8), v),
                                   oracle, atol=1e-12)

    def test_linear_damping(self, ops99, rng):
        v = rng.normal(size=99)
        np.testing.assert_allclose(LinearDamping(0.4).coefficients(ops99, None, v),
                                   -0.4 * v)

    def test_batched_matches_single(self, rng):
        ops = assemble(build_mesh(8))
        U, V = rng.normal(size=(2, 6, 8))
        model = DegenerateDamping(1.0, 1)
        batch = model.coefficients(ops, U, V)
        for i in range(6):
            np.testing.assert_allclose(batch[i],
                                       model.coefficients(ops, U[i], V[i]),
                                       atol=1e-14)

    @pytest.mark.parametrize("model", [DegenerateDamping(1.3, 1), DegenerateDamping(1.3, 2),
                                       PrimitiveDamping(0.7, 1), PrimitiveDamping(0.7, 2),
                                       LinearDamping(0.4)],
                             ids=["degenerate-m1", "degenerate-m2", "primitive-m1",
                                  "primitive-m2", "linear"])
    def test_coefficients_solve_the_load(self, model, rng):
        ops = assemble(build_mesh(8))
        U, V = rng.normal(size=(2, 5, 8))
        np.testing.assert_array_equal(model.coefficients(ops, U, V),
                                      ops.solve_mass(model.load(ops, U, V)))

    def test_load_sign_convention(self, rng):
        ops = assemble(build_mesh(8))
        u, v = rng.normal(size=(2, 8))
        np.testing.assert_array_equal(DegenerateDamping(1.3).load(ops, u, v),
                                      -1.3 * ops.quartic.contract(u, u, v))
        np.testing.assert_array_equal(LinearDamping(0.4).load(ops, u, v),
                                      -0.4 * ops.apply_mass(v))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DegenerateDamping(alpha=-1.0)
        with pytest.raises(ValueError):
            DegenerateDamping(m=0)
        with pytest.raises(ValueError):
            PrimitiveDamping(m=0)

    @pytest.mark.parametrize("alpha,m", [(np.nan, 1), (np.inf, 1), (-np.inf, 1),
                                         (1.0, np.inf), (1.0, np.nan)])
    @pytest.mark.parametrize("build", DAMPED, ids=DAMPED_IDS)
    def test_non_finite_parameters_rejected(self, build, alpha, m):
        # alpha < 0 is false for NaN, and int(inf) overflows
        with pytest.raises(ValueError, match="alpha must be finite|exponent half m"):
            build(alpha, m)

    @pytest.mark.parametrize("alpha,m,field", [(True, 1, "alpha"), (1.0, True, "m")])
    @pytest.mark.parametrize("build", DAMPED, ids=DAMPED_IDS)
    def test_boolean_parameters_rejected(self, build, alpha, m, field):
        # before, each was built with alpha 1.0 and m 1, or kept True
        with pytest.raises(ValueError, match=f"{field} must be"):
            build(alpha, m)

    @pytest.mark.parametrize("alpha,m,field", [(np.True_, 1, "alpha"),
                                               (1.0, np.True_, "m")])
    @pytest.mark.parametrize("build", DAMPED, ids=DAMPED_IDS)
    def test_numpy_boolean_parameters_rejected(self, build, alpha, m, field):
        # before, DegenerateDamping(alpha=np.True_) was built with alpha 1.0:
        # np.bool_ is no bool
        with pytest.raises(ValueError, match=f"{field} must be"):
            build(alpha, m)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, -1.0, True])
    def test_invalid_linear_damping_rejected(self, beta):
        # each constructed before, and .beta read nan, inf, -inf, -1.0, 1.0
        with pytest.raises(ValueError, match="beta must be finite and nonnegative"):
            LinearDamping(beta)


class TestConfig:
    def test_delta_must_divide(self):
        with pytest.raises(ValueError):
            PicardConfig(t_final=1.0, delta=0.3)

    @pytest.mark.parametrize("window", [0.003, 0.0009])
    def test_window_must_be_whole_steps(self, window):
        with pytest.raises(ValueError, match="delta must divide window"):
            PicardConfig(t_final=1.0, delta=2e-3, window=window)

    @pytest.mark.parametrize("t_final", [np.inf, np.nan])
    def test_non_finite_horizon_rejected(self, t_final):
        with pytest.raises(ValueError, match="t_final must be finite and positive"):
            PicardConfig(t_final=t_final, delta=0.002)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["delta", "epsilon", "window"])
    def test_non_finite_fields_rejected(self, name, value):
        # before, epsilon = inf accepted every window after one iteration,
        # and a NaN delta or window failed as "delta must divide t_final"
        fields = dict(t_final=1.0, delta=0.1, epsilon=1e-8, window=1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            PicardConfig(**{**fields, name: value})

    @pytest.mark.parametrize("value", [True, np.True_])
    @pytest.mark.parametrize("name", ["t_final", "delta", "epsilon", "window"])
    def test_boolean_fields_rejected(self, name, value):
        # before, PicardConfig(t_final=np.True_, delta=0.5) was built with
        # two steps
        fields = dict(t_final=1.0, delta=0.5, epsilon=1e-8, window=1.0)
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            PicardConfig(**{**fields, name: value})

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            PicardConfig(t_final=-1.0, delta=0.1)
        with pytest.raises(ValueError):
            PicardConfig(t_final=1.0, delta=0.1, epsilon=0.0)


class TestPicardSolve:
    def test_undamped_converges_first_iteration(self, ops99):
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=1.0, delta=2e-3, alpha=0.0, window=1.0)
        result = picard_solve(ops99, data.y0, config)
        assert result.converged
        assert result.iterations == 1
        assert result.final_distance == 0.0
        hom = solve_linear_inhomogeneous(ops99, data.y0,
                                         lambda t: np.zeros((len(t), 99)),
                                         1.0, 2e-3)
        np.testing.assert_allclose(nodal_trajectory(result.trajectory).states,
                                   hom.states, atol=1e-12)

    def test_distances_geometric(self, ops99):
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=0.5, delta=2e-3, window=0.5, epsilon=1e-12)
        result = picard_solve(ops99, data.y0, config)
        d = result.windows[0].distances
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 0]
        assert len(ratios) >= 2
        assert all(r < 0.1 for r in ratios)

    def test_energy_monotone(self, ops99):
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=2.0, delta=2e-3)
        result = picard_solve(ops99, data.y0, config)
        e = energy(ops99, nodal_trajectory(result.trajectory).states)
        assert (np.diff(e) <= 1e-6 * e[0]).all()
        assert e[-1] < e[0]

    def test_fixed_point_property(self, ops99, prop99):
        # re-solving the linear problem with the converged forcing barely moves it
        from picard_reference import interp_abscissae
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=1.0, delta=2e-3, epsilon=1e-10)
        result = picard_solve(ops99, data.y0, config)
        traj = nodal_trajectory(result.trajectory)
        model = DegenerateDamping(1.0, 1)
        ua, va = (interp_abscissae(x) for x in np.split(traj.states, 2, axis=1))
        resolve = nodal_sweep(prop99, data.y0, model.load(ops99, ua, va))
        assert energy_norm(ops99, resolve - traj.states).max() < config.epsilon * 10

    def test_divergence_detected(self, ops99):
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=1.0, delta=2e-3, alpha=50.0, window=1.0)
        with pytest.raises(PicardDivergenceError, match="shorter window"):
            picard_solve(ops99, data.y0, config)

    def test_non_finite_iterate_detected(self, ops99):
        # the forcing overflows: a numerical failure, not a configuration error
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=0.1, delta=2e-3, alpha=1e300)
        with pytest.raises(PicardDivergenceError, match="non-finite"):
            picard_solve(ops99, data.y0, config)

    def test_strong_damping_converges_with_short_window(self, ops99):
        # the same problem succeeds once the window honors the contraction bound
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=1.0, delta=2e-3, alpha=50.0, window=0.05)
        result = picard_solve(ops99, data.y0, config)
        assert result.converged
        e = energy(ops99, nodal_trajectory(result.trajectory).states)
        assert (np.diff(e) <= 1e-6 * e[0]).all()

    def test_max_iterations_reported_not_fatal(self, ops99, monkeypatch):
        monkeypatch.setattr(picard, "MAX_ITERATIONS", 3)
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=0.5, delta=2e-3, window=0.5,
                              epsilon=1e-30)
        result = picard_solve(ops99, data.y0, config)
        assert not result.converged
        assert result.iterations == 3

    def test_windowing_matches_single_window(self, ops99):
        # restarting every 0.25 reproduces the single-window fixed point
        data = mode_initial_state(ops99, 1)
        tight = dict(t_final=1.0, delta=2e-3, epsilon=1e-11)
        r1 = picard_solve(ops99, data.y0,
                          PicardConfig(window=1.0, **tight))
        r2 = picard_solve(ops99, data.y0,
                          PicardConfig(window=0.25, **tight))
        assert energy_norm(ops99, nodal_trajectory(r1.trajectory).states
                           - nodal_trajectory(r2.trajectory).states).max() < 1e-8


class TestContractionEstimate:
    def test_linear_in_window(self):
        g1 = estimate_contraction(1.0, 0.25, 1.0, 1)
        g2 = estimate_contraction(1.0, 0.5, 1.0, 1)
        assert g2 == pytest.approx(2 * g1, rel=1e-12)
        assert estimate_contraction(1.0, 0.0, 1.0, 1) == 0.0

    def test_monotone_in_parameters(self):
        base = estimate_contraction(1.0, 0.5, 1.0, 1)
        assert estimate_contraction(2.0, 0.5, 1.0, 1) > base
        assert estimate_contraction(1.0, 0.7, 1.0, 1) > base
        assert estimate_contraction(1.0, 0.5, 2.0, 1) > base

    def test_reference_table(self):
        # gamma = T alpha (R/2)^{2m-1} R sqrt(m^2+1/4); R = sqrt(2), m = 1
        # gives gamma = T sqrt(5)/2
        for t, expected in [(0.1, 0.11180339887498949),
                            (0.5, 0.5590169943749475),
                            (1.0, 1.118033988749895)]:
            assert estimate_contraction(np.sqrt(2.0), t, 1.0, 1) == pytest.approx(
                expected, rel=1e-12)

    def test_certified_window_converges(self, ops99):
        # pick the window from the bound; the observed ratio must beat gamma
        gamma_target = 0.5
        t_w = gamma_target / estimate_contraction(np.sqrt(2.0), 1.0, 1.0, 1)
        t_w = round(t_w / 2e-3) * 2e-3
        data = mode_initial_state(ops99, 1)
        config = PicardConfig(t_final=t_w, delta=2e-3, window=t_w, epsilon=1e-12)
        result = picard_solve(ops99, data.y0, config)
        d = result.windows[0].distances
        ratios = [d[i + 1] / d[i] for i in range(len(d) - 1) if d[i] > 0]
        assert max(ratios) < gamma_target
