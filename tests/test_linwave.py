import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from degenwave import (BOOLE_WEIGHTS, assemble, build_mesh,
                       analytic_linear_damped, energy, energy_norm,
                       matrix_exponential)
from degenwave.linop import Propagator
from degenwave.linwave import sweep
from reference import (max_generalized_eigenvalue, nodal_sweep,
                       solve_linear_inhomogeneous, theta)


def discrete_eigenvalue(ops, k):
    """Generalized stiffness/mass eigenvalue of the sine mode on this mesh."""
    h = ops.mesh.h
    th = k * np.pi * h
    return (6.0 / h**2) * (1.0 - np.cos(th)) / (2.0 + np.cos(th))


class TestNewtonCotes:
    def test_weights_sum_to_step(self):
        w = 0.37 * BOOLE_WEIGHTS
        assert w.sum() == pytest.approx(0.37, rel=1e-14)

    def test_boole_weights(self):
        np.testing.assert_allclose(90.0 * BOOLE_WEIGHTS,
                                   [7.0, 32.0, 12.0, 32.0, 7.0])
        # exact through degree 5
        d = 0.3
        s = d / 4 * np.arange(5)
        poly = lambda t: 1.0 - 2 * t + 3 * t**2 - t**3 + 0.5 * t**4 + 2 * t**5
        anti = lambda t: (t - t**2 + t**3 - t**4 / 4 + 0.1 * t**5 + t**6 / 3)
        got = (d * BOOLE_WEIGHTS) @ poly(s)
        assert got == pytest.approx(anti(d) - anti(0.0), abs=1e-13)


class TestDuhamelStep:
    def test_zero_forcing_is_propagation(self, prop99, rng):
        y = rng.normal(size=198)
        got = nodal_sweep(prop99, y, np.zeros((5, 99)))[1]
        np.testing.assert_allclose(got, prop99.nodal(prop99.powers[-1] * prop99.modal(y)),
                                   atol=1e-14)

    def test_constant_forcing_closed_form(self):
        # oracle: int_0^d exp((d-s)A) F ds = A^{-1}(exp(dA)-I) F
        ops = assemble(build_mesh(1))
        d = 0.01
        prop = matrix_exponential(ops, d)
        a = np.array([[0.0, 1.0], [-ops.stiffness_diag[0] / ops.mass_diag[0], 0.0]])
        fvec = np.array([0.0, 2.5])  # forcing lives in the velocity block
        exact = np.linalg.solve(a, (scipy_expm(d * a) - np.eye(2)) @ fvec)
        got = nodal_sweep(prop, np.zeros(2), ops.apply_mass(np.full((5, 1), 2.5)))[1]
        np.testing.assert_allclose(got, exact, atol=1e-9)

    def test_polynomial_exactness_without_generator(self):
        # A = 0 (omega below any phase resolution): the step reduces to plain
        # quadrature, exact through degree 5
        d = 0.3
        omega = np.array([np.finfo(float).tiny])
        prop = Propagator(step=d, sine=np.ones((1, 1)), omega=omega, mu=np.ones(1),
                          powers=tuple(np.ones(1, dtype=complex) for _ in range(5)))
        s = theta(prop) * np.arange(5)
        poly = lambda t: 1.0 - 2 * t + 3 * t**2 - t**3 + 0.5 * t**4 + 2 * t**5
        anti = lambda t: (t - t**2 + t**3 - t**4 / 4 + 0.1 * t**5 + t**6 / 3)
        got = nodal_sweep(prop, np.zeros(2), poly(s)[:, None])[1]
        assert got[0] == pytest.approx(0.0, abs=1e-15)
        assert got[1] == pytest.approx(anti(d) - anti(0.0), abs=1e-13)

    @pytest.mark.parametrize("n, tol", [(1, 0.0), (99, 1e-14)])
    def test_broadcast_load_matches_materialized(self, n, tol, rng):
        # the constant load is transformed as one row; BLAS rounds a one-row
        # product differently from the same row inside a batched one, so the
        # two agree to rounding, and exactly where S is 1 x 1
        ops = assemble(build_mesh(n))
        prop = matrix_exponential(ops, 2e-3)
        y0 = rng.normal(size=2 * n)
        load = np.broadcast_to(rng.normal(size=n), (4 * 50 + 1, n))
        got = nodal_sweep(prop, y0, load)
        ref = nodal_sweep(prop, y0, np.ascontiguousarray(load))
        assert got.shape == ref.shape == (51, 2 * n)
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max()

    def test_wrong_sample_count(self, prop99):
        with pytest.raises(ValueError):
            sweep(prop99, np.zeros(99, complex), np.zeros((6, 99)))


class TestSolveLinear:
    def test_homogeneous_matches_discrete_rotation(self, mesh99, ops99):
        # same operator on both sides: the sine samples are exact eigenvectors,
        # so the semi-discrete flow is a rotation at the discrete frequency
        u0 = np.sin(np.pi * mesh99.nodes)
        y0 = np.concatenate([u0, np.zeros(99)])
        traj = solve_linear_inhomogeneous(ops99, y0, lambda t: np.zeros((len(t), 99)),
                                          10.0, 2e-3)
        w = np.sqrt(discrete_eigenvalue(ops99, 1))
        t = traj.times[:, None]
        exact = np.concatenate([np.cos(w * t) * u0, -w * np.sin(w * t) * u0],
                               axis=1)
        assert energy_norm(ops99, traj.states - exact).max() < 1e-8

    def test_homogeneous_energy_constant(self, ops99, rng):
        y0 = rng.normal(size=198)
        traj = solve_linear_inhomogeneous(ops99, y0, lambda t: np.zeros((len(t), 99)),
                                          10.0, 2e-3)
        e = energy(ops99, traj.states)
        assert np.abs(e - e[0]).max() / e[0] < 1e-9

    def test_manufactured_solution(self, mesh99, ops99):
        # u(t) = t^2 sin(pi x) solves the semi-discrete system with forcing
        # (2 + lambda_h t^2) sin(pi x)
        s = np.sin(np.pi * mesh99.nodes)
        lam_h = discrete_eigenvalue(ops99, 1)

        def forcing(t):
            return (2.0 + lam_h * t**2)[:, None] * s

        traj = solve_linear_inhomogeneous(ops99, np.zeros(198), forcing, 2.0,
                                          2e-3)
        t = traj.times[:, None]
        exact = np.concatenate([t**2 * s, 2 * t * s], axis=1)
        assert energy_norm(ops99, traj.states - exact).max() < 1e-6

    @pytest.mark.parametrize("order", [pytest.param(6, id="boole-6")])
    def test_quadrature_convergence_order(self, order):
        # oscillatory manufactured solution in the regime where the
        # Newton-Cotes error dominates
        mesh = build_mesh(1)
        ops = assemble(mesh)
        lam_h = max_generalized_eigenvalue(ops)
        nu = 2.0
        s = np.array([1.0])
        errs = []
        for d in (0.1, 0.05):
            def forcing(t):
                return ((lam_h - nu**2) * np.sin(nu * t))[:, None] * s

            y0 = np.concatenate([0.0 * s, nu * s])
            traj = solve_linear_inhomogeneous(ops, y0, forcing, 2.0, d)
            exact = np.stack([np.sin(nu * traj.times),
                              nu * np.cos(nu * traj.times)], axis=1)
            errs.append(energy_norm(ops, traj.states - exact).max())
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(2.0**order, rel=0.2)

    def test_step_must_tile_interval(self, ops99):
        with pytest.raises(ValueError):
            solve_linear_inhomogeneous(ops99, np.zeros(198),
                                       lambda t: np.zeros((len(t), 99)),
                                       1.0, 0.3)


class TestAnalyticLinearDamped:
    BETA = (2.0 / np.pi) ** 2

    def test_initial_data(self):
        x = np.linspace(0, 1, 11)
        u, v = analytic_linear_damped(self.BETA, 1, 2.0 / np.pi, 0.0, x)
        np.testing.assert_allclose(u, 2.0 / np.pi * np.sin(np.pi * x), atol=1e-14)
        np.testing.assert_allclose(v, np.zeros(11), atol=1e-14)

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError):
            analytic_linear_damped(10.0, 1, 1.0, 0.0, np.array([0.5]))

    def test_solves_the_ode(self):
        # finite-difference oracle: u_tt + lambda u + beta u_t = 0 per mode
        c0, k, dt = 0.7, 2, 1e-5
        x = np.array([0.23])
        for t in (0.4, 2.2):
            um, _ = analytic_linear_damped(self.BETA, k, c0, t - dt, x)
            u0, v0 = analytic_linear_damped(self.BETA, k, c0, t, x)
            up, _ = analytic_linear_damped(self.BETA, k, c0, t + dt, x)
            utt = (up[0] - 2 * u0[0] + um[0]) / dt**2
            resid = utt + (k * np.pi)**2 * u0[0] + self.BETA * v0[0]
            assert abs(resid) < 1e-5

    def test_energy_nonincreasing(self):
        # closed-form modal energy (lam A^2 + A'^2)/4 with |sin|_0^2 = 1/2
        lam = np.pi**2
        w = np.sqrt(lam - self.BETA**2 / 4)
        c0 = 2.0 / np.pi

        def modal_energy(t):
            decay = np.exp(-0.5 * self.BETA * t)
            A = c0 * decay * (np.cos(w * t) + self.BETA / (2 * w) * np.sin(w * t))
            Ad = -c0 * decay * (lam / w) * np.sin(w * t)
            return 0.25 * (lam * A**2 + Ad**2)

        ts = np.linspace(0.0, 10.0, 400)
        e = np.array([modal_energy(t) for t in ts])
        assert (np.diff(e) <= 1e-12).all()

