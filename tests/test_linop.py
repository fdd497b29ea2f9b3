import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm as scipy_expm

from degenwave import (DegenerateDamping, assemble, build_mesh, energy,
                       energy_inner, energy_norm, matrix_exponential,
                       semilinear_rhs)
from degenwave.linwave import BOOLE_WEIGHTS, sweep
from mass_reference import banded_mass_solve


def dense_generator(ops):
    """[[0, I], [-M^{-1}K, 0]] assembled from the dense mass and stiffness."""
    n = ops.mesh.n
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -np.linalg.solve(ops.mass_matrix(), ops.stiffness_matrix())
    return a


def apply_generator(ops, y):
    """Generator action (v, -M^{-1} K u): the right-hand side without forcing."""
    return semilinear_rhs(ops, DegenerateDamping(alpha=0.0))(0.0, y)


def apply_power(prop, j, y):
    """exp(j * theta * A) y through the propagator's modal form."""
    return prop.nodal(prop.powers[j] * prop.modal(y))


class TestGenerator:
    def test_single_node_action(self):
        # M = 1/3, K = 4 so M^{-1}K = 12
        ops = assemble(build_mesh(1))
        np.testing.assert_allclose(apply_generator(ops, np.array([1.0, 0.0])),
                                   [0.0, -12.0], atol=1e-12)
        np.testing.assert_allclose(apply_generator(ops, np.array([0.0, 1.0])),
                                   [1.0, 0.0], atol=1e-15)

    def test_zero_state(self, ops99):
        np.testing.assert_allclose(apply_generator(ops99, np.zeros(198)),
                                   np.zeros(198))

    def test_skew_adjoint(self, ops99, rng):
        y = rng.normal(size=198)
        z = rng.normal(size=198)
        s = (energy_inner(ops99, apply_generator(ops99, y), z)
             + energy_inner(ops99, y, apply_generator(ops99, z)))
        assert abs(s) < 1e-12 * energy_norm(ops99, y) * energy_norm(ops99, z)

    def test_dense_matches_apply(self, ops99, rng):
        y = rng.normal(size=198)
        np.testing.assert_allclose(dense_generator(ops99) @ y,
                                   apply_generator(ops99, y),
                                   rtol=1e-12, atol=1e-12)


class TestExpmTaylor:
    """exp(tau A) of the wave generator, built by ``matrix_exponential``."""

    def test_rotation_closed_form(self):
        # oracle: exp(tau [[0,1],[-w^2,0]]) = [[cos, sin/w], [-w sin, cos]]
        ops = assemble(build_mesh(1))
        w = np.sqrt(12.0)
        for tau in (0.3, 1.7, -0.9):
            wt = w * tau
            exact = np.array([[np.cos(wt), np.sin(wt) / w],
                              [-w * np.sin(wt), np.cos(wt)]])
            ours = apply_power(matrix_exponential(ops, tau), 4, np.eye(2)).T
            np.testing.assert_allclose(ours, exact, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
    def test_against_scipy(self, scale):
        # scale is the step tau; exp(tau A) on the 6-node string (12 x 12)
        ops = assemble(build_mesh(6))
        ours = apply_power(matrix_exponential(ops, scale), 4, np.eye(12)).T
        ref = scipy_expm(scale * dense_generator(ops))
        np.testing.assert_allclose(ours, ref, rtol=1e-11, atol=1e-11 * np.linalg.norm(ref))

    def test_zero_matrix(self):
        # tau = 0: exp(0) = I on the single-node string
        prop = matrix_exponential(assemble(build_mesh(1)), 0.0)
        np.testing.assert_allclose(apply_power(prop, 4, np.eye(2)).T, np.eye(2))


class TestPropagator:
    def test_zero_step_identity(self, ops99, rng):
        # exp(0) = I: every phase factor is exactly one
        prop = matrix_exponential(ops99, 0.0)
        for p in prop.powers:
            np.testing.assert_array_equal(p, np.ones(99))
        y = rng.normal(size=198)
        np.testing.assert_allclose(apply_power(prop, 4, y), y, rtol=0, atol=1e-14)

    def test_single_node_closed_form(self):
        # oracle: exp(tau [[0,1],[-w^2,0]]) = [[cos, sin/w], [-w sin, cos]]
        ops = assemble(build_mesh(1))
        w = np.sqrt(12.0)
        for tau in (0.05, 0.3, 1.7, -0.9):
            prop = matrix_exponential(ops, tau)
            exact = np.array([[np.cos(w * tau), np.sin(w * tau) / w],
                              [-w * np.sin(w * tau), np.cos(w * tau)]])
            # rows of the identity map to the columns of exp(tau A)
            np.testing.assert_allclose(apply_power(prop, 4, np.eye(2)).T, exact,
                                       atol=1e-12)

    def test_energy_isometry(self, rng):
        ops = assemble(build_mesh(16))
        prop = matrix_exponential(ops, 2e-3)
        for _ in range(5):
            y = rng.normal(size=32)
            y /= energy_norm(ops, y)
            assert abs(energy_norm(ops, apply_power(prop, 4, y)) - 1.0) < 1e-10

    def test_power_cache_semigroup(self, prop99):
        for j in range(1, 5):
            for k in range(1, 5 - j):
                np.testing.assert_allclose(prop99.powers[j] * prop99.powers[k],
                                           prop99.powers[j + k],
                                           atol=1e-10)

    def test_long_run_energy_conservation(self, ops99, prop99, rng):
        y = rng.normal(size=198)
        e0 = energy(ops99, y)
        states = sweep(prop99, y, np.zeros((4 * 5000 + 1, 99)))
        assert abs(energy(ops99, states[-1]) - e0) / e0 < 1e-9

    def test_sine_modes_round_trip(self, prop99, rng):
        y = rng.normal(size=(3, 198))
        np.testing.assert_allclose(prop99.nodal(prop99.modal(y)), y,
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 8, 99, 499])
    def test_mass_solve_is_a_modal_scaling(self, n, rng):
        # S M S = diag(mu): forcing_modes(b) = (b @ S) / mu is S M^{-1} b
        ops = assemble(build_mesh(n))
        prop = matrix_exponential(ops, 2e-3)
        b = rng.normal(size=(3, 7, n))
        ref = banded_mass_solve(ops, b) @ prop.sine
        got = prop.forcing_modes(b)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_phase_table_cached_per_step_count(self, ops99):
        prop = matrix_exponential(ops99, 2e-3)
        table = prop.phases(500)
        np.testing.assert_array_equal(
            table, np.exp(-1j * np.outer(prop.step * np.arange(501), prop.omega)))
        assert prop.phases(500) is table
        assert not table.flags.writeable
        short = prop.phases(120)
        assert short is not table and short.shape == (121, 99)
        np.testing.assert_array_equal(
            short, np.exp(-1j * np.outer(prop.step * np.arange(121), prop.omega)))

    def test_phase_table_shared_across_threads(self, ops99):
        # callers on several threads sharing one propagator each get a
        # complete table, however the threads interleave
        prop = matrix_exponential(ops99, 2e-3)
        counts = [50, 80, 120, 50, 80, 120, 50, 80] * 3
        fresh = {c: np.exp(-1j * np.outer(prop.step * np.arange(c + 1), prop.omega))
                 for c in set(counts)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                tables = list(pool.map(prop.phases, counts, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for c, table in zip(counts, tables):
            np.testing.assert_array_equal(table, fresh[c])
        assert all(prop.phases(c) is prop.phases(c) for c in fresh)


class TestAgainstDenseExpm:
    """The modal flow against scipy's expm of the assembled dense generator."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), step=st.sampled_from([1e-3, 2e-3, 0.01, 0.05, 0.3]),
           seed=st.integers(0, 2**16))
    def test_powers_match_dense_expm(self, n, step, seed):
        ops = assemble(build_mesh(n))
        prop = matrix_exponential(ops, step)
        a = dense_generator(ops)
        y = np.random.default_rng(seed).normal(size=2 * n)
        for j in range(prop.points):
            ref = scipy_expm(j * prop.theta * a) @ y
            got = apply_power(prop, j, y)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 40), step=st.sampled_from([1e-3, 2e-3, 0.01, 0.05]),
           nsteps=st.integers(1, 30), seed=st.integers(0, 2**16))
    def test_sweep_matches_dense_steps(self, n, step, nsteps, seed):
        # the Duhamel step written out with dense sub-step exponentials
        points = len(BOOLE_WEIGHTS)
        r = points - 1
        ops = assemble(build_mesh(n))
        prop = matrix_exponential(ops, step)
        a = dense_generator(ops)
        rng = np.random.default_rng(seed)
        y0 = rng.normal(size=2 * n)
        f = rng.normal(size=(r * nsteps + 1, n))
        exps = [scipy_expm(j * prop.theta * a) for j in range(points)]
        w = step * BOOLE_WEIGHTS
        y, ref = y0, [y0]
        for i in range(nsteps):
            y = exps[r] @ y + sum(w[j] * exps[r - j][:, n:] @ f[r * i + j]
                                  for j in range(points))
            ref.append(y)
        ref = np.array(ref)
        got = sweep(prop, y0, ops.apply_mass(f))
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


class TestEnergy:
    def test_zero_state(self, ops99):
        assert energy(ops99, np.zeros(198)) == 0.0

    def test_quadratic_scaling(self, ops99, rng):
        y = rng.normal(size=198)
        assert energy(ops99, 3.0 * y) == pytest.approx(9.0 * energy(ops99, y),
                                                       rel=1e-12)

    def test_mode_one_energy_near_unity(self, mesh99, ops99):
        # nodal interpolant of (2/pi) sin(pi x) with zero velocity
        u0 = (2.0 / np.pi) * np.sin(np.pi * mesh99.nodes)
        y = np.concatenate([u0, np.zeros(99)])
        assert abs(energy(ops99, y) - 1.0) < 1e-3

    def test_mode_energy_refinement(self):
        # the unit-energy defect shrinks like h^2
        defects = []
        for n in (49, 99):
            mesh = build_mesh(n)
            ops = assemble(mesh)
            u0 = (2.0 / np.pi) * np.sin(np.pi * mesh.nodes)
            defects.append(abs(energy(ops, np.concatenate([u0, np.zeros(n)])) - 1.0))
        assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.1)
