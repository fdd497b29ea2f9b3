import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh

from degenwave import assemble, build_mesh, mesh_from_h
from degenwave import mesh as mesh_module
from degenwave.mesh import whole_steps
from contract_reference import allocating_contract
from mass_reference import banded_mass_solve
from reference import (dense_mass, dense_stiffness, element_gauss, gauss_rule,
                       hat_load, hat_load_from_values, l2_project,
                       max_generalized_eigenvalue, nodes_full, quartic_entry,
                       values_at_gauss)


def gauss_integrate(f, a, b, npts=8):
    """Independent quadrature oracle on [a, b]."""
    gp, gw = leggauss(npts)
    x = 0.5 * (b - a) * gp + 0.5 * (a + b)
    return 0.5 * (b - a) * np.sum(gw * f(x))


def hat(mesh, i):
    """Callable hat function phi_i (1-based)."""
    xi = mesh.nodes[i - 1]

    def phi(x):
        return np.clip(1.0 - np.abs(x - xi) / mesh.h, 0.0, None)

    return phi


class TestBuildMesh:
    def test_h_for_99_nodes(self):
        assert build_mesh(99).h == pytest.approx(1e-2, abs=1e-15)

    def test_single_node(self):
        mesh = build_mesh(1)
        assert mesh.h == 0.5
        np.testing.assert_allclose(mesh.nodes, [0.5])

    def test_three_nodes(self):
        np.testing.assert_allclose(build_mesh(3).nodes, [0.25, 0.5, 0.75])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_mesh(0)

    @pytest.mark.parametrize("n", [1, 2, 7, 99, 512])
    def test_invariants(self, n):
        mesh = build_mesh(n)
        assert mesh.h * (n + 1) == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(mesh.nodes) > 0).all()
        assert mesh.nodes[0] > 0 and mesh.nodes[-1] < 1

    def test_mesh_from_h(self):
        assert mesh_from_h(1e-2).n == 99
        with pytest.raises(ValueError):
            mesh_from_h(0.3)


class TestWholeSteps:
    def test_counts_the_steps(self):
        assert whole_steps(10.0, 2e-3, "unused") == 5000
        assert whole_steps(0.3, 0.1, "unused") == 3
        assert whole_steps(-1e-12, 0.1, "unused", least=0) == 0

    @pytest.mark.parametrize("length, step, least", [
        (1.0, 0.3, 1), (0.0, 0.1, 1), (-0.2, 0.1, 0), (1.0, 0.0, 1),
        (1.0, -0.5, 1), (1.0 + 2e-9, 0.5, 1), (np.inf, 0.002, 1),
        (np.nan, 0.1, 0), (1.0, np.nan, 1), (1.0, np.inf, 0),
        (1e300, 1e-300, 1)])
    def test_rejects_with_the_callers_message(self, length, step, least):
        with pytest.raises(ValueError, match="^the quantity$"):
            whole_steps(length, step, "the quantity", least)


class TestAssemble:
    def test_single_node_values(self):
        ops = assemble(build_mesh(1))
        np.testing.assert_allclose(dense_mass(ops), [[1.0 / 3.0]], atol=1e-15)
        np.testing.assert_allclose(dense_stiffness(ops), [[4.0]], atol=1e-15)

    def test_two_node_values(self):
        ops = assemble(build_mesh(2))
        h = 1.0 / 3.0
        np.testing.assert_allclose(
            dense_mass(ops), [[2 * h / 3, h / 6], [h / 6, 2 * h / 3]], atol=1e-15)
        np.testing.assert_allclose(
            dense_stiffness(ops), [[2 / h, -1 / h], [-1 / h, 2 / h]], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 99, 256, 512])
    def test_spd(self, n):
        ops = assemble(build_mesh(n))
        for mat in (dense_mass(ops), dense_stiffness(ops)):
            np.testing.assert_allclose(mat, mat.T)
            np.linalg.cholesky(mat)  # raises if not positive definite

    def test_generalized_eigenvalue_convergence(self):
        ops = assemble(build_mesh(99))
        lam = eigh(dense_stiffness(ops), dense_mass(ops),
                   eigvals_only=True)
        assert abs(lam[0] - np.pi**2) / np.pi**2 < 1e-3

    def test_max_generalized_eigenvalue_formula(self):
        ops = assemble(build_mesh(31))
        lam = eigh(dense_stiffness(ops), dense_mass(ops), eigvals_only=True)
        assert max_generalized_eigenvalue(ops) == pytest.approx(lam[-1], rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 7, 99, 499])
    def test_sine_modes_diagonalize(self, n):
        ops = assemble(build_mesh(n))
        S = ops.sine_basis()
        mu, kappa = ops.sine_eigenvalues()
        np.testing.assert_array_equal(S, S.T)
        np.testing.assert_allclose(S @ S, np.eye(n), atol=1e-13)
        np.testing.assert_allclose(dense_mass(ops) @ S, S * mu,
                                   atol=1e-13 * mu.max())
        np.testing.assert_allclose(dense_stiffness(ops) @ S, S * kappa,
                                   atol=1e-13 * kappa.max())

    def test_solve_mass_matches_banded_solve(self, rng):
        # the modal solve S ((S b) / mu) against SciPy's banded one; the
        # worst relative difference measured over these cases is 1.3e-15
        for n in range(1, 201):
            ops = assemble(build_mesh(n))
            for batch in [(), (1,), (3,), (2, 4)]:
                b = rng.standard_normal(batch + (n,))
                want = banded_mass_solve(ops, b)
                got = ops.solve_mass(b)
                assert got.shape == b.shape
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_matrix_entries_against_quadrature(self):
        # independent integration of hat products for a small mesh
        mesh = build_mesh(4)
        ops = assemble(mesh)
        pts = nodes_full(mesh)
        for i in range(1, 5):
            for j in range(1, 5):
                fi, fj = hat(mesh, i), hat(mesh, j)
                m_exact = sum(gauss_integrate(lambda x: fi(x) * fj(x),
                                              pts[e], pts[e + 1])
                              for e in range(len(pts) - 1))
                assert dense_mass(ops)[i - 1, j - 1] == pytest.approx(
                    m_exact, abs=1e-14)


class TestQuarticTensor:
    def test_diagonal_value(self):
        for n in (3, 8, 99):
            ops = assemble(build_mesh(n))
            h = ops.mesh.h
            for p in range(1, n + 1):
                assert quartic_entry(ops.quartic, p, p, p, p) == pytest.approx(2 * h / 5)

    def test_three_distinct_values(self):
        ops = assemble(build_mesh(8))
        vals = set()
        for p in range(1, 9):
            for q in range(max(1, p - 1), min(8, p + 1) + 1):
                for r in range(max(1, p - 1), min(8, p + 1) + 1):
                    for s in range(max(1, p - 1), min(8, p + 1) + 1):
                        v = quartic_entry(ops.quartic, p, q, r, s)
                        if v != 0.0:
                            vals.add(round(v, 15))
        assert len(vals) == 3

    def test_values_against_quadrature(self):
        mesh = build_mesh(5)
        ops = assemble(mesh)
        pts = nodes_full(mesh)
        for idx in [(2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 3),
                    (1, 1, 2, 2), (2, 2, 2, 4), (1, 3, 3, 3)]:
            fs = [hat(mesh, i) for i in idx]
            exact = sum(gauss_integrate(
                lambda x: fs[0](x) * fs[1](x) * fs[2](x) * fs[3](x),
                pts[e], pts[e + 1]) for e in range(len(pts) - 1))
            assert quartic_entry(ops.quartic, *idx) == pytest.approx(exact, abs=1e-15)

    def test_permutation_symmetry(self, rng):
        ops = assemble(build_mesh(6))
        from itertools import permutations
        for idx in [(3, 3, 4, 4), (2, 3, 3, 3), (5, 5, 5, 6)]:
            vals = {quartic_entry(ops.quartic, *perm) for perm in permutations(idx)}
            assert len(vals) == 1

    def test_contraction_against_quadrature(self, rng):
        # brute-force oracle: integrate (sum a phi)(sum b phi)(sum c phi) phi_p
        mesh = build_mesh(8)
        ops = assemble(mesh)
        a, b, c = rng.normal(size=(3, 8))
        result = ops.quartic.contract(a, b, c)
        pts = nodes_full(mesh)

        def field(coef):
            def f(x):
                acc = np.zeros_like(x)
                for j in range(8):
                    acc += coef[j] * hat(mesh, j + 1)(x)
                return acc
            return f

        fa, fb, fc = field(a), field(b), field(c)
        for p in range(1, 9):
            fp = hat(mesh, p)
            exact = sum(gauss_integrate(lambda x: fa(x) * fb(x) * fc(x) * fp(x),
                                        pts[e], pts[e + 1])
                        for e in range(len(pts) - 1))
            assert result[p - 1] == pytest.approx(exact, abs=1e-12)

    def test_contraction_batched(self, rng):
        ops = assemble(build_mesh(8))
        A, B, C = rng.normal(size=(3, 5, 8))
        batch = ops.quartic.contract(A, B, C)
        for i in range(5):
            np.testing.assert_allclose(batch[i],
                                       ops.quartic.contract(A[i], B[i], C[i]),
                                       atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8),
           batch=st.lists(st.integers(1, 3), max_size=2).map(tuple),
           seed=st.integers(0, 2**16))
    def test_contraction_matches_brute_force_sum(self, n, batch, seed):
        # out[p] = sum_{q,r,s} T[p,q,r,s] a[q] b[r] c[s], every entry looked up
        ops = assemble(build_mesh(n))
        dense = np.zeros((n, n, n, n))
        for idx in itertools.product(range(n), repeat=4):
            dense[idx] = quartic_entry(ops.quartic, *(i + 1 for i in idx))
        a, b, c = np.random.default_rng(seed).normal(size=(3,) + batch + (n,))
        ref = np.einsum("pqrs,...q,...r,...s->...p", dense, a, b, c)
        got = ops.quartic.contract(a, b, c)
        assert got.shape == batch + (n,)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)


def _neighbour_sum(quartic, a, b, c):
    """out[p] = sum of entry(p, q, r, s) a[q] b[r] c[s] over |q-p|, |r-p|,
    |s-p| <= 1, where every nonzero entry of row p lies."""
    n = len(a)
    out = np.zeros(n)
    for p in range(n):
        near = [i for i in (p - 1, p, p + 1) if 0 <= i < n]
        for q, r, s in itertools.product(near, repeat=3):
            out[p] += (quartic_entry(quartic, p + 1, q + 1, r + 1, s + 1)
                       * a[q] * b[r] * c[s])
    return out


class TestBlockedContraction:
    """Batches larger than one block of ``mesh._BLOCK`` elements."""

    @pytest.fixture(params=[99, 499])
    def quartic(self, request):
        return assemble(build_mesh(request.param)).quartic

    @staticmethod
    def assert_rows_exact(quartic, a, b, c):
        got = quartic.contract(a, b, c)
        a, b, c = np.broadcast_arrays(a, b, c)
        assert got.shape == a.shape
        rows = [x.reshape(-1, a.shape[-1]) for x in (a, b, c)]
        assert len(rows[0]) > mesh_module._BLOCK // a.shape[-1]
        want = np.array([quartic.contract(*row) for row in zip(*rows)])
        assert np.array_equal(got.reshape(want.shape), want)
        return got.reshape(want.shape), rows

    @pytest.mark.parametrize("batch", [(2001,), (3, 700)])
    def test_rows_match_one_dimensional_calls(self, quartic, batch):
        n = quartic.mesh.n
        a, b, c = np.random.default_rng(n).normal(size=(3,) + batch + (n,))
        got, rows = self.assert_rows_exact(quartic, a, b, c)
        for i in (0, 700, len(got) - 1):
            np.testing.assert_allclose(
                got[i], _neighbour_sum(quartic, *(x[i] for x in rows)),
                rtol=1e-12, atol=1e-15)

    def test_vector_broadcast_against_batch(self, quartic):
        n = quartic.mesh.n
        rng = np.random.default_rng(n + 1)
        u, v = rng.normal(size=n), rng.normal(size=(2001, n))
        self.assert_rows_exact(quartic, u, u, v)
        self.assert_rows_exact(quartic, v, u, v)

    def test_column_slices_of_a_state_array(self, quartic):
        n = quartic.mesh.n
        states = np.random.default_rng(n + 2).normal(size=(2001, 2 * n))
        u, v = states[:, :n], states[:, n:]
        assert not u.flags.c_contiguous and not v.flags.c_contiguous
        got, _ = self.assert_rows_exact(quartic, u, u, v)
        np.testing.assert_allclose(
            got[1000], _neighbour_sum(quartic, u[1000], u[1000], v[1000]),
            rtol=1e-12, atol=1e-15)


class TestFlatKernel:
    """The in-place kernel on flattened rows against the allocating 2-D
    formula it replaced, bit for bit."""

    @pytest.fixture(params=[1, 2, 3, 99, 499], scope="class")
    def quartic(self, request):
        return assemble(build_mesh(request.param)).quartic

    @staticmethod
    def assert_bits(quartic, a, b, c):
        got = quartic.contract(a, b, c)
        want = allocating_contract(quartic, a, b, c)
        np.testing.assert_array_equal(got, want)
        # assert_array_equal takes -0.0 for 0.0
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("batch", [(), (1,), (4,), (129,), (2001,)],
                             ids=["n", "1xn", "4xn", "129xn", "2001xn"])
    def test_matches_the_allocating_formula(self, quartic, batch):
        n = quartic.mesh.n
        a, b, c = np.random.default_rng(n + len(batch)).normal(size=(3,) + batch + (n,))
        self.assert_bits(quartic, a, b, c)
        self.assert_bits(quartic, a, a, c)            # the cubic damping's (u, u, v)
        self.assert_bits(quartic, a.reshape(-1, n)[0], a, c)   # one broadcast row
        self.assert_bits(quartic, b, c.reshape(-1, n)[:1], a)  # a (1, n) row
        # zero displacement rows: every entry is a signed zero
        self.assert_bits(quartic, 0.0 * a, 0.0 * a, c)

    @pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
    def test_a_bad_row_stays_in_its_row(self, quartic, bad):
        # the element that straddles two rows of the flattened block is
        # spurious; rows 64-66 share a block at every n
        n = quartic.mesh.n
        a, b, c = np.random.default_rng(n).normal(size=(3, 129, n))
        a[65] = b[65] = c[65] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            got = quartic.contract(a, b, c)
        for i in range(len(got)):
            if i != 65:
                np.testing.assert_array_equal(
                    got[i], quartic.contract(a[i], b[i], c[i]))


class TestProjections:
    def test_ritz_solves_stiffness_system(self):
        # the H^1_0 (Ritz) projection of g onto piecewise linears is the nodal
        # interpolant g(x_i); direct oracle: assemble the load (g', phi_i') by
        # quadrature and solve the stiffness system
        mesh = build_mesh(17)
        ops = assemble(mesh)
        g = lambda x: np.sin(np.pi * x)
        gp = lambda x: np.pi * np.cos(np.pi * x)
        pts = nodes_full(mesh)
        load = np.zeros(17)
        for i in range(1, 18):
            # phi_i' = +1/h then -1/h on the two supporting elements
            load[i - 1] = (gauss_integrate(gp, pts[i - 1], pts[i]) / mesh.h
                           - gauss_integrate(gp, pts[i], pts[i + 1]) / mesh.h)
        c = np.linalg.solve(dense_stiffness(ops), load)
        np.testing.assert_allclose(g(mesh.nodes), c, atol=1e-9)

    def test_l2_zero_and_basis(self):
        mesh = build_mesh(9)
        ops = assemble(mesh)
        np.testing.assert_allclose(l2_project(ops, lambda x: 0.0 * x),
                                   np.zeros(9), atol=1e-15)
        np.testing.assert_allclose(l2_project(ops, hat(mesh, 4)),
                                   np.eye(9)[3], atol=1e-12)

    def test_l2_projection_vs_interpolant_second_order(self):
        # the gap between nodal interpolant and L^2 projection shrinks as h^2
        from degenwave import l2_norm
        gaps = []
        for n in (49, 99):
            ops = assemble(build_mesh(n))
            c = l2_project(ops, lambda x: np.sin(np.pi * x))
            gaps.append(l2_norm(ops, c - np.sin(np.pi * ops.mesh.nodes)))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)

    def test_l2_projection_exact_load(self):
        # closed-form load for the sine mode: int sin(pi x) phi_i
        #   = sin(pi x_i) * 2 (1 - cos(pi h)) / (pi^2 h)
        mesh = build_mesh(99)
        ops = assemble(mesh)
        c = l2_project(ops, lambda x: np.sin(np.pi * x))
        load = (np.sin(np.pi * mesh.nodes)
                * 2.0 * (1.0 - np.cos(np.pi * mesh.h)) / (np.pi**2 * mesh.h))
        exact = ops.solve_mass(load)
        np.testing.assert_allclose(c, exact, atol=1e-13)


class TestQuadratureHelpers:
    def test_hat_load_matches_direct(self):
        mesh = build_mesh(7)
        g = lambda x: x**2 * (1 - x)
        load = hat_load(mesh, g)
        pts = nodes_full(mesh)
        for i in range(1, 8):
            exact = sum(gauss_integrate(lambda x: g(x) * hat(mesh, i)(x),
                                        pts[e], pts[e + 1])
                        for e in range(len(pts) - 1))
            assert load[i - 1] == pytest.approx(exact, abs=1e-14)

    def test_values_at_gauss_linear_exact(self, rng):
        mesh = build_mesh(7)
        u = rng.normal(size=7)
        x, xi, _ = element_gauss(mesh, 3)
        vals = values_at_gauss(mesh, u, xi)
        up = np.concatenate([[0.0], u, [0.0]])
        for e in range(8):
            lin = up[e] + (up[e + 1] - up[e]) * (x[e] - nodes_full(mesh)[e]) / mesh.h
            np.testing.assert_allclose(vals[e], lin, atol=1e-14)


def gauss_power_load(mesh, x, p, v):
    """(x^p v, phi_i) by per-element Gauss, exact through the degree p + 2."""
    xi, w = gauss_rule(p // 2 + 2)
    values = values_at_gauss(mesh, x, xi) ** p * values_at_gauss(mesh, v, xi)
    return hat_load_from_values(mesh, values, xi, w)


class TestPowerLoad:
    @pytest.mark.parametrize("shape", [(), (129,)], ids=["vector", "block"])
    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("n", [1, 3, 99, 499])
    def test_matches_gauss(self, n, p, shape):
        mesh = build_mesh(n)
        x, v = np.random.default_rng(10 * n + p).normal(size=(2,) + shape + (n,))
        want = gauss_power_load(mesh, x, p, v)
        got = mesh_module.power_load(mesh, x, p, v)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()
        out = np.full(want.shape, np.nan)
        assert mesh_module.power_load(mesh, x, p, v, out) is out
        assert np.array_equal(out, got)

    @pytest.mark.parametrize("n", [1, 3, 99, 499])
    def test_square_is_the_quartic_contraction(self, n):
        ops = assemble(build_mesh(n))
        x, v = np.random.default_rng(n).normal(size=(2, 129, n))
        want = ops.quartic.contract(x, x, v)
        got = mesh_module.power_load(ops.mesh, x, 2, v)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
