import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degenwave import (AnsatzProblem, OscillatorProblem, assemble,
                       ball_samples, build_mesh, cli, compare_energy_decay,
                       compare_energy_norm, energy, experiments,
                       frequency_sweep, matrix_exponential, mesh_from_h,
                       oracle, oracle_states, picard, primitive_setup,
                       primitive_solve, reference_errors, rk4_ansatz,
                       simulate_oscillator, uniform_stability_sweep)
from degenwave.cli import Report, RunConfig, main
from degenwave.experiments import mode_initial_state
from degenwave.linop import Propagator
from degenwave.linwave import ModalTrajectory, Trajectory
from reference import (class_of_node, modal_energy, modal_trajectory,
                       nodal_energy_trace, nodal_trajectory, oracle_solutions,
                       term_energy)
from lawson_reference import allocating_lawson
from rk4_reference import allocating_rk4


def make_problem(mesh, k=1, c0=0.45, alpha=1.0, m=1):
    return AnsatzProblem.for_mesh(mesh, k, c0=c0, c1=0.0, alpha=alpha, m=m)


class TestAnsatzProblem:
    def test_validation(self, mesh99):
        # the sample positions are the mesh's nodes, so they cannot be wrong
        with pytest.raises(ValueError):
            AnsatzProblem(k=0, c0=1.0, c1=0.0, alpha=1.0, m=1, mesh=mesh99)

    @pytest.mark.parametrize("field", ["c0", "c1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, mesh99, field, value):
        # before, c0 = nan built a problem whose run failed with advice to
        # reduce the step or the damping
        data = {"c0": 0.45, "c1": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AnsatzProblem.for_mesh(mesh99, 1, **data)

    @pytest.mark.parametrize("alpha,m", [(1.0, 0), (1.0, 1.5), (-1.0, 1)])
    def test_damping_must_dissipate(self, mesh99, alpha, m):
        # x^{2m} is formed by squaring, which needs an integer m >= 1, and
        # alpha x^{2m} x' dissipates only for alpha >= 0
        with pytest.raises(ValueError, match="alpha|exponent"):
            AnsatzProblem(k=1, c0=1.0, c1=0.0, alpha=alpha, m=m, mesh=mesh99)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    @pytest.mark.parametrize("field", ["k", "c0", "c1"])
    def test_boolean_fields_rejected(self, mesh99, field, value):
        # before, AnsatzProblem(k=True, c0=True, c1=False, ...) was built
        # with k True and c0 True
        data = {"k": 1, "c0": 0.45, "c1": 0.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be"):
            AnsatzProblem(alpha=1.0, m=1, mesh=mesh99, **data)

    @pytest.mark.parametrize("k", [2.5, 2.0, "2"])
    def test_non_integer_mode_rejected(self, mesh99, k):
        # before, k = 2.5 was built and failed later with an IndexError in
        # damping_classes
        with pytest.raises(ValueError, match="mode index k must be an integer"):
            AnsatzProblem(k=k, c0=0.45, c1=0.0, alpha=1.0, m=1, mesh=mesh99)

    def test_numpy_integer_mode_accepted(self, mesh99):
        prob = AnsatzProblem(k=np.int64(3), c0=0.45, c1=0.0, alpha=1.0, m=1,
                             mesh=mesh99)
        assert len(prob.damping_classes()[1]) == 99


class TestRK4Ansatz:
    def test_undamped_closed_form(self, mesh99):
        prob = make_problem(mesh99, alpha=0.0)
        sol = oracle_solutions([prob], 2.0, 1e-3)[0]
        exact = 0.45 * np.cos(np.pi * sol.times)
        assert np.abs(sol.phi - exact[:, None]).max() < 1e-8
        # undamped amplitudes carry no position dependence
        assert np.abs(sol.phi - sol.phi[:, :1]).max() < 1e-12

    def test_fourth_order_convergence(self, mesh99):
        # Lawson RK4 is exact for the linear flow, so the order shows on a
        # damped member only, against a 64 times finer run
        prob = make_problem(mesh99, alpha=5.0)

        def run(step):
            return oracle_solutions([prob], 1.0, step,
                              store_stride=round(0.025 / step))[0].phi

        fine = run(0.0125 / 64)
        ratio = (np.abs(run(0.025) - fine).max()
                 / np.abs(run(0.0125) - fine).max())
        assert ratio == pytest.approx(16.0, rel=0.2)

    @pytest.mark.parametrize("step", [0.025, 0.0125])
    def test_undamped_member_is_exact(self, mesh99, step):
        sol = oracle_solutions([make_problem(mesh99, alpha=0.0)], 1.0, step)[0]
        exact = 0.45 * np.cos(np.pi * sol.times)
        assert np.abs(sol.phi - exact[:, None]).max() <= 1e-14

    def test_damping_degenerates_at_eigenfunction_zero(self, mesh99):
        # x = 0.5 is a zero of sin(2 pi x): that sample never damps
        prob = make_problem(mesh99, k=2, c0=0.2)
        sol = oracle_solutions([prob], 5.0, 1e-3, store_stride=10)[0]
        idx = np.argmin(np.abs(prob.x - 0.5))
        assert abs(prob.eigenfunction()[idx]) < 1e-12
        e = modal_energy(sol)[:, idx]
        assert np.abs(e - e[0]).max() < 1e-8

    def test_modal_energy_nonincreasing_per_sample(self, mesh99):
        prob = make_problem(mesh99)
        sol = oracle_solutions([prob], 5.0, 1e-3, store_stride=10)[0]
        e = modal_energy(sol)
        assert (np.diff(e, axis=0) <= 1e-8).all()

    def test_step_must_divide(self, mesh99):
        with pytest.raises(ValueError):
            oracle_solutions([make_problem(mesh99)], 1.0, 0.3)

    @pytest.mark.parametrize("m", [2, 3])
    def test_squared_power_matches_literal_rk4(self, mesh99, m):
        # the loop forms phi^{2m} by repeated squaring and its phases as
        # products of exp(-i omega step / 2); a literal Lawson RK4 with the
        # power phi**(2m) and an exp per stage agrees to rounding
        step, nsteps = 1e-3, 400
        problems = [AnsatzProblem.for_mesh(mesh99, k, c0=0.8 / k, c1=0.5,
                                           alpha=3.0, m=m) for k in (1, 2)]
        sols = oracle_solutions(problems, step * nsteps, step)
        for prob, sol in zip(problems, sols):
            omega = prob.k * np.pi
            coeff = prob.alpha * prob.eigenfunction() ** (2 * m)

            def g(t, w):
                # w' in the frame w = exp(i omega t) z, z = omega phi + i phi'
                z = np.exp(-1j * omega * t) * w
                phi, psi = z.real / omega, z.imag
                return np.exp(1j * omega * t) * (-1j * coeff * phi**(2 * m) * psi)

            z = np.full(99, omega * prob.c0 + 1j * prob.c1)
            literal = [z]
            for _ in range(nsteps):
                k1 = g(0.0, z)
                k2 = g(0.5 * step, z + 0.5 * step * k1)
                k3 = g(0.5 * step, z + 0.5 * step * k2)
                k4 = g(step, z + step * k3)
                z = np.exp(-1j * omega * step) * (
                    z + step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
                literal.append(z)
            literal = np.array(literal)
            for got, want in ((sol.phi, literal.real / omega),
                              (sol.phidot, literal.imag)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def after_history(kernel, *args, stop_at=None, **kwargs):
    """The step indices and (copied) states a kernel, called with ``args``
    and then its ``after``, hands to ``after``."""
    seen = []

    def after(i, y):
        seen.append((i, y.copy()))
        return i == stop_at

    kernel(*args, after, **kwargs)
    return [i for i, _ in seen], np.array([y for _, y in seen])


def family_frequencies(mesh, ks, m):
    """``rk4_ansatz``'s (K, 1) omega and (K, n) coeff for the modes ks."""
    problems = [make_problem(mesh, k=k, alpha=3.0, m=m) for k in ks]
    return (np.array([[k * np.pi] for k in ks]),
            np.array([p.alpha * p.eigenfunction() ** (2 * m) for p in problems]))


class TestLawsonKernel:
    """The in-place Lawson kernel against its allocating reference."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("ks", [(1,), (1, 2, 4, 8)])
    def test_family_bit_identical(self, mesh99, ks, m):
        omega, coeff = family_frequencies(mesh99, ks, m)
        x0, x1 = np.random.default_rng(7).uniform(-0.8, 0.8, (2,) + coeff.shape)
        z0 = omega * x0 + 1j * x1
        before = z0.copy()
        got = after_history(oracle._lawson_oscillators, omega, coeff, m, z0,
                            2e-3, 400)
        want = after_history(allocating_lawson, omega, coeff, m, z0, 2e-3, 400)
        assert got[0] == want[0] == list(range(1, 401))
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(z0, before)   # the caller's state stays

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("samples", [1, 64])
    def test_oscillator_bit_identical(self, samples, m):
        # the stability sweep's state: z = sqrt(khat) x + i x' over the samples
        x0, x1 = ball_samples(1.2, samples, khat=2.0).T
        omega = np.full(samples, np.sqrt(2.0))   # an array, as in the kernel
        z0 = omega * x0 + 1j * x1
        got = after_history(oracle._lawson_oscillators, omega, 1.5, m, z0,
                            1e-2, 500)
        want = after_history(allocating_lawson, omega, 1.5, m, z0, 1e-2, 500)
        assert got[1].shape == (500, samples)
        np.testing.assert_array_equal(got[1], want[1])

    def test_early_stop_bit_identical(self, mesh99):
        omega, coeff = family_frequencies(mesh99, (1, 3), 1)
        z0 = np.broadcast_to(0.5 * omega + 0.5j, coeff.shape)
        got = after_history(oracle._lawson_oscillators, omega, coeff, 1, z0,
                            1e-3, 200, stop_at=37)
        want = after_history(allocating_lawson, omega, coeff, 1, z0, 1e-3, 200,
                             stop_at=37)
        assert got[0] == want[0] == list(range(1, 38))
        np.testing.assert_array_equal(got[1], want[1])

    def test_every_calls_after_at_multiples_only(self, mesh99):
        omega, coeff = family_frequencies(mesh99, (2,), 1)
        z0 = np.broadcast_to(0.5 * omega + 0.5j, coeff.shape)
        got = after_history(oracle._lawson_oscillators, omega, coeff, 1, z0,
                            1e-3, 100, every=10)
        want = after_history(allocating_lawson, omega, coeff, 1, z0, 1e-3, 100)
        assert got[0] == list(range(10, 101, 10))
        np.testing.assert_array_equal(got[1], want[1][9::10])

    @pytest.mark.parametrize("k,bound", [(1, 2e-12), (8, 3e-12), (124, 1.7e-12)])
    def test_undamped_energy_drift(self, k, bound):
        # without damping the step is the exact rotation, so |z|^2 moves only
        # by the rounding of the phase products E = exp(-i omega h / 2) and
        # E^2, a little each step: after 5,000 steps of 0.002 from unit
        # energy it moved by +9.6e-13, -1.42e-12 and -8.1e-13 relative at
        # k = 1, 8 and 124.  The bounds keep a margin of 2, so a drift that
        # grows faster (a phase factor off the unit circle) fails
        omega = np.array([k * np.pi])
        z0 = np.array([np.sqrt(2.0) + 0j])
        _, z = after_history(oracle._lawson_oscillators, omega, 0.0, 1, z0,
                             0.002, 5000)
        assert abs(abs(z[-1, 0]) ** 2 / 2.0 - 1.0) <= bound


class TestBatchedLoop:
    @settings(max_examples=15, deadline=None)
    @given(ks=st.lists(st.sampled_from([1, 2, 3, 5, 8]), min_size=1, max_size=4,
                       unique=True),
           m=st.sampled_from([1, 2]), stride=st.sampled_from([1, 2, 5]))
    def test_batch_equals_single_runs(self, mesh99, ks, m, stride):
        problems = [make_problem(mesh99, k=k, c0=0.6 / k, alpha=2.0, m=m)
                    for k in ks]
        batch = oracle_solutions(problems, 0.05, 1e-3, store_stride=stride)
        assert len(batch) == len(ks)
        for prob, sol in zip(problems, batch):
            alone = oracle_solutions([prob], 0.05, 1e-3, store_stride=stride)[0]
            np.testing.assert_array_equal(sol.times, alone.times)
            np.testing.assert_array_equal(sol.phi, alone.phi)
            np.testing.assert_array_equal(sol.phidot, alone.phidot)

    def test_observe_sees_every_stored_step(self, mesh99):
        # 201 stored steps: three full blocks and a partial one, each row the
        # class amplitudes that the collected solutions hold at the nodes
        problems = [make_problem(mesh99, k=k) for k in (1, 2)]
        sols = oracle_solutions(problems, 0.2, 1e-3)
        seen = []

        def observe(i0, phi, psi):
            assert len(phi) == len(psi) <= oracle._OBSERVE_BLOCK
            seen.extend(range(i0, i0 + len(phi)))
            for sol, at in zip(sols, class_of_node(problems)):
                np.testing.assert_array_equal(phi[:, at], sol.phi[i0:i0 + len(phi)])
                np.testing.assert_array_equal(psi[:, at], sol.phidot[i0:i0 + len(phi)])

        assert rk4_ansatz(problems, 0.2, 1e-3, observe=observe) is None
        assert seen == list(range(201))

    def test_observed_arrays_outlive_the_loop(self, mesh99):
        # kept without copying, the observed arrays must still hold their own
        # stored steps after the run: the loop may not hand out its buffers
        problems = [make_problem(mesh99, k=k) for k in (1, 2)]
        seen = []
        rk4_ansatz(problems, 0.2, 1e-3,
                   observe=lambda i0, phi, psi: seen.append((i0, phi, psi)))
        sols = oracle_solutions(problems, 0.2, 1e-3)
        assert [i0 for i0, _, _ in seen] == [0, 64, 128, 192]
        for i0, phi, psi in seen:
            for sol, at in zip(sols, class_of_node(problems)):
                np.testing.assert_array_equal(phi[:, at], sol.phi[i0:i0 + len(phi)])
                np.testing.assert_array_equal(psi[:, at], sol.phidot[i0:i0 + len(phi)])

    def test_mixed_exponent_rejected(self, mesh99):
        with pytest.raises(ValueError, match="exponent"):
            oracle_solutions([make_problem(mesh99, m=1), make_problem(mesh99, m=2)],
                       0.01, 1e-3)

    def test_mixed_positions_rejected(self, mesh99):
        other = AnsatzProblem(k=1, c0=0.45, c1=0.0, alpha=1.0, m=1,
                              mesh=build_mesh(98))
        with pytest.raises(ValueError, match="positions"):
            oracle_solutions([make_problem(mesh99), other], 0.01, 1e-3)

    def test_non_finite_state_raises(self, mesh99):
        problems = [make_problem(mesh99, k=1, alpha=0.0),
                    make_problem(mesh99, k=2, alpha=1e7)]
        with pytest.raises(FloatingPointError, match=r"k=2 is not finite"):
            oracle_solutions(problems, 0.1, 2e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_non_finite_state_named_at_its_first_stored_step(self, mesh99,
                                                             monkeypatch, stride, bad):
        # the state is checked once per observed block of 64 stored steps;
        # the error still names the first stored step that is not finite
        # (150, within the third block) and only the modes non-finite there
        # (k = 2, not k = 1, bad at 170), and the blocks before it are observed
        lawson = oracle._lawson_oscillators

        def spoiled(omega, coeff, m, z0, h, nsteps, after, every=1):
            def seen(i, z):
                z = z.copy()
                z[{150: -1, 170: 0}.get(i // stride, slice(0))] = bad
                return after(i, z)
            lawson(omega, coeff, m, z0, h, nsteps, seen, every)

        monkeypatch.setattr(oracle, "_lawson_oscillators", spoiled)
        problems = [make_problem(mesh99, k=1), make_problem(mesh99, k=2)]
        blocks = []
        with pytest.raises(FloatingPointError) as caught:
            rk4_ansatz(problems, 0.4, 2e-3 / stride, stride,
                       observe=lambda i0, phi, psi: blocks.append(i0))
        assert str(caught.value) == (
            f"reference solution for k=2 is not finite at t={150 * 2e-3:g}; "
            "reduce the step or the damping")
        assert blocks == [0, 64]


def node_classes(k, n):
    """Each node's class q = min(kj mod N, N - kj mod N), j = 1..n, N = n + 1:
    sin^2(k pi x_j) = sin^2(pi q / N)."""
    r = k * np.arange(1, n + 1) % (n + 1)
    return np.minimum(r, n + 1 - r)


class TestOscillatorClasses:
    """One oscillator per (problem, class) stands for all its nodes."""

    @pytest.mark.parametrize("n,ks", [(99, (1, 4, 8)), (499, (16, 19, 23))])
    def test_nodes_of_a_class_share_the_oscillator(self, n, ks):
        mesh, step, nsteps = build_mesh(n), 1e-3, 40
        problems = [AnsatzProblem.for_mesh(mesh, k, c0=0.9 / k, c1=0.3,
                                           alpha=4.0) for k in ks]
        sols = oracle_solutions(problems, step * nsteps, step)
        for prob, sol in zip(problems, sols):
            q = node_classes(prob.k, n)
            for cls in np.unique(q):
                at = q == cls
                for got in (sol.phi, sol.phidot):
                    np.testing.assert_array_equal(
                        got[:, at], np.repeat(got[:, at][:, :1], at.sum(), 1))
            # the allocating loop on every node with its class's coefficient
            coeff = prob.alpha * (np.sqrt(2.0) * np.sin(np.pi * mesh.h * q)) ** 2
            # omega as an array: numpy rounds a complex product of scalars
            # apart from the same product in an array loop
            omega = np.full(n, prob.k * np.pi)
            z0 = omega * prob.c0 + 1j * prob.c1
            _, want = after_history(allocating_lawson, omega, coeff, 1, z0,
                                    step, nsteps)
            np.testing.assert_array_equal(sol.phi[0], z0.real / omega)
            np.testing.assert_array_equal(sol.phi[1:], want.real / omega)
            np.testing.assert_array_equal(sol.phidot[1:], want.imag)

    @pytest.mark.parametrize("n,ks,count", [(99, (1, 2, 4, 8), 102),
                                            (499, (1, 4, 16), 376)])
    def test_one_oscillator_per_class(self, monkeypatch, n, ks, count):
        # fig2's modes and fine-mesh's at seed 0: 396 and 1,497 node
        # oscillators fold to 102 and 376
        mesh, shapes = build_mesh(n), []
        real = oracle._lawson_oscillators

        def kernel(omega, coeff, m, z0, *rest):
            shapes.append(z0.shape)
            return real(omega, coeff, m, z0, *rest)

        monkeypatch.setattr(oracle, "_lawson_oscillators", kernel)
        oracle_solutions([make_problem(mesh, k=k) for k in ks], 0.01, 1e-3)
        assert shapes == [(count,)]
        assert count == sum(len(np.unique(node_classes(k, n))) for k in ks)

    def test_non_finite_state_names_its_mode(self):
        mesh = build_mesh(499)
        problems = [make_problem(mesh, k=16, alpha=0.0),
                    make_problem(mesh, k=19, alpha=1e7),
                    make_problem(mesh, k=23, alpha=0.0)]
        with pytest.raises(FloatingPointError, match=r"k=19 is not finite"):
            oracle_solutions(problems, 0.1, 2e-3)


# The pinning bounds of ``reference_errors`` against the nodal comparisons.
# Each energy is a sum of n terms, and both routes round it by at most
# n eps times the sum of the terms' magnitudes (``term_energy``, A below).
# Let tau = n eps max over the stored steps of (A_y + A_r).  The gap takes
# the run's and the reference's energy, each by both routes: it moves by at
# most 2 tau.  The squared norm 2 E_y + 2 E_r - 2 <y, r>_E sums three
# energy-sized terms, each with terms no larger than A_y + A_r, where the
# nodal one sums the energy of y - r (terms at most 2 (A_y + A_r)), so the
# squares move by at most 8 tau and the norm N by 8 tau / (N + N') <= 8 tau
# / N: the cancellation eps ||y||^2_E / ||y - r||_E.  K's entries cancel,
# so A is 10^3-10^4 times the energy of a low mode and the bounds are
# generous: fig2's modes (n = 99, T = 2 and 10) and k = 1, 4, 16 (n = 499,
# T = 2), noisy and Picard, used at most 4e-4 of them.  A term left out of
# the forms or of <y, r>_E moves the errors by a share of the energy itself.
def assert_pinned(ops, trajs, energies, problems, nodal, sols, t_final, step,
                  store_stride=1):
    gaps, norms = reference_errors(trajs, energies, problems, ops, t_final,
                                   step, store_stride=store_stride)
    for traj, sol, gap, norm in zip(nodal, sols, gaps, norms):
        tau = ops.mesh.n * np.finfo(float).eps * (
            term_energy(ops, traj.states)
            + term_energy(ops, oracle_states(sol, ops.mesh))).max()
        want = compare_energy_norm(traj, sol, ops)
        assert abs(gap - compare_energy_decay(traj, sol, ops)) <= 2 * tau
        assert abs(norm - want) <= 8 * tau / want


def noisy(sols, mesh, prop, rng, delta):
    """The nodal reference states plus noise of 1e-3, as nodal trajectories
    and as modal ones on every mode."""
    nodal = []
    for sol in sols:
        states = oracle_states(sol, mesh)
        states += 1e-3 * rng.standard_normal(states.shape)
        nodal.append(Trajectory(times=sol.times.copy(), states=states, delta=delta))
    return nodal, [modal_trajectory(traj, prop) for traj in nodal]


@pytest.fixture(scope="module")
def pinned_runs():
    """fig2's modes at n = 99 and k = 1, 4, 16 at n = 499, to T = 2."""
    out = {}
    for h, ks in ((0.01, (1, 2, 4, 8)), (0.002, (1, 4, 16))):
        ops = assemble(mesh_from_h(h))
        runs = frequency_sweep(ks, 1.0, 1, ops, 2e-3, 2.0)
        problems = [AnsatzProblem.for_mesh(ops.mesh, run.k,
                                           c0=run.data.amplitude / np.sqrt(2.0))
                    for run in runs]
        out[h] = ops, runs, problems, oracle_solutions(problems, 2.0, 2e-3)
    return out


class TestStreamedErrors:
    @pytest.mark.parametrize("t_final,stride", [(0.02, 10), (0.6, 1)])
    def test_equals_stored_history_comparison(self, mesh99, ops99, prop99, rng,
                                              t_final, stride):
        # 11 stored steps (one partial block) and 3001 (46 full blocks of
        # 64 and a partial one), within the pinning bounds
        problems = [make_problem(mesh99, k=k, c0=0.3 / k) for k in (1, 2, 4)]
        sols = oracle_solutions(problems, t_final, 2e-4, store_stride=stride)
        prop = matrix_exponential(ops99, 2e-4 * stride)
        nodal, trajs = noisy(sols, mesh99, prop, rng, 2e-4 * stride)
        assert_pinned(ops99, trajs, [energy(ops99, traj.states) for traj in nodal],
                      problems, nodal, sols, t_final, 2e-4, stride)

    @pytest.mark.parametrize("h", [0.01, 0.002])
    @pytest.mark.parametrize("kind", ["picard", "noisy"])
    def test_pinned_to_nodal_comparison(self, pinned_runs, rng, h, kind):
        ops, runs, problems, sols = pinned_runs[h]
        if kind == "picard":
            trajs = [run.trajectory for run in runs]
            nodal = [nodal_trajectory(traj) for traj in trajs]
            energies = [run.trace.energy for run in runs]
        else:
            nodal, trajs = noisy(sols, ops.mesh, runs[0].trajectory.propagator,
                                 rng, 2e-3)
            energies = [energy(ops, traj.states) for traj in nodal]
        assert_pinned(ops, trajs, energies, problems, nodal, sols, 2.0, 2e-3)

    def test_peak_does_not_grow_with_the_window(self, mesh99, ops99, prop99, rng):
        # a modal trajectory is read a block of stored steps at a time, so
        # the comparison's traced peak is the same for windows of 500 and
        # 2000 steps
        n_steps, modes = 2000, np.array([0, 2, 4, 6, 8])
        problem = make_problem(mesh99)
        peaks = {}
        for window in (500, 2000):
            segments = [(modes, rng.standard_normal((window + 1, len(modes)))
                         + 1j * rng.standard_normal((window + 1, len(modes))))
                        for _ in range(n_steps // window)]
            traj = ModalTrajectory(times=2e-3 * np.arange(n_steps + 1),
                                   y0=rng.standard_normal(2 * mesh99.n),
                                   segments=segments, propagator=prop99)
            energies = np.ones(n_steps + 1)
            reference_errors([traj], [energies], [problem], ops99, 4.0, 2e-3)
            tracemalloc.start()
            try:
                reference_errors([traj], [energies], [problem], ops99, 4.0, 2e-3)
                peaks[window] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2000] - peaks[500] < 64_000

    def test_no_problem_rejected(self, ops99):
        with pytest.raises(ValueError, match="at least one problem"):
            reference_errors([], [], [], ops99, 0.02, 2e-4)

    def test_grid_mismatch_rejected(self, mesh99, ops99, prop99):
        sol = oracle_solutions([make_problem(mesh99)], 0.2, 2e-4, store_stride=10)[0]
        traj = modal_trajectory(Trajectory(times=sol.times, delta=2e-3,
                                           states=oracle_states(sol, mesh99)), prop99)
        with pytest.raises(ValueError, match="grids"):
            reference_errors([traj], [np.ones(len(sol.times))],
                             [sol.problem], ops99, 0.4, 2e-4, store_stride=10)


class TestNoNodalRows:
    """Nodal rows exist only inside Picard's nodal load model: after Picard
    has returned, no reader of a run synthesizes one."""

    @pytest.fixture()
    def guarded(self, monkeypatch):
        inside = [0]
        synthesize, solve = Propagator.nodal, experiments.picard_solve

        def nodal(self, z):
            assert inside[0], "a nodal row outside Picard"
            return synthesize(self, z)

        def picard_solve(*args, **kwargs):
            inside[0] += 1
            try:
                return solve(*args, **kwargs)
            finally:
                inside[0] -= 1

        def no_states(*args):
            raise AssertionError("nodal reference states")

        monkeypatch.setattr(Propagator, "nodal", nodal)
        monkeypatch.setattr(experiments, "picard_solve", picard_solve)
        monkeypatch.setattr(oracle, "oracle_states", no_states)
        return inside

    def test_readers_take_amplitudes(self, guarded, ops99, tmp_path, monkeypatch):
        config = RunConfig(experiment="custom", ks=(1, 2, 4, 8), t_final=1.0)
        runs = cli._run_sweep(config, ops99)
        assert set(cli._oracle_errors(config, ops99, runs)) == {1, 2, 4, 8}
        # fig1's midpoint; Picard on all modes forms its loads at the nodes
        monkeypatch.setattr(picard, "DETECT", 0.5 / picard.TOL)
        dirs = {"traces": tmp_path, "plots": tmp_path}
        cli._exp_fig1(RunConfig(experiment="fig1", ks=(1,), t_final=1.0), dirs, Report())
        assert (tmp_path / "point_x0.5.csv").exists()
        result = primitive_solve(primitive_setup(1, 1, ops99), ops99, 2e-3, 1.0,
                                 damped_run=runs[0])
        assert result.velocity_gap_l2 < 1e-6
        assert main(["run", "--preset", "oracle", "--T", "1",
                     "--out", str(tmp_path / "oracle")]) == 0
        assert guarded == [0]


class TestOraclePreset:
    def test_streamed_trace_matches_the_nodal_trace(self, mesh99, ops99, tmp_path):
        # within the pinning bounds: E, H1^2 = u^T K u and L2^2 = u^T M u
        # each move by at most 2 n eps times their terms' magnitudes
        # (``term_energy``; M's entries do not cancel)
        assert main(["run", "--preset", "oracle", "--T", "2",
                     "--out", str(tmp_path)]) == 0
        got = np.loadtxt(tmp_path / "traces" / "oracle_k1.csv", delimiter=",",
                         skiprows=1).T
        config = RunConfig(experiment="oracle", ks=(1,), t_final=2.0)
        problems = cli._oracle_problems(config, mesh99, (1,),
                                        [mode_initial_state(ops99, 1).amplitude])
        sol, = oracle_solutions(problems, 2.0, *cli._oracle_grid(config))
        states = oracle_states(sol, mesh99)
        want = nodal_energy_trace(Trajectory(sol.times, states, config.delta), ops99)
        u = np.concatenate([states[:, :99], 0 * states[:, 99:]], axis=1)
        tol = 2 * mesh99.n * np.finfo(float).eps
        np.testing.assert_array_equal(got[0], want.times)
        assert (np.abs(got[1] - want.energy) <= tol * term_energy(ops99, states)).all()
        assert (np.abs(got[2]**2 - want.l2**2) <= tol * want.l2**2).all()
        assert (np.abs(got[3]**2 - want.h1**2) <= tol * 2 * term_energy(ops99, u)).all()

    def test_peak_does_not_grow_with_the_horizon(self, tmp_path, monkeypatch):
        # past its trace, 32 bytes per stored step (E, L2, H1 and t): 96 KB
        # for the 3,000 steps from T = 2 to 8 at delta = 0.002, of which
        # 75 KB showed.  The artifacts are left out: the CSV writer formats
        # the whole trace at once.  The nodal history kept before grew the
        # peak by 14.3 MB over the same steps
        monkeypatch.setattr(cli, "write_trace_csv", lambda *args: None)
        monkeypatch.setattr(cli, "emit_plot", lambda *args, **kwargs: None)
        main(["run", "--preset", "oracle", "--T", "1", "--out", str(tmp_path / "w")])
        peaks = {}
        tracemalloc.start()
        try:
            for t_final in (2, 8):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                assert main(["run", "--preset", "oracle", "--T", str(t_final),
                             "--out", str(tmp_path / str(t_final))]) == 0
                peaks[t_final] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks[8] - peaks[2] < 32 * 3000 + 16_000


class TestOracleField:
    def test_initial_field(self, mesh99):
        prob = make_problem(mesh99)
        sol = oracle_solutions([prob], 1.0, 1e-3, store_stride=10)[0]
        u, v = np.split(oracle_states(sol, mesh99)[0], 2)
        np.testing.assert_allclose(u, 0.45 * np.sqrt(2) * np.sin(np.pi * mesh99.nodes),
                                   atol=1e-14)
        np.testing.assert_allclose(v, np.zeros(99), atol=1e-14)

    def test_quarter_period_undamped(self, mesh99):
        prob = make_problem(mesh99, alpha=0.0)
        sol = oracle_solutions([prob], 1.0, 1e-3, store_stride=10)[0]
        assert sol.times[50] == pytest.approx(0.5)   # quarter period of mode one
        u, v = np.split(oracle_states(sol, mesh99)[50], 2)
        assert np.abs(u).max() < 1e-8
        np.testing.assert_allclose(
            v, -0.45 * np.pi * np.sqrt(2) * np.sin(np.pi * mesh99.nodes),
            atol=1e-7)

    def test_initial_energy_normalized_data(self, mesh99, ops99):
        data = mode_initial_state(ops99, 1)
        prob = AnsatzProblem.for_mesh(mesh99, 1, c0=data.amplitude / np.sqrt(2.0))
        sol = oracle_solutions([prob], 0.01, 1e-3, store_stride=10)[0]
        states = oracle_states(sol, mesh99)
        assert energy(ops99, states[0]) == pytest.approx(1.0, abs=1e-3)

    def test_mesh_mismatch_rejected(self, mesh99):
        sol = oracle_solutions([make_problem(mesh99)], 1.0, 1e-3)[0]
        with pytest.raises(ValueError):
            oracle_states(sol, build_mesh(49))


class TestComparisons:
    def test_identical_inputs_give_zero(self, mesh99, ops99):
        prob = make_problem(mesh99)
        sol = oracle_solutions([prob], 1.0, 2e-4, store_stride=10)[0]
        states = oracle_states(sol, mesh99)
        traj = Trajectory(times=sol.times, states=states, delta=2e-3)
        assert compare_energy_norm(traj, sol, ops99) == 0.0
        assert compare_energy_decay(traj, sol, ops99) == 0.0

    def test_grid_mismatch_rejected(self, mesh99, ops99):
        sol = oracle_solutions([make_problem(mesh99)], 1.0, 2e-4, store_stride=10)[0]
        states = oracle_states(sol, mesh99)
        traj = Trajectory(times=sol.times[:-1] + 1.0, states=states[:-1],
                          delta=2e-3)
        with pytest.raises(ValueError):
            compare_energy_norm(traj, sol, ops99)


class TestOscillator:
    def test_conservative_norm_constant(self):
        prob = OscillatorProblem(khat=2.0, alpha=0.0, m=1, x0=0.7, x1=-0.3)
        tr = simulate_oscillator(prob, 50.0, 0.01)
        assert np.abs(tr.norms - tr.norms[0]).max() < 1e-9

    def test_equilibrium_stays_zero(self):
        prob = OscillatorProblem(khat=1.0, alpha=1.0, m=1, x0=0.0, x1=0.0)
        tr = simulate_oscillator(prob, 10.0, 0.01)
        assert np.abs(tr.states).max() == 0.0

    def test_asymptotic_decay(self):
        # thresholds recorded from a pilot run of this exact configuration:
        # |y(100)|/|y(0)| measured 0.196, |y(400)|/|y(0)| measured 0.0995
        prob = OscillatorProblem(khat=1.0, alpha=1.0, m=1, x0=1.0, x1=0.0)
        tr = simulate_oscillator(prob, 400.0, 0.01)
        n0 = tr.norms[0]
        i100 = int(round(100.0 / 0.01))
        assert tr.norms[i100] < 0.25 * n0
        assert tr.norms[-1] < 0.12 * n0
        assert tr.norms[-1] < tr.norms[i100]

    def test_norm_nonincreasing(self):
        prob = OscillatorProblem(khat=1.0, alpha=1.0, m=1, x0=1.0, x1=0.0)
        tr = simulate_oscillator(prob, 100.0, 0.01)
        assert np.diff(tr.norms).max() <= 1e-8

    def test_states_are_the_allocating_loop_history(self):
        prob = OscillatorProblem(khat=2.0, alpha=1.5, m=1, x0=0.8, x1=-0.3)
        tr = simulate_oscillator(prob, 2.0, 1e-2)
        omega = np.sqrt([2.0])   # an array, as in the kernel
        steps, want = after_history(allocating_lawson, omega, 1.5, 1,
                                    omega * 0.8 - 0.3j, 1e-2, 200)
        assert steps == list(range(1, 201))
        np.testing.assert_array_equal(tr.states[0], [0.8, -0.3])
        np.testing.assert_array_equal(tr.states[1:, 0], want[:, 0].real / omega)
        np.testing.assert_array_equal(tr.states[1:, 1], want[:, 0].imag)

    @pytest.mark.filterwarnings("error")   # no overflow warning either
    def test_blow_up_raises_with_its_time(self):
        # before, the trajectory ran on as inf and NaN
        prob = OscillatorProblem(khat=1.0, alpha=2.0, m=3, x0=4.25, x1=0.0)
        with pytest.raises(FloatingPointError,
                           match=r"not finite at t=0\.03; reduce osc_step"):
            simulate_oscillator(prob, 1.0, 0.01)

    def test_step_must_divide_the_horizon(self):
        prob = OscillatorProblem(khat=1.0, alpha=1.0, m=1, x0=1.0, x1=0.0)
        with pytest.raises(ValueError, match="step must divide t_final"):
            simulate_oscillator(prob, 1.0, 0.3)

    def test_invalid_stiffness(self):
        with pytest.raises(ValueError):
            OscillatorProblem(khat=0.0, alpha=1.0, m=1, x0=1.0, x1=0.0)

    @pytest.mark.parametrize("field", ["khat", "x0", "x1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, field, value):
        # before, khat = nan passed the khat <= 0 check and a NaN x0 was
        # accepted: simulate_oscillator then returned NaN norms silently
        data = {"khat": 1.0, "alpha": 1.0, "m": 1, "x0": 1.0, "x1": 0.0,
                field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OscillatorProblem(**data)

    @pytest.mark.parametrize("alpha,m", [(1.0, 0), (1.0, 1.5), (-1.0, 1)])
    def test_damping_must_dissipate(self, alpha, m):
        with pytest.raises(ValueError, match="alpha|exponent"):
            OscillatorProblem(khat=1.0, alpha=alpha, m=m, x0=1.0, x1=0.0)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
    @pytest.mark.parametrize("field", ["khat", "x0", "x1"])
    def test_boolean_fields_rejected(self, field, value):
        # before, OscillatorProblem(khat=True, x0=True, x1=False, ...) was
        # built with khat True
        data = {"khat": 1.0, "alpha": 1.0, "m": 1, "x0": 1.0, "x1": 0.0,
                field: value}
        with pytest.raises(ValueError, match=field):
            OscillatorProblem(**data)

    @pytest.mark.parametrize("k,m", [(1, 1), (3, 1), (1, 2), (3, 2)])
    def test_is_the_pointwise_reference_at_a_node(self, mesh99, k, m):
        # u = phi E_k(x_i) turns the family's member at x_i into the
        # oscillator with khat = lambda_k and data (c0, c1) E_k(x_i)
        prob = AnsatzProblem.for_mesh(mesh99, k, c0=0.7 / k, c1=0.4 * k,
                                      alpha=2.0, m=m)
        sol = oracle_solutions([prob], 1.0, 1e-3)[0]
        ek = prob.eigenfunction()
        for i in (10, 37, 80):
            x0, x1 = prob.c0 * ek[i], prob.c1 * ek[i]
            want = np.stack([sol.phi[:, i], sol.phidot[:, i]], axis=1) * ek[i]
            # the same Lawson step, with omega = sqrt(lambda_k) for k pi and
            # the state scaled by E_k(x_i): measured at most 6.1e-15 of the
            # largest value; the bound keeps a margin of 3
            tr = simulate_oscillator(
                OscillatorProblem(khat=prob.lam, alpha=prob.alpha, m=m, x0=x0,
                                  x1=x1), 1.0, 1e-3)
            np.testing.assert_array_equal(tr.times, sol.times)
            assert np.abs(tr.states - want).max() <= 2e-14 * np.abs(want).max()
            # classical RK4 at the same step differs by its own phase error:
            # measured 2.6e-12 at k = 1 and 5.4e-10 at k = 3 (omega step =
            # 0.0094) of the largest value; the bound keeps a margin of 3
            _, classical = after_history(allocating_rk4, -prob.lam, prob.alpha,
                                         m, np.array([[x0], [x1]]), 1e-3, 1000)
            assert (np.abs(classical[:, :, 0] - want[1:]).max()
                    <= 1.5e-9 * np.abs(want).max())


class TestBallSamples:
    def test_norms_within_radius(self):
        y = ball_samples(np.sqrt(2.0), 64, khat=1.0)
        norms = np.sqrt(0.5 * y[:, 0]**2 + 0.5 * y[:, 1]**2)
        assert (norms <= np.sqrt(2.0) + 1e-12).all()
        assert norms.max() > 0.9 * np.sqrt(2.0)   # covers the outside too

    def test_deterministic(self):
        np.testing.assert_array_equal(ball_samples(1.0, 16, 2.0),
                                      ball_samples(1.0, 16, 2.0))

    def test_respects_equivalent_norm(self):
        y = ball_samples(1.0, 32, khat=4.0)
        norms = np.sqrt(2.0 * y[:, 0]**2 + 0.5 * y[:, 1]**2)
        assert (norms <= 1.0 + 1e-12).all()


class TestStabilitySweep:
    def test_all_samples_reach_target(self):
        sweep = uniform_stability_sweep(1.0, 1.0, 1, np.sqrt(2.0), 64, 0.1,
                                        horizon=400.0, step=0.01)
        assert sweep.all_reached
        assert sweep.max_time < 250.0   # pilot measured 199.2

    def test_tiny_ball_instant(self):
        sweep = uniform_stability_sweep(1.0, 1.0, 1, 1e-4, 8, 0.1, horizon=1.0)
        assert sweep.all_reached
        assert sweep.max_time == 0.0

    def test_conservative_never_reaches(self):
        sweep = uniform_stability_sweep(1.0, 0.0, 1, 1.0, 8, 0.1, horizon=20.0)
        assert not sweep.reached.any()
        assert np.isinf(sweep.times_to_eps).all()

    def test_times_are_first_grid_times_inside_the_ball(self):
        khat, alpha, m, eps, horizon, step = 2.0, 1.5, 1, 0.25, 38.0, 0.02
        sweep = uniform_stability_sweep(khat, alpha, m, 1.2, 16, eps,
                                        horizon=horizon, step=step)
        assert sweep.reached.any() and not sweep.all_reached
        for (x0, x1), t in zip(sweep.samples, sweep.times_to_eps):
            tr = simulate_oscillator(OscillatorProblem(khat, alpha, m, x0, x1),
                                     horizon, step)
            inside = np.flatnonzero(tr.norms < eps)
            assert t == (tr.times[inside[0]] if len(inside) else np.inf)

    def test_first_times_are_the_classical_rk4_sweep(self):
        # the oscillator preset's 64 default samples, stepped by classical
        # RK4 under the same first-time rule: Lawson RK4 at khat = 1 and
        # step 0.01 must not move a single first time
        c = RunConfig(experiment="oscillator")
        sweep = uniform_stability_sweep(c.khat, c.alpha, c.m, c.radius,
                                        c.samples, c.eps_target,
                                        horizon=c.horizon, step=c.osc_step)
        prob = OscillatorProblem(c.khat, c.alpha, c.m, 0.0, 0.0)
        first = np.full(c.samples, np.inf)

        def after(i, y):
            hit = (prob.equivalent_norm(y.T) < c.eps_target) & np.isinf(first)
            first[hit] = i * c.osc_step
            return np.isfinite(first).all()

        allocating_rk4(-c.khat, c.alpha, c.m, sweep.samples.T, c.osc_step,
                       round(c.horizon / c.osc_step), after)
        assert sweep.all_reached and (sweep.initial_norms >= c.eps_target).all()
        np.testing.assert_array_equal(sweep.times_to_eps, first)

    @pytest.mark.filterwarnings("error")   # no overflow warning either
    def test_blow_up_raises_with_its_time(self):
        # before, the blown-up samples were reported as never arriving
        with pytest.raises(FloatingPointError,
                           match=r"not finite at t=0\.02; reduce osc_step"):
            uniform_stability_sweep(1.0, 2.0, 3, 3.0, 64, 0.1)

    def test_step_must_divide_the_horizon(self):
        with pytest.raises(ValueError, match="step must divide the horizon"):
            uniform_stability_sweep(1.0, 1.0, 1, 1.0, 8, 0.1, horizon=1.0,
                                    step=0.3)

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            uniform_stability_sweep(1.0, 1.0, 1, 1.0, 0, 0.1)
