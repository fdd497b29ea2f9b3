"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
all) and asserts the same condition, so the suite doubles as the acceptance
report.  The expensive pipelines are computed once per session and shared.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from degenwave import (LinearDamping, PicardConfig,
                       analytic_linear_damped, assemble, ball_samples,
                       build_mesh, closed_form_potential_m1,
                       compare_energy_decay, compare_energy_norm,
                       decay_rate_fit,
                       dissipation_exponent, energy,
                       frequency_sweep, lower_order_decay,
                       picard_solve,
                       primitive_setup, primitive_solve, rk4_ansatz,
                       uniform_stability_sweep)
from degenwave.experiments import EnergyTrace
from degenwave.oracle import AnsatzProblem
from extension_helpers import extended
from reference import (continuum_energy_error, max_generalized_eigenvalue,
                       nodal_trajectory)

DELTA = 2e-3
T_FINAL = 10.0
DECAY_WINDOW = (10.0, 50.0)
DECAY_BAND = (0.65, 1.35)


def crit(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def fig2(mesh99, ops99):
    """The frequency sweep at the reference resolution, with oracle errors."""
    bundle = {"runs": {}, "e_gap": {}, "e_norm": {}, "seconds": {}}
    for k in (1, 2, 4, 8):
        t0 = time.perf_counter()
        run = frequency_sweep([k], 1.0, 1, ops99, DELTA, T_FINAL)[0]
        problem = AnsatzProblem.for_mesh(mesh99, k,
                                         c0=run.data.amplitude / np.sqrt(2.0))
        sol = rk4_ansatz([problem], T_FINAL, DELTA / 10, store_stride=10)[0]
        traj = nodal_trajectory(run.trajectory)
        bundle["e_gap"][k] = compare_energy_decay(traj, sol, ops99)
        bundle["e_norm"][k] = compare_energy_norm(traj, sol, ops99)
        bundle["seconds"][k] = time.perf_counter() - t0
        bundle["runs"][k] = run
    return bundle


@pytest.fixture(scope="session")
def primitive50(mesh99, ops99, fig2):
    setup = primitive_setup(1, 1, ops99)
    result = primitive_solve(setup, ops99, DELTA, T_FINAL,
                             damped_run=fig2["runs"][1])
    full, = extended([result.trajectory], ops99, setup.damping, 50.0)
    trace = EnergyTrace.from_trajectory(full, ops99)
    return {"setup": setup, "result": result, "trace": trace}


class TestCriterion1ErrorTable:
    def test_e1_within_band(self, fig2):
        e1 = fig2["e_gap"][1]
        crit("criterion 1a (reference error, k=1)",
             1.9e-2 <= e1 <= 7.7e-2,
             f"e1 = {e1:.3e}, band [1.9e-2, 7.7e-2] "
             f"(state-norm diagnostic {fig2['e_norm'][1]:.3e})")

    def test_e2_within_band(self, fig2):
        e2 = fig2["e_gap"][2]
        crit("criterion 1b (reference error, k=2)", e2 <= 1.6e-2,
             f"e2 = {e2:.3e} <= 1.6e-2 "
             f"(state-norm diagnostic {fig2['e_norm'][2]:.3e})")

    def test_runtime_per_frequency(self, fig2):
        worst = max(fig2["seconds"].values())
        crit("criterion 1c (runtime per frequency)", worst < 60.0,
             f"slowest run {worst:.1f}s < 60s")


class TestCriterion2NonUniformStability:
    def test_unit_initial_energy(self, fig2):
        devs = {k: abs(run.trace.energy[0] - 1.0)
                for k, run in fig2["runs"].items()}
        crit("criterion 2a (unit initial energy)",
             all(d < 1e-3 for d in devs.values()),
             "max |E(0) - 1| = %.2e" % max(devs.values()))

    def test_decay_ordering(self, fig2):
        finals = {k: run.trace.energy[-1] for k, run in fig2["runs"].items()}
        ok = finals[8] > finals[4] > finals[2] > finals[1]
        crit("criterion 2b (decay deteriorates with frequency)", ok,
             ", ".join(f"E_{k}(10) = {finals[k]:.4f}" for k in (1, 2, 4, 8)))

    def test_high_frequency_keeps_half_energy(self, fig2):
        e8 = fig2["runs"][8].trace.energy[-1]
        crit("criterion 2c (high-frequency energy floor)", e8 > 0.5,
             f"E_8(10) = {e8:.4f} > 0.5")


class TestPicardIterationCounts:
    def test_fig2_counts_match_benchmark_reference(self, fig2):
        reference = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                                / "reference.json").read_text())
        counts = {k: fig2["runs"][k].result.iterations for k in (1, 2, 4, 8)}
        want = {k: reference["fig2"]["iterations"][str(k)] for k in counts}
        crit("fig2 Picard iterations", counts == want,
             f"{counts} against the recorded {want}")


class TestFigureOneQualitative:
    def test_slower_than_viscous_decay_at_midpoint(self, fig2, mesh99):
        # the degenerate damping switches off at small amplitudes, so the
        # late-time envelope must sit well above the viscous reference with
        # the matched initial damping rate
        run = fig2["runs"][1]
        mid = mesh99.n // 2
        traj = nodal_trajectory(run.trajectory)
        sel = traj.times >= 8.0
        u_nl = np.abs(traj.displacement()[sel, mid]).max()
        beta = (2.0 / np.pi) ** 2
        u_lin = max(abs(analytic_linear_damped(beta, 1, run.data.amplitude, t,
                                               np.array([0.5]))[0][0])
                    for t in traj.times[sel][::25])
        crit("figure-1 check (slower than viscous decay)", u_nl > 2.0 * u_lin,
             f"late-time envelopes: degenerate {u_nl:.3f} vs viscous {u_lin:.3f}")


class TestConservativeGapOrdering:
    def test_damping_effect_shrinks_with_frequency(self, fig2, mesh99, ops99):
        # the gap to the undamped flow of the same data measures what the
        # damping did; it must fall off with the frequency at fixed energy
        from reference import conservative_comparison
        gaps = {k: conservative_comparison(run, ops99).energy.max()
                for k, run in fig2["runs"].items()}
        ordered = all(gaps[a] > gaps[b]
                      for a, b in zip((1, 2, 4), (2, 4, 8)))
        crit("conservative-comparison check (gap shrinks in k)", ordered,
             ", ".join(f"k={k}: {gaps[k]:.2e}" for k in (1, 2, 4, 8)))


class TestCriterion3EnergyLaws:
    def test_monotone_energy_all_runs(self, fig2, primitive50):
        worst_name, worst = "", -np.inf
        traces = {f"k={k}": run.trace for k, run in fig2["runs"].items()}
        traces["primitive"] = primitive50["trace"]
        for name, trace in traces.items():
            inc = np.diff(trace.energy).max() / trace.energy[0]
            if inc > worst:
                worst_name, worst = name, inc
        crit("criterion 3a (energy nonincreasing)", worst <= 1e-6,
             f"worst relative per-step increase {worst:.2e} ({worst_name})")

    def test_strict_decrease_over_unit_windows(self, fig2):
        ok = True
        for k, run in fig2["runs"].items():
            e = run.trace.energy
            stride = int(round(1.0 / DELTA))
            for i in range(0, len(e) - stride, stride):
                if e[i] > 1e-4 and not e[i + stride] < e[i]:
                    ok = False
        crit("criterion 3b (strict decrease over unit windows)", ok,
             "checked k = 1, 2, 4, 8 on [0, 10]")

    def test_undamped_conservation(self, mesh99, ops99):
        runs = frequency_sweep([1], 0.0, 1, ops99, DELTA, T_FINAL)
        e = runs[0].trace.energy
        drift = np.abs(e - e[0]).max() / e[0]
        crit("criterion 3c (conservative limit)", drift < 1e-9,
             f"max relative drift {drift:.2e} over [0, 10]")


class TestCriterion4LinearDampedReference:
    BETA = (2.0 / np.pi) ** 2

    def _fem_error(self, h):
        mesh = build_mesh(int(round(1 / h)) - 1)
        ops = assemble(mesh)
        c0 = 2.0 / np.pi
        u0 = c0 * np.sin(np.pi * mesh.nodes)
        y0 = np.concatenate([u0, np.zeros(mesh.n)])
        config = PicardConfig(t_final=T_FINAL, delta=DELTA)
        result = picard_solve(ops, y0, config,
                              forcing=LinearDamping(self.BETA))
        lam = np.pi**2
        w = np.sqrt(lam - self.BETA**2 / 4)
        traj = nodal_trajectory(result.trajectory)
        errs = []
        for i in range(0, len(traj.times), 100):
            t = traj.times[i]
            decay = np.exp(-self.BETA * t / 2)
            a = c0 * decay * (np.cos(w * t) + self.BETA / (2 * w) * np.sin(w * t))
            ad = -c0 * decay * (lam / w) * np.sin(w * t)
            errs.append(continuum_energy_error(
                mesh, traj.states[i],
                lambda x, a=a: a * np.pi * np.cos(np.pi * x),
                lambda x, ad=ad: ad * np.sin(np.pi * x)))
        return max(errs)

    def test_first_order_and_halving(self):
        e_h = self._fem_error(1e-2)
        e_h2 = self._fem_error(5e-3)
        ratio = e_h / e_h2
        ok = (1.6 <= ratio <= 2.4) and e_h < 5 * 1e-2
        crit("criterion 4 (viscous reference, first order in h)", ok,
             f"err(h)={e_h:.3e}, err(h/2)={e_h2:.3e}, ratio={ratio:.2f}, "
             f"C=err/h={e_h / 1e-2:.2f}")


class TestCriterion5SchemeOrders:
    def test_rk4_order(self, mesh99):
        # Lawson RK4 is exact for the undamped member: 3e-16 against the
        # closed form, so its order is measured on a damped member, against
        # a 64 times finer run
        undamped = AnsatzProblem.for_mesh(mesh99, 1, c0=0.45, c1=0.0, alpha=0.0)
        sol = rk4_ansatz([undamped], 1.0, 0.025)[0]
        assert np.abs(sol.phi - 0.45 * np.cos(np.pi * sol.times)[:, None]
                      ).max() <= 1e-14
        prob = AnsatzProblem.for_mesh(mesh99, 1, c0=0.45, c1=0.0, alpha=1.0)

        def run(step):
            return rk4_ansatz([prob], 1.0, step,
                              store_stride=round(0.025 / step))[0].phi

        fine = run(0.0125 / 64)
        ratio = (np.abs(run(0.025) - fine).max()
                 / np.abs(run(0.0125) - fine).max())
        crit("criterion 5a (reference integrator is 4th order)",
             abs(ratio - 16.0) <= 0.2 * 16.0, f"refinement ratio {ratio:.2f}")

    def test_ab5_order(self):
        from degenwave import ab5_init, ab5_step

        def err(d):
            rhs = lambda t, y: -y
            times = d * np.arange(5)
            state = ab5_init(times, [np.array([np.exp(-t)]) for t in times], rhs)
            y = state.ys[-1]
            for _ in range(int(round(4.0 / d)) - 4):
                y = ab5_step(state)
            return abs(y[0] - np.exp(-4.0))

        ratio = err(0.02) / err(0.01)
        crit("criterion 5b (multistep scheme is 5th order)",
             abs(ratio - 32.0) <= 0.2 * 32.0, f"refinement ratio {ratio:.2f}")

    def test_duhamel_quadrature_order(self):
        from reference import solve_linear_inhomogeneous
        mesh = build_mesh(1)
        ops = assemble(mesh)
        lam_h = max_generalized_eigenvalue(ops)
        nu, s = 2.0, np.array([1.0])
        errs = []
        for d in (0.1, 0.05):
            def forcing(t):
                return ((lam_h - nu**2) * np.sin(nu * t))[:, None] * s

            traj = solve_linear_inhomogeneous(ops, np.array([0.0, nu]), forcing,
                                              2.0, d)
            exact = np.stack([np.sin(nu * traj.times),
                              nu * np.cos(nu * traj.times)], axis=1)
            from degenwave import energy_norm
            errs.append(energy_norm(ops, traj.states - exact).max())
        ratio = errs[0] / errs[1]
        crit("criterion 5c (quadrature stepping is 6th order)",
             abs(ratio - 64.0) <= 0.2 * 64.0, f"refinement ratio {ratio:.2f}")


class TestCriterion6PrimitiveProblem:
    def test_potential_closed_form(self):
        errs = []
        for n in (99, 199):
            mesh = build_mesh(n)
            ops = assemble(mesh)
            setup = primitive_setup(1, 1, ops)
            exact = closed_form_potential_m1(setup.data.amplitude, 1, mesh.nodes)
            errs.append(np.abs(setup.phi0 - exact).max())
        ratio = errs[0] / errs[1]
        ok = 3.0 <= ratio <= 5.0
        crit("criterion 6a (potential matches closed form at 2nd order)", ok,
             f"err(h)={errs[0]:.2e}, err(h/2)={errs[1]:.2e}, ratio={ratio:.2f}")

    def test_velocity_reproduces_damped_solution(self, primitive50, fig2):
        gap = primitive50["result"].velocity_gap_l2
        budget = 5.0 * fig2["e_gap"][1]
        crit("criterion 6b (velocity identity)", gap < budget,
             f"sup |phi' - u|_0 = {gap:.2e} < 5 e1 = {budget:.2e}")

    def test_decay_exponent(self, primitive50):
        # Averaged over a period, the energy obeys dE/dt ~ -C E^{m+1}, so
        # E ~ (a + b t)^{-1/m} with a shift t0 = a/b ~ 14 set by E(0).  A pure
        # power law c t^{-p} (decay_rate_fit) ignores t0 and reads only ~0.64
        # on [10, 50] even for an exact 1/m = 1 law; the dissipation law does
        # not involve t0.  Unit steps span whole periods of phi_t^4 (k = 1),
        # so the oscillation within a period does not enter the losses.
        trace = primitive50["trace"]
        p = dissipation_exponent(trace, DECAY_WINDOW)
        secant = decay_rate_fit(trace, DECAY_WINDOW)
        lo, hi = DECAY_BAND
        crit("criterion 6c (asymptotic decay exponent)", lo <= p <= hi,
             f"dissipation-law p = {p:.4f}, band [{lo:g}, {hi:g}] "
             f"(secant fit on [10, 50]: {secant:.4f})")

    def test_decay_estimator_recovers_known_laws(self):
        times = np.arange(5000, 25001) * DELTA     # the real trace on [10, 50]
        lo, hi = DECAY_BAND
        for p in (0.5, 1.0, 2.0):
            for t0 in (0.0, 14.0):
                trace = EnergyTrace(times=times, energy=(times + t0)**-p,
                                    l2=np.zeros_like(times),
                                    h1=np.zeros_like(times))
                est = dissipation_exponent(trace, DECAY_WINDOW)
                assert est == pytest.approx(p, rel=0.02)
                assert (lo <= est <= hi) == (p == 1.0)
                if p == 1.0 and t0 == 14.0:
                    # the secant fit misses an exact p = 1 law on this window
                    assert decay_rate_fit(trace, DECAY_WINDOW) == \
                        pytest.approx(0.63, abs=0.01)
        flat = EnergyTrace(times=times, energy=np.ones_like(times),
                           l2=np.zeros_like(times), h1=np.zeros_like(times))
        with pytest.raises(ValueError, match="not positive"):
            dissipation_exponent(flat, DECAY_WINDOW)


class TestCriterion7LowerOrderBound:
    def test_l2_bound_all_frequencies(self, mesh99, ops99, fig2):
        worst_slack, ok = np.inf, True
        details = []
        for k, run in fig2["runs"].items():
            setup = primitive_setup(k, 1, ops99)
            report = lower_order_decay(run.trace, setup, ops99)
            ok &= report.all_satisfied
            slack = report.bound - (report.l2**2).max()
            worst_slack = min(worst_slack, slack)
            details.append(f"k={k}: max|u|_0^2={np.max(report.l2**2):.3e} "
                           f"<= {report.bound:.3e}")
        crit("criterion 7 (squared displacement norm within potential bound)",
             ok, "; ".join(details))


class TestCriterion8OscillatorSuite:
    def test_uniform_stability_with_monotone_norms(self, fig2):
        khat, alpha, m, radius, eps = 1.0, 1.0, 1, np.sqrt(2.0), 0.1
        y = ball_samples(radius, 64, khat)
        norms = np.sqrt(0.5 * khat * y[:, 0]**2 + 0.5 * y[:, 1]**2)
        step, horizon = 0.01, 400.0
        max_increase = -np.inf
        first = np.where(norms < eps, 0.0, np.inf)

        def rhs(y):
            return np.stack([y[:, 1],
                             -khat * y[:, 0] - alpha * y[:, 0]**(2 * m) * y[:, 1]],
                            axis=1)

        prev = norms
        for i in range(int(round(horizon / step))):
            k1 = rhs(y); k2 = rhs(y + step / 2 * k1)
            k3 = rhs(y + step / 2 * k2); k4 = rhs(y + step * k3)
            y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            cur = np.sqrt(0.5 * khat * y[:, 0]**2 + 0.5 * y[:, 1]**2)
            max_increase = max(max_increase, (cur - prev).max())
            hit = (cur < eps) & np.isinf(first)
            first[hit] = (i + 1) * step
            prev = cur
        all_reached = np.isfinite(first).all()
        crit("criterion 8a (oscillator norms nonincreasing)",
             max_increase <= 1e-8, f"max per-step increase {max_increase:.2e}")
        crit("criterion 8b (finite common decay horizon)", all_reached,
             f"max time to |y| < {eps}: {first.max():.1f} of {horizon:g}")
        sweep = uniform_stability_sweep(khat, alpha, m, radius, 64, eps,
                                        horizon=horizon, step=step)
        crit("criterion 8c (library sweep agrees)",
             sweep.all_reached and abs(sweep.max_time - first.max()) < step,
             f"max_time = {sweep.max_time:.2f}")
        finals = {k: run.trace.energy[-1] for k, run in fig2["runs"].items()}
        contrast = finals[8] > finals[1]
        crit("criterion 8d (contrast with the distributed system)", contrast,
             "finite-dimensional decay is uniform while the string's "
             f"high-frequency run keeps E = {finals[8]:.3f}")


class TestCriterion9Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        from degenwave.cli import RunConfig, run
        kwargs = dict(experiment="custom", ks=(1, 2), h=0.05, delta=0.01,
                      t_final=1.0, window=0.5)
        assert run(RunConfig(out=str(tmp_path / "a"), **kwargs)) == 0
        assert run(RunConfig(out=str(tmp_path / "b"), **kwargs)) == 0
        files_a = sorted((tmp_path / "a" / "traces").glob("*.csv"))
        files_b = sorted((tmp_path / "b" / "traces").glob("*.csv"))
        same = ([p.name for p in files_a] == [p.name for p in files_b]
                and all(a.read_bytes() == b.read_bytes()
                        for a, b in zip(files_a, files_b)))
        crit("criterion 9 (byte-identical reruns)", same,
             f"{len(files_a)} trace files compared")
