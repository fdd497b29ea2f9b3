"""The reference step rule: the printed e_k do not depend on the oracle step.

``cli._oracle_grid`` picks the Lawson RK4 step of the pointwise reference
from the fastest requested mode, and takes one step per delta on every
preset, on the benchmark's mode pools (k <= 12 at n = 99, k <= 23 at
n = 499), on k = 62 at n = 499 and on k = 124 at n = 999.  On the pools
and on k = 62, every report line e_k must print the same ``%.3e`` digits
as at four times the rule's stride.  The horizons are shorter than the benchmark's so that the
test stays fast.  Seven of its nine cases fail if classical RK4 takes the
Lawson step's place at one step per delta.  A looser rule goes unseen here,
as every case already takes one step per delta.

The pinning test holds the oracle at its rule to classical RK4 at the rule
it replaced, omega * step <= 0.01, on k = 1, 8 and 124; the classical run is
the allocating loop of ``tests/rk4_reference.py``.  It fails for every
mode when classical RK4 steps once per delta, and when the Lawson step
drops the phase exp(-i omega step / 2).
"""

import numpy as np
import pytest

from degenwave.cli import (RunConfig, _oracle_errors, _oracle_grid,
                           _oracle_problems, _run_sweep)
from degenwave.mesh import assemble, mesh_from_h
from degenwave.oracle import AnsatzProblem, reference_errors, rk4_ansatz
from rk4_reference import allocating_rk4

# (h, T, mode lists); each list is one report, whose fastest mode sets the step
GRID = [
    (0.01, 2.0, [(1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12)]),
    (0.002, 0.5, [(1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13, 14),
                  (15, 16, 17, 18, 19), (20, 21, 22, 23), (1, 62)]),
]
CASES = [(h, t_final, ks) for h, t_final, lists in GRID for ks in lists]


@pytest.fixture(scope="module")
def sweeps():
    """The finite element run of every mode of the grid, per (h, T)."""
    out = {}
    for h, t_final, lists in GRID:
        ks = sorted({k for ks in lists for k in ks})
        config = RunConfig(experiment="custom", h=h, t_final=t_final,
                           ks=tuple(ks))
        ops = assemble(mesh_from_h(h))
        out[h, t_final] = ops, dict(zip(ks, _run_sweep(config, ops)))
    return out


def printed(gap, norm) -> str:
    return f"energy-history gap {gap:.3e}; state-difference norm {norm:.3e}"


@pytest.mark.parametrize("h,t_final,ks", CASES)
def test_rule_stride_prints_as_four_times_finer(sweeps, h, t_final, ks):
    ops, by_k = sweeps[h, t_final]
    runs = [by_k[k] for k in ks]
    config = RunConfig(experiment="custom", h=h, t_final=t_final, ks=ks)
    at_rule = _oracle_errors(config, ops, runs)
    fine = 4 * _oracle_grid(config)[1]
    problems = _oracle_problems(config, ops.mesh, ks,
                                [run.data.amplitude for run in runs])
    gaps, norms = reference_errors([run.trajectory for run in runs],
                                   [run.trace.energy for run in runs], problems,
                                   ops, t_final, config.delta / fine,
                                   store_stride=fine)
    for k, gap, norm in zip(ks, gaps, norms):
        assert printed(*at_rule[k]) == printed(gap, norm), f"k={k}"


def classical_at_old_rule(prob, t_final, delta, stride):
    """(2, stored steps, n) phi and phi' of classical RK4 (``allocating_rk4``)
    on the class oscillators of ``prob``, at ``stride`` steps per delta."""
    coeff, index = prob.damping_classes()
    y = np.array([np.full(len(coeff), prob.c0), np.full(len(coeff), prob.c1)])
    rows = [y[:, index]]

    def after(i, y):
        if i % stride == 0:
            rows.append(y[:, index])

    allocating_rk4(-prob.lam, coeff, prob.m, y, delta / stride,
                   round(t_final / delta) * stride, after)
    return np.stack(rows, axis=1)


def pinned_differences(h, t_final, ks):
    """Per mode, max |Delta E| and max |Delta z| (z = omega phi + i phi')
    between the oracle at its rule and classical RK4 at the old rule,
    omega * step <= 0.01 for the fastest mode, on unit-energy data."""
    config = RunConfig(experiment="custom", h=h, t_final=t_final, ks=ks)
    mesh = mesh_from_h(h)
    problems = [AnsatzProblem.for_mesh(mesh, k, c0=np.sqrt(2.0) / (k * np.pi))
                for k in ks]
    old_stride = int(np.ceil(max(ks) * np.pi * config.delta / 0.01))
    out = {}
    for prob, sol in zip(problems, rk4_ansatz(problems, t_final,
                                              *_oracle_grid(config))):
        phi, psi = classical_at_old_rule(prob, t_final, config.delta, old_stride)
        energy = 0.5 * prob.lam * phi**2 + 0.5 * psi**2
        out[prob.k] = (np.abs(sol.modal_energy() - energy).max(),
                       np.sqrt(prob.lam * (sol.phi - phi)**2
                               + (sol.phidot - psi)**2).max())
    return out


# (h, T, modes, bounds per mode on max |Delta E| and max |Delta z|): fig2's
# mesh and horizon with its slowest and fastest mode, and the high-mode
# run's fastest mode on its mesh over a shorter horizon.  Measured: 1.05e-12
# and 3.65e-12 at k = 1, 1.43e-10 and 1.46e-8 at k = 8, 6.68e-10 and 4.57e-8
# at k = 124; the bounds keep a margin of 3.  At k = 8 and 124 the
# differences are mostly classical RK4's own error at its rule: Lawson at
# four steps per delta moves the state differences by under 1% and the
# energy differences by under 20%
PINS = [(0.01, 10.0, {1: (3e-12, 1.1e-11), 8: (4.5e-10, 4.5e-8)}),
        (0.001, 1.0, {124: (2e-9, 1.4e-7)})]


@pytest.mark.parametrize("h,t_final,bounds", PINS)
def test_one_step_per_delta_pins_to_classical_rk4(h, t_final, bounds):
    config = RunConfig(experiment="custom", h=h, t_final=t_final,
                       ks=tuple(bounds))
    assert _oracle_grid(config)[1] == 1
    got = pinned_differences(h, t_final, tuple(bounds))
    for k, (energy_bound, state_bound) in bounds.items():
        assert got[k][0] <= energy_bound, f"k={k}"
        assert got[k][1] <= state_bound, f"k={k}"


@pytest.mark.parametrize("h,ks", [(0.01, (1, 2, 4, 8)), (0.01, (12,)),
                                  (0.002, (23,)), (0.002, (62,)),
                                  (0.001, (8, 40, 64, 124))])
def test_one_step_per_delta(h, ks):
    config = RunConfig(experiment="custom", h=h, ks=ks)
    assert _oracle_grid(config) == (config.delta, 1)
