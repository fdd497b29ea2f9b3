"""The reference step rule: the printed e_k do not depend on the oracle step.

``cli._oracle_grid`` picks the RK4 step of the pointwise reference from
the fastest requested mode.  On the benchmark's mode pools (k <= 12 at
n = 99, k <= 23 at n = 499) and on k = 62 at n = 499, every report line e_k
at the rule's stride must print the same ``%.3e`` digits as at four times
that stride.  The horizons are shorter than the benchmark's so that the
test stays fast; the list (1, 62) fails the test if the stride is taken
from the slowest mode, or if the rule's bound on omega * step is raised to
0.3.
"""

import pytest

from degenwave.cli import (RunConfig, _oracle_errors, _oracle_grid,
                           _oracle_problems, _run_sweep)
from degenwave.mesh import assemble, mesh_from_h
from degenwave.oracle import reference_errors

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
