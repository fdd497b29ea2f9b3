"""Joint space/time refinement behavior of the damped pipeline.

These runs are the most expensive in the unit suite (two full horizons at
two resolutions), so both properties share one computation.
"""

import numpy as np
import pytest

import degenwave as dw
from reference import nodal_trajectory


@pytest.fixture(scope="module")
def refinement_pair():
    out = {}
    for h, delta in ((1e-2, 2e-3), (5e-3, 1e-3)):
        mesh = dw.mesh_from_h(h)
        ops = dw.assemble(mesh)
        run = dw.frequency_sweep([1], 1.0, 1, ops, delta, 10.0)[0]
        prob = dw.AnsatzProblem.for_mesh(mesh, 1,
                                         c0=run.data.amplitude / np.sqrt(2.0))
        sol = dw.rk4_ansatz([prob], 10.0, delta / 10, store_stride=10)[0]
        traj = nodal_trajectory(run.trajectory)
        out[h] = {
            "E_final": run.trace.energy[-1],
            "e_gap": dw.compare_energy_decay(traj, sol, ops),
            "e_norm": dw.compare_energy_norm(traj, sol, ops),
        }
    return out


def test_final_energy_consistent_under_refinement(refinement_pair):
    # halving h and delta together must move E(10) by no more than a
    # first-order-in-h allowance; measured the change is ~2.6e-5
    coarse = refinement_pair[1e-2]["E_final"]
    fine = refinement_pair[5e-3]["E_final"]
    assert abs(coarse - fine) <= 0.5 * 1e-2


def test_oracle_comparison_does_not_degrade(refinement_pair):
    # both error measures are saturated by the reference's own separation
    # error (the per-position reduction is not the full dynamics), so
    # refinement cannot shrink them; they must at least not grow beyond
    # bookkeeping noise
    for key in ("e_gap", "e_norm"):
        coarse = refinement_pair[1e-2][key]
        fine = refinement_pair[5e-3][key]
        assert fine <= 1.05 * coarse
