"""Picard's history as modal amplitudes on the active modes.

``picard_solve`` keeps each window's amplitudes z on its modes J instead of
nodal rows.  The traces come straight from z, nodal rows are synthesized a
window at a time, and the memory a run keeps grows by 16 |J| bytes per row.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from degenwave import (EnergyTrace, PicardConfig, assemble, frequency_sweep,
                       mesh_from_h, picard, picard_solve)
from degenwave.experiments import mode_initial_state

DELTA = 2e-3


@lru_cache(maxsize=None)
def operators():
    return assemble(mesh_from_h(0.01))


def solve_capturing_windows(monkeypatch, k, t_final):
    """A Picard run of mode k and the nodal states each window returned."""
    ops = operators()
    windows = []
    solve = picard._Window.solve

    def capture(self, *args):
        out = solve(self, *args)
        windows.append(out[2][:])   # every row of the window, synthesized
        return out

    monkeypatch.setattr(picard._Window, "solve", capture)
    result = picard_solve(ops, mode_initial_state(ops, k).y0,
                          PicardConfig(t_final=t_final, delta=DELTA))
    # a window solved again keeps its last attempt
    accepted, i = [], 0
    for w in result.windows:
        i += w.redone
        accepted.append(windows[i])
        i += 1
    return ops, result, accepted


CASES = [(1, False), (8, False), (1, True)]


@pytest.mark.parametrize("k, redo", CASES)
def test_blocks_reproduce_the_window_states(monkeypatch, k, redo):
    if redo:
        # only the initial mode joins J, so the certificate redoes window 1
        monkeypatch.setattr(picard, "DETECT", 0.5 / picard.TOL)
    ops, result, states = solve_capturing_windows(monkeypatch, k, 2.0)
    traj = result.trajectory
    assert [w.redone for w in result.windows] == ([1, 0] if redo else [0, 0])
    expected = np.concatenate([states[0][:1]] + [s[1:] for s in states])
    for size in (1, 7, 256, 501, len(traj.times)):
        got = np.concatenate(list(traj.blocks(size)))
        np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(traj.rows(497, 505), expected[497:505])
    np.testing.assert_array_equal(traj.nodal().states, expected)


@pytest.mark.parametrize("k, redo", CASES)
def test_modal_trace_matches_nodal_trace(monkeypatch, k, redo):
    if redo:
        monkeypatch.setattr(picard, "DETECT", 0.5 / picard.TOL)
    ops = operators()
    result = picard_solve(ops, mode_initial_state(ops, k).y0,
                          PicardConfig(t_final=2.0, delta=DELTA))
    modal = EnergyTrace.from_modal(result.trajectory)
    nodal = EnergyTrace.from_trajectory(result.trajectory.nodal(), ops)
    np.testing.assert_array_equal(modal.times, nodal.times)
    for name in ("energy", "l2", "h1"):
        np.testing.assert_allclose(getattr(modal, name), getattr(nodal, name),
                                   rtol=1e-13, atol=0.0)


def test_step_is_the_propagators():
    ops = operators()
    traj = picard_solve(ops, mode_initial_state(ops, 1).y0,
                        PicardConfig(t_final=0.02, delta=DELTA)).trajectory
    assert traj.delta == traj.propagator.step == DELTA


@pytest.mark.parametrize("modal", [True, False], ids=["ModalTrajectory", "Trajectory"])
@pytest.mark.parametrize("start, stop", [(0, 0), (7, 7), (5, 2)])
def test_rows_of_an_empty_range_are_empty(modal, start, stop):
    ops = operators()
    result = picard_solve(ops, mode_initial_state(ops, 1).y0,
                          PicardConfig(t_final=0.02, delta=DELTA))
    traj = result.trajectory if modal else result.trajectory.nodal()
    rows = traj.rows(start, stop)
    assert rows.shape == (0, 2 * ops.mesh.n)


def test_history_rows_cost_their_active_modes():
    # tracemalloc counts NumPy's buffers; a nodal history costs 16 n = 1584
    # bytes per row at n = 99, the modal one 16 |J| with |J| = 5-6 here
    ops = operators()
    frequency_sweep([4], 1.0, 1, ops, DELTA, 2.0)  # warm-up
    tracemalloc.start()
    try:
        peaks, kept = {}, {}
        for t_final in (2.0, 8.0):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run, = frequency_sweep([4], 1.0, 1, ops, DELTA, t_final)
            current, peaks[t_final] = tracemalloc.get_traced_memory()
            kept[t_final] = (current - base, run)
    finally:
        tracemalloc.stop()
    assert peaks[8.0] - peaks[2.0] < 1e6
    retained, run = kept[8.0]
    modes = max(w.modes for w in run.result.windows)
    assert retained / len(run.trajectory.times) < 16 * modes + 64
