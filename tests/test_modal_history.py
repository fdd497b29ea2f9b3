"""Picard's history as modal amplitudes on the active modes.

``picard_solve`` keeps each window's amplitudes z on its modes J instead of
nodal rows.  The traces come straight from z, nodal rows are synthesized a
block at a time where they are read, and the memory a run keeps grows by
16 |J| bytes per row.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from degenwave import (EnergyTrace, PicardConfig, assemble, frequency_sweep,
                       mesh_from_h, picard, picard_solve)
from degenwave.experiments import mode_initial_state
from reference import nodal_trajectory

DELTA = 2e-3


@lru_cache(maxsize=None)
def operators():
    return assemble(mesh_from_h(0.01))


CASES = [(1, False), (8, False), (1, True)]

# the largest gap between rows read in blocks and each window's own
# synthesis, relative to the largest row entry: 1.5e-15 measured over the
# cases and block sizes below (with the redo, on all 99 modes), so 1e-14
# leaves a margin of more than six
SYNTHESIS_RTOL = 1e-14


@pytest.mark.parametrize("k, redo", CASES)
def test_blocks_reproduce_the_window_states(monkeypatch, k, redo):
    if redo:
        # only the initial mode joins J, so the certificate redoes window 1
        monkeypatch.setattr(picard, "DETECT", 0.5 / picard.TOL)
    ops = operators()
    result = picard_solve(ops, mode_initial_state(ops, k).y0,
                          PicardConfig(t_final=2.0, delta=DELTA))
    traj = result.trajectory
    assert [w.redone for w in result.windows] == ([1, 0] if redo else [0, 0])
    expected = np.concatenate([traj.y0[None]] + [
        traj.propagator.restrict(modes).nodal(z)[1:]
        for modes, z in traj.segments])
    tol = SYNTHESIS_RTOL * np.abs(expected).max()
    for size in (1, 7, 256, 501, len(traj.times)):
        got = np.concatenate(list(traj.blocks(size)))
        np.testing.assert_array_equal(got[0], traj.y0)
        np.testing.assert_allclose(got, expected, rtol=0, atol=tol)
    np.testing.assert_allclose(traj.rows(497, 505), expected[497:505],
                               rtol=0, atol=tol)
    np.testing.assert_allclose(nodal_trajectory(traj).states, expected, rtol=0,
                               atol=tol)


@pytest.mark.parametrize("k, redo", CASES)
def test_modal_trace_matches_nodal_trace(monkeypatch, k, redo):
    if redo:
        monkeypatch.setattr(picard, "DETECT", 0.5 / picard.TOL)
    ops = operators()
    result = picard_solve(ops, mode_initial_state(ops, k).y0,
                          PicardConfig(t_final=2.0, delta=DELTA))
    modal = EnergyTrace.from_modal(result.trajectory)
    nodal = EnergyTrace.from_trajectory(nodal_trajectory(result.trajectory), ops)
    np.testing.assert_array_equal(modal.times, nodal.times)
    for name in ("energy", "l2", "h1"):
        np.testing.assert_allclose(getattr(modal, name), getattr(nodal, name),
                                   rtol=1e-13, atol=0.0)


def test_step_is_the_propagators():
    ops = operators()
    traj = picard_solve(ops, mode_initial_state(ops, 1).y0,
                        PicardConfig(t_final=0.02, delta=DELTA)).trajectory
    assert traj.delta == traj.propagator.step == DELTA


def short_run():
    """An 11-row run of mode 1, one window."""
    ops = operators()
    return ops, picard_solve(ops, mode_initial_state(ops, 1).y0,
                             PicardConfig(t_final=0.02, delta=DELTA)).trajectory


@pytest.mark.parametrize("prefix", [False, True], ids=["ModalTrajectory", "prefix"])
@pytest.mark.parametrize("start, stop", [(0, 0), (7, 7), (5, 2)])
def test_rows_of_an_empty_range_are_empty(prefix, start, stop):
    ops, traj = short_run()
    traj = traj.prefix(9) if prefix else traj
    assert traj.rows(start, stop).shape == (0, 2 * ops.mesh.n)
    assert traj.amplitudes(start, stop).shape == (0, ops.mesh.n)


@pytest.mark.parametrize("read", [
    lambda traj: traj.rows(8, 20), lambda traj: traj.rows(-3, 11),
    lambda traj: list(traj.blocks(4, 0, 30)),
    lambda traj: traj.amplitudes(6, 12), lambda traj: traj.prefix(12)],
    ids=["rows-past-the-end", "rows-before-the-start", "blocks-past-the-end",
         "amplitudes-past-the-end", "prefix-past-the-end"])
def test_reads_outside_the_rows_name_the_range(read):
    _, traj = short_run()
    with pytest.raises(ValueError, match=r"rows \S+ are not all within 0\.\.10"):
        read(traj)


def test_a_prefix_keeps_its_rows():
    # two windows of 5 steps: the prefix ends inside the second
    ops = operators()
    traj = picard_solve(ops, mode_initial_state(ops, 1).y0,
                        PicardConfig(t_final=0.02, delta=DELTA,
                                     window=5 * DELTA)).trajectory
    head = traj.prefix(8)
    np.testing.assert_array_equal(head.times, traj.times[:8])
    np.testing.assert_array_equal(head.amplitudes(0, 8), traj.amplitudes(0, 8))
    assert len(head.segments) == 2 and len(head.segments[1][1]) == 3


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
