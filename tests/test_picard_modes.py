"""Picard on the active sine modes against the full-mode reference loop.

``picard_solve`` iterates on the modes J the solution occupies and certifies
the rest window by window; ``picard_reference.picard_solve`` is the loop it
replaced, on every mode.  Per window the two must take the same number of
iterations, and their states must agree to 1e-12 of the largest entry.
"""

from functools import lru_cache

import numpy as np
import pytest

from degenwave import (PicardConfig, assemble, matrix_exponential, mesh_from_h,
                       picard, picard_solve)
from degenwave.experiments import mode_initial_state, primitive_setup
from degenwave.linwave import sweep

import picard_reference
from reference import nodal_sweep, nodal_trajectory

DELTA = 2e-3


@lru_cache(maxsize=None)
def operators(h):
    ops = assemble(mesh_from_h(h))
    return ops, matrix_exponential(ops, DELTA)


def energy_norm_modal(prop, y):
    z = prop.modal(y)
    return float(np.sqrt((np.abs(z) ** 2) @ prop.mu))


def assert_matches_reference(ops, y0, config, forcing=None):
    result = picard_solve(ops, y0, config, forcing=forcing)
    ref = picard_reference.picard_solve(ops, y0, config, forcing=forcing)
    assert ([w.iterations for w in result.windows]
            == [w.iterations for w in ref.windows])
    states = nodal_trajectory(result.trajectory).states
    expected = ref.trajectory.states
    assert np.abs(states - expected).max() <= 1e-12 * np.abs(expected).max()
    return result


@pytest.mark.parametrize("h, t_final, k", [(0.01, 2.0, 1), (0.01, 2.0, 2),
                                           (0.01, 2.0, 8), (0.002, 1.0, 1),
                                           (0.002, 1.0, 16)])
def test_single_mode_matches_full_modes(h, t_final, k):
    ops, prop = operators(h)
    y0 = mode_initial_state(ops, k).y0
    result = assert_matches_reference(ops, y0,
                                      PicardConfig(t_final=t_final, delta=DELTA))
    tol = picard.TOL * energy_norm_modal(prop, y0)
    for w in result.windows:
        assert w.modes < ops.mesh.n // 4 and w.redone == 0
        assert 0.0 < w.bound <= tol


def test_primitive_damping_matches_full_modes():
    ops, prop = operators(0.01)
    setup = primitive_setup(1, 1, ops)
    result = assert_matches_reference(ops, setup.initial_state(),
                                      PicardConfig(t_final=2.0, delta=DELTA),
                                      forcing=setup.damping)
    assert all(w.modes < ops.mesh.n for w in result.windows)


def test_mixed_mode_data_run_on_every_mode():
    # energy in every mode: J holds all of them, and no certificate is needed
    ops, prop = operators(0.01)
    n = ops.mesh.n
    rng = np.random.default_rng(7)
    j = np.arange(1, n + 1)
    z0 = (rng.normal(size=n) + 1j * rng.normal(size=n)) / j
    y0 = prop.nodal(z0 * np.sqrt(2.0) / np.sqrt((np.abs(z0) ** 2) @ prop.mu))
    result = assert_matches_reference(ops, y0,
                                      PicardConfig(t_final=1.0, delta=DELTA,
                                                   window=0.5))
    assert all(w.modes == n and w.bound == 0.0 for w in result.windows)


def test_fig2_windows_certified_on_few_modes():
    ops, prop = operators(0.01)
    y0 = mode_initial_state(ops, 1).y0
    result = picard_solve(ops, y0, PicardConfig(t_final=10.0, delta=DELTA))
    tol = picard.TOL * energy_norm_modal(prop, y0)
    assert len(result.windows) == 10
    for w in result.windows:
        assert w.modes < ops.mesh.n
        assert w.bound <= tol
        assert w.redone == 0


def test_certificate_redoes_a_window_detection_missed(monkeypatch):
    # At this detection fraction only modes holding half of ||y0||_E join J:
    # the initial mode k = 1 does, the modes its forcing reaches never do.
    monkeypatch.setattr(picard, "DETECT", 0.5 / picard.TOL)
    ops, prop = operators(0.01)
    y0 = mode_initial_state(ops, 1).y0
    result = assert_matches_reference(ops, y0,
                                      PicardConfig(t_final=2.0, delta=DELTA))
    first, second = result.windows
    assert first.redone == 1 and first.modes == ops.mesh.n
    # J is carried over: the second window starts on every mode
    assert second.redone == 0 and second.modes == ops.mesh.n


def test_windows_hand_over_amplitudes():
    # the first window starts from modal(y0), whose rounding off J it
    # certifies; every later one from the amplitudes on J the previous one
    # ended with, which have no part off J at all
    ops, prop = operators(0.01)
    y0 = mode_initial_state(ops, 1).y0
    result = picard_solve(ops, y0, PicardConfig(t_final=3.0, delta=DELTA))
    first, *later = result.windows
    assert first.terms[1] > 0.0
    for w in later:
        assert w.terms[1] == 0.0 and w.terms[0] > 0.0
    for w in result.windows:
        assert 0.0 < w.gamma < 1.0
        assert w.bound == sum(w.terms) / (1.0 - w.gamma)


def test_single_mode_amplitudes_leave_no_start_term():
    # built as amplitudes, single-mode data lie exactly in J = {k}
    ops, prop = operators(0.002)
    data = mode_initial_state(ops, 16)
    z0 = data.amplitudes(ops)
    np.testing.assert_allclose(z0, prop.modal(data.y0), rtol=0,
                               atol=1e-13 * np.abs(z0).max())
    assert np.flatnonzero(z0).tolist() == [15]
    result = picard_solve(ops, data.y0, PicardConfig(t_final=1.0, delta=DELTA),
                          z0=z0)
    assert result.windows[0].terms[1] == 0.0


def test_nodal_rounding_no_longer_forces_every_mode(monkeypatch):
    # At this tolerance the rounding of modal(y_end) alone failed the second
    # window's certificate when each window restarted from its nodal start
    # state, and that window was redone on all 499 modes; started from the
    # amplitudes on J, every window stays truncated and certified.
    monkeypatch.setattr(picard, "TOL", 1e-14)
    ops, prop = operators(0.002)
    y0 = mode_initial_state(ops, 1).y0
    result = picard_solve(ops, y0, PicardConfig(t_final=2.0, delta=DELTA))
    tol = picard.TOL * energy_norm_modal(prop, y0)
    assert [w.redone for w in result.windows] == [0, 0]
    for w in result.windows:
        assert w.modes < ops.mesh.n and w.bound <= tol


def test_zero_data_stay_zero():
    ops, prop = operators(0.01)
    y0 = np.zeros(2 * ops.mesh.n)
    result = picard_solve(ops, y0, PicardConfig(t_final=0.1, delta=DELTA))
    assert result.converged and not nodal_trajectory(result.trajectory).states.any()
    assert result.windows[0].modes == 0


def test_restricted_propagator_sweeps_its_modes(rng):
    # data and forcing inside span S[:, J]: the restricted sweep is exact
    ops, prop = operators(0.01)
    n = ops.mesh.n
    modes = np.array([0, 2, 4, 40, 98])
    sub = prop.restrict(modes)
    assert sub.sine.shape == (n, len(modes)) and sub.points == prop.points
    assert prop.restrict(np.arange(n)) is prop
    z0 = np.zeros(n, complex)
    z0[modes] = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    y0 = prop.nodal(z0)
    np.testing.assert_allclose(sub.modal(y0), z0[modes], atol=1e-13)
    amplitudes = rng.normal(size=(4 * 20 + 1, len(modes)))
    load = (amplitudes * sub.mu) @ sub.sine.T    # M f with S f on J only
    full = nodal_sweep(prop, y0, load)
    np.testing.assert_allclose(nodal_sweep(sub, y0, load), full, atol=1e-12)
    np.testing.assert_allclose(sub.nodal(sweep(sub, sub.modal(y0), load)), full,
                               atol=1e-12)
