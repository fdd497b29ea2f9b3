"""Picard's load as exact sine coefficients on the active modes and their reach.

A load of ``terms`` factors (2m + 1 for the power dampings, 1 for
``LinearDamping``) of the modes J lands on the folded sums of ``terms``
signed indices of J, and on no other mode; ``picard._reach`` gives the rest
J' \\ J of those sums.  Both load models give the sine coefficients on J and
on J' \\ J of amplitudes on J: ``picard._Triads`` as m = 1 triad sums, with
no nodal row, and ``picard._NodalLoad`` for every model from nodal loads.
Each must equal the transformed nodal load, S^T load / mu, which must vanish
outside J'.  A window on the triads must grow J as the nodal model does,
reach the same iterate and certify the same bound.
"""

from functools import lru_cache

import numpy as np
import pytest

from degenwave import (DegenerateDamping, LinearDamping, PicardConfig,
                       PrimitiveDamping, assemble, build_mesh, matrix_exponential,
                       picard, picard_solve)
from degenwave.experiments import mode_initial_state

DELTA = 2e-3


@lru_cache(maxsize=None)
def operators(n):
    ops = assemble(build_mesh(n))
    return ops, matrix_exponential(ops, DELTA)


def triads(ops, prop, forcing, active):
    return picard._Triads(ops, forcing, prop, active,
                          picard._reach(active, ops.mesh.n, forcing.terms))


# modes near n/2, whose triad sums pass n + 1 and fold back
@pytest.mark.parametrize("n, active", [(3, [0, 1]), (99, [0, 2, 47, 48, 50]),
                                       (499, [0, 4, 247, 249, 252])])
@pytest.mark.parametrize("forcing", [DegenerateDamping(1.3, 1), PrimitiveDamping(0.7, 1)],
                         ids=["uuv", "vvv"])
def test_triads_equal_the_transformed_nodal_load(rng, n, active, forcing):
    ops, prop = operators(n)
    active = np.array(active)
    t = triads(ops, prop, forcing, active)
    z = rng.standard_normal((6, len(active))) + 1j * rng.standard_normal((6, len(active)))
    a, b = z.real / prop.omega[active], z.imag
    u, v = a @ prop.sine[:, active].T, b @ prop.sine[:, active].T
    if isinstance(forcing, DegenerateDamping):
        load = -1.3 * ops.quartic.contract(u, u, v)
    else:
        load = -0.7 / 3 * ops.quartic.contract(v, v, v)
    g = (load @ prop.sine) / prop.mu
    scale = np.abs(g).max()
    assert np.abs(t.at(z) - g[:, active]).max() <= 1e-14 * scale
    assert np.abs(t.at(z, off=True) - g[:, t.off]).max() <= 1e-14 * scale
    # nothing lands outside J and its reach
    assert np.abs(np.delete(g, np.concatenate([active, t.off]), axis=1)).max(
        initial=0.0) <= 1e-14 * scale
    # some of J's reach comes only from sums beyond n, folded back (at
    # n = 3 each mode is also an unfolded sum)
    if n == 3:
        return
    k = active + 1
    sums = np.abs(k[:, None, None] + k[None, :, None] + np.array([-1, 1])[:, None, None, None]
                  * k[None, None, :]).ravel()
    unfolded = set(sums[(sums >= 1) & (sums <= n)] - 1)
    assert set(t.off) - unfolded


def first_window(monkeypatch, nodal: bool):
    if nodal:
        monkeypatch.setattr(picard, "_TRIAD_COST", 0)
    ops, prop = operators(99)
    data = mode_initial_state(ops, 1)
    result = picard_solve(ops, data.y0, PicardConfig(t_final=1.0, delta=DELTA),
                          z0=data.amplitudes(ops))
    return result.windows[0], *result.trajectory.segments[0]


def test_first_window_grows_j_as_the_nodal_path(monkeypatch):
    window, modes, z = first_window(monkeypatch, nodal=False)
    nodal_window, nodal_modes, nodal_z = first_window(monkeypatch, nodal=True)
    # J = {1} at the start grows during the iterations
    assert len(modes) > 1
    np.testing.assert_array_equal(modes, nodal_modes)
    assert window.iterations == nodal_window.iterations
    assert np.abs(z - nodal_z).max() <= 1e-13 * np.abs(nodal_z).max()


def test_nodal_and_triad_certificates_agree(monkeypatch):
    # one window's certificate from each model: both are exact.  With an
    # infinite tolerance nothing joins J = {1}, so the forcing keeps its
    # part on J' \\ J = {3}, far above the rounding of the nodal loads.
    ops, prop = operators(99)
    z0 = mode_initial_state(ops, 1).amplitudes(ops)
    config = PicardConfig(t_final=1.0, delta=DELTA)

    def certified(model):
        window = picard._Window(ops, DegenerateDamping(1.0, 1), prop, np.array([0]),
                                config, config.window_steps, 0.0, np.inf)
        report, _ = window.solve(z0)
        assert isinstance(window.model, model)
        window.certify(report, z0)
        return report

    triad = certified(picard._Triads)
    monkeypatch.setattr(picard, "_TRIAD_COST", 0)
    nodal = certified(picard._NodalLoad)
    assert (triad.iterations, triad.modes) == (nodal.iterations, nodal.modes) == (6, 1)
    assert triad.terms[0] > 1e-3
    assert abs(triad.terms[0] - nodal.terms[0]) <= 1e-12 * nodal.terms[0]


def triad_reach(active, n):
    """J' \\ J for m = 1 as the triads first found it: |a + b +- c| of
    1-based indices, folded into 1..n with period 2(n + 1)."""
    k = active + 1
    a, b, c = k[:, None, None], k[None, :, None], k[None, None, :]
    k = np.abs(np.stack(np.broadcast_arrays(a + b + c, a + b - c))) % (2 * (n + 1))
    k = np.minimum(k, 2 * (n + 1) - k)
    return sorted(set((k[(k >= 1) & (k <= n)] - 1).tolist()) - set(active.tolist()))


@pytest.mark.parametrize("n", [3, 99, 499])
def test_reach_of_three_terms_is_the_triads(rng, n):
    # the reference broadcasts |J|^3 sums, so J stays small
    sets = [np.arange(0), np.array([0]), np.array([n // 2 - 1, n // 2]),
            np.arange(max(0, n // 2 - 2), min(n, n // 2 + 3))]
    sets += [np.sort(rng.choice(n, size=size, replace=False))
             for size in (1, 2, 3, 5, 13, 40) if size <= n]
    for active in sets:
        assert picard._reach(active, n, 3).tolist() == triad_reach(active, n)
    assert picard._reach(np.arange(n), n, 3).size == 0


# odd multiples of 5 near n/2: their sums of an odd number of terms are odd
# multiples of 5 again, folded back past n + 1 (5 divides 2(n + 1)), so J'
# leaves out most modes; at n = 3 the odd modes are J' = J
@pytest.mark.parametrize("n, active", [(3, [0, 2]), (99, [4, 14, 44, 54]),
                                       (499, [4, 244, 254])])
@pytest.mark.parametrize("forcing", [DegenerateDamping(1.3, 2), DegenerateDamping(0.8, 3),
                                     PrimitiveDamping(0.7, 2), PrimitiveDamping(0.4, 3),
                                     LinearDamping(0.6)],
                         ids=["uuv2", "uuv3", "vvv2", "vvv3", "linear"])
def test_nodal_model_equals_the_transformed_load(rng, n, active, forcing):
    ops, prop = operators(n)
    active = np.array(active)
    model = picard._NodalLoad(ops, forcing, prop, active,
                              picard._reach(active, n, forcing.terms))
    z = rng.standard_normal((6, len(active))) + 1j * rng.standard_normal((6, len(active)))
    a, b = z.real / prop.omega[active], z.imag
    load = forcing.load(ops, a @ prop.sine[:, active].T, b @ prop.sine[:, active].T)
    g = (load @ prop.sine) / prop.mu
    scale = np.abs(g).max()
    assert np.abs(model.at(z) - g[:, active]).max() <= 1e-14 * scale
    assert np.abs(model.at(z, off=True) - g[:, model.off]).max(initial=0.0) <= 1e-14 * scale
    outside = np.delete(g, np.concatenate([active, model.off]), axis=1)
    assert outside.shape[1] > 0 and np.abs(outside).max() <= 1e-14 * scale
    if isinstance(forcing, LinearDamping):
        assert len(model.off) == 0   # -beta M v stays on the modes of v
