"""Picard's cubic load as exact triad sums on the active sine modes.

``picard._Triads`` gives the m = 1 load's sine coefficients on J and on its
reach J' \\ J from the amplitudes on J, with no nodal row.  They must equal
the transformed nodal load, S^T contract(S_J a, S_J a, S_J b) / mu, which
must vanish outside J'.  A window on the triads must grow J as the nodal
path does and reach the same iterate, and its exact certificate term may
only lower the nodal path's bound.
"""

from functools import lru_cache

import numpy as np
import pytest

from degenwave import (DegenerateDamping, PicardConfig, PrimitiveDamping,
                       assemble, build_mesh, matrix_exponential, picard,
                       picard_solve)
from degenwave.experiments import mode_initial_state

DELTA = 2e-3


@lru_cache(maxsize=None)
def operators(n):
    ops = assemble(build_mesh(n))
    return ops, matrix_exponential(ops, DELTA)


def triads(ops, prop, forcing, active):
    return picard._Triads(ops, forcing, prop, active, picard._reach(active, ops.mesh.n))


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


def test_exact_certificate_term_lowers_the_nodal_bound():
    # the certificate of one window, from the same last load on both paths
    ops, prop = operators(99)
    forcing = DegenerateDamping(1.0, 1)
    data = mode_initial_state(ops, 1)
    z0 = data.amplitudes(ops)
    tol = picard.TOL * float(np.sqrt(picard._mode_energy(z0, prop.mu)))
    config = PicardConfig(t_final=1.0, delta=DELTA)
    window = picard._Window(ops, forcing, prop, np.array([0]), config,
                            config.window_steps, 0.0, tol)
    report, _ = window.solve(z0)
    assert window.triads is not None
    window.certify(report, z0)
    exact = report.terms[0]
    window.last, window.triads = window._loads(window.last), None
    window.certify(report, z0)
    assert 0.0 < exact <= report.terms[0] * (1 + 1e-12)
