"""Picard's forcing streamed through blocks of steps into one load buffer.

Each iteration of a window fills one (4 nst + 1, n) load buffer, a block of
``picard._LOAD_STEPS`` steps at a time, instead of building the interpolated
states and the loads of the whole window.  The loads must equal the
whole-window evaluation bit for bit, and a window's working set must stay a
small multiple of one load array.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from degenwave import (DegenerateDamping, LinearDamping, PicardConfig,
                       PrimitiveDamping, assemble, matrix_exponential,
                       mesh_from_h, picard, picard_solve)
from degenwave.experiments import mode_initial_state
from degenwave.linwave import sweep
from picard_reference import interp_abscissae

DELTA = 2e-3
FORCINGS = [DegenerateDamping(1.0, 1), DegenerateDamping(1.0, 2),
            PrimitiveDamping(1.0, 1), PrimitiveDamping(0.5, 2),
            LinearDamping(0.7)]
BLOCK = picard._LOAD_STEPS


@pytest.mark.parametrize("nst", [1, BLOCK - 1, BLOCK, BLOCK + 1, 500])
@pytest.mark.parametrize("forcing", FORCINGS, ids=lambda f: type(f).__name__
                         + str(getattr(f, "m", "")))
def test_streamed_loads_equal_the_whole_window(ops99, rng, forcing, nst):
    n = ops99.mesh.n
    states = rng.standard_normal((nst + 1, 2 * n))
    expected = forcing.load(ops99, interp_abscissae(states[:, :n]),
                            interp_abscissae(states[:, n:]))
    out = np.full((4 * nst + 1, n), np.nan)   # every row must be written
    got = picard._abscissa_loads(ops99, forcing, states, lambda rows: rows, out)
    assert got is out
    np.testing.assert_array_equal(got, expected)


@lru_cache(maxsize=None)
def fine_operators():
    return assemble(mesh_from_h(0.002))


@pytest.mark.parametrize("k, m", [(1, 1), (4, 2)])
def test_window_working_set_is_a_few_load_arrays(k, m):
    # the whole-window evaluation peaked at 6.2 (m = 1) and 23 (m = 2) load
    # arrays here, and the streamed one with whole-window nodal states at
    # 2.6 and 2.8; with the states synthesized a block at a time, one buffer
    # and a block remain: the measured peak, plus a quarter of a load
    # array (2 MB) of margin
    measured = {1: 1.50, 2: 2.44}[m]
    ops = fine_operators()
    config = PicardConfig(t_final=2.0, delta=DELTA, m=m)
    y0 = mode_initial_state(ops, k).y0
    picard_solve(ops, y0, config)   # warm-up
    tracemalloc.start()
    try:
        result = picard_solve(ops, y0, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged
    load_bytes = (4 * config.window_steps + 1) * ops.mesh.n * 8
    assert peak < (measured + 0.25) * load_bytes


def test_all_mode_sweep_streams_its_load():
    # the whole-window transform, weighted sums and cumulative sum of an
    # all-mode sweep took 2.5 load arrays beyond its (nst + 1, n) complex
    # output (half a load array) here; streamed through blocks of steps,
    # 0.2 remain
    ops = fine_operators()
    prop = matrix_exponential(ops, DELTA)
    rng = np.random.default_rng(0)
    load = rng.standard_normal((4 * 500 + 1, ops.mesh.n))
    y0 = rng.standard_normal(2 * ops.mesh.n)
    sweep(prop, prop.modal(y0), load)   # warm-up: the phase table
    tracemalloc.start()
    try:
        z = sweep(prop, prop.modal(y0), load)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - z.nbytes < 0.25 * load.nbytes
