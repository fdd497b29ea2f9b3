"""The full-mode Picard loop, kept as the reference of ``picard_solve``.

``picard.picard_solve`` iterates on the active sine modes only and certifies
the rest; this is the loop it replaced, which iterates on every mode and
measures distances in the nodal energy norm.  Per window, the two must take
the same number of iterations and reach the same states to rounding.  Its
forcing comes from ``interp_abscissae``, the whole-window interpolation that
``picard`` streams in blocks.
"""

import numpy as np

from degenwave import picard
from degenwave.linop import energy_norm, matrix_exponential
from degenwave.linwave import BOOLE_WEIGHTS, Trajectory, sweep
from degenwave.mesh import SpatialOperators
from degenwave.picard import (DegenerateDamping, PicardConfig,
                              PicardDivergenceError, PicardResult, WindowReport)


def interp_abscissae(x: np.ndarray) -> np.ndarray:
    """Linear-in-time interpolation of grid samples onto the quadrature
    abscissae, the whole window at once (``picard`` streams it in blocks)."""
    r = len(BOOLE_WEIGHTS) - 1
    nsteps = x.shape[0] - 1
    out = np.empty((r * nsteps + 1,) + x.shape[1:])
    out[::r] = x
    for j in range(1, r):
        fr = j / r
        out[j::r] = (1.0 - fr) * x[:-1] + fr * x[1:]
    return out


# a blow-up is reported by the finiteness guard, not through overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def picard_solve(ops: SpatialOperators, y0: np.ndarray, config: PicardConfig,
                 forcing=None) -> PicardResult:
    """Fixed-point solve of the semilinear problem on [0, t_final].

    The first iterate of every window uses the constant-in-time forcing of
    the window's initial state; subsequent forcings come from the previous
    iterate's trajectory, interpolated linearly in time at the quadrature
    abscissae.  Iteration stops when consecutive trajectories differ by less
    than ``epsilon`` in the sup-in-time energy norm.  Three consecutive
    increases of that distance abort with a hint to shorten the window, and
    so does a non-finite distance (a non-finite forcing or iterate).
    """
    if forcing is None:
        forcing = DegenerateDamping(config.alpha, config.m)
    propagator = matrix_exponential(ops, config.delta)
    n = ops.mesh.n

    chunks = [y0[None, :]]
    y = np.asarray(y0, dtype=float)
    windows: list[WindowReport] = []
    total_iters = 0
    done = 0
    while done < config.n_steps:
        nst = min(config.window_steps, config.n_steps - done)
        t_start = done * config.delta
        f0 = forcing.load(ops, y[:n], y[n:])
        f_absc = np.broadcast_to(f0, ((len(BOOLE_WEIGHTS) - 1) * nst + 1, n))
        prev = sweep(propagator, y, f_absc)

        report = WindowReport(t_start=t_start, iterations=0, distance=np.inf,
                              converged=False)
        grow = 0
        for _ in range(picard.MAX_ITERATIONS):
            ua = interp_abscissae(prev[:, :n])
            va = interp_abscissae(prev[:, n:])
            f_absc = forcing.load(ops, ua, va)
            cur = sweep(propagator, y, f_absc)
            dist = float(energy_norm(ops, cur - prev).max())
            if not np.isfinite(dist):
                # a non-finite forcing or iterate makes the distance non-finite
                raise PicardDivergenceError(
                    f"non-finite iterate on window starting at t={t_start:g}; "
                    "reduce the damping or the window")
            report.iterations += 1
            report.distances.append(dist)
            grow = grow + 1 if dist > report.distance else 0
            report.distance = dist
            prev = cur
            if dist < config.epsilon:
                report.converged = True
                break
            if grow >= 3:
                raise PicardDivergenceError(
                    f"iterates diverge on window starting at t={t_start:g} "
                    f"(distance {dist:.3e}); use a shorter window")

        total_iters += report.iterations
        windows.append(report)
        chunks.append(prev[1:])
        y = prev[-1]
        done += nst

    states = np.concatenate(chunks, axis=0)
    times = config.delta * np.arange(config.n_steps + 1)
    traj = Trajectory(times=times, states=states, delta=config.delta)
    return PicardResult(trajectory=traj,
                        iterations=total_iters,
                        final_distance=windows[-1].distance,
                        converged=all(w.converged for w in windows),
                        windows=windows)
