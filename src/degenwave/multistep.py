"""Five-step Adams-Bashforth extension of trajectories to long horizons.

``extend_trajectory`` applies AB5 literally to y' = A y + (0, f(u, v)).  The
scheme keeps only a sliver of the imaginary axis inside its stability
region, while the wave generator carries frequencies up to
sqrt(lambda_max) ~ sqrt(12)/h, so on a practical mesh it needs substeps.
``experiments.extend_with_ab5`` steps the same weights in the frame that
rotates with the sine modes instead, one step per output step, for a batch
of runs at once: the state is the runs' amplitudes on their active sine
modes J, zero-padded to the widest J, and each run is guarded on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linwave import Trajectory

# newest-first weights of y_{n+1} = y_n + delta * sum_i w_i g_{n-i}
AB5_COEFFS = np.array([1901.0, -2774.0, 2616.0, -1274.0, 251.0]) / 720.0
# row s: the weights in the order of a ring of slopes whose oldest is at s
_RING_COEFFS = np.array([np.roll(AB5_COEFFS[::-1], s) for s in range(5)])


class BlowupError(RuntimeError):
    """The explicit multistep iteration left the stable regime."""


def blowup_at(t: float) -> BlowupError:
    """The error of the step to time ``t`` that left the stable regime."""
    return BlowupError(f"solution left the stable regime at t={t:g}; "
                       "the explicit scheme needs a smaller step")


@dataclass(eq=False)
class ABState:
    """The newest (t, y), the last five slopes as a ring whose oldest, at
    ``slot``, the next step overwrites, and blow-up guards: without
    ``norm_fn`` the caller holds the states to ``norm_limit`` itself."""

    delta: float
    rhs: object
    t: float
    y: np.ndarray
    ring: np.ndarray                # (5,) + y.shape, oldest slope at ``slot``
    slot: int = 0
    norm_fn: object = None
    norm_limit: object = np.inf     # a float, or one limit per batch member

    def __post_init__(self):
        # a step is y + weights[slot] @ ring: delta * AB5_COEFFS in ring order
        self.flat, self.weights = self.ring.reshape(5, -1), self.delta * _RING_COEFFS


BLOWUP_FACTOR = 10.0


def ab5_init(times, states, rhs, norm_fn=None) -> ABState:
    """Fill the buffer from five uniformly spaced trajectory points.

    ``rhs(t, y)`` must be the full right-hand side of the system being
    extended (the nonlinear forcing evaluated self-consistently, not a
    frozen one).  ``norm_fn`` guards against blow-up: stepping raises once
    the norm exceeds ``BLOWUP_FACTOR`` = 10 times its largest value over the
    history.  For a batch of states ``norm_fn`` may return one norm per
    member; each member is then held to its own limit.
    """
    times = np.asarray(times, dtype=float)
    if len(times) != 5 or len(states) != 5:
        raise ValueError("exactly five history points are required")
    gaps = np.diff(times)
    delta = gaps[0]
    if delta <= 0 or not np.allclose(gaps, delta, rtol=1e-9, atol=1e-12):
        raise ValueError("history points must be uniformly spaced")
    ys = [np.asarray(y, dtype=float) for y in states]
    ring = np.array([np.asarray(rhs(t, y), dtype=float) for t, y in zip(times, ys)])
    if norm_fn is None:
        norm_fn = lambda y: float(np.linalg.norm(y))
    limit = BLOWUP_FACTOR * np.maximum.reduce([norm_fn(y) for y in ys])
    # [()] keeps one limit a scalar, which ab5_step compares faster
    limit = np.where(limit > 0, limit, np.inf)[()]
    return ABState(delta=delta, rhs=rhs, t=times[-1], y=ys[-1], ring=ring,
                   norm_fn=norm_fn, norm_limit=limit)


def ab5_step(state: ABState) -> np.ndarray:
    """Advance one step; the oldest slope is overwritten and the new y returned."""
    slot = state.slot
    y = state.y + (state.weights[slot] @ state.flat).reshape(state.y.shape)
    t = state.t + state.delta
    # ufuncs and array methods: np.all and np.any add a wrapper call on
    # every step; np.greater also gives an array for a float norm and limit
    if state.norm_fn is not None and (
            not np.isfinite(y).all()
            or np.greater(state.norm_fn(y), state.norm_limit).any()):
        raise blowup_at(t)
    state.ring[slot] = state.rhs(t, y)
    state.t, state.y, state.slot = t, y, (slot + 1) % 5
    return y


# test-only: kept for perfbench/traced.py until the next benchmark change
def extend_trajectory(traj: Trajectory, rhs, t_final: float,
                      norm_fn=None, substeps: int = 1) -> Trajectory:
    """Extend a trajectory to ``t_final`` with AB5, keeping its output grid.

    With ``substeps`` = 1 the buffer seeds from the trajectory's last five
    points.  With refinement the scheme steps internally at delta/substeps
    (bootstrapped by four classical Runge-Kutta substeps from the endpoint)
    and records states every ``substeps`` steps, so the returned grid still
    has spacing delta.
    """
    t1 = traj.times[-1]
    if t_final < t1 - 1e-12:
        raise ValueError("extension target lies before the trajectory end")
    n_out = int(round((t_final - t1) / traj.delta))
    if abs(t1 + n_out * traj.delta - t_final) > 1e-9:
        raise ValueError("delta must tile the extension interval")
    if n_out == 0:
        return traj

    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    new_states = np.empty((n_out, traj.states.shape[1]))
    if substeps == 1:
        if len(traj.times) < 5:
            raise ValueError("need five history points to start the scheme")
        state = ab5_init(traj.times[-5:], traj.states[-5:], rhs, norm_fn=norm_fn)
        for i in range(n_out):
            new_states[i] = ab5_step(state)
    else:
        # bootstrap four internal Runge-Kutta substeps, then run AB5 at the
        # refined step, recording every substeps-th state on the output grid
        dd = traj.delta / substeps
        n_sub = n_out * substeps
        y = traj.states[-1]
        hist_t, hist_y = [t1], [y]
        idx = 0
        for i in range(min(4, n_sub)):
            y = _rk4_step(rhs, t1 + i * dd, y, dd)
            hist_t.append(t1 + (i + 1) * dd)
            hist_y.append(y)
            if (i + 1) % substeps == 0:
                new_states[idx] = y
                idx += 1
        if n_sub > 4:
            state = ab5_init(hist_t, hist_y, rhs, norm_fn=norm_fn)
            for i in range(4, n_sub):
                y = ab5_step(state)
                if (i + 1) % substeps == 0:
                    new_states[idx] = y
                    idx += 1

    times = np.concatenate([traj.times, t1 + traj.delta * np.arange(1, n_out + 1)])
    states = np.vstack([traj.states, new_states])
    return Trajectory(times=times, states=states, delta=traj.delta)


# test-only: kept for perfbench/traced.py until the next benchmark change
def _rk4_step(rhs, t, y, dt):
    k1 = rhs(t, y)
    k2 = rhs(t + dt / 2, y + dt / 2 * k1)
    k3 = rhs(t + dt / 2, y + dt / 2 * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


# test-only: kept for perfbench/traced.py until the next benchmark change
def semilinear_rhs(ops, forcing):
    """Right-hand side t, y -> A y + (0, f(u, v)) for the multistep scheme."""
    n = ops.mesh.n

    def rhs(t, y):
        u, v = y[:n], y[n:]
        acc = -ops.solve_mass(ops.apply_stiffness(u)) + forcing.coefficients(ops, u, v)
        return np.concatenate([v, acc])

    return rhs
