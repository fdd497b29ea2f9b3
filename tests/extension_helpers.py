"""Collect the streamed AB5 extension into full trajectories for tests."""

import numpy as np

from degenwave.experiments import extend_with_ab5
from degenwave.linwave import Trajectory
from reference import nodal_trajectory


def extended(trajs, ops, forcing, t_final) -> list:
    """Each of ``trajs`` continued to ``t_final`` by one ``extend_with_ab5``
    call, as a ``Trajectory`` holding its input rows and the observed ones,
    synthesized from the amplitudes on each run's modes."""
    t1, delta, prop = trajs[0].times[-1], trajs[0].delta, trajs[0].propagator
    n_out = max(int(round((t_final - t1) / delta)), 0)
    new = np.empty((len(trajs), n_out, 2 * len(prop.omega)))

    def observe(j0, block):
        for rows, (modes, z) in zip(new, block):
            rows[j0:j0 + len(z)] = prop.restrict(modes).nodal(z)

    extend_with_ab5(trajs, ops, forcing, t_final, observe)
    times = t1 + delta * np.arange(1, n_out + 1)
    return [Trajectory(times=np.concatenate([tr.times, times]),
                       states=np.vstack([nodal_trajectory(tr).states, rows]),
                       delta=delta)
            for tr, rows in zip(trajs, new)]
