"""Classical RK4 on the oscillator family, an allocating loop bit-identical
to the in-place kernel the oracle stepped by before Lawson RK4 replaced it.

It is the classical reference of the pinning test in
``tests/test_oracle_step.py`` and of the stability-sweep and pointwise
cross-checks in ``tests/test_oracle.py``."""

import numpy as np


def allocating_rk4(neg_lam, coeff, m, y, h, nsteps, after):
    """Classical RK4 on x'' = neg_lam x - coeff x^{2m} x' with a fresh array
    per operation; ``after(i, y)`` runs after step i on a state that the loop
    leaves alone, and true stops the loop."""
    stages = np.empty((4,) + y.shape)

    def slope(z, out):
        p, q = z
        p2 = p * p   # x^{2m} by squaring; p * p equals p**2 bit for bit
        out[0] = q
        np.subtract(neg_lam * p, coeff * (p2 if m == 1 else p2**m) * q, out=out[1])
        return out

    half_h = 0.5 * h
    for i in range(1, nsteps + 1):
        k1 = slope(y, stages[0])
        k2 = slope(y + half_h * k1, stages[1])
        k3 = slope(y + half_h * k2, stages[2])
        k4 = slope(y + h * k3, stages[3])
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        if after(i, y):
            break
