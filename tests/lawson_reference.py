"""The allocating Lawson RK4 loop of the oracle, kept as the bit-level
reference of ``oracle._lawson_oscillators``, which evaluates the same
expressions in place."""

import numpy as np


def allocating_lawson(omega, coeff, m, z, h, nsteps, after, every=1):
    """Lawson RK4 on z = omega x + i x' for x'' = -omega^2 x - coeff x^{2m}
    x', with a fresh array per operation; ``after(i, z)`` runs after every
    ``every``-th step i on a state that the loop leaves alone, and true
    stops the loop."""
    half = np.exp(-0.5j * h * omega)   # E = exp(-i omega h / 2)
    full = half * half
    scaled = -coeff / omega ** (2 * m)

    def slope(a):
        """N(a) = -i coeff x^{2m} x' with x = Re a / omega, x' = Im a."""
        p2 = a.real * a.real
        k = np.zeros(np.shape(a), complex)
        k.imag = scaled * (p2 if m == 1 else np.power(p2, m)) * a.imag
        return k

    for i in range(1, nsteps + 1):
        ez = half * z
        k1 = slope(z)
        k2 = slope(ez + (0.5 * h) * half * k1)
        k3 = slope(ez + 0.5 * h * k2)
        ez2 = full * z
        k4 = slope(ez2 + h * half * k3)
        z = ((ez2 + (h / 6.0) * full * k1) + (h / 3.0) * half * (k2 + k3)
             ) + h / 6.0 * k4
        if i % every == 0 and after(i, z):
            break
