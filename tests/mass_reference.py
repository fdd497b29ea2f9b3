"""An independent solve with the consistent mass matrix, for tests."""

import numpy as np
from scipy.linalg import solveh_banded


def banded_mass_solve(ops, b):
    """M x = b by SciPy's banded solver; ``b`` is batched with the node
    axis last."""
    n = ops.mesh.n
    ab = np.vstack([np.concatenate([[0.0], ops.mass_off]), ops.mass_diag])
    # SciPy's tridiagonal path rejects n = 1, where M is its diagonal alone
    x = solveh_banded(ab[-1:] if n == 1 else ab, b.reshape(-1, n).T)
    return x.T.reshape(b.shape)
