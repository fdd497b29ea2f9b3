"""The allocating cubic-load formula on 2-D rows, kept as the bit-level
reference of ``mesh.QuarticTensor._contract_rows``, which evaluates the same
expressions in place on the flattened rows."""

import numpy as np


def allocating_contract(quartic, a, b, c):
    """out[p] = sum_{q,r,s} T[p,q,r,s] a[q] b[r] c[s] by the class formula,
    with a fresh array per operation on strided neighbour views of the
    rows; the inputs broadcast to one shape with the node axis last."""
    a, b, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c)))
    v31, v22 = quartic.value_aaab, quartic.value_aabb
    ab = a * b
    out = (quartic.value_aaaa * ab) * c
    abL, abR, cL, cR = ab[..., :-1], ab[..., 1:], c[..., :-1], c[..., 1:]
    s = a[..., :-1] * b[..., 1:]
    s += a[..., 1:] * b[..., :-1]
    x = v31 * (abL + abR) + v22 * s
    s *= v31
    out[..., :-1] += cL * (s + v22 * abR) + cR * x
    out[..., 1:] += cL * x + cR * (v22 * abL + s)
    return out
