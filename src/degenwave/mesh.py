"""Piecewise-linear finite elements on an equipartitioned grid over (0, 1).

Everything here works with homogeneous Dirichlet conditions, imposed by
keeping only the interior nodes as degrees of freedom.  The assembled
operators (mass, stiffness, and the rank-4 hat-product tensor) and the
power loads are exact: all entries come from closed-form integration of
piecewise-linear products, not from quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np


@dataclass(frozen=True, eq=False)
class Mesh:
    """Uniform grid on (0, 1) with ``n`` interior nodes and spacing ``h``.

    ``nodes`` holds only the interior nodes x_i = i*h, i = 1..n; the
    endpoints 0 and 1 carry no degrees of freedom.
    """

    n: int
    h: float
    nodes: np.ndarray


def build_mesh(n: int) -> Mesh:
    """Build the uniform mesh with ``n`` interior nodes (h = 1/(n+1))."""
    if n < 1:
        raise ValueError("need at least one interior node")
    h = 1.0 / (n + 1)
    return Mesh(n=n, h=h, nodes=h * np.arange(1, n + 1))


def whole_steps(length: float, step: float, message: str, least: int = 1) -> int:
    """The number of steps ``step`` in ``length``, the one grid rule of the
    package: the step must be positive and the count a whole number, to 1e-9
    in ``length``, and at least ``least``; otherwise ``ValueError(message)``,
    also for an infinite or NaN length or step."""
    ratio = length / step if 0 < step < np.inf else np.nan
    if not abs(ratio) < np.inf:   # false for NaN too
        raise ValueError(message)
    count = round(ratio)
    if count < least or abs(count * step - length) > 1e-9:
        raise ValueError(message)
    return count


def mesh_from_h(h: float) -> Mesh:
    """Mesh whose element size is (the nearest representable) ``h``."""
    elements = whole_steps(1.0, h, f"1/h = {1.0 / h} is not close to an integer")
    return build_mesh(elements - 1)


# elements per block of a batched ``QuarticTensor.contract``, and the length
# of its five scratch rows: with the flat kernel, one thread on a Xeon with
# 2 MiB of L2 per core, 2^14 kept the lowest median of 2^12-2^17 and no
# blocking (2.1 and 10.2 ms on (2001, 99) and (2001, 499) inputs, against
# 2.2 and 12.1 at 2^13, 2.3 and 14.0 at 2^15, 3.4-4.0 and 25-31 unblocked)
# and tied 2^13-2^15 on Picard's (129, 499) blocks (0.81-0.85 ms)
_BLOCK = 2**14


class QuarticTensor:
    """Rank-4 tensor of hat-function products, T[p,q,r,s] = int phi_p phi_q phi_r phi_s.

    An entry is nonzero only when all four indices fall inside one element,
    i.e. they take at most two adjacent values.  Up to permutations that
    leaves three distinct values, stored explicitly.  A contraction gives
    every node value_aaaa a b c; with ab = a b, s = aL bR + aR bL and
    X = v31 (abL + abR) + v22 s, each interior element (i, i+1) adds
    cL (v31 s + v22 abR) + cR X at node i and cL X + cR (v22 abL + v31 s) at
    node i+1.  A boundary element adds nothing more: one of its nodes is 0.
    ``contract`` evaluates this in blocks of ``_BLOCK`` elements, each
    block's rows flattened so that every neighbour slice is contiguous and
    every intermediate lands in a reused scratch row; the result equals the
    row-by-row evaluation bit for bit.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        h = mesh.h
        # int over one element of phi_a^i phi_b^(4-i) = h * i!(4-i)!/5!
        self.value_aaaa = 2 * h / 5.0   # all four equal (two elements contribute h/5)
        self.value_aaab = h / 20.0      # 3-1 split inside one element
        self.value_aabb = h / 30.0      # 2-2 split inside one element

    def contract(self, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """out[p] = sum_{q,r,s} T[p,q,r,s] a[q] b[r] c[s].

        Accepts batched inputs with the node axis last.  This is the load
        vector of the product (sum a phi)(sum b phi)(sum c phi) against the
        hat basis, exact for the cubic integrand, into ``out`` (C-contiguous) if given.
        """
        a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
        if not a.shape == b.shape == c.shape:
            a, b, c = np.broadcast_arrays(a, b, c)
        n = a.shape[-1]
        out = np.empty(a.shape) if out is None else out
        rows = [x.reshape(-1, n) for x in (a, b, c, out)]
        block = max(1, _BLOCK // n)
        work = np.empty((5, min(block, len(rows[0])) * n))
        for i in range(0, len(rows[0]), block):
            self._contract_rows(*(np.ascontiguousarray(x[i:i + block])
                                  for x in rows[:3]), rows[3][i:i + block], work)
        return out

    def _contract_rows(self, a, b, c, out, work):
        """``contract`` of C-contiguous (rows, n) blocks into ``out``.

        The rows are flattened, so each neighbour slice is a contiguous 1-D
        view, and every intermediate goes into a row of ``work`` (at least
        a.size long) in the operand order of the class formula.  The one
        "element" that straddles each seam of two rows is spurious; it is
        set to -0.0, the additive identity even for a -0.0 sum, before it
        is accumulated, so each row's result is that of the row alone.
        """
        n = a.shape[-1]
        a, b, c, out = (x.reshape(-1) for x in (a, b, c, out))
        v31, v22 = self.value_aaab, self.value_aabb
        ab = np.multiply(a, b, work[0, :a.size])
        np.multiply(out, c, np.multiply(self.value_aaaa, ab, out))
        s, x, t, w = work[1:, :a.size - 1]
        abL, abR, cL, cR = ab[:-1], ab[1:], c[:-1], c[1:]
        np.add(np.multiply(a[:-1], b[1:], s), np.multiply(a[1:], b[:-1], t), s)
        np.add(np.multiply(v31, np.add(abL, abR, x), x),
               np.multiply(v22, s, t), x)
        s *= v31
        # cL (s + v22 abR) + cR x at the left node of each element
        np.multiply(cL, np.add(s, np.multiply(v22, abR, t), t), t)
        np.add(t, np.multiply(cR, x, w), t)
        t[n - 1::n] = -0.0
        np.add(out[:-1], t, out[:-1])
        # cL x + cR (v22 abL + s) at the right node
        np.multiply(cR, np.add(np.multiply(v22, abL, t), s, t), t)
        np.add(np.multiply(cL, x, w), t, t)
        t[n - 1::n] = -0.0
        np.add(out[1:], t, out[1:])
        return out


def _pad(x: np.ndarray) -> np.ndarray:
    """Append the zero boundary values on both ends of the node axis."""
    x = np.asarray(x, dtype=float)
    z = np.zeros(x.shape[:-1] + (1,))
    return np.concatenate([z, x, z], axis=-1)


def power_load(mesh: Mesh, x: np.ndarray, p: int, v: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """The exact load (x^p v, phi_i), p >= 1, of the interpolants of the
    nodal ``x`` and ``v`` (batched, node axis last), into ``out`` if given.

    On an element with ends xL, xR and vL, vR, the moments of x^p v against
    the hats are Beta integrals int_0^1 (1-s)^a s^b ds = a! b!/(a+b+1)!.
    With e_k = xL^(p-k) xR^k and A, B, C its sums weighted by (p-k+1)(p-k+2),
    (p-k+1)(k+1) and (k+1)(k+2), the element adds h p!/(p+3)! times
    vL A + vR B at its left node and vL B + vR C at its right one (at p = 2,
    ``QuarticTensor``'s weights).
    """
    xp, vp = _pad(x), _pad(v)
    powers = [None, xp]
    for _ in range(p - 1):
        powers.append(powers[-1] * xp)
    e = np.empty((p + 1,) + xp[..., 1:].shape)
    e[0], e[p] = powers[p][..., :-1], powers[p][..., 1:]
    for k in range(1, p):
        np.multiply(powers[p - k][..., :-1], powers[k][..., 1:], e[k])
    k = np.arange(p + 1.0)
    weights = np.array([(p - k + 1) * (p - k + 2), (p - k + 1) * (k + 1), (k + 1) * (k + 2)])
    a, b, c = np.tensordot(weights * (mesh.h * factorial(p) / factorial(p + 3)), e, 1)
    vL, vR = vp[..., :-1], vp[..., 1:]
    out = np.empty(np.shape(v)) if out is None else out
    return np.add((vL * a + vR * b)[..., 1:], (vL * b + vR * c)[..., :-1], out)


@dataclass(eq=False)
class SpatialOperators:
    """Assembled mass/stiffness matrices and the quartic hat tensor.

    The tridiagonal matrices are stored by their diagonals.  The consistent
    (non-lumped) mass matrix is kept.  The discrete sine modes diagonalize
    it and the stiffness together; their matrix and eigenvalues are built
    once, read-only, and carry every solve with M.  Instances are immutable
    in practice.
    """

    mesh: Mesh
    mass_diag: np.ndarray
    mass_off: np.ndarray
    stiffness_diag: np.ndarray
    stiffness_off: np.ndarray
    quartic: QuarticTensor

    # -- fast tridiagonal actions (batched over leading axes) ---------------
    def apply_mass(self, u: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.mass_diag, self.mass_off, u)

    def apply_stiffness(self, u: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.stiffness_diag, self.stiffness_off, u)

    # test-only: kept for perfbench/traced.py until the next benchmark change
    def solve_mass(self, b: np.ndarray) -> np.ndarray:
        """Solve M x = b; ``b`` may be batched with the node axis last.

        S M S = diag(mu), so x = S ((S b) / mu): two dense products, no
        factorization.  Inputs are not checked for finiteness; the solvers
        guard their own states.
        """
        sine, mu, _ = self._sine_modes
        return ((np.asarray(b, dtype=float) @ sine) / mu) @ sine

    # -- the discrete sine modes ---------------------------------------------
    @cached_property
    def _sine_modes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, h = self.mesh.n, self.mesh.h
        idx = np.arange(1, n + 1)
        angle = np.pi * h * idx
        mu = (h / 3.0) * (2.0 + np.cos(angle))
        kappa = (4.0 / h) * np.sin(0.5 * angle) ** 2
        phase = np.outer(idx, idx) % (2 * (n + 1))
        sine = np.sqrt(2.0 * h) * np.sin(np.pi * h * phase)
        for a in (sine, mu, kappa):
            a.flags.writeable = False
        return sine, mu, kappa

    def sine_eigenvalues(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenvalues (mu_j, kappa_j), j = 1..n, of M and K on the
        sine vectors.

        Both matrices are Toeplitz tridiagonal, so the discrete sine vectors
        diagonalize them simultaneously:
        mu_j = (h/3)(2 + cos j pi h) and kappa_j = (2/h)(1 - cos j pi h),
        the latter evaluated as (4/h) sin^2(j pi h/2) to avoid cancellation
        for the low modes.
        """
        return self._sine_modes[1:]

    def sine_basis(self) -> np.ndarray:
        """Read-only orthonormal sine matrix S[i, j] = sqrt(2h) sin(i j pi h).

        S is symmetric with S @ S = I; its columns are the eigenvectors
        belonging to ``sine_eigenvalues``.  The product i*j is reduced modulo
        the period 2(n+1) before the sine is taken.
        """
        return self._sine_modes[0]


def _tridiag_apply(d, e, u):
    u = np.asarray(u, dtype=float)
    out = d * u
    out[..., :-1] += e * u[..., 1:]
    out[..., 1:] += e * u[..., :-1]
    return out


def assemble(mesh: Mesh) -> SpatialOperators:
    """Assemble mass, stiffness and the quartic tensor on ``mesh``.

    M is tridiag(h/6, 2h/3, h/6) and K is tridiag(-1/h, 2/h, -1/h); both are
    exact integrals of hat-function products.
    """
    n, h = mesh.n, mesh.h
    return SpatialOperators(
        mesh=mesh,
        mass_diag=np.full(n, 2.0 * h / 3.0),
        mass_off=np.full(n - 1, h / 6.0),
        stiffness_diag=np.full(n, 2.0 / h),
        stiffness_off=np.full(n - 1, -1.0 / h),
        quartic=QuarticTensor(mesh),
    )
