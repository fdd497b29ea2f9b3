"""Piecewise-linear finite elements on an equipartitioned grid over (0, 1).

Everything here works with homogeneous Dirichlet conditions, imposed by
keeping only the interior nodes as degrees of freedom.  The assembled
operators (mass, stiffness, and the rank-4 hat-product tensor) are exact:
all entries come from closed-form integration of piecewise-linear products,
not from quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    @property
    def nodes_full(self) -> np.ndarray:
        """All grid points including both boundary points."""
        return np.concatenate(([0.0], self.nodes, [1.0]))

    def element_gauss(self, npts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gauss-Legendre rule mapped to every element.

        Returns ``(x, xi, w)`` where ``x`` has shape (n+1, npts) with the
        physical quadrature points per element, ``xi`` the reference
        coordinates in (0, 1) and ``w`` the reference weights (summing to 1;
        multiply by ``h`` for physical measure).
        """
        xi, w = gauss_rule(npts)
        left = self.nodes_full[:-1]
        return left[:, None] + self.h * xi[None, :], xi, w


@lru_cache(maxsize=None)
def gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``npts``-point Gauss-Legendre rule on (0, 1): the abscissae
    and the weights (summing to 1), built once per ``npts``."""
    gp, gw = np.polynomial.legendre.leggauss(npts)
    xi, w = 0.5 * (gp + 1.0), 0.5 * gw
    for a in (xi, w):
        a.flags.writeable = False
    return xi, w


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


# elements per block of a batched ``QuarticTensor.contract``: 2^14 beat 2^12,
# 2^13, 2^15, 2^16 and no blocking on (2001, 99) and (2001, 499) inputs, one
# thread on a Xeon with 2 MiB of L2 per core (5.2 and 25 ms against 12.5 and 58)
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
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        h = mesh.h
        # int over one element of phi_a^i phi_b^(4-i) = h * i!(4-i)!/5!
        self.value_aaaa = 2 * h / 5.0   # all four equal (two elements contribute h/5)
        self.value_aaab = h / 20.0      # 3-1 split inside one element
        self.value_aabb = h / 30.0      # 2-2 split inside one element

    def entry(self, p: int, q: int, r: int, s: int) -> float:
        """Single entry lookup (1-based interior node indices)."""
        idx = sorted((p, q, r, s))
        if idx[0] < 1 or idx[-1] > self.mesh.n:
            raise IndexError("index out of range")
        if idx[-1] - idx[0] > 1:
            return 0.0
        if idx[0] == idx[-1]:
            return self.value_aaaa
        lo = sum(1 for i in idx if i == idx[0])
        if lo in (1, 3):
            return self.value_aaab
        return self.value_aabb

    def contract(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """out[p] = sum_{q,r,s} T[p,q,r,s] a[q] b[r] c[s].

        Accepts batched inputs with the node axis last.  This is the load
        vector of the product (sum a phi)(sum b phi)(sum c phi) against the
        hat basis, exact for the cubic integrand.
        """
        a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
        if a.shape == b.shape == c.shape and a.size <= _BLOCK:
            return self._contract_rows(a, b, c, np.empty(a.shape))
        a, b, c = np.broadcast_arrays(a, b, c)
        out, rows = np.empty(a.shape), max(1, _BLOCK // a.shape[-1])
        flat = [x.reshape(-1, a.shape[-1]) for x in (a, b, c, out)]
        for i in range(0, len(flat[0]), rows):
            self._contract_rows(*(x[i:i + rows] for x in flat))
        return out

    def _contract_rows(self, a, b, c, out):
        """``contract`` of equal-shape rows into ``out``, by the class formula."""
        v31, v22 = self.value_aaab, self.value_aabb
        ab = a * b
        np.multiply(self.value_aaaa * ab, c, out)
        abL, abR, cL, cR = ab[..., :-1], ab[..., 1:], c[..., :-1], c[..., 1:]
        s = a[..., :-1] * b[..., 1:]
        s += a[..., 1:] * b[..., :-1]
        x = v31 * (abL + abR) + v22 * s
        s *= v31
        out[..., :-1] += cL * (s + v22 * abR) + cR * x
        out[..., 1:] += cL * x + cR * (v22 * abL + s)
        return out


def _pad(x: np.ndarray) -> np.ndarray:
    """Append the zero boundary values on both ends of the node axis."""
    x = np.asarray(x, dtype=float)
    z = np.zeros(x.shape[:-1] + (1,))
    return np.concatenate([z, x, z], axis=-1)


@dataclass(eq=False)
class SpatialOperators:
    """Assembled mass/stiffness matrices and the quartic hat tensor.

    The tridiagonal matrices are stored by their diagonals; dense copies are
    built on demand.  The consistent (non-lumped) mass matrix is kept.  The
    discrete sine modes diagonalize it and the stiffness together; their
    matrix and eigenvalues are built once, read-only, and carry every solve
    with M.  Instances are immutable in practice.
    """

    mesh: Mesh
    mass_diag: np.ndarray
    mass_off: np.ndarray
    stiffness_diag: np.ndarray
    stiffness_off: np.ndarray
    quartic: QuarticTensor

    # -- dense views -------------------------------------------------------
    def mass_matrix(self) -> np.ndarray:
        return _tridiag_dense(self.mass_diag, self.mass_off)

    def stiffness_matrix(self) -> np.ndarray:
        return _tridiag_dense(self.stiffness_diag, self.stiffness_off)

    # -- fast tridiagonal actions (batched over leading axes) ---------------
    def apply_mass(self, u: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.mass_diag, self.mass_off, u)

    def apply_stiffness(self, u: np.ndarray) -> np.ndarray:
        return _tridiag_apply(self.stiffness_diag, self.stiffness_off, u)

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

    def max_generalized_eigenvalue(self) -> float:
        """Largest lambda with K v = lambda M v (the top sine mode)."""
        mu, kappa = self.sine_eigenvalues()
        return float(kappa[-1] / mu[-1])


def _tridiag_dense(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


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


def l2_project(ops: SpatialOperators, g, npts: int = 4) -> np.ndarray:
    """L^2 projection of ``g`` onto the hat-function space: solve M c = (g, phi_i).

    The load is integrated with ``npts``-point Gauss per element (default 4,
    exact through degree 7, so quintic integrands carry no quadrature error).
    """
    load = hat_load(ops.mesh, g, npts=npts)
    return ops.solve_mass(load)


def hat_load(mesh: Mesh, g, npts: int = 4) -> np.ndarray:
    """Load vector (g, phi_i) by per-element Gauss quadrature."""
    x, xi, w = mesh.element_gauss(npts)
    vals = np.asarray(g(x), dtype=float)
    return hat_load_from_values(mesh, vals, xi, w)


def hat_load_from_values(mesh: Mesh, vals: np.ndarray, xi: np.ndarray,
                         w: np.ndarray) -> np.ndarray:
    """Assemble (f, phi_i) from integrand samples at element Gauss points.

    ``vals`` has shape (..., n+1, npts) matching ``mesh.element_gauss``.
    """
    h = mesh.h
    sL = h * np.sum(vals * ((1.0 - xi) * w), axis=-1)
    sR = h * np.sum(vals * (xi * w), axis=-1)
    return sL[..., 1:] + sR[..., :-1]


def values_at_gauss(mesh: Mesh, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate the nodal field ``u`` at the per-element Gauss points.

    ``u`` may be batched with the node axis last; the result gains the two
    trailing axes (element, gauss point).
    """
    up = _pad(u)
    uL, uR = up[..., :-1], up[..., 1:]
    return uL[..., None] * (1.0 - xi) + uR[..., None] * xi

