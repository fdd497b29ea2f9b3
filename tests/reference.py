"""Definitions that only tests call, beside the ones a run executes.

Dense copies of the assembled operators, single tensor entries, per-element
Gauss quadrature and the L^2 projection on it, nodal trajectories read in
blocks, the nodal form of the Duhamel sweep and the linear solver built on
it, and the diagnostics that compare a run with the undamped flow, with
an analytic field or with the a priori contraction bound.  A ``degenwave``
run uses none of them; the tests hold the package's fast paths against
them.
"""

from functools import lru_cache

import numpy as np

from degenwave.experiments import EXTENSION_BLOCK, EnergyTrace, _extension_grid
from degenwave.linop import matrix_exponential
from degenwave.linwave import BLOCK_ROWS, BOOLE_WEIGHTS, Trajectory, sweep
from degenwave.mesh import _pad, whole_steps
from degenwave.multistep import BlowupError, ab5_init, ab5_step, blowup_at


# -- dense views of the assembled operators ------------------------------------

def _tridiag_dense(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def dense_mass(ops) -> np.ndarray:
    return _tridiag_dense(ops.mass_diag, ops.mass_off)


def dense_stiffness(ops) -> np.ndarray:
    return _tridiag_dense(ops.stiffness_diag, ops.stiffness_off)


def max_generalized_eigenvalue(ops) -> float:
    """Largest lambda with K v = lambda M v (the top sine mode)."""
    mu, kappa = ops.sine_eigenvalues()
    return float(kappa[-1] / mu[-1])


def quartic_entry(quartic, p: int, q: int, r: int, s: int) -> float:
    """Single entry of the ``QuarticTensor`` (1-based interior node indices)."""
    idx = sorted((p, q, r, s))
    if idx[0] < 1 or idx[-1] > quartic.mesh.n:
        raise IndexError("index out of range")
    if idx[-1] - idx[0] > 1:
        return 0.0
    if idx[0] == idx[-1]:
        return quartic.value_aaaa
    lo = sum(1 for i in idx if i == idx[0])
    if lo in (1, 3):
        return quartic.value_aaab
    return quartic.value_aabb


# -- quadrature, loads and projection -------------------------------------------

def nodes_full(mesh) -> np.ndarray:
    """All grid points including both boundary points."""
    return np.concatenate(([0.0], mesh.nodes, [1.0]))


@lru_cache(maxsize=None)
def gauss_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``npts``-point Gauss-Legendre rule on (0, 1): the abscissae
    and the weights (summing to 1), built once per ``npts``."""
    gp, gw = np.polynomial.legendre.leggauss(npts)
    xi, w = 0.5 * (gp + 1.0), 0.5 * gw
    for a in (xi, w):
        a.flags.writeable = False
    return xi, w


def element_gauss(mesh, npts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule mapped to every element.

    Returns ``(x, xi, w)`` where ``x`` has shape (n+1, npts) with the
    physical quadrature points per element, ``xi`` the reference
    coordinates in (0, 1) and ``w`` the reference weights (summing to 1;
    multiply by ``h`` for physical measure).
    """
    xi, w = gauss_rule(npts)
    return nodes_full(mesh)[:-1, None] + mesh.h * xi[None, :], xi, w


def values_at_gauss(mesh, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate the nodal field ``u`` at the per-element Gauss points.

    ``u`` may be batched with the node axis last; the result gains the two
    trailing axes (element, gauss point).
    """
    up = _pad(u)
    uL, uR = up[..., :-1], up[..., 1:]
    return uL[..., None] * (1.0 - xi) + uR[..., None] * xi


def hat_load_from_values(mesh, vals: np.ndarray, xi: np.ndarray,
                         w: np.ndarray) -> np.ndarray:
    """Assemble (f, phi_i) from integrand samples at element Gauss points.

    ``vals`` has shape (..., n+1, npts) matching ``element_gauss``.
    """
    h = mesh.h
    sL = h * np.sum(vals * ((1.0 - xi) * w), axis=-1)
    sR = h * np.sum(vals * (xi * w), axis=-1)
    return sL[..., 1:] + sR[..., :-1]


def hat_load(mesh, g, npts: int = 4) -> np.ndarray:
    """Load vector (g, phi_i) by per-element Gauss quadrature."""
    x, xi, w = element_gauss(mesh, npts)
    vals = np.asarray(g(x), dtype=float)
    return hat_load_from_values(mesh, vals, xi, w)


def l2_project(ops, g, npts: int = 4) -> np.ndarray:
    """L^2 projection of ``g`` onto the hat-function space: solve M c = (g, phi_i).

    The load is integrated with ``npts``-point Gauss per element (default 4,
    exact through degree 7, so quintic integrands carry no quadrature error).
    """
    load = hat_load(ops.mesh, g, npts=npts)
    return ops.solve_mass(load)


# -- nodal states -----------------------------------------------------------------

def theta(prop) -> float:
    """The spacing step/(points-1) of the propagator's sub-step phases."""
    return prop.step / (prop.points - 1)


class NodalTrajectory(Trajectory):
    """A ``Trajectory`` that ``oracle.reference_errors`` reads, as it reads
    a ``ModalTrajectory``, block by block."""

    def blocks(self, size: int = BLOCK_ROWS, start: int = 0, stop: int | None = None):
        """The rows ``start``..``stop``-1 in consecutive blocks of at most
        ``size`` rows."""
        stop = len(self.times) if stop is None else stop
        for a in range(start, stop, size):
            yield self.states[a:min(a + size, stop)]


def nodal_sweep(prop, y0: np.ndarray, f_absc: np.ndarray) -> np.ndarray:
    """``sweep`` from the nodal state ``y0`` with the loads ``f_absc``: the
    (nsteps+1, 2n) states on the modes of ``prop``, row 0 being ``y0``
    itself.  A load broadcast along time (first-axis stride 0) is
    transformed as one row."""
    g = prop.forcing_modes(f_absc[:1] if f_absc.strides[0] == 0 else f_absc)
    g = np.broadcast_to(g, (len(f_absc), g.shape[1]))
    states = prop.nodal(sweep(prop, prop.modal(y0), g))
    states[0] = y0
    return states


def nodal_trajectory(traj) -> NodalTrajectory:
    """Every row of a ``ModalTrajectory`` as a nodal ``Trajectory``."""
    return NodalTrajectory(times=traj.times.copy(),
                           states=traj.rows(0, len(traj.times)), delta=traj.delta)


def solve_linear_inhomogeneous(ops, y0: np.ndarray, forcing, t_final: float,
                               delta: float, t0: float = 0.0) -> Trajectory:
    """Integrate y' = A y + (0, f(t)) over [t0, t_final] on a uniform grid.

    ``forcing`` is a callable mapping an array of times to the (len, n) array
    of forcing coefficient vectors; it is evaluated at the quadrature
    abscissae, and ``sweep`` gets their loads M f.  The homogeneous part is
    advanced by the exact per-mode rotations of the propagator.
    """
    nsteps = whole_steps(t_final - t0, delta, "the step must tile the interval")
    propagator = matrix_exponential(ops, delta)
    absc = t0 + theta(propagator) * np.arange((len(BOOLE_WEIGHTS) - 1) * nsteps + 1)
    f_absc = ops.apply_mass(np.asarray(forcing(absc), dtype=float))
    states = nodal_sweep(propagator, y0, f_absc)
    times = t0 + delta * np.arange(nsteps + 1)
    return Trajectory(times=times, states=states, delta=delta)


# -- the AB5 extension on every mode -------------------------------------------------

def extend_on_all_modes(trajs: list, ops, forcing, t_final: float, observe) -> None:
    """``experiments.extend_with_ab5`` on every sine mode, with nodal rows.

    The same AB5 in the rotating sine frame from the same seed rows, but
    every step synthesizes all n modes, takes the forcing's load at the
    nodes and transforms it back onto all of them, so no mode is left out
    and none needs detecting.  ``observe(j0, block)`` gets the nodal rows,
    ``block`` of shape (len(trajs), b, 2n).
    """
    t1, delta, n_out = _extension_grid(trajs, t_final)
    if min(len(tr.times) for tr in trajs) < 5:
        raise ValueError("need five history points to start the scheme")
    propagator = trajs[0].propagator
    n, omega = ops.mesh.n, propagator.omega
    block = np.empty((len(trajs), min(n_out, EXTENSION_BLOCK), 2 * n))
    neg_i_omega = -1j * omega

    def rhs(j, y):
        phase = np.exp((j * delta) * neg_i_omega)
        state = propagator.nodal(phase * y.view(complex))
        if j > 0:
            block[:, (int(j) - 1) % EXTENSION_BLOCK] = state
        g = propagator.forcing_modes(forcing.load(ops, state[:, :n], state[:, n:]))
        return (1j * delta * phase.conj() * g).view(float)

    steps = np.arange(-4.0, 1.0)
    z0 = np.stack([tr.amplitudes(len(tr.times) - 5, len(tr.times))
                   for tr in trajs], axis=1)
    w = np.exp(1j * delta * steps[:, None, None] * omega) * z0
    half_mu = np.repeat(0.5 * propagator.mu, 2)
    ab = ab5_init(steps, w.view(float), rhs,
                  norm_fn=lambda y: (y * y) @ half_mu)
    for j0 in range(0, n_out, EXTENSION_BLOCK):
        b = min(EXTENSION_BLOCK, n_out - j0)
        try:
            for _ in range(b):
                ab5_step(ab)
        except BlowupError:
            raise blowup_at(t1 + (ab.times[-1] + 1) * delta) from None
        observe(j0, block[:, :b])


# -- diagnostics --------------------------------------------------------------------

def conservative_comparison(run, ops) -> EnergyTrace:
    """Energy history of z = u - w, with w the undamped solution of the
    same initial data.

    Starting from identical data z(0) = 0, the gap isolates what the damping
    did; it stays small for high frequencies, which is what keeps the damped
    solution's energy pinned near one there.  w rotates at the mesh's own
    modal frequency (the exact undamped solution of the discrete system, so
    z carries no dispersion).
    """
    traj = nodal_trajectory(run.trajectory)
    mesh = ops.mesh
    u0 = run.data.y0[: mesh.n]
    # sine samples are exact eigenvectors of the (K, M) pencil
    mu, kappa = ops.sine_eigenvalues()
    w = np.sqrt(kappa[run.k - 1] / mu[run.k - 1])
    t = traj.times[:, None]
    ref = np.concatenate([np.cos(w * t) * u0, -w * np.sin(w * t) * u0], axis=1)
    diff = Trajectory(traj.times, traj.states - ref, traj.delta)
    return EnergyTrace.from_trajectory(diff, ops)


def continuum_energy_error(mesh, state: np.ndarray, ux_exact, v_exact,
                           npts: int = 6) -> float:
    """Energy-norm distance between a nodal state and an analytic field.

    Integrates (u_h' - u_x)^2 + (v_h - v)^2 elementwise with Gauss points,
    treating the state as the piecewise-linear pair it represents.  Unlike
    the nodal comparison this sees the interpolation error between nodes,
    the honest first-order part of the spatial error.
    """
    n = mesh.n
    u, v = state[:n], state[n:]
    x, xi, w = element_gauss(mesh, npts)
    up = np.concatenate([[0.0], u, [0.0]])
    vp = np.concatenate([[0.0], v, [0.0]])
    du = (up[1:] - up[:-1]) / mesh.h          # piecewise-constant derivative
    err_h1 = mesh.h * np.sum(w * (du[:, None] - ux_exact(x)) ** 2)
    vg = vp[:-1, None] * (1 - xi) + vp[1:, None] * xi
    err_l2 = mesh.h * np.sum(w * (vg - v_exact(x)) ** 2)
    return float(np.sqrt(err_h1 + err_l2))


def estimate_contraction(radius: float, t_window: float, alpha: float, m: int) -> float:
    """Upper bound on the Lipschitz constant of the fixed-point map.

    On the energy-space ball of radius R the damping difference factors as
    f(s) - f(r) = M(s, r)(s - r) with |M| <= 2 m alpha (R/2)^{2m-1}, using the
    one-dimensional embedding sup|w| <= |w'|_{L^2}/2 for the displacement.
    Stacking the two components gives

        gamma = t_window * alpha * (R/2)^{2m-1} * R * sqrt(m^2 + 1/4).

    A value below one certifies convergence on the window and turns a
    consecutive-iterate distance eps into the absolute error bound
    eps*gamma/(1-gamma); at or above one the bound is only a heuristic.
    """
    if radius < 0 or t_window < 0:
        raise ValueError("radius and window length must be nonnegative")
    return (t_window * alpha * (0.5 * radius) ** (2 * m - 1)
            * radius * np.sqrt(m**2 + 0.25))
