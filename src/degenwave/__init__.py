"""Simulation library for a vibrating string with amplitude-degenerate damping.

The damping coefficient vanishes with the displacement, so dissipation
weakens exactly where the solution is small.  The package discretizes the
problem with piecewise-linear finite elements, solves it by successive
linear approximations stepped through a quadrature-discretized
variation-of-parameters formula, extends trajectories with a five-step
Adams-Bashforth scheme, and validates everything against an independent
pointwise Runge-Kutta reference available for single-mode initial data.
"""

__version__ = "0.1.0"

from .mesh import (Mesh, QuarticTensor, SpatialOperators, assemble, build_mesh,
                   hat_load, l2_project, mesh_from_h)
from .linop import (Propagator, energy, energy_inner, energy_norm, h1_norm,
                    l2_norm, matrix_exponential)
from .linwave import (BOOLE_WEIGHTS, ModalTrajectory, Trajectory,
                      analytic_linear_damped,
                      solve_linear_inhomogeneous)
from .picard import (DegenerateDamping, LinearDamping, PicardConfig,
                     PicardDivergenceError, PicardResult, PrimitiveDamping,
                     estimate_contraction, picard_solve)
from .multistep import (AB5_COEFFS, ABState, BlowupError, ab5_init, ab5_step,
                        extend_trajectory, semilinear_rhs)
from .oracle import (AnsatzProblem, OracleSolution, OscillatorProblem,
                     StabilitySweep, ball_samples, compare_energy_decay,
                     compare_energy_norm, oracle_states, reference_errors,
                     rk4_ansatz, simulate_oscillator, uniform_stability_sweep)
from .experiments import (EnergyTrace, FrequencyRun, LowerOrderReport,
                          ModeData, PrimitiveResult, PrimitiveSetup,
                          closed_form_potential_m1, conservative_comparison,
                          continuum_energy_error, decay_rate_fit,
                          dissipation_exponent, extend_traces,
                          extend_with_ab5, frequency_sweep, lower_order_decay,
                          mode_initial_state, primitive_setup, primitive_solve)
