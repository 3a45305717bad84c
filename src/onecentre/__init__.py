"""Numerical laboratory for planar one-centre problems with weak singular
potentials regularized by smoothing: potential-class certification, apsidal
angle convergence, the transmission-extended flow and its continuity, and the
variational non-minimality of transmission paths."""

__version__ = "0.1.0"

from .potentials import (ClassReport, PotentialSpec, SmoothedPotential,
                         check_slowly_varying, classify, from_config,
                         homogeneous, logarithmic, weak_singularity_check)
from .quadrature import PericentreIntegral
from .radial import (Anchor, Case, DropFromRest, InwardCrossing, RadialProblem,
                     TurningPoints, case_anchor, collision_time, fall_time,
                     first_zero, pericentre_integral, turning_points)
from .apsidal import (SweepPath, apsidal_angle, bounds_audit,
                      calibration_integral, convergence_sweep, default_paths,
                      desingularized_factor, integrand_envelope)
from .simulator import (PhaseState, Perturbation, Trajectory, conserved_drift,
                        integrate, make_initial_data, oracle_crosscheck)
from .flow import (ExitedBall, Fall, MirroredOrbit, Section,
                   continuity_experiment, diagonal_cells, extended_flow,
                   phase_field, poincare_section, section_at)
from .variational import delta_action, kinetic_action, potential_action
from .tables import ConvergenceTable, aitken_limit, limit_verdict

__all__ = [name for name in dir() if not name.startswith("_")]
