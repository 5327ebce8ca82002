"""Observability Grammian certification and moving-horizon estimation
for nonlinear controlled ODE systems.

Numerical core: one fixed-step RK4 loop in numpy, with state-transition
matrices and noise sensitivities co-integrated on the same stages as the
state, Simpson quadrature for window costs, a damped-Newton trust-ball
solver, and sampled stability audits. The planar bearing-only localization system ships as a built-in
scenario with closed-form Grammian eigenvalue oracles.
"""

from .errors import (BoundaryStuck, CertificationInconclusive, ConditionsFailed,
                     ConfigError, DimensionMismatch, DomainViolation, EigFailure,
                     GridMismatch, MaxItersExceeded, ObsMheError, SingularWindow,
                     Unbounded)
from .ode_core import (ControlSystem, InputSignal, NoiseSignals, SampledSignal,
                       TimeGrid, ZERO_NOISE, check_jacobians, flow,
                       flow_and_stm, flow_and_stm_rows, flow_rows,
                       noise_sensitivity, perturbed_flow,
                       perturbed_flow_and_sensitivities,
                       perturbed_flow_and_sensitivities_rows, stm)
from .cost import (WindowCost, cum_output_error,
                   gauss_newton_term, grad_cum_error, grad_perturbed_cost,
                   grad_sensitivities, grad_sensitivity_v, grad_sensitivity_w,
                   hess_cum_error, noise_output_directions, perturbed_cost,
                   perturbed_reference, simpson_weights)
from .grammian import (BoundednessReport, GrammianReport,
                       PersistenceCertificate, Verdict, WindowEvidence,
                       certify_weak_persistence,
                       certify_weak_regular_persistence,
                       check_regular_boundedness, jacobi_eigh,
                       observability_grammian)
from .mhe_solver import (MheSolution, MultistartReport,
                         NonuniformStabilityAudit, SolverOptions,
                         StabilityAudit, WindowResult,
                         audit_nonuniform_stability, audit_uniform_stability,
                         multistart_uniqueness, rolling_estimate, solve_fie,
                         solve_mhe, solve_pmhe)
from . import bearing

__version__ = "0.1.0"
# The RK4 loop is plain numpy; obsbench reports this constant.
BACKEND = "python"

__all__ = [
    "BACKEND", "__version__",
    # errors
    "ObsMheError", "DomainViolation", "GridMismatch", "DimensionMismatch",
    "EigFailure",
    "Unbounded", "CertificationInconclusive", "SingularWindow",
    "MaxItersExceeded", "BoundaryStuck", "ConditionsFailed", "ConfigError",
    # ode core
    "ControlSystem", "TimeGrid", "InputSignal", "SampledSignal",
    "NoiseSignals", "ZERO_NOISE", "check_jacobians", "flow", "flow_rows",
    "stm", "flow_and_stm", "flow_and_stm_rows", "perturbed_flow",
    "noise_sensitivity", "perturbed_flow_and_sensitivities",
    "perturbed_flow_and_sensitivities_rows",
    # cost
    "WindowCost", "simpson_weights", "cum_output_error",
    "grad_cum_error", "gauss_newton_term", "hess_cum_error",
    "perturbed_reference", "perturbed_cost", "grad_perturbed_cost",
    "grad_sensitivity_v", "grad_sensitivity_w", "grad_sensitivities",
    "noise_output_directions",
    # grammian
    "GrammianReport", "PersistenceCertificate", "BoundednessReport",
    "WindowEvidence", "Verdict", "jacobi_eigh", "observability_grammian",
    "certify_weak_persistence", "certify_weak_regular_persistence",
    "check_regular_boundedness",
    # solver
    "SolverOptions", "MheSolution", "WindowResult", "StabilityAudit",
    "NonuniformStabilityAudit", "MultistartReport", "solve_fie", "solve_mhe",
    "solve_pmhe", "rolling_estimate", "audit_nonuniform_stability",
    "audit_uniform_stability", "multistart_uniqueness",
    # bearing scenario
    "bearing",
]
