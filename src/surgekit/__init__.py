"""surgekit: compressor surge stability analysis and anti-surge control.

Library layout:

- ``compressor``: cubic pressure-rise map, surge-model parameters,
  equilibrium/throttle algebra.
- ``stability``: Jacobian/eigenvalue analysis on the equilibrium
  manifold, surge boundary, divergence indicator, limit-cycle detection.
- ``odesim``: trajectory records and the open-loop surge-model run.
- ``loop``: saturating anti-surge valve, fixed PD/PID and gradient
  adaptive controllers, tangent tuning rule, closed-loop simulation.
- ``_kernels``: the fixed-step RK4 kernels and the one definition of each
  model equation: ``pressure_rise`` (the map), ``surge_rhs`` (the surge
  model) and ``closed_loop_rhs`` (the closed loop).
- ``averaging``: averaged adaptation dynamics and their eigenvalues.
- ``cli``: the ``surgekit`` command-line front end and scenario files.
"""

from .averaging import (AveragedPoint, AveragingConfig, averaged_eigenvalues,
                        averaged_jacobian, averaged_rhs, grid_points,
                        stability_verdict)
from .compressor import (CompressorMap, DEFAULT_MAP, GreitzerParams,
                         PlantConfig, PlantState, equilibrium_from_throttle,
                         map_pressure_rise, map_slope, throttle_from_flow)
from .errors import (AnalysisError, DegenerateResponseError, DivergenceError,
                     DomainError, ModelBreakdownError, NoEquilibriumError,
                     ScenarioError, SurgeKitError)
from .loop import (ControllerConfig, DisturbanceProfile, TuneConfig,
                   ValveModel, extract_LT, simulate_closed_loop, zn_gains)
from .odesim import Trajectory, simulate_greitzer, steady_state_of
from .stability import (CycleConfig, LimitCycleReport, StabilityConfig,
                        StabilityRow, bendixson_indicator, char_poly,
                        detect_limit_cycle, discriminant, eig_real_part,
                        jacobian_at_equilibrium, stability_scan,
                        surge_boundary)

__version__ = "0.1.0"

__all__ = [
    "AveragedPoint", "AveragingConfig", "averaged_eigenvalues",
    "averaged_jacobian", "averaged_rhs", "grid_points", "stability_verdict",
    "CompressorMap", "DEFAULT_MAP", "GreitzerParams", "PlantConfig",
    "PlantState",
    "equilibrium_from_throttle", "map_pressure_rise", "map_slope",
    "throttle_from_flow",
    "AnalysisError", "DegenerateResponseError", "DivergenceError",
    "DomainError", "ModelBreakdownError", "NoEquilibriumError",
    "ScenarioError", "SurgeKitError",
    "ControllerConfig", "DisturbanceProfile", "TuneConfig", "ValveModel",
    "extract_LT", "simulate_closed_loop", "zn_gains",
    "Trajectory", "simulate_greitzer", "steady_state_of",
    "CycleConfig", "LimitCycleReport", "StabilityConfig", "StabilityRow",
    "bendixson_indicator", "char_poly",
    "detect_limit_cycle", "discriminant", "eig_real_part",
    "jacobian_at_equilibrium", "stability_scan", "surge_boundary",
    "__version__",
]
