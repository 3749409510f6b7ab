"""surgekit: compressor surge stability analysis and anti-surge control.

Library layout:

- ``compressor``: cubic pressure-rise map, equilibrium/throttle
  algebra, and the one sign-change bisection (the equilibrium's and the
  surge boundary's).
- ``stability``: Jacobian/eigenvalue analysis on the equilibrium
  manifold, surge boundary, stability scans (held as columns, among
  them the discriminant and the divergence indicator), the class
  boundaries in closed form, limit-cycle detection.
- ``odesim``: trajectory records and the open-loop surge-model run at
  a throttle g.
- ``loop``: saturating anti-surge valve, fixed PD/PID and gradient
  adaptive controllers, tangent tuning rule, closed-loop simulation.
- ``_kernels``: the fixed-step RK4 kernels and the one definition of each
  model equation: ``pressure_rise`` (the map), ``surge_rhs`` (the surge
  model) and ``closed_loop_rhs`` (the closed loop), scalars in and a
  tuple of rates out, and the fixed coefficients they read: the surge
  gains ``FLOW_GAIN``, ``PRESSURE_GAIN`` and the reference model's
  ``REF_MODEL_*``.  The observed compressor is ``surge_rhs`` at the
  throttle of the measured flow, computed for each range of rows on
  arrays.  Each kernel's RK4 step is straight-line code generated on its
  first use (the closed loop's once per controller kind, live set and
  observation, its dead states read off the kind-folded rhs), with its
  rhs's own statements inlined at each stage.
- ``averaging``: averaged adaptation dynamics and their eigenvalues.
- ``cli``: the ``surgekit`` command-line front end and scenario files.

Each module imports numpy inside the functions that use it, never at
module level: a start that computes nothing (``surgekit scenarios``,
``--help``, ``--version``, a refused flag or scenario) does not load it.
"""

from .averaging import (AveragedPoint, AveragingConfig, averaged_eigenvalues,
                        averaged_jacobian, averaged_rhs, grid_points,
                        stability_verdict)
from .compressor import (CompressorMap, DEFAULT_MAP, PlantConfig,
                         PlantState, equilibrium_from_throttle,
                         map_pressure_rise, map_slope, throttle_from_flow)
from .errors import (AnalysisError, DegenerateResponseError, DivergenceError,
                     DomainError, ModelBreakdownError, NoEquilibriumError,
                     NoSignChangeError, ScenarioError, SurgeKitError)
from .loop import (ControllerConfig, DisturbanceProfile, TuneConfig,
                   ValveModel, extract_LT, simulate_closed_loop, zn_gains)
from .odesim import Trajectory, simulate_greitzer, steady_state_of
from .stability import (CycleConfig, LimitCycleReport, RegionBoundaries,
                        StabilityConfig, StabilityScan, char_poly,
                        detect_limit_cycle, eig_real_part,
                        jacobian_at_equilibrium, region_boundaries,
                        stability_scan, surge_boundary)

__version__ = "0.1.0"

__all__ = [
    "AveragedPoint", "AveragingConfig", "averaged_eigenvalues",
    "averaged_jacobian", "averaged_rhs", "grid_points", "stability_verdict",
    "CompressorMap", "DEFAULT_MAP", "PlantConfig", "PlantState",
    "equilibrium_from_throttle", "map_pressure_rise", "map_slope",
    "throttle_from_flow",
    "AnalysisError", "DegenerateResponseError", "DivergenceError",
    "DomainError", "ModelBreakdownError", "NoEquilibriumError",
    "NoSignChangeError", "ScenarioError", "SurgeKitError",
    "ControllerConfig", "DisturbanceProfile", "TuneConfig", "ValveModel",
    "extract_LT", "simulate_closed_loop", "zn_gains",
    "Trajectory", "simulate_greitzer", "steady_state_of",
    "CycleConfig", "LimitCycleReport", "RegionBoundaries", "StabilityConfig",
    "StabilityScan", "char_poly", "detect_limit_cycle", "eig_real_part",
    "jacobian_at_equilibrium", "region_boundaries", "stability_scan",
    "surge_boundary",
    "__version__",
]
