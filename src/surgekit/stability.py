"""Equilibrium stability analysis of the surge model.

Everything here works on the equilibrium manifold, where the throttle
parameter and the plenum pressure can be eliminated so that the Jacobian,
its characteristic polynomial and the eigenvalue real part are functions
of the equilibrium flow alone.  A scan tabulates them with the
discriminant and the divergence (Bendixson) indicator, the Jacobian
trace, as its ``delta`` and ``bendixson_r`` columns.  A trajectory-based
limit-cycle detector complements the local analysis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .compressor import (CompressorMap, DEFAULT_MAP, FLOW_GAIN,
                         PRESSURE_GAIN, bisect_sign_change,
                         map_pressure_rise, map_slope)
from .errors import AnalysisError, DomainError, NoSignChangeError
from .odesim import Trajectory

#: classification threshold on the eigenvalue real part
CLASS_TOL = 1e-9

#: peak-to-peak amplitude a limit cycle must exceed, so a converged
#: steady state does not pass on numerical ripple
MIN_AMPLITUDE = 1e-6

STABLE_FOCUS = "stable-focus"
UNSTABLE_FOCUS = "unstable-focus"
BOUNDARY = "boundary"

#: CSV header for stability scans
SCAN_HEADER = ("phi", "delta", "real_part", "bendixson_r", "class")


@dataclass(frozen=True)
class StabilityConfig:
    """Flow range and point count of a scan (the ``stability`` section)."""

    lo: float = 0.1
    hi: float = 0.79
    n: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)
                and self.lo < self.hi and self.n >= 2):
            raise DomainError(
                f"stability needs finite lo < hi and n >= 2, got {self}")


@dataclass(frozen=True)
class CycleConfig:
    """Limit-cycle criteria (the ``cycle`` section): the share of the run
    discarded as transient and the peak-amplitude tolerance."""

    settle_fraction: float = 0.5
    tol: float = 0.01

    def __post_init__(self):
        if not (0.0 < self.settle_fraction < 1.0
                and math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"cycle needs 0 < settle_fraction < 1 and "
                              f"finite tol > 0, got {self}")


@dataclass(frozen=True)
class StabilityRow:
    phi: float
    discriminant: float
    real_part: float
    bendixson_r: float
    classification: str


@dataclass(frozen=True)
class LimitCycleReport:
    detected: bool
    amplitude_phi: float
    amplitude_psi: float
    period: float
    cycles_analyzed: int


def _jacobian_entries(cmap: CompressorMap,
                      phi: float) -> tuple[float, float, float, float]:
    """Entries (j11, j12, j21, j22) of :func:`jacobian_at_equilibrium`,
    as Python floats."""
    cmap.check_flow(phi)
    phi = float(phi)
    psi = map_pressure_rise(cmap, phi)
    if psi <= 0.0:
        raise DomainError(f"map value at phi={phi} is {psi}; need psi_c > 0")
    return (FLOW_GAIN * map_slope(cmap, phi), -FLOW_GAIN, PRESSURE_GAIN,
            -PRESSURE_GAIN * phi / (2.0 * psi))


def jacobian_at_equilibrium(cmap: CompressorMap, phi: float) -> np.ndarray:
    """2x2 Jacobian of the surge model at the equilibrium with flow phi,
    at the gains a = ``FLOW_GAIN`` and b = ``PRESSURE_GAIN``.

    At an equilibrium psi = psi_c(phi) and g = phi/sqrt(psi), which turns
    the throttle entry -b*g/(2*sqrt(psi)) into -b*phi/(2*psi_c(phi)).
    """
    j11, j12, j21, j22 = _jacobian_entries(cmap, phi)
    return np.array([[j11, j12], [j21, j22]])


def char_poly(cmap: CompressorMap, phi: float) -> tuple[float, float]:
    """Coefficients (b, c) of the characteristic polynomial s^2 + b*s + c."""
    j11, j12, j21, j22 = _jacobian_entries(cmap, phi)
    return -(j11 + j22), j11 * j22 - j12 * j21


def _focus(cmap: CompressorMap, phi: float) -> tuple[float, float]:
    """(discriminant, eigenvalue real part) from one characteristic
    polynomial; AnalysisError unless the eigenvalues are a complex pair."""
    pb, pc = char_poly(cmap, phi)
    delta = pb * pb - 4.0 * pc
    if delta >= 0.0:
        raise AnalysisError(
            f"eigenvalues at phi={phi} are real; real-part analysis "
            "assumes a complex pair")
    return delta, -0.5 * pb


def eig_real_part(cmap: CompressorMap, phi: float) -> float:
    """Real part of the complex eigenvalue pair, i.e. trace/2.

    Requires a negative discriminant (complex pair); its sign decides
    stable versus unstable focus.
    """
    return _focus(cmap, phi)[1]


@functools.lru_cache
def surge_boundary(cmap: CompressorMap = DEFAULT_MAP,
                   scan: StabilityConfig = StabilityConfig()) -> float:
    """Largest flow where the eigenvalue real part crosses zero.

    Scans ``scan`` for the rightmost sign change and bisects it down to
    |real part| <= 1e-10.  Below the returned flow the equilibrium is an
    unstable focus, above it a stable one.  Raises
    :class:`NoSignChangeError` where the scan finds no sign change.
    The result is cached per (map, scan), both frozen, so an equal map
    gets the same float without a second search; an error is not cached.
    """
    grid = np.linspace(scan.lo, scan.hi, scan.n)
    vals = np.array([eig_real_part(cmap, p) for p in grid])
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(flips) == 0:
        raise NoSignChangeError(
            f"eigenvalue real part does not change sign on "
            f"[{scan.lo}, {scan.hi}]")
    i = flips[-1]
    root, converged = bisect_sign_change(
        lambda phi: eig_real_part(cmap, phi), grid[i], grid[i + 1],
        vals[i], 1e-12, 1e-15, 200)
    if not converged and abs(eig_real_part(cmap, root)) > 1e-10:
        raise AnalysisError("surge-boundary bisection failed to converge")
    return root


def stability_scan(cmap: CompressorMap,
                   scan: StabilityConfig) -> list[StabilityRow]:
    """Tabulate the stability quantities on ``scan.n`` uniformly spaced
    flows of ``scan``; a real part within ``CLASS_TOL`` of zero is
    classed as the boundary."""
    cmap.check_flow(scan.lo, scan.hi)
    try:
        phis = np.empty(scan.n)
    except (ValueError, MemoryError):
        raise DomainError(
            f"a scan of {scan.n} points is too large to hold") from None
    phis[:] = np.linspace(scan.lo, scan.hi, scan.n)
    rows = []
    for phi in phis.tolist():
        delta, real = _focus(cmap, phi)
        if real < -CLASS_TOL:
            cls = STABLE_FOCUS
        elif real > CLASS_TOL:
            cls = UNSTABLE_FOCUS
        else:
            cls = BOUNDARY
        # the divergence (Bendixson) indicator is the Jacobian trace,
        # twice the real part.  A range where it keeps one sign holds no
        # limit cycle, so its sign change marks where surge becomes possible
        rows.append(StabilityRow(phi, delta, real, 2.0 * real, cls))
    return rows


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima."""
    if len(x) < 3:
        return np.empty(0, dtype=int)
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])
    return np.nonzero(interior)[0] + 1


def detect_limit_cycle(traj: Trajectory,
                       cycle: CycleConfig = CycleConfig()) -> LimitCycleReport:
    """Decide from an open-loop run (phi, psi) whether it settled onto a
    limit cycle.

    The first ``cycle.settle_fraction`` of the run is discarded as
    transient.  A cycle is reported when at least four local maxima of
    phi remain and the last three peak-to-peak amplitudes of phi agree to
    the relative tolerance ``cycle.tol`` and exceed ``MIN_AMPLITUDE``.
    The period is the mean spacing of successive maxima.
    """
    tail = traj.tail(1.0 - cycle.settle_fraction)
    x = tail.column("phi")
    t = tail.t
    none = LimitCycleReport(False, 0.0, 0.0, 0.0, 0)
    peaks = _local_maxima(x)
    if len(peaks) < 4:
        return none

    y = tail.column("psi")
    amps_x = []
    amps_y = []
    for p0, p1 in zip(peaks[:-1], peaks[1:]):
        seg = x[p0:p1 + 1]
        amps_x.append(x[p0] - seg.min())
        seg_y = y[p0:p1 + 1]
        amps_y.append(seg_y.max() - seg_y.min())
    last3 = np.array(amps_x[-3:])
    mean_amp = last3.mean()
    cycles = len(peaks) - 1
    period = float(np.diff(t[peaks]).mean())
    if mean_amp <= MIN_AMPLITUDE:
        return none
    if (last3.max() - last3.min()) / mean_amp > cycle.tol:
        return none
    amp_psi = float(np.array(amps_y[-3:]).mean())
    return LimitCycleReport(True, float(mean_amp), amp_psi, period, cycles)
