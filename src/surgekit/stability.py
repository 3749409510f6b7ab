"""Equilibrium stability analysis of the surge model.

Everything here works on the equilibrium manifold, where the throttle
parameter and the plenum pressure can be eliminated so that the Jacobian,
its characteristic polynomial and the eigenvalue real part are functions
of the equilibrium flow alone.  A scan tabulates them with the
discriminant and the divergence (Bendixson) indicator, the Jacobian
trace, as its ``delta`` and ``bendixson_r`` columns; the surge boundary
refines the scan's rightmost sign change of the real part.  A
trajectory-based limit-cycle detector complements the local analysis.

The scalar functions (:func:`jacobian_at_equilibrium`, :func:`char_poly`,
:func:`eig_real_part`) take one flow.  A scan computes the same quantities
on its whole flow array at once, in trace-determinant form
(:func:`_scan_arrays`): each value by the same IEEE operations on the
same operands as the scalar path, so it is that path's float bit for bit.
It is held as columns (:class:`StabilityScan`), one array per CSV column,
and written and drawn from them without a row object in between.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import pressure_rise
from .compressor import (CompressorMap, DEFAULT_MAP, FLOW_GAIN,
                         PRESSURE_GAIN, _slope, bisect_sign_change,
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
        # a finite span hi - lo has finite ends and keeps linspace from
        # overflowing
        if not (math.isfinite(self.hi - self.lo) and self.lo < self.hi
                and self.n >= 2):
            raise DomainError(f"stability needs finite lo < hi, a finite "
                              f"span hi - lo and n >= 2, got {self}")


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


@dataclass(frozen=True, eq=False)
class StabilityScan:
    """A scan as columns: one array per ``SCAN_HEADER`` column, in that
    order (:meth:`columns`), the flows, the discriminant, the eigenvalue
    real part, the divergence (Bendixson) indicator and the class of each
    flow, an object array of strings.  Its length is the number of
    flows."""

    phi: np.ndarray
    discriminant: np.ndarray
    real_part: np.ndarray
    bendixson_r: np.ndarray
    classification: np.ndarray

    def __len__(self) -> int:
        return len(self.phi)

    def columns(self) -> tuple[np.ndarray, ...]:
        """The columns in ``SCAN_HEADER`` order."""
        return (self.phi, self.discriminant, self.real_part,
                self.bendixson_r, self.classification)


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


def _scan_arrays(cmap: CompressorMap, scan: StabilityConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flows of ``scan`` and, at each, the discriminant and the
    eigenvalue real part of :func:`_focus`, as three arrays.

    With trace = j11 + j22 = -b and det = c of :func:`char_poly`, the
    discriminant is trace*trace - 4*det and the real part trace/2: the
    same IEEE operations on the same operands as ``_focus``, as negation
    is exact, so each value is its float bit for bit.  When a flow is off
    the map, has psi_c <= 0 or a real eigenvalue pair, the first such
    flow is handed to ``_focus``, which raises its own error for it.
    """
    j12, j21 = -FLOW_GAIN, PRESSURE_GAIN
    try:
        phis = np.empty(scan.n)
        phis[:] = np.linspace(scan.lo, scan.hi, scan.n)
        # where Python floats overflow silently, numpy would warn
        with np.errstate(all="ignore"):
            psi = pressure_rise(phis, *cmap.constants)
            j11 = FLOW_GAIN * _slope(cmap, phis)
            j22 = -PRESSURE_GAIN * phis / (2.0 * psi)
            trace = j11 + j22
            det = j11 * j22 - j12 * j21
            delta = trace * trace - 4.0 * det
            fails = ~((cmap.domain_lo < phis) & (phis < cmap.domain_hi))
            fails |= (psi <= 0.0) | (delta >= 0.0)
    except (ValueError, MemoryError):
        raise DomainError(
            f"a scan of {scan.n} points is too large to hold") from None
    if fails.any():
        _focus(cmap, phis[np.argmax(fails)].item())
    return phis, delta, 0.5 * trace


@functools.lru_cache
def surge_boundary(cmap: CompressorMap = DEFAULT_MAP,
                   scan: StabilityConfig = StabilityConfig()) -> float:
    """Largest flow where the eigenvalue real part crosses zero.

    Bisects the rightmost sign change of the real part over the flows of
    ``scan``, the ``real_part`` column of ``stability_scan(cmap, scan)``
    (read off its arrays, :func:`_scan_arrays`), down to |real part| <=
    1e-10.  Below the returned flow the equilibrium is an unstable focus,
    above it a stable one.  Raises :class:`NoSignChangeError` where the
    scan finds no sign change, and the scan's error where it fails.  The
    result is cached per (map, scan), both frozen, so an equal map gets
    the same float without a second search; an error is not cached.
    """
    phis, _, real = _scan_arrays(cmap, scan)
    signs = np.sign(real)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if len(flips) == 0:
        raise NoSignChangeError(
            f"eigenvalue real part does not change sign on "
            f"[{scan.lo}, {scan.hi}]")
    i = flips[-1]
    root, converged = bisect_sign_change(
        lambda phi: eig_real_part(cmap, phi), phis[i].item(),
        phis[i + 1].item(), real[i].item(), 1e-12, 1e-15, 200)
    if not converged and abs(eig_real_part(cmap, root)) > 1e-10:
        raise AnalysisError("surge-boundary bisection failed to converge")
    return root


def stability_scan(cmap: CompressorMap,
                   scan: StabilityConfig) -> StabilityScan:
    """Tabulate the stability quantities on ``scan.n`` uniformly spaced
    flows of ``scan``, as columns; a real part within ``CLASS_TOL`` of
    zero is classed as the boundary.  The columns are computed as arrays
    (:func:`_scan_arrays`), bit for bit what :func:`_focus` gives at each
    flow, and the first flow off the map or without a complex pair is
    named with the error ``_focus`` raises for it."""
    phis, delta, real = _scan_arrays(cmap, scan)
    codes = (real < -CLASS_TOL) + 2 * (real > CLASS_TOL)
    classes = np.array((BOUNDARY, STABLE_FOCUS, UNSTABLE_FOCUS),
                       dtype=object)[codes]
    # the divergence (Bendixson) indicator is the Jacobian trace, twice
    # the real part.  A range where it keeps one sign holds no limit
    # cycle, so its sign change marks where surge becomes possible
    return StabilityScan(phis, delta, real, 2.0 * real, classes)


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
