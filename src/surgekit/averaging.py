"""Averaged adaptation dynamics and their stability.

With a constant set point the gradient updates can be averaged at zero
frequency: every transfer function collapses to its DC gain, leaving an
autonomous three-state system in the controller gains,

    dk1/dt = -gamma * r^2 * (k1/(1+k2) - 1)
    dk2/dt = +gamma * r^2 * (k1/(1+k2) - 1) * k1/(1+k2)
    dk3/dt = 0.

Its Jacobian has a zero third row and column and a singular upper block,
so two eigenvalues are exactly zero and the third equals the block trace,
which is strictly negative for nonnegative gains: the averaged adaptation
never diverges.  In saturated-actuator mode the kernel gates adaptation
off, so all rates are zero and every eigenvalue vanishes (marginal).

A grid is solved as arrays: the Jacobians of all its points are built as
one stack, whose entries are those of :func:`averaged_jacobian` bit for
bit (it builds a stack of one), and solved by one batched
``np.linalg.eigvals`` call, which runs the same LAPACK routine on each
matrix, so every eigenvalue is that of :func:`averaged_eigenvalues`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError

#: bound on the largest eigenvalue of a stable point, relative to the
#: largest Jacobian entry (``stability_verdict``)
VERDICT_TOL = 1e-9

#: CSV header for grid reports
REPORT_HEADER = ("k1", "k2", "k3", "gamma", "r", "lam1", "lam2", "lam3",
                 "verdict")


@dataclass(frozen=True)
class AveragingConfig:
    """Gain grid of an averaged-dynamics report (the ``averaging`` section):
    n by n points of [k1_lo, k1_hi] x [k2_lo, k2_hi] at one k3, r, gamma."""

    k1_lo: float = 0.1
    k1_hi: float = 50.0
    k2_lo: float = 0.1
    k2_hi: float = 50.0
    n: int = 10
    k3: float = 0.7
    r: float = 0.55
    gamma: float = 1.0

    def __post_init__(self):
        values = (self.k1_lo, self.k1_hi, self.k2_lo, self.k2_hi, self.k3,
                  self.r, self.gamma)
        if not (all(math.isfinite(v) for v in values)
                and 0.0 <= self.k1_lo <= self.k1_hi
                and 0.0 <= self.k2_lo <= self.k2_hi and self.n >= 2
                and self.k3 >= 0.0 and self.gamma > 0.0):
            raise DomainError(
                f"averaging needs finite values, ordered bounds >= 0, "
                f"n >= 2, k3 >= 0 and gamma > 0, got {self}")


@dataclass(frozen=True)
class AveragedPoint:
    """Operating point of the averaged gain dynamics."""

    k1: float
    k2: float
    k3: float = AveragingConfig.k3
    r: float = AveragingConfig.r
    gamma: float = AveragingConfig.gamma

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.k1, self.k2, self.k3, self.r, self.gamma)):
            raise DomainError(f"averaged point must be finite, got {self}")
        if not (self.k1 >= 0.0 and self.k2 >= 0.0 and self.k3 >= 0.0):
            raise DomainError(f"gains must be >= 0, got {self}")
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class AveragedReportRow:
    point: AveragedPoint
    eigenvalues: tuple[float, float, float]
    verdict: str


def averaged_rhs(p: AveragedPoint) -> tuple[float, float, float]:
    """Gain rates of the averaged dynamics at the given point."""
    amp = p.gamma * p.r * p.r
    q = p.k1 / (1.0 + p.k2)
    return -amp * (q - 1.0), amp * (q - 1.0) * q, 0.0


def _jacobians(points: list[AveragedPoint]) -> np.ndarray:
    """The (n, 3, 3) stack of the analytic Jacobians of
    :func:`averaged_rhs` at ``points``; an overflow gives inf or nan, with
    no warning."""
    import numpy as np
    k1, k2, gamma, r = np.array(
        [(p.k1, p.k2, p.gamma, p.r) for p in points]).reshape(-1, 4).T
    jac = np.zeros((len(points), 3, 3))
    with np.errstate(all="ignore"):
        amp = gamma * r * r
        c = 1.0 + k2
        q = k1 / c
        jac[:, 0, 0] = -1.0 / c
        jac[:, 0, 1] = k1 / (c * c)
        jac[:, 1, 0] = (2.0 * q - 1.0) / c
        jac[:, 1, 1] = -(2.0 * q - 1.0) * k1 / (c * c)
        # the zero entries too: amp * 0.0 is nan where amp is inf
        return amp[:, None, None] * jac


def averaged_jacobian(p: AveragedPoint) -> np.ndarray:
    """Analytic 3x3 Jacobian of :func:`averaged_rhs`."""
    return _jacobians([p])[0]


def averaged_eigenvalues(p: AveragedPoint) -> tuple[float, float, float]:
    """Eigenvalues of the averaged Jacobian, sorted descending.

    Computed numerically from the matrix.  By its structure two are zero
    and the third is the upper-block trace
    -gamma*r^2 * ((1+k2)^2 - k1*(1+k2) + 2*k1^2) / (1+k2)^3,
    a negative-definite quadratic in (1+k2, k1): never positive.
    """
    return _eigenvalues(averaged_jacobian(p), p)


def _eigenvalues(jac: np.ndarray, p: AveragedPoint) -> tuple[float, ...]:
    """:func:`averaged_eigenvalues` of the Jacobian ``jac`` at ``p``."""
    import numpy as np
    if not np.isfinite(jac).all():
        raise DomainError(f"averaged Jacobian is not finite at {p}")
    lam = np.linalg.eigvals(jac)
    if np.abs(lam.imag).max() > 1e-9:
        raise DomainError(f"unexpected complex eigenvalues at {p}: {lam}")
    # sorted keeps the solver's order of equal values, such as 0.0 and
    # -0.0, where np.sort need not
    return tuple(sorted(lam.real.tolist(), reverse=True))


def stability_verdict(
        points: Iterable[AveragedPoint]) -> list[AveragedReportRow]:
    """Per-point eigenvalues with a stable/unstable verdict.

    Stable means the largest eigenvalue does not exceed ``VERDICT_TOL``
    times the largest Jacobian entry in magnitude.  The eigensolve's
    rounding error grows with the matrix, so the exact zeros come out as
    small multiples of its entries; relative to them, the verdict does not
    depend on the scale of gamma*r^2.  The marginal all-zero saturated
    case counts as stable.

    All points are solved at once (:func:`_jacobians`, one batched
    eigensolve), each bit for bit as :func:`averaged_eigenvalues` solves
    it.  The first point whose Jacobian is not finite or whose
    eigenvalues are complex raises the error ``averaged_eigenvalues``
    raises for it.
    """
    import numpy as np
    points = list(points)
    jacs = _jacobians(points)
    finite = np.isfinite(jacs).all(axis=(1, 2))
    # eigvals refuses a stack holding inf or nan: solve up to the first
    stop = len(points) if finite.all() else int(np.argmin(finite))
    lam = np.linalg.eigvals(jacs[:stop])
    complex_pair = np.abs(lam.imag).max(axis=1) > 1e-9
    if complex_pair.any():
        stop = int(np.argmax(complex_pair))
    if stop < len(points):
        # the point's own check raises its error
        _eigenvalues(jacs[stop], points[stop])
    bounds = VERDICT_TOL * np.abs(jacs).max(axis=(1, 2))
    rows = []
    for p, lam_p, bound in zip(points, lam.real.tolist(), bounds.tolist()):
        lam_p = tuple(sorted(lam_p, reverse=True))
        stable = max(lam_p) <= bound
        rows.append(AveragedReportRow(p, lam_p,
                                      "stable" if stable else "unstable"))
    return rows


def grid_points(grid: AveragingConfig) -> list[AveragedPoint]:
    """The ``grid.n`` by ``grid.n`` averaged points of ``grid``, k1 in the
    outer order; a grid too large to hold is a DomainError."""
    import numpy as np
    n = grid.n
    try:
        k1s = np.empty(n * n)
        k2s = np.empty(n * n)
    except (ValueError, MemoryError):
        raise DomainError(f"an averaging grid of {n} x {n} points is too "
                          "large to hold") from None
    # near the float range, linspace's last step can round past it; that
    # point is then set to the upper bound
    with np.errstate(over="ignore"):
        k1s[:] = np.repeat(np.linspace(grid.k1_lo, grid.k1_hi, n), n)
        k2s[:] = np.tile(np.linspace(grid.k2_lo, grid.k2_hi, n), n)
    return [AveragedPoint(k1=k1, k2=k2, k3=grid.k3, r=grid.r,
                          gamma=grid.gamma)
            for k1, k2 in zip(k1s.tolist(), k2s.tolist())]
