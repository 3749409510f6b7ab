"""Cubic compressor map and equilibrium algebra.

The map gives the steady-state pressure rise ``psi_c(phi)`` as a cubic in
the shifted flow coordinate ``w = slope*phi + offset``.  The transient
model couples nondimensional mass flow ``phi`` and plenum pressure rise
``psi``:

    d(phi)/dt = a * (psi_c(phi) - psi)
    d(psi)/dt = b * (phi - g * sqrt(psi))

where ``g`` is the throttle parameter and the gains are the constants
``a = FLOW_GAIN`` and ``b = PRESSURE_GAIN``, re-exported here.  Both
equations and both gains are defined once, in ``_kernels``
(``pressure_rise`` and ``surge_rhs``), which :func:`map_pressure_rise`
calls and the kernels' RK4 steps inline.  At an equilibrium both rates
vanish, so ``psi = psi_c(phi)`` and ``phi = g*sqrt(psi)``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import cached_property

from ._kernels import FLOW_GAIN, PRESSURE_GAIN, pressure_rise
from .errors import DomainError, NoEquilibriumError


@dataclass(frozen=True)
class CompressorMap:
    """Steady-state pressure-rise map ``psi0 + h * P(w)``, ``w = slope*phi + offset``.

    ``P`` is the cubic with ascending coefficients ``c0..c3``, so the
    first eight fields are the parameters of ``_kernels.pressure_rise``
    after the flow, in order.  The default coefficients describe an axial
    machine whose map peaks at phi = 0.5 with value 0.712.
    """

    psi0: float = 0.352
    h: float = 0.18
    slope: float = 4.0
    offset: float = -1.0
    c0: float = 1.0
    c1: float = 1.5
    c2: float = 0.0
    c3: float = -0.5
    domain_lo: float = 0.0
    domain_hi: float = 0.8

    def __post_init__(self):
        if not self.domain_lo < self.domain_hi:
            raise DomainError(
                f"map domain is empty: [{self.domain_lo}, {self.domain_hi}]"
            )
        if not all(math.isfinite(v) for v in astuple(self)):
            raise DomainError("map coefficients must be four finite cubic "
                              "coefficients plus finite scalars")

    def check_flow(self, *flows: float) -> None:
        """DomainError unless each flow lies inside the open map domain."""
        lo, hi = self.domain_lo, self.domain_hi
        for phi in flows:
            if not (math.isfinite(phi) and lo < phi < hi):
                raise DomainError(
                    f"equilibrium flow must lie in ({lo}, {hi}), got {phi}")

    @cached_property
    def constants(self) -> tuple:
        """(psi0, h, slope, offset, c0, c1, c2, c3), the map's first eight
        fields: the parameters of ``_kernels.pressure_rise`` after the
        flow, built on first use."""
        return astuple(self)[:8]


@dataclass(frozen=True)
class PlantState:
    """Compressor state: nondimensional mass flow and plenum pressure rise."""

    phi: float
    psi: float


#: The shipped axial-compressor map.
DEFAULT_MAP = CompressorMap()


@dataclass(frozen=True)
class PlantConfig:
    """Open-loop run setup (the ``plant`` scenario section): throttle ``g``
    or equilibrium ``flow``, and the start ``(phi0, psi0)`` or the
    equilibrium moved by ``(perturb_phi, perturb_psi)``."""

    phi0: float | None = None
    psi0: float | None = None
    flow: float | None = None
    g: float | None = None
    perturb_phi: float = 0.01
    perturb_psi: float = 0.01

    def __post_init__(self):
        free = (self.phi0, self.flow, self.perturb_phi, self.perturb_psi)
        if not (all(v is None or math.isfinite(v) for v in free)
                and all(v is None or (math.isfinite(v) and v > 0.0)
                        for v in (self.psi0, self.g))):
            raise DomainError(f"plant needs finite values, psi0 > 0 and "
                              f"g > 0, got {self}")

    def check_start(self) -> None:
        """DomainError unless the keys name a throttle and a whole start."""
        if self.flow is None and self.g is None:
            raise DomainError("plant.flow or plant.g is required")
        if (self.phi0 is None) != (self.psi0 is None):
            raise DomainError(
                f"plant.phi0 and plant.psi0 must be given together, got "
                f"phi0={self.phi0}, psi0={self.psi0}")

    def start(self, cmap: CompressorMap) -> tuple[PlantState, float]:
        """Initial state and throttle parameter g of a run on ``cmap``."""
        self.check_start()
        g = self.g if self.g is not None else throttle_from_flow(cmap,
                                                                 self.flow)
        if self.phi0 is not None:
            return PlantState(self.phi0, self.psi0), g
        eq = equilibrium_from_throttle(cmap, g)
        return PlantState(eq.phi + self.perturb_phi,
                          eq.psi + self.perturb_psi), g


def map_pressure_rise(cmap: CompressorMap, phi: float) -> float:
    """Evaluate psi_c(phi).  No domain clamping: callers decide."""
    if not math.isfinite(phi):
        raise DomainError(f"phi must be finite, got {phi}")
    return pressure_rise(phi, *cmap.constants)


def map_slope(cmap: CompressorMap, phi: float) -> float:
    """Analytic derivative d(psi_c)/d(phi) of the cubic map."""
    if not math.isfinite(phi):
        raise DomainError(f"phi must be finite, got {phi}")
    return _slope(cmap, phi)


def _slope(cmap: CompressorMap, phi):
    """:func:`map_slope`'s arithmetic, unchecked: on a flow array it gives
    each flow's float bit for bit."""
    w = cmap.slope * phi + cmap.offset
    return cmap.h * cmap.slope * (
        cmap.c1 + w * (2.0 * cmap.c2 + w * 3.0 * cmap.c3))


def throttle_from_flow(cmap: CompressorMap, phi: float) -> float:
    """Throttle parameter g that puts the equilibrium at the given flow."""
    if not math.isfinite(phi) or phi <= 0.0:
        raise DomainError(f"equilibrium flow must be positive, got {phi}")
    psi = map_pressure_rise(cmap, phi)
    if psi <= 0.0:
        raise DomainError(
            f"map value at phi={phi} is {psi}; equilibrium needs psi_c > 0")
    return phi / math.sqrt(psi)


def _square(x: float) -> float:
    """``x ** 2``, or inf past the float range, where ``**`` on a Python
    float raises OverflowError (``x * x`` would round differently)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def bisect_sign_change(f, lo: float, hi: float, flo: float, ftol: float,
                       xtol: float, iters: int) -> tuple[float, bool]:
    """Bisect [lo, hi], across which ``f`` changes sign, ``flo = f(lo)``.

    Stops at the first midpoint where |f| <= ``ftol`` or the bracket is
    narrower than ``xtol``, and returns (that midpoint, True).  After
    ``iters`` halvings without stopping it returns (the midpoint of what
    is left, False).
    """
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= ftol or hi - lo < xtol:
            return mid, True
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi), False


def equilibrium_from_throttle(cmap: CompressorMap, g: float) -> PlantState:
    """Unique equilibrium (phi*, psi_c(phi*)) for a throttle parameter g.

    Solves psi_c(phi) = (phi/g)^2 by bisection on the open map domain
    followed by a few Newton polish steps.  On the shipped map the
    residual of the returned point is far below 1e-10.
    """
    if not math.isfinite(g) or g <= 0.0:
        raise DomainError(f"throttle parameter must be positive, got {g}")

    def f(phi):
        return map_pressure_rise(cmap, phi) - _square(phi / g)

    def fprime(phi):
        return map_slope(cmap, phi) - 2.0 * phi / (g * g)

    lo = cmap.domain_lo + 1e-6
    hi = cmap.domain_hi - 1e-6
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        root = lo
    elif fhi == 0.0:
        root = hi
    elif flo * fhi > 0.0:
        raise NoEquilibriumError(
            f"psi_c(phi) - (phi/g)^2 does not change sign on "
            f"({lo:.6g}, {hi:.6g}) for g={g}")
    else:
        root = bisect_sign_change(f, lo, hi, flo, 0.0, 1e-12, 80)[0]
        for _ in range(5):
            d = fprime(root)
            if d == 0.0:
                break
            step = f(root) / d
            root -= step

    psi = map_pressure_rise(cmap, root)
    if abs(psi - _square(root / g)) > 1e-10:
        raise NoEquilibriumError(
            f"equilibrium refinement stalled at phi={root} (g={g})")
    return PlantState(phi=root, psi=psi)
