"""Map algebra, surge-model right-hand side, throttle/equilibrium pairing."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from support import plant_rates

from surgekit._kernels import pressure_rise
from surgekit.compressor import (CompressorMap, DEFAULT_MAP, PlantConfig,
                                 PlantState, bisect_sign_change,
                                 equilibrium_from_throttle,
                                 map_pressure_rise, map_slope,
                                 throttle_from_flow)
from surgekit.errors import (DomainError, ModelBreakdownError,
                             NoEquilibriumError)
from surgekit.odesim import simulate_greitzer

M = DEFAULT_MAP


class TestMapValues:
    @pytest.mark.parametrize("phi,expected,tol", [
        (0.25, 0.532, 1e-12),    # shifted coordinate w = 0
        (0.4, 0.6746, 1e-3),     # known operating point of this map
        (0.4, 0.67456, 1e-12),   # exact cubic value at the same point
        (0.0, 0.352, 1e-12),     # bracket terms cancel
        (0.5, 0.712, 1e-12),     # map peak
    ])
    def test_pressure_rise(self, phi, expected, tol):
        assert map_pressure_rise(M, phi) == pytest.approx(expected, abs=tol)

    def test_positive_on_domain(self):
        for phi in np.linspace(M.domain_lo, M.domain_hi, 1001):
            v = map_pressure_rise(M, float(phi))
            assert math.isfinite(v) and v > 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            map_pressure_rise(M, math.nan)
        with pytest.raises(DomainError):
            map_slope(M, math.inf)


class TestMapSlope:
    @pytest.mark.parametrize("phi,expected", [
        (0.5, 0.0),
        (0.25, 1.08),
        (0.4, 0.6912),
    ])
    def test_values(self, phi, expected):
        assert map_slope(M, phi) == pytest.approx(expected, abs=1e-12)

    def test_matches_finite_differences(self):
        # independent oracle: central differences of the map itself
        h = 1e-6
        for phi in np.linspace(0.02, 0.78, 39):
            fd = (map_pressure_rise(M, phi + h)
                  - map_pressure_rise(M, phi - h)) / (2 * h)
            assert map_slope(M, float(phi)) == pytest.approx(fd, abs=1e-7)

    def test_unique_interior_maximum(self):
        grid = np.linspace(1e-3, M.domain_hi - 1e-3, 200001)
        vals = np.array([map_pressure_rise(M, p) for p in grid])
        peak = grid[np.argmax(vals)]
        assert peak == pytest.approx(0.5, abs=1e-5)
        assert vals.max() == pytest.approx(0.712, abs=1e-9)
        # the slope root confirms the grid argmax to much higher precision
        lo, hi = 0.4, 0.6
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if map_slope(M, mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(0.5, abs=1e-6)


class TestGreitzerRhs:
    # the kernel's surge_rhs, and simulate_greitzer's checks of its domain
    def test_zero_at_equilibrium(self):
        g = throttle_from_flow(M, 0.51)
        eq = equilibrium_from_throttle(M, g)
        dphi, dpsi = plant_rates(eq.phi, eq.psi, g)
        assert abs(dphi) <= 1e-8 and abs(dpsi) <= 1e-8

    def test_published_point_nearly_balances(self):
        # g chosen so the throttle term matches the flow exactly; the
        # pressure equation balances and the flow equation carries only
        # the rounding of the published psi.
        g = 0.4 / math.sqrt(0.6746)
        dphi, dpsi = plant_rates(0.4, 0.6746, g)
        assert abs(dpsi) <= 1e-12
        assert abs(dphi) <= 1e-3

    def test_hand_evaluated_point(self):
        dphi, dpsi = plant_rates(0.5, 0.6, 0.5926)
        assert dphi == pytest.approx(0.0896, abs=1e-12)
        assert dpsi == pytest.approx(0.051217517259371175, abs=1e-12)

    def test_nonpositive_psi_is_model_breakdown(self):
        with pytest.raises(ModelBreakdownError):
            simulate_greitzer(PlantState(0.4, 0.0), 0.5)
        with pytest.raises(ModelBreakdownError):
            simulate_greitzer(PlantState(0.4, -0.1), 0.5)

    def test_nonfinite_state_rejected(self):
        with pytest.raises(DomainError):
            simulate_greitzer(PlantState(math.nan, 0.5), 0.5)

    @pytest.mark.parametrize("phi,psi", [(None, 0.5), (0.5, None),
                                         (0.5, "0.6")])
    def test_nonreal_state_rejected(self, phi, psi):
        with pytest.raises(DomainError, match="finite real numbers"):
            simulate_greitzer(PlantState(phi, psi), 0.5)


class TestThrottleEquilibrium:
    @pytest.mark.parametrize("phi,expected", [
        (0.51, 0.6045938557423763),
        (0.55, 0.6571504650141714),
        (0.4, 0.48702325494157866),
    ])
    def test_throttle_values(self, phi, expected):
        assert throttle_from_flow(M, phi) == pytest.approx(expected, rel=1e-12)

    def test_throttle_identity(self):
        for phi in np.linspace(0.05, 0.75, 29):
            g = throttle_from_flow(M, float(phi))
            assert map_pressure_rise(M, float(phi)) == pytest.approx(
                (phi / g) ** 2, rel=1e-13)

    def test_throttle_domain_errors(self):
        with pytest.raises(DomainError):
            throttle_from_flow(M, 0.0)
        with pytest.raises(DomainError):
            throttle_from_flow(M, -0.1)

    def test_known_settling_point(self):
        eq = equilibrium_from_throttle(M, 0.6046)
        assert eq.phi == pytest.approx(0.51, abs=0.005)
        assert eq.psi == pytest.approx(0.71, abs=0.005)

    def test_known_unstable_point(self):
        eq = equilibrium_from_throttle(M, throttle_from_flow(M, 0.4))
        assert eq.phi == pytest.approx(0.4, abs=1e-10)
        assert eq.psi == pytest.approx(0.6746, abs=1e-3)

    @pytest.mark.parametrize("flow,bits", [
        (0.4, ("0x1.999999999999ap-2", "0x1.595feda661284p-1")),
        (0.51, ("0x1.051eb851eb852p-1", "0x1.6c51e2cbbcac6p-1"))])
    def test_equilibrium_bits(self, flow, bits):
        # the bisection's iterates, then Newton's, decide every bit
        eq = equilibrium_from_throttle(M, throttle_from_flow(M, flow))
        assert (eq.phi.hex(), eq.psi.hex()) == bits

    def test_roundtrip_grid(self):
        for phi in np.linspace(0.01, 0.79, 200):
            eq = equilibrium_from_throttle(M, throttle_from_flow(M, float(phi)))
            assert abs(eq.phi - phi) <= 1e-8

    @pytest.mark.parametrize("g", [1.9536483621135727, 8.4e-7, 5e-7])
    def test_root_near_a_domain_end_is_found(self, g):
        # the root lies within 1e-6 of an end of the open domain, outside
        # the shrunk bracket, and is found in the end sliver
        eq = equilibrium_from_throttle(M, g)
        assert M.domain_lo < eq.phi < M.domain_hi
        assert min(eq.phi - M.domain_lo, M.domain_hi - eq.phi) < 1e-6
        assert abs(map_pressure_rise(M, eq.phi) - (eq.phi / g) ** 2) <= 1e-10

    def test_residual_bound(self):
        for phi in (0.1, 0.3, 0.55, 0.7):
            g = throttle_from_flow(M, phi)
            eq = equilibrium_from_throttle(M, g)
            assert abs(map_pressure_rise(M, eq.phi) - (eq.phi / g) ** 2) <= 1e-10

    def test_unique_sign_change(self):
        # single equilibrium: the defect function changes sign exactly once
        scan = np.linspace(1e-6, 0.8 - 1e-6, 1000)
        for phi in np.linspace(0.01, 0.79, 40):
            g = throttle_from_flow(M, float(phi))
            f = np.array([map_pressure_rise(M, float(p)) - (p / g) ** 2
                          for p in scan])
            flips = np.sum(np.sign(f[:-1]) * np.sign(f[1:]) < 0)
            assert flips == 1

    def test_no_equilibrium(self):
        with pytest.raises(NoEquilibriumError):
            equilibrium_from_throttle(M, 1e6)

    @pytest.mark.parametrize("g", [1e-50, 1e-200])
    def test_tiny_throttle_is_refused(self, g):
        # their roots lie far below the bisection's 1e-12 tolerance, and
        # the square of 1e-200 underflows to 0.0
        with pytest.raises(NoEquilibriumError):
            equilibrium_from_throttle(M, g)

    def test_bad_throttle(self):
        with pytest.raises(DomainError):
            equilibrium_from_throttle(M, 0.0)
        with pytest.raises(DomainError):
            equilibrium_from_throttle(M, -2.0)


class TestBisection:
    def test_stops_where_the_value_is_within_ftol(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.5
        assert bisect_sign_change(f, 0.0, 1.0, -0.5, 0.0, 0.0, 80) == (
            0.5, True)
        assert calls == [0.5]

    def test_returns_the_last_midpoint_when_iterations_run_out(self):
        # halvings keep [0.25, 0.375]; its midpoint is not evaluated
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3
        assert bisect_sign_change(f, 0.0, 1.0, -0.3, 0.0, 0.0, 3) == (
            0.3125, False)
        assert calls == [0.5, 0.25, 0.375]


class TestTypes:
    def test_map_validates_domain(self):
        with pytest.raises(DomainError):
            CompressorMap(domain_lo=0.5, domain_hi=0.5)

    def test_map_fields_are_the_pressure_rise_parameters(self):
        # the map's first eight fields are pressure_rise's parameters
        # after phi, in order, and constants is their values
        params = list(inspect.signature(pressure_rise).parameters)
        names = [f.name for f in dataclasses.fields(CompressorMap)]
        assert params[0] == "phi"
        assert names[:8] == params[1:]
        assert M.constants == tuple(getattr(M, n) for n in names[:8])

    @pytest.mark.parametrize("key", ["psi0", "c0", "c3", "domain_lo"])
    def test_map_refuses_a_nonfinite_field(self, key):
        with pytest.raises(DomainError, match=re.escape(
                "map coefficients must be four finite cubic coefficients "
                "plus finite scalars")):
            CompressorMap(**{key: -math.inf})

    @pytest.mark.parametrize("g", [0.0, -1.0, math.inf, -math.inf,
                                   math.nan])
    def test_simulate_rejects_bad_throttle(self, g):
        with pytest.raises(DomainError, match="^g must be finite"):
            simulate_greitzer(PlantState(0.63, 0.62), g)


class TestPlantConfig:
    def test_start_needs_a_throttle(self):
        with pytest.raises(DomainError, match="plant.flow or plant.g"):
            PlantConfig().start(M)

    def test_start_needs_both_initial_values(self):
        with pytest.raises(DomainError, match="phi0=0.5, psi0=None"):
            PlantConfig(phi0=0.5, g=0.6).start(M)

    def test_start_from_given_state_or_perturbed_equilibrium(self):
        assert PlantConfig(phi0=0.5, psi0=0.6, g=0.6).start(M) == (
            PlantState(0.5, 0.6), 0.6)
        eq = equilibrium_from_throttle(M, 0.6)
        assert PlantConfig(g=0.6).start(M) == (
            PlantState(eq.phi + 0.01, eq.psi + 0.01), 0.6)

    @pytest.mark.parametrize("flow", [5e-7, 0.4, 0.51, 0.7999995, 0.79999999])
    def test_flow_starts_from_its_own_equilibrium(self, flow):
        # the flow and its map value, moved by the perturbation, bit for
        # bit, with the throttle that holds it there
        start, g = PlantConfig(flow=flow, perturb_phi=0.02,
                               perturb_psi=-0.01).start(M)
        psi = map_pressure_rise(M, flow)
        assert (start.phi, start.psi, g) == (flow + 0.02, psi - 0.01,
                                             flow / math.sqrt(psi))
