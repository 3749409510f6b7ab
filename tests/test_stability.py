"""Jacobian algebra, surge boundary, divergence indicator, cycle detection."""

import dataclasses
import warnings

import numpy as np
import pytest

from surgekit import stability
from surgekit.compressor import (DEFAULT_MAP, CompressorMap, PlantState,
                                 equilibrium_from_throttle, throttle_from_flow)
from surgekit.errors import AnalysisError, DomainError, NoSignChangeError
from surgekit.odesim import Trajectory, simulate_greitzer
from surgekit.stability import (BOUNDARY, SCAN_HEADER, STABLE_FOCUS,
                                UNSTABLE_FOCUS, CycleConfig,
                                StabilityConfig, char_poly,
                                detect_limit_cycle, eig_real_part,
                                jacobian_at_equilibrium, stability_scan,
                                surge_boundary)

M = DEFAULT_MAP
GRID = np.linspace(0.01, 0.79, 1000)
#: the scan over GRID
GRID_SCAN = StabilityConfig(0.01, 0.79, 1000)


class TestJacobian:
    def test_at_map_peak(self):
        jac = jacobian_at_equilibrium(M, 0.5)
        np.testing.assert_allclose(
            jac, [[0.0, -0.8], [1.25, -0.4389044943820225]], atol=1e-12)

    def test_upper_left_values(self):
        assert jacobian_at_equilibrium(M, 0.25)[0, 0] == pytest.approx(
            0.864, abs=1e-12)
        jac = jacobian_at_equilibrium(M, 0.4)
        assert jac[0, 0] == pytest.approx(0.55296, abs=1e-12)
        assert jac[1, 1] == pytest.approx(-0.25 / 0.67456, abs=1e-12)

    def test_domain_check(self):
        for phi in (0.0, 0.8, -0.2, 1.0):
            with pytest.raises(DomainError):
                jacobian_at_equilibrium(M, phi)


class TestCharPoly:
    def test_values(self):
        b, c = char_poly(M, 0.5)
        assert b == pytest.approx(0.4389044943820225, abs=1e-12)
        assert c == pytest.approx(1.0, abs=1e-12)
        b4, _ = char_poly(M, 0.4)
        assert b4 == pytest.approx(-0.18234804554079687, abs=1e-12)

    def test_consistent_with_jacobian(self):
        for phi in GRID[::25]:
            jac = jacobian_at_equilibrium(M, float(phi))
            b, c = char_poly(M, float(phi))
            assert b == pytest.approx(-np.trace(jac), abs=1e-12)
            assert c == pytest.approx(np.linalg.det(jac), abs=1e-12)

    def test_roots_match_eigenvalues(self):
        # cross-validation of two code paths
        for phi in GRID[::10]:
            jac = jacobian_at_equilibrium(M, float(phi))
            b, c = char_poly(M, float(phi))
            eig = np.sort_complex(np.linalg.eigvals(jac))
            roots = np.sort_complex(np.roots([1.0, b, c]))
            np.testing.assert_allclose(eig, roots, atol=1e-10)


class TestDiscriminant:
    # the scan's ``delta`` column
    def test_value_at_peak(self):
        row = stability_scan(M, StabilityConfig(0.5, 0.6, 2))[0]
        assert row.phi == 0.5
        assert row.discriminant == pytest.approx(-3.8073628448112613,
                                                 abs=1e-9)

    def test_negative_throughout_working_range(self):
        rows = stability_scan(M, GRID_SCAN)
        assert [r.phi for r in rows] == GRID.tolist()
        assert all(r.discriminant < 0.0 for r in rows)


class TestRealPart:
    def test_values(self):
        assert eig_real_part(M, 0.5) == pytest.approx(-0.21945224719101125,
                                                      abs=1e-12)
        assert eig_real_part(M, 0.4) == pytest.approx(0.09117402277039843,
                                                      abs=1e-12)
        assert eig_real_part(M, 0.6) < 0.0

    def test_single_sign_change(self):
        vals = np.array([eig_real_part(M, float(p))
                         for p in np.linspace(0.1, 0.79, 1000)])
        flips = np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        assert flips == 1

    def test_matches_numeric_eigenvalues(self):
        for phi in GRID[::50]:
            eig = np.linalg.eigvals(jacobian_at_equilibrium(M, float(phi)))
            assert eig_real_part(M, float(phi)) == pytest.approx(
                eig.real.mean(), abs=1e-12)

    # above about 0.65 the decay reaches round-off within the run
    @pytest.mark.parametrize("flow", [0.3, 0.42, 0.45, 0.6])
    def test_matches_kernel_run(self, flow):
        # the analysis linearises the model the open-loop kernel
        # integrates: a small kick off the equilibrium grows or decays
        # at the eigenvalue real part, read from the phi peaks
        g = throttle_from_flow(M, flow)
        eq = equilibrium_from_throttle(M, g)
        traj = simulate_greitzer(PlantState(eq.phi + 1e-6, eq.psi), g, M,
                                 dt=1e-3, t_end=30.0)
        x = traj.column("phi") - eq.phi
        peaks = np.nonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:]))[0] + 1
        assert len(peaks) >= 2
        slope = np.polyfit(traj.t[peaks], np.log(x[peaks]), 1)[0]
        assert slope == pytest.approx(eig_real_part(M, flow), rel=1e-3)


class TestSurgeBoundary:
    def test_location(self):
        b = surge_boundary(M)
        assert 0.42 <= b <= 0.44
        assert b == pytest.approx(0.43, abs=0.01)
        assert b == pytest.approx(0.434977715135924, abs=1e-9)

    def test_brackets_the_root(self):
        b = surge_boundary(M)
        assert eig_real_part(M, b - 0.01) > 0.0
        assert eig_real_part(M, b + 0.01) < 0.0
        assert abs(eig_real_part(M, b)) <= 1e-10

    def test_no_sign_change_raises(self):
        with pytest.raises(AnalysisError):
            surge_boundary(M, scan=StabilityConfig(lo=0.5, hi=0.7))

    @pytest.mark.parametrize("scan,bits", [
        (StabilityConfig(), "0x1.bd6acc53fd8a4p-2"),
        (StabilityConfig(0.3, 0.6), "0x1.bd6acc53fceccp-2")])
    def test_bits(self, scan, bits):
        # the bracket and the bisection's iterates decide every bit
        assert surge_boundary(M, scan=scan).hex() == bits

    def test_bisects_the_scans_rightmost_sign_change(self, monkeypatch):
        # the boundary is read off the scan's own rows, which it asks for
        # once; it evaluates no grid of its own
        scans = []

        def spy(cmap, scan):
            scans.append(scan)
            return stability_scan(cmap, scan)

        monkeypatch.setattr(stability, "stability_scan", spy)
        scan = StabilityConfig(0.3, 0.6, 37)
        b = surge_boundary.__wrapped__(M, scan)
        assert scans == [scan]
        rows = stability_scan(M, scan)
        i = max(k for k in range(36)
                if rows[k].real_part > 0.0 > rows[k + 1].real_part)
        assert rows[i].phi < b < rows[i + 1].phi

    def test_equal_map_is_a_cache_hit(self):
        # an equal map, built apart from the shipped one's fields, hashes
        # as the shipped one and gets its boundary from the cache
        first = surge_boundary(M)
        hits = surge_boundary.cache_info().hits
        twin = CompressorMap(**dataclasses.asdict(M))
        assert twin is not M
        assert surge_boundary(twin) == first
        assert surge_boundary.cache_info().hits == hits + 1

    def test_no_boundary_raises_on_every_call(self):
        # an error is not cached: each call searches again and raises
        scan = StabilityConfig(lo=0.5, hi=0.7)
        misses = surge_boundary.cache_info().misses
        for _ in range(2):
            with pytest.raises(NoSignChangeError):
                surge_boundary(M, scan=scan)
        assert surge_boundary.cache_info().misses == misses + 2


class TestBendixson:
    # the scan's ``bendixson_r`` column, the divergence indicator
    def test_values(self):
        low, high = stability_scan(M, StabilityConfig(0.4, 0.5, 2))
        assert (low.phi, high.phi) == (0.4, 0.5)
        assert high.bendixson_r == pytest.approx(-0.4389044943820225,
                                                 abs=1e-12)
        assert low.bendixson_r == pytest.approx(0.18234804554079687,
                                                abs=1e-12)

    def test_twice_the_real_part_everywhere(self):
        for r in stability_scan(M, GRID_SCAN):
            assert abs(r.bendixson_r - 2.0 * r.real_part) <= 1e-12
            assert abs(r.bendixson_r - np.trace(
                jacobian_at_equilibrium(M, r.phi))) <= 1e-12

    def test_negative_in_stable_zone(self):
        b = surge_boundary(M)
        rows = stability_scan(M, StabilityConfig(b + 1e-3, 0.79, 200))
        assert all(r.bendixson_r < 0.0 for r in rows)

    def test_sign_change_matches_boundary(self):
        b = surge_boundary(M)
        rows = stability_scan(M, StabilityConfig(0.1, 0.79, 6901))
        vals = np.array([r.bendixson_r for r in rows])
        i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        assert len(i) == 1
        assert abs(rows[i[0]].phi - b) <= 1e-3


class TestStabilityScan:
    def test_grid_spacing(self):
        rows = stability_scan(M, StabilityConfig(0.3, 0.5, 3))
        assert [r.phi for r in rows] == pytest.approx([0.3, 0.4, 0.5])

    def test_stable_zone_classification(self):
        rows = stability_scan(M, StabilityConfig(0.45, 0.79, 50))
        assert all(r.classification == STABLE_FOCUS for r in rows)

    def test_unstable_zone_classification(self):
        rows = stability_scan(M, StabilityConfig(0.1, 0.42, 50))
        assert all(r.classification == UNSTABLE_FOCUS for r in rows)

    def test_classification_consistency(self):
        for r in stability_scan(M, StabilityConfig(0.2, 0.7, 101)):
            if r.real_part < -1e-9:
                assert r.classification == STABLE_FOCUS
            elif r.real_part > 1e-9:
                assert r.classification == UNSTABLE_FOCUS
            else:
                assert r.classification == BOUNDARY
            assert r.discriminant < 0.0

    def test_rows_are_tuples_in_header_order(self):
        # a row is written to the CSV as it is
        row = stability_scan(M, StabilityConfig(0.3, 0.5, 3))[0]
        assert dict(zip(SCAN_HEADER, row, strict=True)) == {
            "phi": row.phi, "delta": row.discriminant,
            "real_part": row.real_part, "bendixson_r": row.bendixson_r,
            "class": row.classification}

    def test_first_flow_off_the_map_is_named(self):
        # each flow is checked as the scan meets it
        short = dataclasses.replace(M, domain_hi=0.5)
        with pytest.raises(DomainError, match=r"\(0\.0, 0\.5\), got "
                           r"0\.5006006006006006$"):
            stability_scan(short, StabilityConfig(0.1, 0.79, 1000))

    def test_range_validation(self):
        with pytest.raises(DomainError):
            stability_scan(M, StabilityConfig(0.5, 0.3, 10))
        with pytest.raises(DomainError):
            stability_scan(M, StabilityConfig(0.1, 0.5, 1))
        with pytest.raises(DomainError):
            stability_scan(M, StabilityConfig(0.5, 0.9, 10))

    def test_span_past_the_float_range_is_refused(self):
        # linspace would overflow on hi - lo; the config refuses the span
        # before any warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"finite span hi - lo .*"
                               r"lo=-1e\+308, hi=1e\+308"):
                StabilityConfig(-1e308, 1e308, 5)


def _cycle_run(flow, dt=1e-2, t_end=100.0):
    g = throttle_from_flow(M, flow)
    eq = equilibrium_from_throttle(M, g)
    return simulate_greitzer(PlantState(eq.phi + 0.01, eq.psi + 0.01),
                             g, M, dt=dt, t_end=t_end)


class TestLimitCycleDetection:
    def test_detected_in_unstable_zone(self):
        rep = detect_limit_cycle(_cycle_run(0.4))
        assert rep.detected
        assert rep.amplitude_phi > 0.0
        assert rep.amplitude_psi > 0.0
        assert rep.period > 0.0
        assert rep.cycles_analyzed >= 3

    def test_peak_convergence_within_tolerance(self):
        rep = detect_limit_cycle(_cycle_run(0.4), CycleConfig(tol=0.01))
        assert rep.detected

    def test_not_detected_in_stable_zone(self):
        rep = detect_limit_cycle(_cycle_run(0.55))
        assert not rep.detected

    def test_constant_trajectory(self):
        samples = np.column_stack([np.arange(200) * 0.1,
                                   np.full(200, 0.5), np.full(200, 0.7)])
        traj = Trajectory(0.1, ["t", "phi", "psi"], samples)
        assert not detect_limit_cycle(traj).detected

    def test_settle_fraction_validation(self):
        traj = _cycle_run(0.4, t_end=20.0)
        with pytest.raises(DomainError):
            detect_limit_cycle(traj, CycleConfig(settle_fraction=1.0))

    def test_amplitude_robust_to_step_halving(self):
        a = detect_limit_cycle(_cycle_run(0.4, dt=1e-2))
        b = detect_limit_cycle(_cycle_run(0.4, dt=5e-3))
        assert a.detected and b.detected
        assert abs(a.amplitude_phi - b.amplitude_phi) <= 0.02 * a.amplitude_phi
