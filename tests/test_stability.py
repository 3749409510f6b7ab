"""Jacobian algebra, surge boundary, divergence indicator, cycle detection."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surgekit import cli, stability
from surgekit.compressor import (DEFAULT_MAP, CompressorMap, PlantState,
                                 equilibrium_from_throttle, throttle_from_flow)
from surgekit.errors import AnalysisError, DomainError, NoSignChangeError
from surgekit.odesim import Trajectory, simulate_greitzer
from surgekit.stability import (BOUNDARY, CLASS_TOL, SCAN_HEADER,
                                STABLE_FOCUS, UNSTABLE_FOCUS, CycleConfig,
                                StabilityConfig, _focus, char_poly,
                                detect_limit_cycle, eig_real_part,
                                jacobian_at_equilibrium, region_boundaries,
                                stability_scan, surge_boundary)

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
        table = stability_scan(M, StabilityConfig(0.5, 0.6, 2))
        assert table.phi[0] == 0.5
        assert table.discriminant[0] == pytest.approx(-3.8073628448112613,
                                                      abs=1e-9)

    def test_negative_throughout_working_range(self):
        table = stability_scan(M, GRID_SCAN)
        assert table.phi.tolist() == GRID.tolist()
        assert (table.discriminant < 0.0).all()


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
        # the boundary is read off the scan's own arrays, which it asks
        # for once; it evaluates no grid of its own
        scans = []
        scan_arrays = stability._scan_arrays

        def spy(cmap, scan):
            scans.append(scan)
            return scan_arrays(cmap, scan)

        monkeypatch.setattr(stability, "_scan_arrays", spy)
        scan = StabilityConfig(0.3, 0.6, 37)
        b = surge_boundary.__wrapped__(M, scan)
        assert scans == [scan]
        table = stability_scan(M, scan)
        real = table.real_part
        i = max(k for k in range(36) if real[k] > 0.0 > real[k + 1])
        assert table.phi[i] < b < table.phi[i + 1]

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


class TestRegionBoundaries:
    #: a map steeper than the throttle line where psi_c turns positive:
    #: a saddle, then an unstable node, two foci and a stable node
    SADDLE = CompressorMap(psi0=0.3, c0=-1.0, c1=3.0, c2=0.0, c3=-1.0)

    def test_default_map_hopf_point_is_the_surge_boundary(self):
        # the quintic's one root on the map is the bisected boundary; the
        # map is a focus everywhere, so the other two have none
        found = region_boundaries(M)
        assert len(found.trace) == 1
        assert abs(found.trace[0] - surge_boundary(M)) <= 1e-12
        assert len(found.determinant) == len(found.discriminant) == 0

    def test_focus_node_changes_of_a_taller_map(self):
        found = region_boundaries(CompressorMap(h=0.6))
        np.testing.assert_allclose(
            found.discriminant,
            [0.101785, 0.401338, 0.583770, 0.775147, 0.776860], atol=1e-6)
        assert len(found.determinant) == 0

    def test_saddle_ends_where_the_determinant_turns_positive(self):
        found = region_boundaries(self.SADDLE)
        assert found.determinant == pytest.approx([0.3467], abs=5e-5)

    @pytest.mark.parametrize("cmap", [M, CompressorMap(h=0.6), SADDLE],
                             ids=["default", "h-0.6", "saddle"])
    def test_each_root_is_a_sign_change_of_the_scalar_path(self, cmap):
        # trace -b, determinant c and discriminant b*b - 4c of char_poly
        # change sign across each root, and every root is in order on
        # the map where psi_c > 0
        found = region_boundaries(cmap)
        quantities = {"trace": lambda b, c: -b,
                      "determinant": lambda b, c: c,
                      "discriminant": lambda b, c: b * b - 4.0 * c}
        for name, quantity in quantities.items():
            roots = getattr(found, name)
            assert list(roots) == sorted(roots)
            for phi in roots:
                below = quantity(*char_poly(cmap, phi - 1e-7))
                above = quantity(*char_poly(cmap, phi + 1e-7))
                assert below * above < 0.0, (name, phi)


class TestBendixson:
    # the scan's ``bendixson_r`` column, the divergence indicator
    def test_values(self):
        table = stability_scan(M, StabilityConfig(0.4, 0.5, 2))
        assert table.phi.tolist() == [0.4, 0.5]
        low, high = table.bendixson_r
        assert high == pytest.approx(-0.4389044943820225, abs=1e-12)
        assert low == pytest.approx(0.18234804554079687, abs=1e-12)

    def test_twice_the_real_part_everywhere(self):
        table = stability_scan(M, GRID_SCAN)
        for phi, real, div in zip(table.phi.tolist(),
                                  table.real_part.tolist(),
                                  table.bendixson_r.tolist(), strict=True):
            assert abs(div - 2.0 * real) <= 1e-12
            assert abs(div - np.trace(
                jacobian_at_equilibrium(M, phi))) <= 1e-12

    def test_negative_in_stable_zone(self):
        b = surge_boundary(M)
        table = stability_scan(M, StabilityConfig(b + 1e-3, 0.79, 200))
        assert (table.bendixson_r < 0.0).all()

    def test_sign_change_matches_boundary(self):
        b = surge_boundary(M)
        table = stability_scan(M, StabilityConfig(0.1, 0.79, 6901))
        vals = table.bendixson_r
        i = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        assert len(i) == 1
        assert abs(table.phi[i[0]] - b) <= 1e-3


class TestStabilityScan:
    def test_grid_spacing(self):
        table = stability_scan(M, StabilityConfig(0.3, 0.5, 3))
        assert table.phi.tolist() == pytest.approx([0.3, 0.4, 0.5])

    def test_stable_zone_classification(self):
        table = stability_scan(M, StabilityConfig(0.45, 0.79, 50))
        assert set(table.classification.tolist()) == {STABLE_FOCUS}

    def test_unstable_zone_classification(self):
        table = stability_scan(M, StabilityConfig(0.1, 0.42, 50))
        assert set(table.classification.tolist()) == {UNSTABLE_FOCUS}

    def test_classification_consistency(self):
        table = stability_scan(M, StabilityConfig(0.2, 0.7, 101))
        for real, delta, cls in zip(table.real_part.tolist(),
                                    table.discriminant.tolist(),
                                    table.classification.tolist(),
                                    strict=True):
            if real < -1e-9:
                assert cls == STABLE_FOCUS
            elif real > 1e-9:
                assert cls == UNSTABLE_FOCUS
            else:
                assert cls == BOUNDARY
            assert delta < 0.0

    def test_columns_in_header_order(self):
        # the CSV is written from the columns in this order
        table = stability_scan(M, StabilityConfig(0.3, 0.5, 3))
        by_name = dict(zip(SCAN_HEADER, table.columns(), strict=True))
        assert by_name["phi"] is table.phi
        assert by_name["delta"] is table.discriminant
        assert by_name["real_part"] is table.real_part
        assert by_name["bendixson_r"] is table.bendixson_r
        assert by_name["class"] is table.classification

    @pytest.mark.parametrize("scan", [
        StabilityConfig(0.3, 0.5, 2), StabilityConfig(0.3, 0.5, 3),
        GRID_SCAN, StabilityConfig(0.1, 0.79, 6901)])
    def test_length_is_the_number_of_flows(self, scan):
        table = stability_scan(M, scan)
        assert len(table) == scan.n
        assert {len(column) for column in table.columns()} == {scan.n}

    def test_first_flow_off_the_map_is_named(self):
        # each flow is checked as the scan meets it
        short = dataclasses.replace(M, domain_hi=0.5)
        with pytest.raises(DomainError, match=r"\(0\.0, 0\.5\), got "
                           r"0\.5006006006006006$"):
            stability_scan(short, StabilityConfig(0.1, 0.79, 1000))

    @settings(max_examples=150, deadline=None, database=None)
    @given(psi0=st.floats(-0.1, 0.6), h=st.floats(0.0, 0.8),
           c3=st.floats(-1.0, 0.2), domain_hi=st.floats(0.4, 1.2),
           lo=st.floats(0.01, 0.45), span=st.floats(1e-9, 0.5),
           n=st.integers(2, 300))
    def test_rows_are_the_scalar_foci_bit_for_bit(self, psi0, h, c3,
                                                   domain_hi, lo, span, n):
        # the scan's arrays give each flow the floats the scalar _focus
        # gives it, and fail where the scalar loop first fails, with its
        # error.  About a third of these maps and ranges scan cleanly;
        # the rest meet real eigenvalues, leave the map or reach psi_c <= 0
        cmap = dataclasses.replace(M, psi0=psi0, h=h, c3=c3,
                                   domain_hi=domain_hi)
        scan = StabilityConfig(lo, lo + span, n)
        phis = np.linspace(scan.lo, scan.hi, scan.n).tolist()
        try:
            foci = [_focus(cmap, phi) for phi in phis]
        except (AnalysisError, DomainError) as err:
            with pytest.raises(type(err)) as scanned:
                stability_scan(cmap, scan)
            assert str(scanned.value) == str(err)
            return
        table = stability_scan(cmap, scan)
        assert len(table) == scan.n
        columns = [column.tolist() for column in table.columns()]
        for k, (phi, delta, real, div, cls) in enumerate(zip(*columns,
                                                             strict=True)):
            want_delta, want_real = foci[k]
            assert phi.hex() == phis[k].hex()
            assert delta.hex() == want_delta.hex()
            assert real.hex() == want_real.hex()
            assert div.hex() == (2.0 * want_real).hex()
            assert cls == (
                STABLE_FOCUS if want_real < -CLASS_TOL else
                UNSTABLE_FOCUS if want_real > CLASS_TOL else BOUNDARY)

    @pytest.mark.parametrize("fields, phi", [
        ({"h": 2.0, "domain_hi": 0.5}, 0.1),
        ({"h": 0.6, "domain_hi": 0.5}, 0.10207207207207208),
        ({"h": 2.0, "domain_lo": 0.2}, 0.1),
        ({"h": 2.0, "psi0": -0.5}, 0.1)],
        ids=["real-then-off-map", "second-flow-real", "off-map-then-real",
             "negative-map-and-real"])
    def test_lowest_failing_flow_is_named(self, fields, phi):
        # flows fail different checks; the lowest failing one is named,
        # with the error the scalar check raises there first, whichever
        # check fails over more of the grid
        cmap = dataclasses.replace(M, **fields)
        with pytest.raises((AnalysisError, DomainError)) as scalar:
            _focus(cmap, phi)
        with pytest.raises(type(scalar.value)) as scanned:
            stability_scan(cmap, StabilityConfig(0.1, 0.79, 1000))
        assert str(scanned.value) == str(scalar.value)

    def test_memory_error_is_the_too_large_error(self, monkeypatch, capsys,
                                                 tmp_path):
        # an n-sized temporary that cannot be held is a DomainError, and
        # the command ends on its one line, not a traceback
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr(stability, "pressure_rise", no_memory)
        with pytest.raises(DomainError,
                           match="^a scan of 1000 points is too large to "
                           "hold$"):
            stability_scan(M, StabilityConfig())
        code = cli.main(["stability", "--out-dir", str(tmp_path)])
        assert (code, capsys.readouterr().err) == (
            4, "error: a scan of 1000 points is too large to hold\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_unsettled_amplitudes_are_rejected(self):
        # 0.001 below the surge boundary 0.434977715 the cycle still
        # grows at t=400: the last three amplitudes spread by 2.7%, past
        # the default tolerance and within a looser one
        run = _cycle_run(0.433977715, t_end=400.0)
        assert not detect_limit_cycle(run).detected
        assert detect_limit_cycle(run, CycleConfig(tol=0.05)).detected

    def test_vanishing_amplitudes_are_rejected(self, monkeypatch):
        # in the stable zone the perturbation rings down to peaks of
        # about 1e-9: a tolerance that takes any spread still rejects
        # them, through MIN_AMPLITUDE
        run = _cycle_run(0.51)
        assert not detect_limit_cycle(run, CycleConfig(tol=1e9)).detected
        monkeypatch.setattr(stability, "MIN_AMPLITUDE", 0.0)
        assert detect_limit_cycle(run, CycleConfig(tol=1e9)).detected

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
