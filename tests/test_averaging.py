"""Averaged adaptation dynamics: rates, Jacobian, eigenvalues, verdicts."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import integrate, loop_rates

from surgekit._kernels import KIND_ADAPTIVE, closed_loop_rhs
from surgekit.averaging import (AveragedPoint, AveragingConfig,
                                averaged_eigenvalues, averaged_jacobian,
                                averaged_rhs, grid_points, stability_verdict,
                                VERDICT_TOL)
from surgekit.errors import DomainError
from surgekit.scenario import resolve_scenario

P0 = AveragedPoint(k1=10.0, k2=10.0, k3=0.7, r=0.55, gamma=1.0)


class TestAveragedRhs:
    def test_fixed_point_manifold(self):
        for k2 in (0.0, 1.0, 4.0, 25.0):
            p = AveragedPoint(k1=1.0 + k2, k2=k2)
            dk = averaged_rhs(p)
            assert dk == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_hand_values(self):
        dk1, dk2, dk3 = averaged_rhs(P0)
        assert dk1 == pytest.approx(0.3025 / 11.0, rel=1e-12)
        assert dk2 == pytest.approx(-0.3025 * 10.0 / 121.0, rel=1e-12)
        assert dk3 == 0.0

    @pytest.mark.parametrize("k1, k2, k3, r, gamma, vtau, dtau", [
        (10.0, 10.0, 0.7, 0.55, 1.0, 2.0, 1.0),
        (10.1726, 9.8303, 0.7, 0.55, 1.0, 2.0, 1.0),
        (0.0, 0.1, 0.7, 0.55, 1.0, 0.5, 3.0),
        (1.0, 0.0, 0.0, 0.55, 1.0, 2.0, 1.0),
        (0.5, 2.0, 1.5, 1.2, 0.3, 0.1, 0.2),
        (40.0, 3.0, 0.0, 0.2, 5.0, 7.0, 10.0)])
    def test_kernel_gain_rates_at_zero_disturbance(self, k1, k2, k3, r,
                                                   gamma, vtau, dtau):
        # the averaged rates are the kernel's gain rates at the fast
        # equilibrium of frozen gains: with no disturbance x = y =
        # k1*r/(1+k2), the reference model at r and the regressors at
        # (r, -y, 0), on a valve that stays linear
        y = k1 * r / (1.0 + k2)
        p = (KIND_ADAPTIVE, 0.0, 0.0, 0.0, gamma, r, vtau, -math.inf,
             math.inf, 0.0, dtau)
        rates = closed_loop_rhs(y, 0.0, r, 0.0, r, -y, 0.0, k1, k2, k3,
                                0.0, p)
        assert max(abs(rate) for rate in rates[:7]) <= 1e-12
        assert rates[7:10] == pytest.approx(
            averaged_rhs(AveragedPoint(k1, k2, k3, r, gamma)), rel=1e-12)

    def test_singularity_guard(self):
        with pytest.raises(DomainError):
            AveragedPoint(k1=1.0, k2=-1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            AveragedPoint(k1=-0.1, k2=1.0)
        with pytest.raises(DomainError):
            AveragedPoint(k1=1.0, k2=1.0, gamma=0.0)


class TestAveragedJacobian:
    def test_entry_11(self):
        jac = averaged_jacobian(P0)
        assert jac[0, 0] == pytest.approx(-0.3025 / 11.0, rel=1e-12)

    def test_third_row_and_column_zero(self):
        jac = averaged_jacobian(P0)
        assert np.all(jac[2, :] == 0.0)
        assert np.all(jac[:, 2] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(50):
            k1, k2 = rng.uniform(0.1, 40.0, 2)
            gamma = rng.uniform(0.2, 3.0)
            r = rng.uniform(0.1, 1.0)
            p = AveragedPoint(k1=k1, k2=k2, gamma=gamma, r=r)
            jac = averaged_jacobian(p)
            for j, attr in enumerate(("k1", "k2", "k3")):
                hi = dict(k1=k1, k2=k2, k3=p.k3, gamma=gamma, r=r)
                lo = dict(hi)
                hi[attr] += h
                lo[attr] -= h
                fd = (np.array(averaged_rhs(AveragedPoint(**hi)))
                      - np.array(averaged_rhs(AveragedPoint(**lo)))) / (2 * h)
                np.testing.assert_allclose(jac[:, j], fd, rtol=1e-5,
                                           atol=1e-6)

    def test_block_determinant_vanishes(self):
        for p in grid_points(AveragingConfig(0.1, 50.0, 0.1, 50.0, 8)):
            jac = averaged_jacobian(p)
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            assert abs(det) <= 1e-12


class TestAveragedEigenvalues:
    def test_reference_point(self):
        lam = averaged_eigenvalues(P0)
        assert abs(lam[0]) <= 1e-12 and abs(lam[1]) <= 1e-12
        assert lam[2] == pytest.approx(-0.3025 * 211.0 / 1331.0, abs=1e-4)
        assert lam[2] == pytest.approx(-0.04795, abs=1e-4)

    def test_block_trace_formula(self):
        for p in grid_points(AveragingConfig(0.5, 30.0, 0.5, 30.0, 6)):
            c = 1.0 + p.k2
            expected = -p.gamma * p.r ** 2 * \
                (c * c - p.k1 * c + 2.0 * p.k1 ** 2) / c ** 3
            assert averaged_eigenvalues(p)[2] == pytest.approx(
                expected, rel=1e-9)

    def test_gamma_scaling_is_exact(self):
        lam1 = averaged_eigenvalues(P0)[2]
        lam2 = averaged_eigenvalues(AveragedPoint(
            k1=10.0, k2=10.0, k3=0.7, r=0.55, gamma=2.0))[2]
        assert abs(lam2 - 2.0 * lam1) <= 1e-12 * abs(lam2)

    def test_r_squared_scaling(self):
        lam1 = averaged_eigenvalues(P0)[2]
        lam3 = averaged_eigenvalues(AveragedPoint(
            k1=10.0, k2=10.0, k3=0.7, r=1.10, gamma=1.0))[2]
        assert lam3 == pytest.approx(4.0 * lam1, rel=1e-12)

    def test_k1_zero_closed_form(self):
        p = AveragedPoint(k1=0.0, k2=7.0)
        lam = averaged_eigenvalues(p)
        assert lam[2] == pytest.approx(-p.gamma * p.r ** 2 / 8.0, rel=1e-12)

    def test_two_zeros_one_nonpositive_on_grid(self):
        for p in grid_points(AveragingConfig(0.0, 50.0, 0.0, 50.0, 10)):
            lam = averaged_eigenvalues(p)
            assert abs(lam[0]) <= 1e-12
            assert abs(lam[1]) <= 1e-12
            assert lam[2] <= 0.0


class TestVerdicts:
    def test_positive_grid_is_stable(self):
        rows = stability_verdict(
            grid_points(AveragingConfig(0.1, 50.0, 0.1, 50.0, 10)))
        assert len(rows) == 100
        assert all(r.verdict == "stable" for r in rows)
        assert max(max(r.eigenvalues) for r in rows) <= 1e-9

    def test_saturated_mode_is_marginally_stable(self):
        # with the valve saturated low or high the kernel gates adaptation
        # off: every gain rate is exactly zero, so the saturated mode's
        # eigenvalues all vanish, which the verdict counts as stable
        state = dict(d=0.3, ym1=0.2, v1=0.5, v2=-0.4, v3=0.1,
                     k1=10.0, k2=10.0, k3=0.7)
        rates = ("k1_dot", "k2_dot", "k3_dot")
        assert all(loop_rates(x=0.1, **state)[k] != 0.0 for k in rates)
        h = 1e-6
        for x in (0.05 - 1e-3, 0.25 + 1e-3):     # below out_min, above out_max
            r = loop_rates(x=x, **state)
            assert r["e"] != 0.0
            assert tuple(r[k] for k in rates) == (0.0, 0.0, 0.0)
            # finite differences in the gains: the Jacobian of the gain
            # rates is zero, and with it every eigenvalue
            jac = np.array([
                [(loop_rates(x=x, **{**state, g: state[g] + h})[k] - r[k]) / h
                 for g in ("k1", "k2", "k3")] for k in rates])
            assert max(np.linalg.eigvals(jac).real) <= VERDICT_TOL

    def test_bound_scales_with_the_jacobian(self):
        # at r = 1e150 the entries reach 1e301 and the eigensolve's exact
        # zeros come out near 1e287, far above an absolute 1e-9; relative
        # to the entries every point is stable, as it is at r = 0.55
        rows = stability_verdict(grid_points(AveragingConfig(r=1e150)))
        assert max(max(r.eigenvalues) for r in rows) > 1e280
        assert all(r.verdict == "stable" for r in rows)

    def test_single_point(self):
        rows = stability_verdict([P0])
        assert rows[0].verdict == "stable"
        assert rows[0].eigenvalues[2] < 0.0


def _bits(values):
    """The floats' bit patterns, which tell 0.0 from -0.0."""
    return [float(v).hex() for v in values]


class TestBatchedVerdicts:
    # one batched eigensolve over the grid gives each point the
    # eigenvalues and verdict the per-point path gives it, bit for bit
    def _check(self, points):
        rows = stability_verdict(points)
        assert [w.point for w in rows] == points
        for p, w in zip(points, rows, strict=True):
            lam = averaged_eigenvalues(p)
            assert _bits(w.eigenvalues) == _bits(lam)
            bound = VERDICT_TOL * np.abs(averaged_jacobian(p)).max()
            assert w.verdict == ("stable" if max(lam) <= bound
                                 else "unstable")

    def test_shipped_grid(self):
        points = grid_points(resolve_scenario("avg").averaging)
        assert len(points) == 100
        self._check(points)

    def test_zero_amplitude_signed_zeros(self):
        # r = 0 makes every entry a signed zero, amp * v with v of
        # either sign
        points = grid_points(AveragingConfig(r=0.0, n=4))
        jac = averaged_jacobian(points[0])
        assert not jac.any() and np.signbit(jac).any()
        self._check(points)
        assert all(w.verdict == "stable" for w in stability_verdict(points))

    @settings(max_examples=60, deadline=None, database=None)
    @given(k1=st.floats(0.0, 1e3), k2=st.floats(0.0, 1e3),
           span=st.floats(0.0, 1e4), n=st.integers(2, 6),
           r=st.floats(0.0, 1e3), gamma=st.floats(1e-3, 1e3))
    def test_random_grids(self, k1, k2, span, n, r, gamma):
        self._check(grid_points(AveragingConfig(k1, k1 + span, k2, k2 + span,
                                                n, r=r, gamma=gamma)))

    def test_empty(self):
        assert stability_verdict([]) == []

    def test_overflow_names_the_first_such_point(self):
        # k1 near the float range overflows the Jacobian from the grid's
        # second k1 on: the batch raises the per-point error of the first
        # such point, with no numpy warning on the way
        points = grid_points(AveragingConfig(0.0, 1e308, 0.0, 1.0, 3))
        finite = [np.isfinite(averaged_jacobian(p)).all() for p in points]
        first = finite.index(False)
        assert first == 3
        with pytest.raises(DomainError) as per_point:
            averaged_eigenvalues(points[first])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as batched:
                stability_verdict(points)
        assert str(batched.value) == str(per_point.value)
        assert str(batched.value).startswith(
            "averaged Jacobian is not finite at AveragedPoint(k1=5e+307")


class TestCrossCheckWithSimulation:
    def test_converges_to_fixed_point_manifold(self):
        # integrating the averaged rates from the adaptive initial gains
        # must approach k1 = 1 + k2
        def rhs(t, s):
            p = AveragedPoint(k1=max(s[0], 0.0), k2=max(s[1], 0.0), k3=s[2])
            return np.array(averaged_rhs(p))
        traj = integrate(rhs, [10.0, 10.0, 0.7], 0.05, 300.0,
                         ("k1", "k2", "k3"))
        k1 = traj.column("k1")
        k2 = traj.column("k2")
        assert abs(k1[-1] - (1.0 + k2[-1])) < 1e-4
        assert np.all(traj.column("k3") == 0.7)
