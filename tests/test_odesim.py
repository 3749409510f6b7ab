"""Integrator order/determinism, trajectory contracts, steady-state logic."""

import math

import numpy as np
import pytest
from support import integrate, plant_rates, rk4_step, vector_field_grid

from surgekit import _kernels
from surgekit.compressor import (DEFAULT_MAP, FLOW_GAIN, PRESSURE_GAIN,
                                 PlantState, equilibrium_from_throttle,
                                 map_pressure_rise, throttle_from_flow)
from surgekit.csvio import write_trajectory
from surgekit.errors import DivergenceError, DomainError, ModelBreakdownError
from surgekit.loop import ControllerConfig, simulate_closed_loop
from surgekit.odesim import Trajectory, simulate_greitzer, steady_state_of

M = DEFAULT_MAP
G51 = throttle_from_flow(M, 0.51)


def decay(t, s):
    return -s


def decay_run():
    return integrate(decay, [1.0], 0.1, 1.0, ("x",))


class TestStepRk4:
    # the reference step the kernels are compared against
    def test_zero_rhs_keeps_state(self):
        out = rk4_step(lambda t, s: np.zeros(2), 0.0, np.array([1.5, -2.0]),
                       0.1)
        assert np.array_equal(out, [1.5, -2.0])

    def test_constant_rhs_is_exact(self):
        out = rk4_step(lambda t, s: np.ones(1), 0.0, np.array([3.0]), 0.25)
        assert out[0] == 3.25

    def test_exponential_decay_one_step(self):
        out = rk4_step(decay, 0.0, np.array([1.0]), 0.1)
        # truncated exponential series 1 - h + h^2/2 - h^3/6 + h^4/24
        assert out[0] == pytest.approx(0.9048375, abs=1e-12)
        assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)

    def test_nonfinite_stage_raises(self):
        # the loop state overflows: the kernel stops and reports where
        with np.errstate(all="ignore"), \
                pytest.raises(DivergenceError, match="non-finite") as exc:
            simulate_closed_loop(ControllerConfig(kind="fixed-pid"),
                                 dt=1e200, t_end=1e201)
        assert exc.value.time is not None
        assert np.all(np.isfinite(exc.value.partial.samples))

    def test_bad_dt(self):
        for dt in (0.0, -0.1, math.nan):
            with pytest.raises(DomainError):
                simulate_greitzer(PlantState(0.63, 0.62), G51, M, dt=dt)


class TestIntegrate:
    def test_row_count_and_time_axis(self):
        traj = simulate_greitzer(PlantState(0.63, 0.62), G51, M, dt=0.1,
                                 t_end=1.0)
        assert traj.n_rows == 11
        diffs = np.diff(traj.t)
        assert np.all(diffs > 0)
        assert np.allclose(diffs, 0.1, rtol=1e-12)

    def test_order_four_convergence(self):
        # independent oracle for the reference: exact solution of x' = -x
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj = integrate(decay, [1.0], dt, 1.0, ("x",))
            errs.append(abs(traj.column("x")[-1] - math.exp(-1.0)))
        for e0, e1 in zip(errs, errs[1:]):
            ratio = e0 / e1
            assert 16 * 0.8 <= ratio <= 16 * 1.2

    def test_determinism(self):
        a = simulate_greitzer(PlantState(0.63, 0.62), G51, M)
        b = simulate_greitzer(PlantState(0.63, 0.62), G51, M)
        assert np.array_equal(a.samples, b.samples)

    def test_generic_path_matches_kernel(self):
        # the kernel's step takes surge_rhs's operations in the oracle's
        # order, so every byte matches, on the stable and the surging side
        for g in (G51, 0.6):
            kern = simulate_greitzer(PlantState(0.63, 0.62), g, M, dt=1e-2,
                                     t_end=50.0)
            gen = integrate(lambda t, s: np.array(plant_rates(*s, g)),
                            [0.63, 0.62], 1e-2, 50.0, ("phi", "psi"))
            assert kern.columns == gen.columns
            assert kern.samples.tobytes() == gen.samples.tobytes()

    @pytest.mark.parametrize("stage, g, dt, start, a", [
        (1, 1.0, 0.5, (0.5, 1.0), 5.0), (2, 1.5, 0.125, (-1.0, 2.0), 0.8),
        (3, 0.5, 0.25, (0.5, 0.5), 10.0), (4, 0.5, 1.0, (0.5, 1.0), 2.0)])
    def test_failure_after_some_steps(self, stage, g, dt, start, a):
        # psi reaches zero at RK stage ``stage`` of the step into row 9,
        # the first unfilled row; the rows before it are the oracle's
        out = np.zeros((20, 3))
        out[0] = (0.0, *start)
        m = (g, *M.constants, a, PRESSURE_GAIN)
        assert _kernels.greitzer_loop(out, dt, m) == (
            _kernels.PSI_NONPOSITIVE, 9)
        gen = integrate(
            lambda t, s: np.array(plant_rates(*s, g, M, a=a)), start, dt,
            8 * dt, ("phi", "psi"))
        assert out[:9].tobytes() == gen.samples.tobytes()
        assert not out[9:].any()
        # the stage whose psi is first nonpositive, from the last row
        phi, psi = gen.samples[-1, 1:]
        rates = (0.0, 0.0)
        for k, coef in enumerate((0.0, 0.5 * dt, 0.5 * dt, dt), 1):
            s = psi + coef * rates[1]
            if s <= 0.0:
                break
            rates = plant_rates(phi + coef * rates[0], s, g, M, a=a)
        assert k == stage
        # a record that ends before that step is filled whole
        assert _kernels.greitzer_loop(out[:9].copy(), dt, m) == (
            _kernels.OK, 8)

    def test_negative_psi_fails_immediately(self):
        with pytest.raises(ModelBreakdownError):
            simulate_greitzer(PlantState(0.5, -0.1), 0.6, M)

    def test_all_samples_finite(self):
        g = throttle_from_flow(M, 0.4)
        traj = simulate_greitzer(PlantState(0.41, 0.7), g, M, dt=1e-2,
                                 t_end=100.0)
        assert np.all(np.isfinite(traj.samples))
        assert np.abs(traj.column("phi")).max() <= 1.5


class TestGreitzerRuns:
    def test_settles_to_known_point(self):
        traj = simulate_greitzer(PlantState(0.63, 0.62), G51, M, dt=1e-2,
                                 t_end=50.0)
        ss = steady_state_of(traj, window=5.0, tol=1e-3)
        assert ss is not None
        assert ss[0] == pytest.approx(0.51, abs=0.01)
        assert ss[1] == pytest.approx(0.71, abs=0.01)

    def test_fixed_point_stays_put(self):
        g = throttle_from_flow(M, 0.55)
        eq = equilibrium_from_throttle(M, g)
        traj = simulate_greitzer(eq, g, M, dt=1e-2, t_end=20.0)
        assert np.abs(traj.column("phi") - eq.phi).max() <= 1e-9
        assert np.abs(traj.column("psi") - eq.psi).max() <= 1e-9


class TestSteadyStateOf:
    def test_constant_trajectory(self):
        samples = np.column_stack([np.arange(100) * 0.1,
                                   np.full(100, 2.5), np.full(100, -1.0)])
        traj = Trajectory(0.1, ["t", "a", "b"], samples)
        ss = steady_state_of(traj, window=2.0, tol=1e-12)
        assert np.array_equal(ss, [2.5, -1.0])

    def test_oscillation_returns_none(self):
        g = throttle_from_flow(M, 0.4)
        eq = equilibrium_from_throttle(M, g)
        traj = simulate_greitzer(PlantState(eq.phi + 0.01, eq.psi + 0.01),
                                 g, M, dt=1e-2, t_end=100.0)
        assert steady_state_of(traj, window=10.0, tol=1e-3) is None

    def test_window_validation(self):
        traj = decay_run()
        with pytest.raises(DomainError):
            steady_state_of(traj, window=50.0, tol=1e-3)


class TestTrajectory:
    def test_unknown_column(self):
        traj = decay_run()
        with pytest.raises(DomainError, match="no column"):
            traj.column("y")

    def test_tail_fraction_validation(self):
        traj = decay_run()
        with pytest.raises(DomainError):
            traj.tail(0.0)
        assert traj.tail(0.5).n_rows == 6

    def test_initial_state_shape_checked(self):
        # a non-finite initial state is rejected before the kernel runs
        for phi, psi in ((math.nan, 0.6), (0.5, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                simulate_greitzer(PlantState(phi, psi), G51)

    def test_descriptor_name_count_checked(self, tmp_path):
        # column names must match the sample width when a run is written
        traj = Trajectory(0.1, ["t", "only-one"], np.zeros((3, 3)))
        with pytest.raises(DomainError, match="width"):
            write_trajectory(traj, tmp_path / "bad.csv")


class TestVectorFieldGrid:
    # the kernel's surge_rhs over a grid of states
    def test_single_node_equals_rhs(self):
        # the rates are the model's equations over the public map
        PHI, PSI, DPHI, DPSI = vector_field_grid(0.6, (0.5, 0.5),
                                                 (0.6, 0.6), 1, M)
        assert DPHI[0, 0] == FLOW_GAIN * (map_pressure_rise(M, 0.5) - 0.6)
        assert DPSI[0, 0] == PRESSURE_GAIN * (0.5 - 0.6 * math.sqrt(0.6))

    def test_equilibrium_is_local_field_minimum(self):
        eq = equilibrium_from_throttle(M, G51)
        PHI, PSI, DPHI, DPSI = vector_field_grid(
            G51, (eq.phi - 0.1, eq.phi + 0.1),
            (eq.psi - 0.1, eq.psi + 0.1), 21, M)
        mag = np.hypot(DPHI, DPSI)
        centre = mag[10, 10]
        corners = [mag[0, 0], mag[0, -1], mag[-1, 0], mag[-1, -1]]
        assert all(centre < c for c in corners)

    def test_rotation_around_unstable_focus(self):
        # complex eigenvalues mean the field rotates: the four sign
        # quadrants of (dphi, dpsi) all occur on a small circle
        g = throttle_from_flow(M, 0.4)
        eq = equilibrium_from_throttle(M, g)
        quadrants = set()
        for ang in np.linspace(0, 2 * math.pi, 48, endpoint=False):
            dphi, dpsi = plant_rates(eq.phi + 0.02 * math.cos(ang),
                                     eq.psi + 0.02 * math.sin(ang), g)
            quadrants.add((dphi > 0, dpsi > 0))
        assert len(quadrants) == 4

    def test_range_validation(self):
        # the field ends at psi = 0: the kernel's own stage check reports
        # it for a run started there, before any rate is evaluated
        for psi in (0.0, -0.1):
            out = np.zeros((5, 3))
            out[0] = (0.0, 0.1, psi)
            status, row = _kernels.greitzer_loop(
                out, 0.1, (0.6, *M.constants, FLOW_GAIN, PRESSURE_GAIN))
            assert (status, row) == (_kernels.PSI_NONPOSITIVE, 1)
