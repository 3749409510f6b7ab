"""Valve, controllers, tuning rule, reference model, closed-loop scenarios.

The loop equations are tested where they are defined: the kernel's
``closed_loop_rhs`` at hand-built states (``support.loop_rates``), or a
kernel run through ``simulate_closed_loop``.
"""

import math

import numpy as np
import pytest
from support import (integrate, loop_rates, observed_rates,
                     reference_matrix, tracking_cost)

from surgekit._kernels import CL_DIM, CL_STATE
from surgekit.compressor import DEFAULT_MAP, map_pressure_rise
from surgekit.errors import DegenerateResponseError, DivergenceError, \
    DomainError
from surgekit.loop import (ADAPTIVE, ControllerConfig, DisturbanceProfile,
                           FIXED_PD, FIXED_PID, TuneConfig, ValveModel,
                           extract_LT, gain_excursion, initial_loop_state,
                           simulate_closed_loop, zn_gains)

VALVE = ValveModel()
GAINS = {"k1": 10.0, "k2": 10.0, "k3": 0.7}    # adaptive gains in use


class TestValve:
    def test_rhs_zero_at_steady_state(self):
        # a P law whose command equals the valve output holds it at rest
        r = loop_rates(FIXED_PD, x=0.125, d=0.375, kp=1.0, kd=0.0,
                       reference=0.625)
        assert r["u"] == 0.125 and r["x_dot"] == 0.0

    def test_rhs_value(self):
        r = loop_rates(FIXED_PD, x=0.1, d=0.35, kp=10.0, kd=0.0)
        assert r["u"] == pytest.approx(1.0)
        assert r["x_dot"] == pytest.approx(0.45)

    def test_step_response_time_constant(self):
        # kp = kd = 0 commands u = 0, so x decays as exp(-t/tau)
        traj = simulate_closed_loop(
            ControllerConfig(kind=FIXED_PD, kp=0.0, kd=0.0), t_end=6.0)
        x = traj.column("x")
        i = int(round(VALVE.tau / traj.dt))
        assert x[i] / x[0] == pytest.approx(math.exp(-1.0), abs=1e-14)
        # crossing of x0/e happens at t = tau up to the sample grid
        cross = traj.t[np.argmax(x <= x[0] * math.exp(-1.0))]
        assert cross == pytest.approx(VALVE.tau, abs=0.01)

    @pytest.mark.parametrize("x,expected", [
        (0.3, 0.25), (0.1, 0.1), (0.0, 0.05),
        (0.25, 0.25), (0.05, 0.05),
    ])
    def test_saturation_branches(self, x, expected):
        assert loop_rates(x=x, d=0.3)["co"] == expected

    def test_linear_mode_is_inclusive(self):
        # the adaptive gains move only in linear mode
        def moving(x):
            r = loop_rates(x=x, d=0.3, ym1=0.2, v1=0.5, **GAINS)
            return r["k1_dot"] != 0.0
        assert moving(0.05) and moving(0.25)
        assert not moving(0.25 + 1e-12)
        assert not moving(0.05 - 1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            ValveModel(tau=0.0)
        with pytest.raises(DomainError):
            ValveModel(out_min=0.3, out_max=0.2)
        with pytest.raises(DomainError):
            ValveModel(tau=math.inf)


class TestPlantOutput:
    def test_values(self):
        # y = d + co; a command below the floor still delivers out_min
        for d, x, y in ((0.35, 0.20, 0.55), (0.6, 0.05, 0.65),
                        (0.42, 0.0, 0.47)):
            r = loop_rates(x=x, d=d)
            assert r["y"] == pytest.approx(y) and r["y"] == d + r["co"]


class TestDisturbance:
    def test_zero_at_target(self):
        assert loop_rates(d=0.35, target=0.35)["d_dot"] == 0.0

    def test_initial_rate(self):
        assert loop_rates(d=0.0, target=0.35)["d_dot"] == pytest.approx(0.35)

    def test_three_time_constants(self):
        prof = DisturbanceProfile(target=0.35, tau=1.0, initial=0.0)
        traj = simulate_closed_loop(ControllerConfig(), profile=prof,
                                    t_end=3.0)
        reached = traj.column("d")[-1] / prof.target
        assert reached == pytest.approx(1.0 - math.exp(-3.0), rel=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            DisturbanceProfile(tau=0.0)
        with pytest.raises(DomainError):
            DisturbanceProfile(tau=math.inf)


class TestTuningRule:
    def test_pid_gains(self):
        g = zn_gains(TuneConfig(0.213, 1.79, "PID"))
        assert g["kp"] == pytest.approx(10.0845070422535, rel=1e-12)
        assert g["kd"] == pytest.approx(1.074, rel=1e-12)
        assert g["ki"] == pytest.approx(23.672551746419, rel=1e-9)
        assert g["ti"] == pytest.approx(0.426) and g["td"] == pytest.approx(0.1065)

    def test_p_rule(self):
        g = zn_gains(TuneConfig(0.2, 1.6, "P"))
        assert g["kp"] == pytest.approx(8.0)
        assert math.isinf(g["ti"]) and g["td"] == 0.0
        assert g["ki"] == 0.0 and g["kd"] == 0.0

    def test_pi_rule(self):
        g = zn_gains(TuneConfig(0.2, 1.6, "PI"))
        assert g["kp"] == pytest.approx(0.9 * 8.0)
        assert g["ti"] == pytest.approx(0.2 / 0.3)

    def test_ratio_invariance(self):
        a = zn_gains(TuneConfig(0.213, 1.79, "PID"))
        b = zn_gains(TuneConfig(0.426, 3.58, "PID"))
        assert a["kp"] == pytest.approx(b["kp"], rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            zn_gains(TuneConfig(0.0, 1.0, "PID"))
        with pytest.raises(DomainError):
            zn_gains(TuneConfig(0.1, 1.0, "PIDD"))
        with pytest.raises(DomainError):
            zn_gains(TuneConfig(math.inf, 1.0, "PID"))
        with pytest.raises(DomainError):
            zn_gains(TuneConfig(T=1.0))


class TestExtractLT:
    @staticmethod
    def two_lag_step():
        # 1/((s+1)(2s+1)): analytically L = 2*ln(2) - 1, T = 4
        def rhs(t, s):
            return np.array([s[1], (1.0 - s[0] - 3.0 * s[1]) / 2.0])
        return integrate(rhs, [0.0, 0.0], 1e-3, 25.0, ("y", "ydot"))

    def test_first_order_lag(self):
        # max slope at the origin: tangent gives L = 0 and T = tau
        traj = integrate(lambda t, s: (1.0 - s) / 2.0, [0.0], 1e-3, 14.0,
                         ("x",))
        L, T = extract_LT(traj, "x", final_value=1.0)
        assert L == 0.0
        assert T == pytest.approx(2.0, abs=0.01)

    def test_second_order_s_curve(self):
        L, T = extract_LT(self.two_lag_step(), "y", final_value=1.0)
        assert L == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=2e-3)
        assert T == pytest.approx(4.0, abs=5e-3)
        assert T > L > 0.0

    def test_amplitude_invariance(self):
        traj = self.two_lag_step()
        scaled = traj.samples.copy()
        scaled[:, 1:] *= 7.5
        from surgekit.odesim import Trajectory
        traj7 = Trajectory(traj.dt, traj.columns, scaled)
        assert extract_LT(traj, "y", 1.0) == pytest.approx(
            extract_LT(traj7, "y", 7.5), rel=1e-12)

    def test_flat_response_rejected(self):
        from surgekit.odesim import Trajectory
        samples = np.column_stack([np.arange(100) * 0.1, np.full(100, 0.3)])
        with pytest.raises(DegenerateResponseError):
            extract_LT(Trajectory(0.1, ["t", "y"], samples), "y")


class TestControlSignal:
    # the valve is saturated high (co = 0.25), so y_dot = d_dot; the
    # disturbance sits at its target unless a rate is wanted
    @staticmethod
    def u(d, target, kind=ADAPTIVE, **values):
        return loop_rates(kind, x=0.3, d=d, target=target, **values)["u"]

    def test_adaptive_balanced(self):
        # y = 0.55 = r
        assert self.u(0.30, 0.30, **GAINS) == pytest.approx(0.0)

    def test_adaptive_hand_value(self):
        # y = 0.40: u = 10*0.55 - 10*0.40
        assert self.u(0.15, 0.15, **GAINS) == pytest.approx(1.5)

    def test_fixed_pid_hand_value(self):
        # y = 0.45: u = 10*0.10 + 24*0.05
        assert self.u(0.20, 0.20, FIXED_PID, e_int=0.05, kp=10, ki=24,
                      kd=1) == pytest.approx(2.2)

    def test_fixed_pd_derivative_on_measurement(self):
        # y = 0.5 = r and y_dot = d_dot = 0.3: u = -kd*y_dot
        assert self.u(0.25, 0.55, FIXED_PD, kp=10, kd=2,
                      reference=0.5) == pytest.approx(-0.6)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ControllerConfig(kind="pid")
        with pytest.raises(DomainError):
            ControllerConfig(kind=ADAPTIVE, gamma=0.0)
        with pytest.raises(DomainError):
            ControllerConfig(kp=-1.0)
        with pytest.raises(DomainError):
            ControllerConfig(kind=FIXED_PID, gamma=math.inf)


@pytest.fixture(scope="module")
def ref_step():
    # d and its target at 0: the loop starts at y = out_min = 0.05 and the
    # reference model steps from there to r = 0.55
    return simulate_closed_loop(
        ControllerConfig(reference=0.55),
        profile=DisturbanceProfile(target=0.0, initial=0.0), t_end=6.0)


class TestReferenceModel:
    def test_fixed_point(self):
        r = loop_rates(ym1=0.55, ym2=0.0, reference=0.55)
        assert (r["ym1_dot"], r["ym2_dot"]) == (0.0, 0.0)

    def test_poles(self):
        eig = np.linalg.eigvals(reference_matrix())
        assert np.allclose(sorted(eig.real), [-4.25, -4.25], atol=1e-12)
        assert np.allclose(sorted(abs(eig.imag)),
                           [math.sqrt(6.9375)] * 2, atol=1e-12)

    def test_unit_steady_gain(self, ref_step):
        ym = ref_step.column("ym")
        assert abs(ym[-1] / 0.55 - 1.0) <= 1e-6

    def test_overshoot_below_one_percent(self, ref_step):
        ym = ref_step.column("ym")
        overshoot = (ym.max() - 0.55) / (0.55 - ym[0])
        assert 0.0 < overshoot <= 0.01

    def test_band_exit_settling_time(self, ref_step):
        # frozen oracle from the closed-form response: the error envelope
        # last leaves the +-2 % band at t ~= 0.8385 s (the sin factor at
        # the crossing makes this earlier than the 4/(zeta*wn) value)
        ym = ref_step.column("ym")
        outside = np.abs(ym - 0.55) > 0.02 * (0.55 - ym[0])
        t_settle = ref_step.t[outside][-1]
        assert t_settle == pytest.approx(0.8385, abs=0.01)


def _dots(r, *names):
    return tuple(r[f"{name}_dot"] for name in names)


class TestSensitivityAndUpdate:
    def test_filter_steady_state(self):
        # saturated valve and d at its target: y = 0.5, y_dot = 0
        r = loop_rates(x=0.3, d=0.25, v1=0.55, v2=-0.5, target=0.25)
        assert _dots(r, "v1", "v2", "v3") == (0.0, 0.0, 0.0)

    def test_filter_rates(self):
        # y = 0.5, y_dot = d_dot = 0.2; the filter lag is the valve's tau
        for tau in (2.0, 4.0):
            r = loop_rates(x=0.3, d=0.25, target=0.45,
                           valve=ValveModel(tau=tau))
            assert _dots(r, "v1", "v2", "v3") == pytest.approx(
                (0.55 / tau, -0.5 / tau, -0.2 / tau))

    @staticmethod
    def gain_rates(x, d, ym1, v3=0.1, gamma=2.0):
        r = loop_rates(x=x, d=d, ym1=ym1, v1=0.5, v2=-0.5, v3=v3,
                       gamma=gamma, **GAINS)
        return r["e"], _dots(r, "k1", "k2", "k3")

    def test_update_gated_off_when_saturated(self):
        e, dk = self.gain_rates(x=0.3, d=0.3, ym1=0.25)
        assert e == pytest.approx(0.3)
        assert dk == (0, 0, 0)

    def test_update_zero_error(self):
        e, dk = self.gain_rates(x=0.1, d=0.45, ym1=0.45 + 0.1)
        assert e == 0.0
        assert dk == (0, 0, 0)

    def test_update_hand_values(self):
        e, dk = self.gain_rates(x=0.1, d=0.45, ym1=0.45, v3=0.0, gamma=1.0)
        assert e == pytest.approx(0.1)
        assert dk == pytest.approx((-0.05, 0.05, 0.0))


class TestResolveControlSignal:
    def test_no_derivative_gain_short_circuits(self):
        # k3 = 0: u = k1*r - k2*y whatever d_dot (0.7 here) is
        r = loop_rates(x=0.1, d=0.3, k1=8, k2=4, k3=0, target=1.0)
        assert r["u"] == pytest.approx(8 * 0.55 - 4 * 0.4)

    def test_hand_value_linear_mode(self):
        r = loop_rates(x=0.1, d=0.45, target=0.45, **GAINS)
        assert r["u"] == pytest.approx(0.035 / 1.35, abs=1e-12)

    @pytest.mark.parametrize("x", [0.07, 0.18, 0.25, 0.05, 0.3, -0.4, 0.8])
    def test_residual_identity(self, x):
        # the solved u satisfies the direct law with the y_dot it causes
        rng = np.random.default_rng(hash(x) % 2**32)
        linear = VALVE.out_min <= x <= VALVE.out_max
        for _ in range(25):
            d, ym1, k1, k2, k3, target = rng.uniform(
                [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.8, 0.8, 20, 20, 3, 0.8])
            r = loop_rates(x=x, d=d, ym1=ym1, k1=k1, k2=k2, k3=k3,
                           target=target)
            assert r["co"] == min(max(x, VALVE.out_min), VALVE.out_max)
            assert r["x_dot"] == (r["u"] - x) / VALVE.tau
            y_dot = r["d_dot"] + (r["x_dot"] if linear else 0.0)
            back = k1 * 0.55 - k2 * r["y"] - k3 * y_dot
            assert abs(r["u"] - back) <= 1e-12

    def test_fixed_pid_residual_identity(self):
        r = loop_rates(FIXED_PID, x=0.12, d=0.4, ym1=0.5, e_int=0.03,
                       kp=10, ki=24, kd=1, target=0.5)
        u = r["u"]
        y = 0.4 + 0.12
        y_dot = 0.1 + (u - 0.12) / 2.0
        back = 10 * (0.55 - y) + 24 * 0.03 - 1.0 * y_dot
        assert abs(u - back) <= 1e-12


def _run(kind="adaptive", target=0.35, gamma=1.0, t_end=50.0,
         simulate=simulate_closed_loop, **kw):
    cfg = ControllerConfig(kind=kind, gamma=gamma)
    return simulate(cfg, profile=DisturbanceProfile(target=target),
                    t_end=t_end, **kw)


# the runs of fig10, fig12 and fig14, shared with the acceptance tests

@pytest.fixture(scope="module")
def run35(closed_loop_run):
    return _run(target=0.35, simulate=closed_loop_run)


@pytest.fixture(scope="module")
def run45(closed_loop_run):
    return _run(target=0.45, simulate=closed_loop_run)


@pytest.fixture(scope="module")
def run60(closed_loop_run):
    return _run(target=0.6, simulate=closed_loop_run)


class TestClosedLoopScenarios:
    def test_d35_settles_on_set_point(self, run35):
        y = run35.column("y")
        assert abs(y[-1] - 0.55) <= 0.01
        n5 = int(round(5.0 / run35.dt))
        assert y[-n5:].max() - y[-n5:].min() <= 1e-3

    def test_d35_gains_move(self, run35):
        assert gain_excursion(run35) > 0.01

    def test_valve_limits_respected(self, run35, run45, run60):
        for traj in (run35, run45, run60):
            co = traj.column("co")
            assert co.min() >= 0.05 - 1e-15
            assert co.max() <= 0.25 + 1e-15

    def test_d45_settles_with_smaller_excursion(self, run35, run45):
        y = run45.column("y")
        assert abs(y[-1] - 0.55) <= 0.01
        assert gain_excursion(run45) < gain_excursion(run35)

    def test_d60_gains_frozen_exactly(self, run60):
        for name, init in (("k1", 10.0), ("k2", 10.0), ("k3", 0.7)):
            col = run60.column(name)
            assert np.all(col == init)

    def test_d60_valve_pinned_and_flow_high(self, run60):
        assert np.all(run60.column("co") == 0.05)
        assert abs(run60.column("y")[-1] - 0.65) <= 0.01

    def test_gating_invariant(self, run60):
        # wherever x is strictly outside the limits, the recorded gains
        # never change from one sample to the next
        self._assert_gated(run60)

    def test_gating_invariant_above_ceiling(self, closed_loop_run):
        # the d = 0.25 run drives x above out_max late in the run
        traj = _run(target=0.25, simulate=closed_loop_run)
        assert traj.column("x").max() > 0.25
        self._assert_gated(traj)

    @staticmethod
    def _assert_gated(traj):
        x = traj.column("x")
        outside = (x < 0.05) | (x > 0.25)
        assert outside.any()
        for name in ("k1", "k2", "k3"):
            dk = np.diff(traj.column(name))
            assert np.all(dk[outside[:-1]] == 0.0)

    def test_gamma_sweep_orders_tracking_cost(self):
        costs = [tracking_cost(_run(target=0.45, gamma=g, t_end=40.0))
                 for g in (0.5, 1.0, 2.0)]
        assert costs[0] > costs[1] > costs[2]

    def test_one_sided_actuator_floor(self, closed_loop_run):
        # with d = 0.25 the best reachable flow is 0.50: error >= 0.05
        traj = _run(target=0.25, simulate=closed_loop_run)
        y = traj.column("y")
        assert y[-1] <= 0.50 + 1e-9
        assert abs(y[-1] - 0.55) >= 0.05 - 1e-6

    def test_residual_identity_at_every_sample(self, run35):
        cfg = ControllerConfig(kind="adaptive")
        valve = ValveModel()
        d = run35.column("d")
        u = run35.column("u")
        x = run35.column("x")
        y = run35.column("y")
        d_dot = (0.35 - d) / 1.0
        lin = (x >= valve.out_min) & (x <= valve.out_max)
        y_dot = d_dot + np.where(lin, (u - x) / valve.tau, 0.0)
        back = (run35.column("k1") * cfg.reference
                - run35.column("k2") * y - run35.column("k3") * y_dot)
        assert np.abs(u - back).max() <= 1e-12

    def test_recorded_signals_consistent(self, run35):
        assert np.allclose(run35.column("y"),
                           run35.column("d") + run35.column("co"),
                           atol=1e-15)
        assert np.allclose(run35.column("e"),
                           run35.column("y") - run35.column("ym"),
                           atol=1e-15)

    def test_initial_state_starts_on_reference(self):
        cfg = ControllerConfig(kind="adaptive")
        st = dict(zip(CL_STATE, initial_loop_state(
            cfg, VALVE, DisturbanceProfile(target=0.35))))
        assert st["x"] == VALVE.out_min
        assert st["ym1"] == st["d"] + VALVE.out_min
        assert st["v1"] == cfg.reference and st["v2"] == -st["ym1"]
        # zero initial model error
        assert loop_rates(target=0.35, **st)["e"] == 0.0

    def test_fixed_pid_converges_at_defaults(self, closed_loop_run):
        # the run of fig15
        traj = _run(kind="fixed-pid", target=0.35, simulate=closed_loop_run)
        y = traj.column("y")
        assert abs(y[-1] - 0.55) <= 1e-6
        assert y.min() > 0.43

    def test_determinism(self):
        a = _run(target=0.35, t_end=5.0)
        b = _run(target=0.35, t_end=5.0)
        assert np.array_equal(a.samples, b.samples)

    def test_observation_columns(self):
        traj = _run(target=0.35, t_end=5.0, observe=True)
        assert traj.columns[-2:] == ["phi", "psi"]
        assert np.all(np.isfinite(traj.samples))
        # observation starts on the equilibrium of the initial flow
        assert traj.column("phi")[0] == pytest.approx(0.55, abs=1e-12)

    def test_observed_compressor_rates(self):
        # y = d + co = 0.5 throttles the observed compressor with
        # g = 0.5/sqrt(psi_c(0.5)), psi_c(0.5) = 0.712
        y = loop_rates(FIXED_PD, x=0.1, d=0.4)["y"]
        assert y == 0.5
        phi_dot, psi_dot = observed_rates(0.5, 0.6, y)
        assert phi_dot == pytest.approx(0.8 * (0.712 - 0.6), abs=1e-12)
        assert psi_dot == pytest.approx(
            1.25 * 0.5 * (1.0 - math.sqrt(0.6 / 0.712)), abs=1e-12)
        # and the observer stops where the plenum pressure is gone, or
        # the map gives none at the measured flow
        for psi in (0.0, -0.1):
            assert observed_rates(0.5, psi, y) is None
        assert map_pressure_rise(DEFAULT_MAP, 2.0) <= 0.0
        assert observed_rates(0.5, 0.6, 2.0) is None

    def test_observed_compressor_tracks_measured_flow(self):
        # the side-by-side compressor is throttled by g = y/sqrt(psi_c(y)),
        # so once the loop settles its flow matches the measured inlet flow
        traj = _run(target=0.35, observe=True)
        y_end = traj.column("y")[-1]
        assert traj.column("phi")[-1] == pytest.approx(y_end, abs=2e-3)
        assert traj.column("psi")[-1] == pytest.approx(
            map_pressure_rise(DEFAULT_MAP, y_end), abs=5e-3)

    def test_observed_breakdown_keeps_finite_partial_and_state(self):
        # with d = 1.0 the observed compressor breaks down near t = 0.854;
        # the error carries the finite rows before it and the loop state
        # of the last of them
        with pytest.raises(DivergenceError,
                           match="observed compressor model broke down"
                           ) as exc:
            _run(target=1.0, t_end=5.0, observe=True)
        err = exc.value
        assert err.time == pytest.approx(0.854, abs=1e-12)
        assert err.stage == 2
        partial = err.partial
        assert partial.n_rows == 855
        assert np.all(np.isfinite(partial.samples))
        state = err.state
        assert isinstance(state, np.ndarray) and state.shape == (CL_DIM,)
        assert np.all(np.isfinite(state))
        last = dict(zip(partial.columns, partial.samples[-1]))
        named = dict(zip(CL_STATE, state))
        for name, column in (("x", "x"), ("d", "d"), ("ym1", "ym"),
                             ("k1", "k1"), ("k2", "k2"), ("k3", "k3"),
                             ("phi", "phi"), ("psi", "psi")):
            assert named[name] == last[column]
