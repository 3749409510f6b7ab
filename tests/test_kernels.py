"""The RK4 kernels against a full RK4 oracle, their status codes, the
merging of the loop's and the observer's failures, and their
determinism."""

import ast
import copy
import dataclasses
import hashlib
import inspect
import math
import os
import re
import signal
import subprocess
import sys
import warnings

import numpy as np
import pytest
import support
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from support import coupled_rhs, rk4_step

from surgekit import _kernels, csvio, loop
from surgekit._kernels import (FLOW_GAIN, PRESSURE_GAIN, REF_MODEL_TWO_ZW,
                               REF_MODEL_W2)
from surgekit.compressor import (DEFAULT_MAP, CompressorMap, PlantState,
                                 map_pressure_rise, throttle_from_flow)
from surgekit.odesim import simulate_greitzer
from surgekit.errors import DivergenceError
from surgekit.loop import (CONTROLLER_KINDS, ControllerConfig,
                           DisturbanceProfile, ValveModel, _kernel_args,
                           initial_loop_state, simulate_closed_loop)
from surgekit.odesim import _output_buffer
from surgekit.scenario import resolve_scenario

M = DEFAULT_MAP
OK = _kernels.OK
NONFINITE = _kernels.NONFINITE
PSI = _kernels.PSI_NONPOSITIVE
KIND_ADAPTIVE = _kernels.KIND_ADAPTIVE
KIND_FIXED_PID = _kernels.KIND_FIXED_PID


# closed_loop_rhs with the disturbance lag at half its rate, and without a
# docstring, for a step built from it
def slow_disturbance_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int,
                         kind, kp, ki, kd, gamma, r, vtau, vlo, vhi, dtarget,
                         dtau):
    d_dot = 0.5 * (dtarget - d) / dtau
    linear = vlo <= x <= vhi
    if x > vhi:
        co = vhi
    elif x < vlo:
        co = vlo
    else:
        co = x
    y = d + co
    if kind == KIND_ADAPTIVE:
        prop = k1 * r - k2 * y
        dgain = k3
    elif kind == KIND_FIXED_PID:
        prop = kp * (r - y) + ki * e_int
        dgain = kd
    else:
        prop = kp * (r - y)
        dgain = kd
    if linear:
        den = 1.0 + dgain / vtau
        if den == 0.0:
            return None
        u = (prop - dgain * d_dot + dgain * x / vtau) / den
    else:
        u = prop - dgain * d_dot
    x_dot = (u - x) / vtau
    if linear:
        y_dot = d_dot + x_dot
    else:
        y_dot = d_dot
    e = y - ym1
    if kind == KIND_ADAPTIVE and linear:
        k1_dot = -gamma * e * v1
        k2_dot = -gamma * e * v2
        k3_dot = -gamma * e * v3
    else:
        k1_dot = k2_dot = k3_dot = 0.0
    if kind == KIND_FIXED_PID:
        e_int_dot = r - y
    else:
        e_int_dot = 0.0
    return (x_dot, d_dot, ym2,
            REF_MODEL_W2 * r - REF_MODEL_W2 * ym1 - REF_MODEL_TWO_ZW * ym2,
            (r - v1) / vtau, (-y - v2) / vtau, (-y_dot - v3) / vtau,
            k1_dot, k2_dot, k3_dot, e_int_dot, u, co, y, e)


# closed_loop_rhs whose integral e_int never moves, under any kind
def no_integral_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int,
                    kind, kp, ki, kd, gamma, r, vtau, vlo, vhi, dtarget,
                    dtau):
    d_dot = (dtarget - d) / dtau
    linear = vlo <= x <= vhi
    if x > vhi:
        co = vhi
    elif x < vlo:
        co = vlo
    else:
        co = x
    y = d + co
    if kind == KIND_ADAPTIVE:
        prop = k1 * r - k2 * y
        dgain = k3
    elif kind == KIND_FIXED_PID:
        prop = kp * (r - y) + ki * e_int
        dgain = kd
    else:
        prop = kp * (r - y)
        dgain = kd
    if linear:
        den = 1.0 + dgain / vtau
        if den == 0.0:
            return None
        u = (prop - dgain * d_dot + dgain * x / vtau) / den
    else:
        u = prop - dgain * d_dot
    x_dot = (u - x) / vtau
    if linear:
        y_dot = d_dot + x_dot
    else:
        y_dot = d_dot
    e = y - ym1
    if kind == KIND_ADAPTIVE:
        if linear:
            ge = -gamma * e
            k1_dot = ge * v1
            k2_dot = ge * v2
            k3_dot = ge * v3
        else:
            k1_dot = k2_dot = k3_dot = 0.0
    else:
        k1_dot = k2_dot = k3_dot = 0.0
    e_int_dot = 0.0
    return (x_dot, d_dot, ym2,
            REF_MODEL_W2 * r - REF_MODEL_W2 * ym1 - REF_MODEL_TWO_ZW * ym2,
            (r - v1) / vtau, (-y - v2) / vtau, (-y_dot - v3) / vtau,
            k1_dot, k2_dot, k3_dot, e_int_dot, u, co, y, e)


# surge_rhs with the pressure equation at twice its rate, for the open-loop
# and observer steps built from it; its call into _kernels, another
# module, stays a call
def fast_pressure_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = _kernels.pressure_rise(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return (FLOW_GAIN * (pc - psi),
            2.0 * PRESSURE_GAIN * (phi - g * math.sqrt(psi)))


# rhs definitions the step cannot inline, each for one reason


def short_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau, r):
    u = co = y = e = r
    return ((u - x) / vtau, u, co, y, e)


def swapped_signals_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau,
                        r):
    u = co = y = e = r
    return (x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, y, co, e)


def early_return_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau, r):
    if x > r:
        return x
    u = co = y = e = r
    return (x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


def clamping_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau, r):
    if x > r:
        x = r
    u = co = y = e = r
    return (x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


def step_local_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau, r):
    h2 = 0.5 * r
    u = co = y = e = h2
    return (x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


def stage_rate_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau, r):
    x_1 = (r - x) / vtau
    u = co = y = e = r
    return (x_1, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


def step_constant_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau,
                      ok):
    u = co = y = e = ok
    return (x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


def row_writer_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, vtau, r):
    record = (r - x) / vtau
    u = co = y = e = r
    return (record, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


def rebinding_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, kind, vtau,
                  r):
    if x > r:
        kind = KIND_ADAPTIVE
    u = co = y = e = r
    return (x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


def other_parameters_rhs(x, d, vtau, r):
    u = co = y = e = r
    return (x, d, x, x, x, x, x, x, x, x, x, u, co, y, e)


def no_constant_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int):
    u = co = y = e = x
    return (x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, u, co, y, e)


# a local KIND_ADAPTIVE that shadows the module's code: the rhs's own
# branch on it takes the else branch under every controller kind
def shadowing_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, kind):
    KIND_ADAPTIVE = 5
    if kind == KIND_ADAPTIVE:
        u = 1.0
    else:
        u = 0.0
    co = y = e = 0.0
    return (u, x, x, x, x, x, x, x, x, x, x, u, co, y, e)


def three_rates_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    return phi, psi, g


# no throttle: the observer step passes each stage's g
def unobserved_rhs(phi, psi, psi0, h, slope, offset, c0, c1, c2, c3):
    return phi, psi


def record_index_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    r = 13 * g
    return r, psi


# a compressor map of this module, which the inliner takes in as it does
# pressure_rise; and one it cannot, which returns before its end
def local_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3):
    w = slope * phi + offset
    return psi0 + h * (c0 + w * (c1 + w * (c2 + w * c3)))


def clipped_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3):
    if phi < 0.0:
        return psi0
    w = slope * phi + offset
    return psi0 + h * (c0 + w * (c1 + w * (c2 + w * c3)))


def augmented_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = 0.0
    pc += local_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


def nested_call_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    return (FLOW_GAIN * (local_pressure(phi, psi0, h, slope, offset, c0, c1,
                                        c2, c3) - psi),
            PRESSURE_GAIN * (phi - g * math.sqrt(psi)))


def keyword_call_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = local_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3=c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


def clipped_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = clipped_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


def scaled_flow_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = local_pressure(2.0 * phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


def clashing_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    w = phi
    pc = local_pressure(w, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


# compressor maps the inliner cannot take in: one that calls itself, one
# that ends without returning a value, and one that assigns its parameter
def recursive_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3):
    return recursive_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3)


def unreturned_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3):
    w = slope * phi + offset
    pc = psi0 + h * (c0 + w * (c1 + w * (c2 + w * c3)))


def shifted_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3):
    phi = slope * phi + offset
    return psi0 + h * (c0 + phi * (c1 + phi * (c2 + phi * c3)))


def recursive_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = recursive_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


def unreturned_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = unreturned_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


def shifted_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    pc = shifted_pressure(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * math.sqrt(psi))


#: the states of damped_rhs
TOY = ("a", "b", "c")


def damped_rhs(a, b, c, k, zeta, w):
    """Rates (da/dt, db/dt, dc/dt) of a damped linear system of three
    states: a and its rate b on a spring ``k`` with damping ``zeta``,
    coupled through ``w`` to c, which decays at ``zeta``.  The shape of a
    model with a third state, such as a stall amplitude."""
    force = -k * a - zeta * b
    return b, force + w * c, -w * b - zeta * c


# damped_rhs without its third rate, which the step writer refuses
def two_rates_rhs(a, b, c, k, zeta, w):
    return b, -k * a


def damped_source():
    """Source of ``run(out, dt, m, start, stop)``, the RK4 range function
    of damped_rhs written by the kernels' one step writer: ``out`` is a
    list of (a, b, c) rows whose last holds the state at t = (start-1)*dt,
    to which each step appends its result, and ``m`` is (k, zeta, w)."""
    constants, body, rates = _kernels._rhs_body(
        damped_rhs, "toy", TOY, TOY, _kernels._reserved(TOY, "m"))
    return _kernels._rk4_source(
        ("out", "dt", "m", "start", "stop"),
        [f"[{', '.join(constants)}] = m", "a, b, c = out[-1]"], body, rates,
        "return NONFINITE, i",
        ["if not ok:", "    return NONFINITE, i", "out.append((a, b, c))"],
        ["return OK, stop - 1"])


class TestLiveStates:
    """The loop integrates only :func:`_kernels.live_states`, and the
    observed compressor has its own kernel; a full 13-state RK4 over the
    coupled rhs (``support.coupled_rhs``) is the oracle the two must match
    bit for bit, in this process and through a helper process."""

    DT = 1e-3
    STEPS = 2000

    @staticmethod
    def _oracle(state, dt, steps, p, m, skipped):
        """Rows, final state and projection count of ``support.rk4_step``
        on every state, with the adaptive gain projection; asserts that
        each rhs call leaves the ``skipped`` rates at exactly 0.0."""
        sig = np.empty(4)

        def rates(_t, q):
            dq = np.empty(_kernels.CL_DIM)
            assert coupled_rhs(q, dq, sig, p, m) == _kernels.OK
            assert np.all(dq[skipped] == 0.0)
            return dq

        observe = m is not None
        q = state.copy()
        clamps = 0
        rows = np.empty((steps + 1, 13 if observe else 11))
        for i in range(steps + 1):
            rates(i * dt, q)
            row = [i * dt, q[1], sig[0], q[0], sig[1], sig[2], q[2], sig[3],
                   q[7], q[8], q[9]]
            rows[i] = row + [q[11], q[12]] if observe else row
            if i == steps:
                break
            q = rk4_step(rates, i * dt, q, dt)
            if p[0] == _kernels.KIND_ADAPTIVE:
                clamps += np.count_nonzero(q[7:10] < 0.0)
                q[7:10] = np.where(q[7:10] < 0.0, 0.0, q[7:10])
        return rows, q, clamps

    def _check(self, monkeypatch, kind, observe, reference, dropped,
               v1=None):
        """The kernels against the oracle, with the indices of the
        reference model and the set-point filter that ``live_states``
        drops, from the start of ``initial_loop_state`` or, given ``v1``,
        that start with the set-point filter at ``v1``; returns the
        oracle's projection count."""
        cfg = ControllerConfig(kind=kind, k3=0.0, reference=reference)
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35)
        p = _kernel_args(cfg, valve, prof)
        m = M.constants if observe else None
        state = initial_loop_state(cfg, valve, prof)
        if v1 is not None:
            state[4] = v1
        if observe:
            state[11] = state[2]
            state[12] = map_pressure_rise(M, state[2])
        live = _kernels.live_states(p, state)
        assert [j for j in (2, 3, 4) if j not in live] == list(dropped)
        assert len(live) == (7 - len(dropped) + 3 * (kind == "adaptive")
                             + (kind == "fixed-pid"))
        observer = (11, 12) if observe else ()
        skipped = [j for j in range(_kernels.CL_DIM)
                   if j not in live + observer]
        rows, final, clamps = self._oracle(state, self.DT, self.STEPS, p, m,
                                           skipped)
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(csvio, "_fork_pays", lambda *rows: True)
        # in one block as long as the record (None), and in blocks of 777
        # rows, whose bounds are no multiple of the block size the CLI
        # uses: the state carries over.  In this process, and with the
        # observer (or the formatter alone) in the helper process, forked
        # once, by the first run given it, and following the second too
        for block in (None, 777):
            monkeypatch.setattr(_kernels, "_BLOCK_ROWS",
                                block or self.STEPS + 1)
            for forked in (False, True):
                q = state.copy()
                with csvio.RunHelper(1) as helper:
                    given = helper if forked else None
                    out = _output_buffer(self.DT, self.STEPS * self.DT,
                                         rows.shape[1], given, observe)
                    ys = _output_buffer(self.DT, self.STEPS * self.DT, 3,
                                        given if observe else None)
                    assert loop._integrate(out, ys, q, self.DT, p, m,
                                           given) == (
                        _kernels.OK, self.STEPS, None)
                assert out.tobytes() == rows.tobytes()
                assert q.tobytes() == final.tobytes()
        assert len(forks) == 1
        if not observe:
            # the ranges of 777 rows reported, the last as the end of the
            # run
            reported = []
            _kernels.closed_loop_loop(
                np.empty_like(rows), state.copy(), self.DT, p,
                lambda *report: reported.append(report))
            assert reported == [(777, False), (1554, False), (2001, True)]
        return clamps

    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_kernel_matches_full_rk4(self, monkeypatch, kind, observe):
        # the set point 0.7 moves the reference model, which starts on
        # the measured flow 0.55; the set-point filter v1 starts on the
        # set point, at rest, and is dropped.  k3 starts at 0 and this set
        # point drives its rate negative, so the adaptive runs clamp it
        clamps = self._check(monkeypatch, kind, observe, 0.7, dropped=(4,))
        assert (clamps > 0) == (kind == "adaptive")

    @pytest.mark.parametrize("reference, dropped", [
        (0.55, (2, 3, 4)), (-0.0, ())], ids=["at-rest", "negative-zero"])
    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_subsystems_at_rest_are_dropped(self, monkeypatch, kind, observe,
                                            reference, dropped):
        # at the set point 0.55, the start's measured flow, the reference
        # model and v1 both start at rest and are dropped.  At -0.0 the
        # reference model moves, and v1 = -0.0 is kept: a full step would
        # turn it into 0.0
        self._check(monkeypatch, kind, observe, reference, dropped)

    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_set_point_filter_alone_moves(self, monkeypatch, kind, observe):
        # the reference model starts at rest on the set point 0.55, the
        # start's measured flow, and is dropped; the set-point filter v1
        # starts at 0.7, away from it, and moves.  No start of
        # initial_loop_state is this one: it puts v1 on the set point
        self._check(monkeypatch, kind, observe, 0.55, dropped=(2, 3), v1=0.7)


def _configs():
    """A strategy of valid controller settings, of every kind."""
    gain = st.floats(0.0, 20.0)
    return st.builds(ControllerConfig,
                     kind=st.sampled_from(sorted(CONTROLLER_KINDS)),
                     kp=gain, ki=gain, kd=gain, k1=gain, k2=gain, k3=gain,
                     gamma=st.floats(0.01, 10.0), reference=st.floats(0.0, 1.0))


@st.composite
def _valves(draw):
    """A valve whose lag and limits are drawn."""
    lo = draw(st.floats(0.01, 0.5))
    return ValveModel(tau=draw(st.floats(0.2, 5.0)), out_min=lo,
                      out_max=lo + draw(st.floats(0.01, 0.5)))


class TestRandomLoopSettings:
    """The loop kernel at drawn settings, from the start of
    ``initial_loop_state``, against the full RK4 oracle of
    :class:`TestLiveStates`, bit for bit: record and final state."""

    DT = 2e-3
    STEPS = 300

    @given(cfg=_configs(), valve=_valves(),
           prof=st.builds(DisturbanceProfile, target=st.floats(0.0, 1.0),
                          tau=st.floats(0.2, 5.0),
                          initial=st.floats(0.0, 1.0)))
    @example(cfg=ControllerConfig(kind="fixed-pd", reference=0.9),
             valve=ValveModel(), prof=DisturbanceProfile())
    @example(cfg=ControllerConfig(kind="fixed-pid", reference=0.0),
             valve=ValveModel(tau=0.5), prof=DisturbanceProfile())
    @example(cfg=ControllerConfig(reference=0.9, gamma=5.0),
             valve=ValveModel(), prof=DisturbanceProfile(target=0.1))
    @settings(max_examples=40, deadline=None, database=None)
    def test_kernel_matches_full_rk4(self, cfg, valve, prof):
        # each run starts with the valve at its floor, in linear mode; most
        # drawn runs also saturate (three in four, over 200 draws), and each
        # example does: above out_max (fixed PD, adaptive) or below
        # out_min (fixed PID)
        p = _kernel_args(cfg, valve, prof)
        state = initial_loop_state(cfg, valve, prof)
        live = _kernels.live_states(p, state)
        rows, final, _ = TestLiveStates._oracle(
            state, self.DT, self.STEPS, p, None,
            [j for j in range(_kernels.CL_DIM) if j not in live])
        out = np.empty_like(rows)
        q = state.copy()
        assert _kernels.closed_loop_loop(out, q, self.DT, p) == (
            OK, self.STEPS, None)
        assert out.tobytes() == rows.tobytes()
        assert q.tobytes() == final.tobytes()


class TestKernelArgs:
    """The loop constants ``p`` carry only what a run sets: each setting
    of the controller, the valve and the disturbance feeds exactly one
    entry of ``p``, or none where it only sets the start, and each entry
    is fed by one of them.  The fixed coefficients are ``_kernels``'."""

    CONFIGS = (ControllerConfig(kind="fixed-pid"), ValveModel(),
               DisturbanceProfile())

    @staticmethod
    def _run(cfg, valve, prof):
        return (_kernel_args(cfg, valve, prof),
                initial_loop_state(cfg, valve, prof).tobytes())

    #: the setting that feeds each constant of closed_loop_rhs, by name
    FED_BY = {"kind": "ControllerConfig.kind", "kp": "ControllerConfig.kp",
              "ki": "ControllerConfig.ki", "kd": "ControllerConfig.kd",
              "gamma": "ControllerConfig.gamma",
              "r": "ControllerConfig.reference", "vtau": "ValveModel.tau",
              "vlo": "ValveModel.out_min", "vhi": "ValveModel.out_max",
              "dtarget": "DisturbanceProfile.target",
              "dtau": "DisturbanceProfile.tau"}

    def _fed(self):
        """The setting that feeds each entry of ``p``, by index."""
        base_p, base_state = self._run(*self.CONFIGS)
        assert len(base_p) == 11
        fed = {}
        for i, config in enumerate(self.CONFIGS):
            for f in dataclasses.fields(config):
                value = getattr(config, f.name)
                changed = dataclasses.replace(config, **{
                    f.name: "adaptive" if f.name == "kind" else 0.5 * value})
                configs = list(self.CONFIGS)
                configs[i] = changed
                p, state = self._run(*configs)
                entries = [j for j in range(11) if p[j] != base_p[j]]
                name = f"{type(config).__name__}.{f.name}"
                if entries:
                    assert len(entries) == 1, (name, entries)
                    fed[entries[0]] = name
                else:
                    # a start value: the adaptive gains' and the
                    # disturbance's
                    assert state != base_state, name
        return fed

    def test_each_setting_feeds_one_entry(self):
        fed = self._fed()
        assert sorted(fed) == list(range(11)), fed

    def test_one_entry_for_each_rhs_constant_in_its_order(self):
        # p is closed_loop_rhs's constants, its parameters after the 11
        # loop states: entry j is fed by the setting of the j-th constant
        params = list(inspect.signature(_kernels.closed_loop_rhs).parameters)
        assert params[:11] == list(_kernels.CL_STATE[:11])
        assert len(self._run(*self.CONFIGS)[0]) == len(params) - 11
        fed = self._fed()
        assert [fed.get(j) for j in range(len(params) - 11)] == [
            self.FED_BY[n] for n in params[11:]]
class TestStatusCodes:
    def test_greitzer_breakdown_reported(self):
        out = np.empty((100, 3))
        out[0] = (0.0, 0.5, 1e-9)  # pressure collapses within one step
        status, row = _kernels.greitzer_loop(
            out, 1.0, (5.0, *M.constants))
        assert status == _kernels.PSI_NONPOSITIVE
        assert row == 1

    def test_wrapper_raises_on_breakdown(self):
        from surgekit.odesim import simulate_greitzer
        with pytest.raises(DivergenceError) as exc:
            simulate_greitzer(PlantState(0.5, 1e-9), 5.0, M, dt=1.0,
                              t_end=50.0)
        # the run stops in its first step, keeping the finite initial row
        assert exc.value.partial.n_rows == 1
        assert np.all(np.isfinite(exc.value.partial.samples))

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_zero_control_denominator_is_nonfinite(self, scalar):
        # an RK stage may carry the gain k3 = -vtau, which zeroes the
        # denominator of the control signal in linear valve mode; the rhs
        # then returns None, which the kernel reports as NONFINITE
        cfg = ControllerConfig(kind="adaptive")
        valve = ValveModel()
        prof = DisturbanceProfile()
        q = initial_loop_state(cfg, valve, prof)
        q[0] = 0.1
        p = _kernel_args(cfg, valve, prof)
        assert _kernels.closed_loop_rhs(*map(scalar, q[:11]), *p) is not None
        q[9] = -valve.tau
        assert _kernels.closed_loop_rhs(*map(scalar, q[:11]), *p) is None


class TestFailureMerge:
    """The loop's failure and the observer's merge by (step, RK stage) in
    ``loop._integrate``: the earlier one is the run's, the loop's on a
    tie, as its checks come first in the coupled rhs.  An observer that
    fails first leaves the state of its step, the loop's part replayed."""

    @staticmethod
    def _merged(monkeypatch, dt, k3, seen):
        """(status, row, stage) and final state of a 3-row observed run
        whose observer, run in this process, returns ``seen``."""
        cfg = ControllerConfig(kind="adaptive")
        valve = ValveModel()
        prof = DisturbanceProfile()
        state = initial_loop_state(cfg, valve, prof)
        state[9] = k3
        state[11:] = (0.55, 0.7)
        start = state.copy()
        monkeypatch.setattr(_kernels, "observed_compressor",
                            lambda *args: seen)
        rc = loop._integrate(
            np.zeros((3, 13)), np.zeros((3, 3)), state, dt,
            _kernel_args(cfg, valve, prof), M.constants)
        return rc, state, start

    @pytest.mark.parametrize("seen, expected", [
        ((OK, 2, None), (NONFINITE, 1, None)),
        ((PSI, 1, None), (NONFINITE, 1, None)),
        ((PSI, 1, 4), (PSI, 1, 4)),
        ((PSI, 1, 2), (PSI, 1, 2)),
        ((PSI, 0, 1), (PSI, 0, 1)),
    ], ids=["observer-ok", "tie", "stage-4", "stage-2", "stage-1"])
    def test_overflowing_step(self, monkeypatch, seen, expected):
        # a step of 1e200 overflows the loop state in step 0, after its
        # four stages
        rc, state, start = self._merged(monkeypatch, 1e200, 0.7, seen)
        assert rc == expected
        if rc[0] == PSI:
            # the state before step 0
            assert state.tobytes() == start.tobytes()
        else:
            assert not np.all(np.isfinite(state[:11]))

    def test_tie_at_a_stage(self, monkeypatch):
        # k3 = -vtau zeroes the control denominator at stage 1 of row 0;
        # an observer failing there too loses
        rc, state, start = self._merged(monkeypatch, 1e-3, -2.0, (PSI, 0, 1))
        assert rc == (NONFINITE, 0, 1)
        assert state.tobytes() == start.tobytes()


def _killed_after_one_range(samples, decimate, observe, inbox, outbox,
                            text):
    """A helper process that observes the first reported range and is
    then killed."""
    rows, _ = csvio._REPORT.unpack(os.read(inbox, csvio._REPORT.size))
    observe(0, rows)
    os.kill(os.getpid(), signal.SIGKILL)


class TestResultAfterTheLoop:
    """``loop._integrate`` reads the observer's result once, after the
    loop: from the helper process when one observed the run, else from
    the observer run in this process over the rows the loop filled.  An
    observer that fails first does not stop the loop."""

    DT = 0.05

    @staticmethod
    def _start(phi):
        """The constants and the start of a fixed-PD run whose loop fails
        on its own at stage 4 of step 11: kd = -vtau zeroes the control
        denominator once the valve, which starts saturated at 0.5, decays
        into its range.  The observer starts at (phi, 0.2)."""
        cfg = ControllerConfig(kind="fixed-pd")
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35, initial=0.35)
        p = _kernel_args(cfg, valve, prof)
        p = p[:3] + (-valve.tau,) + p[4:]
        start = initial_loop_state(cfg, valve, prof)
        start[0] = 0.5
        start[11:] = (phi, 0.2)
        return p, start

    def _run(self, p, start, helper):
        """(status, row, stage), final state and record of the observed
        run from ``start``, made for ``helper``'s process if given."""
        out = _output_buffer(self.DT, 5.0, 13, helper, True)
        ys = _output_buffer(self.DT, 5.0, 3, helper, True)
        state = start.copy()
        rc = loop._integrate(out, ys, state, self.DT, p, M.constants, helper)
        return rc, state, out

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch):
        """Every run here fills its record in 4-row blocks."""
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 4)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The helper processes forked: one a process, by the first run
        given one."""
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(csvio, "_fork_pays", lambda *rows: True)
        return forks

    def test_observer_failing_in_an_earlier_block(self, forks):
        # from phi = -0.5 the observed psi reaches zero at stage 4 of step
        # 5, in the second block; the loop's own failure comes in the
        # third.  The run reports the observer's, with the state at the
        # start of step 5: the loop's part as a run whose record ends
        # there leaves it
        p, start = self._start(-0.5)
        alone = start.copy()
        assert _kernels.closed_loop_loop(
            np.zeros((101, 11)), alone, self.DT, p) == (NONFINITE, 12, 4)
        before = start.copy()
        assert _kernels.closed_loop_loop(
            np.zeros((6, 11)), before, self.DT, p) == (OK, 5, None)
        runs = []
        for forked in (False, True):
            with csvio.RunHelper(1) as helper:
                rc, state, out = self._run(p, start,
                                           helper if forked else None)
            assert rc == (PSI, 6, 4)
            assert state[:11].tobytes() == before[:11].tobytes()
            assert state[11:].tobytes() == out[5, 11:].tobytes()
            # the loop ran on to its own failure, recording row 11
            assert out[11, 0] == 11 * self.DT
            runs.append((state.tobytes(), out[:6].tobytes()))
        assert len(forks) == 1
        assert runs[0] == runs[1]

    def test_unobserved_run_has_no_result(self, forks):
        # the process only formats
        p, start = self._start(0.0)
        with csvio.RunHelper(1) as helper:
            assert loop._integrate(_output_buffer(self.DT, 5.0, 11, helper),
                                   None, start.copy(), self.DT, p, None,
                                   helper) == (NONFINITE, 12, 4)
            assert len(forks) == 1
            assert helper.result() is None

    @pytest.mark.parametrize("phi", [0.0, -0.5],
                             ids=["loop-fails", "observer-fails"])
    def test_killed_process_gives_the_in_process_record(self, forks,
                                                        monkeypatch, phi):
        p, start = self._start(phi)
        expected = self._run(p, start, None)
        results = []
        result = csvio.RunHelper.result
        monkeypatch.setattr(
            csvio.RunHelper, "result",
            lambda helper: results.append(result(helper)) or results[-1])
        monkeypatch.setattr(csvio, "_follow_run", _killed_after_one_range)
        with csvio.RunHelper(1) as helper:
            rc, state, out = self._run(p, start, helper)
        assert len(forks) == 1
        assert results == [None]
        assert rc == expected[0]
        assert state.tobytes() == expected[1].tobytes()
        assert out.tobytes() == expected[2].tobytes()


class TestLoopStageFailure:
    """A loop failure at RK stage 2, 3 or 4 reports that stage and the row
    after the step's, and leaves the 13-entry state of the step's start,
    in this process and through a helper process."""

    # At this state the control signal is u = x exactly at stages 1 and 2
    # (prop = k1*r = x and d_dot = 0, in linear valve mode), so x, y and
    # e = y - ym1 = 0.34375 hold while v3 goes 4, 3, 3.25 and k3's rate
    # -gamma*e*v3 is -1.375, -1.03125, -1.1171875 whatever k3 is.  k3 is
    # chosen so that stage 2 (k3 + 0.5*-1.375), stage 3 (k3 + 0.5*-1.03125)
    # or stage 4 (k3 + 1.0*-1.1171875) carries exactly k3 = -vtau = -2,
    # which zeroes the control denominator there
    STATE = dict(x=0.15625, d=0.34375, ym1=0.15625, ym2=0.0, v1=0.0, v2=0.0,
                 v3=4.0, k1=1.0, k2=0.0, e_int=0.0)

    @pytest.mark.parametrize("stage, k3", [
        (2, -1.3125), (3, -1.484375), (4, -0.8828125)])
    def test_failure_at_a_later_stage(self, monkeypatch, stage, k3):
        cfg = ControllerConfig(kind="adaptive", reference=0.15625, gamma=1.0)
        valve = ValveModel()
        p = _kernel_args(cfg, valve, DisturbanceProfile(target=0.34375))
        assert valve.tau == 2.0
        start = np.array([self.STATE.get(name, 0.0)
                          for name in _kernels.CL_STATE])
        start[9] = k3
        start[11:] = (0.5, map_pressure_rise(M, 0.5))
        forks = []
        fork = os.fork

        def counted_fork():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(csvio, "_fork_pays", lambda *rows: True)
        for forked in (False, True):
            state = start.copy()
            del forks[:]
            with csvio.RunHelper(1) as helper:
                given = helper if forked else None
                out = _output_buffer(1.0, 5.0, 13, given, True)
                ys = _output_buffer(1.0, 5.0, 3, given, True)
                rc = loop._integrate(out, ys, state, 1.0, p, M.constants,
                                     given)
            assert len(forks) == forked
            assert rc == (NONFINITE, 1, stage)
            assert state.tobytes() == start.tobytes()
            # row 0 was recorded from the start, observer columns included
            assert out[0].tolist() == [
                0.0, 0.34375, 0.15625, 0.15625, 0.15625, 0.5, 0.15625,
                0.34375, 1.0, 0.0, k3, 0.5, start[12]]


    def test_error_names_no_state(self, monkeypatch):
        # the zero control denominator at stage 2 stops the run at the
        # step's start, where every state is finite: the error names none
        cfg = ControllerConfig(kind="adaptive", reference=0.15625, gamma=1.0)
        start = np.array([self.STATE.get(name, 0.0)
                          for name in _kernels.CL_STATE])
        start[9] = -1.3125
        monkeypatch.setattr(loop, "initial_loop_state",
                            lambda *config: start.copy())
        with pytest.raises(DivergenceError) as exc:
            simulate_closed_loop(cfg,
                                 profile=DisturbanceProfile(target=0.34375),
                                 dt=1.0, t_end=5.0)
        err = exc.value
        assert (err.stage, err.failing) == (2, ())
        assert str(err) == "non-finite loop state near t=0"
        assert err.state.tobytes() == start.tobytes()

    @pytest.mark.parametrize("kind, dt, row, stage", [
        ("fixed-pd", 0.05, 12, 4), ("fixed-pd", 0.25, 3, 2),
        ("fixed-pid", 0.1, 5, 2)])
    @pytest.mark.parametrize("block", [None, 1, 4])
    def test_failure_after_some_steps(self, monkeypatch, kind, dt, row,
                                      stage, block):
        # a derivative gain kd = -vtau zeroes the control denominator
        # wherever the valve is linear: the valve starts saturated at
        # x = 0.5 and decays into its range at an RK stage of a later
        # step.  The state is that step's start, where a run whose record
        # ends there stops
        cfg = ControllerConfig(kind=kind)
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35, initial=0.35)
        p = _kernel_args(cfg, valve, prof)
        p = p[:3] + (-valve.tau,) + p[4:]
        start = initial_loop_state(cfg, valve, prof)
        start[0] = 0.5
        state = start.copy()
        out = np.zeros((100, 11))
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", block or len(out))
        assert _kernels.closed_loop_loop(out, state, dt, p) == (
            NONFINITE, row, stage)
        before = start.copy()
        assert _kernels.closed_loop_loop(
            np.zeros((row, 11)), before, dt, p) == (OK, row - 1, None)
        assert state.tobytes() == before.tobytes()
        assert state[0] == out[row - 1, 3] > 0.25


class _Broke(Exception):
    """An rhs call of the coupled oracle that failed, with its status."""


class TestObserverThrottle:
    """The observer computes the throttle g = y/sqrt(psi_c(y)) of every
    RK stage of a range on arrays before its steps: each is
    ``compressor.throttle_from_flow``'s bit for bit, and a flow whose map
    value is not positive stops the run at that stage, as the coupled
    13-state RK4 does."""

    @given(cmap=st.builds(
        CompressorMap, psi0=st.floats(-2.0, 2.0), h=st.floats(-2.0, 2.0),
        slope=st.floats(-10.0, 10.0), offset=st.floats(-10.0, 10.0),
        c0=st.floats(-10.0, 10.0), c1=st.floats(-10.0, 10.0),
        c2=st.floats(-10.0, 10.0), c3=st.floats(-10.0, 10.0)),
        flows=st.lists(st.floats(min_value=0.0, exclude_min=True,
                                 allow_infinity=False), min_size=1,
                       max_size=40))
    @example(cmap=DEFAULT_MAP, flows=[0.55, 1e-300, 0.8, 0.25])
    @settings(max_examples=200, deadline=None, database=None)
    def test_array_throttle_is_throttle_from_flow(self, cmap, flows):
        flows = [y for y in flows if map_pressure_rise(cmap, y) > 0.0]
        assume(flows)
        # four stage flows a row: the record's column 5, then ys
        rows = -(-len(flows) // 4)
        y = np.resize(np.array(flows), 4 * rows).reshape(rows, 4)
        out = np.zeros((rows, 13))
        out[:, 5] = y[:, 0]
        ys = np.ascontiguousarray(y[:, 1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gs = _kernels._throttles(_kernels.flat(out), _kernels.flat(ys),
                                     cmap.constants, 0, rows)
        expected = [throttle_from_flow(cmap, v) for v in y.ravel().tolist()]
        assert np.array(gs).tobytes() == np.array(expected).tobytes()

    def test_first_nonpositive_map_value_is_marked(self):
        # only the first flow whose map value is <= 0 is None; a NaN map
        # value is not <= 0, and no flow warns, unfilled or not
        out = np.zeros((3, 13))
        out[:, 5] = (0.55, np.nan, 2.0)
        ys = np.array([[0.5, 0.6, 0.7], [1.5, 0.5, 1e300],
                       [-1e300, np.inf, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gs = _kernels._throttles(_kernels.flat(out), _kernels.flat(ys),
                                     M.constants, 0, 3)
        assert map_pressure_rise(M, 1.5) <= 0.0
        assert [j for j, g in enumerate(gs) if g is None] == [5]
        assert math.isnan(gs[4])
        assert gs[:4] == [throttle_from_flow(M, v)
                          for v in (0.55, 0.5, 0.6, 0.7)]

    #: a fixed PID run at dt = 0.1 whose measured flow falls, with RK
    #: stage flows below every flow before them at stage 2 and 4 of step
    #: 0, stage 3 of step 1 and stage 1 of step 2
    CFG = ControllerConfig(kind="fixed-pid", kp=8.0, ki=2.0, kd=2.0,
                           reference=0.5)
    VALVE = ValveModel(tau=0.05)
    PROFILE = DisturbanceProfile(target=0.0, tau=0.65, initial=0.8)
    DT = 0.1

    @staticmethod
    def _oracle(state, dt, rows, p, m):
        """(status, row, stage), the record rows up to the failing step's
        and the state at its start: the coupled 13-state RK4
        (``support.rk4_step`` on ``support.coupled_rhs``) up to its first
        failing rhs call, in a record of ``rows`` rows."""
        sig = np.empty(4)
        calls = []

        def rates(_t, q):
            calls.append(None)
            dq = np.empty(_kernels.CL_DIM)
            status = coupled_rhs(q, dq, sig, p, m)
            if status != OK:
                raise _Broke(status)
            return dq

        q = state.copy()
        record = []
        for i in range(rows):
            status = coupled_rhs(q, np.empty(_kernels.CL_DIM), sig, p, m)
            record.append([i * dt, q[1], sig[0], q[0], sig[1], sig[2], q[2],
                           sig[3], q[7], q[8], q[9], q[11], q[12]])
            if status != OK or i == rows - 1:
                return ((status, i, 1) if status != OK else (OK, i, None),
                        np.array(record), q)
            del calls[:]
            try:
                q = rk4_step(rates, i * dt, q, dt)
            except _Broke as broke:
                return ((broke.args[0], i + 1, len(calls)),
                        np.array(record), q)
        raise AssertionError("no rows")

    @pytest.mark.parametrize("row, stage, rows", [
        (0, 2, 6), (1, 3, 6), (0, 4, 6), (2, 1, 6), (2, 1, 3)],
        ids=["stage-2", "stage-3", "stage-4", "stage-1", "last-row"])
    def test_nonpositive_map_value_at_a_stage(self, monkeypatch, row, stage,
                                              rows):
        p = _kernel_args(self.CFG, self.VALVE, self.PROFILE)
        start = initial_loop_state(self.CFG, self.VALVE, self.PROFILE)
        out = np.zeros((6, 13))
        ys = np.zeros((6, 3))
        assert _kernels.closed_loop_loop(out, start.copy(), self.DT, p,
                                         ys=ys) == (OK, 5, None)
        y = np.column_stack([out[:, 5], ys]).ravel().tolist()
        # a linear map psi_c(y) = K*(y - y*) whose zero lies halfway
        # between the stage's flow and the lowest flow before it
        j = 4 * row + stage - 1
        gap = min(y[:j]) - y[j]
        assert gap > 0.04
        zero, slope = y[j] + 0.5 * gap, 1.0 / gap
        m = (0.0, 1.0, slope, -slope * zero, 0.0, 1.0, 0.0, 0.0)
        assert all(_kernels.pressure_rise(v, *m) > 0.0 for v in y[:j])
        assert _kernels.pressure_rise(y[j], *m) <= 0.0
        # the observer starts with its own flow's map value at psi
        start[11:] = (zero + 0.5 / slope, 0.5)
        rc, rec, final = self._oracle(start, self.DT, rows, p, m)
        assert rc == (PSI, row + (stage > 1), stage)
        monkeypatch.setattr(csvio, "_fork_pays", lambda *rows: True)
        for forked in (False, True):
            state = start.copy()
            with csvio.RunHelper(1) as helper:
                given = helper if forked else None
                t_end = (rows - 1) * self.DT
                out = _output_buffer(self.DT, t_end, 13, given, True)
                ys = _output_buffer(self.DT, t_end, 3, given, True)
                # stage flows never recorded: the observer reaches none
                ys[:] = -1e308
                assert len(out) == rows
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert loop._integrate(out, ys, state, self.DT, p, m,
                                           given) == rc
            assert out[:row + 1].tobytes() == rec.tobytes()
            assert state.tobytes() == final.tobytes()


class TestOpenLoopBlocks:
    """The open loop fills its record in ranges of rows and reports each,
    as the closed loop does; the record is the same whatever the block."""

    @staticmethod
    def _run(monkeypatch, start, g, dt, rows, block):
        """(result, record, reports) of the open loop from ``start``, in
        blocks of ``block`` rows, or in one block if None."""
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", block or rows)
        out = np.zeros((rows, 3))
        out[0] = (0.0, *start)
        reports = []
        rc = _kernels.greitzer_loop(out, dt, (g, *M.constants),
                                    lambda *report: reports.append(report))
        return rc, out, reports

    @pytest.mark.parametrize("block", [None, 1, 7, 1000])
    def test_record_whatever_the_block(self, monkeypatch, block):
        # 2501 rows: each range after the first starts where the last
        # stopped, and the last stops at the end
        rc, out, reports = self._run(monkeypatch, (0.41, 0.53), 0.6, 0.01,
                                     2501, block)
        whole = self._run(monkeypatch, (0.41, 0.53), 0.6, 0.01, 2501, None)
        assert rc == whole[0] == (OK, 2500)
        assert out.tobytes() == whole[1].tobytes()
        stops = range(1 + (block or 2501), 2501, block or 2501)
        assert reports == [(stop, False) for stop in stops] + [(2501, True)]

    @pytest.mark.parametrize("block", [None, 1, 7, 1000])
    def test_failure_mid_block(self, monkeypatch, block):
        # psi reaches zero in the step into row 1606, the first unfilled
        # row: each range filled before it is reported, then that row
        rc, out, reports = self._run(monkeypatch, (0.0, 2.0), 1.0, 0.001,
                                     2501, block)
        whole = self._run(monkeypatch, (0.0, 2.0), 1.0, 0.001, 2501, None)
        assert rc == whole[0] == (PSI, 1606)
        assert out.tobytes() == whole[1].tobytes()
        assert out[1605, 0] == 1605 * 0.001 and not out[1606:].any()
        stops = range(1 + (block or 2501), 1607, block or 2501)
        assert reports == [(stop, False) for stop in stops] + [(1606, True)]

    def test_one_row_record(self, monkeypatch):
        # a run shorter than one step fills no row and reports its one
        assert self._run(monkeypatch, (0.41, 0.53), 0.6, 0.01, 1,
                         1000)[::2] == ((OK, 0), [(1, True)])

    def test_step_text_is_unchanged(self):
        # filling in blocks runs the range function the whole record ran
        # before.  Its text is pinned where it was recorded (ast.unparse
        # may space or bracket it differently on another version), and
        # what it parses to everywhere
        text = _kernels._open_loop_source()
        if sys.version_info[:2] == (3, 11):
            assert hashlib.sha256(text.encode()).hexdigest() == (
                "12260688ca6cadadd4177cd0316567703abb860772d76df598a875d4"
                "561962d0")
        assert _sha16(_shape(ast.parse(text))) == "b6e335db60c83249"


def _shape(node):
    """The text of an AST without its None and empty-list fields, which
    differ between versions: 3.12 adds ``type_params=[]`` to a function,
    and 3.13's ``ast.dump`` leaves empty fields out."""
    if isinstance(node, ast.AST):
        return type(node).__name__ + "(" + ", ".join(
            f"{name}={_shape(value)}" for name, value in ast.iter_fields(node)
            if value is not None and value != []) + ")"
    if isinstance(node, list):
        return "[" + ", ".join(map(_shape, node)) + "]"
    return repr(node)


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _key_id(key):
    """The test id of a step key: its kind, live set and observed flag."""
    return (key if isinstance(key, str) else
            f"{key[0]}-{'.'.join(map(str, key[1]))}-{key[2]}")


class TestGeneratedStep:
    """Each RK4 step is generated: the closed loop's per (kind, live,
    observed) key, the open loop's and the observer's once.  Its stages
    are its rhs's own statements, and it is built once, on first use."""

    #: the controller kind of each live set
    KIND_OF = {(0, 1, 2, 3, 4, 5, 6, 7, 8, 9): KIND_ADAPTIVE,
               (0, 1, 5, 6, 10): KIND_FIXED_PID,
               (0, 1, 4, 5, 6): _kernels.KIND_FIXED_PD}
    KEYS = [(live, observed) for live in KIND_OF for observed in (False, True)]

    #: the first 16 hex digits of the sha256 of each generated step's
    #: text, as Python 3.11 writes it, and of its ``_shape``: the
    #: observer and the 24 closed-loop (kind, live, observed) keys, each
    #: kind's base live set with (), (4,), (2, 3) or (2, 3, 4).  The open
    #: loop's is pinned in ``TestOpenLoopBlocks``
    STEP_DIGESTS = {
        "observer":
            ("1ef7a5b9d3850fc1", "c01e481fe4f29a6f"),
        (2, (0, 1, 5, 6, 7, 8, 9), False):
            ("9746b663a3072c6d", "47d60e9a1c306798"),
        (2, (0, 1, 5, 6, 7, 8, 9), True):
            ("08411c0802d190c3", "965fe8ae7c70aa03"),
        (2, (0, 1, 4, 5, 6, 7, 8, 9), False):
            ("3f847b3c47fbfd68", "50291684d52b9ab4"),
        (2, (0, 1, 4, 5, 6, 7, 8, 9), True):
            ("aba41a7d6def1e8c", "5b56ab622c977966"),
        (2, (0, 1, 2, 3, 5, 6, 7, 8, 9), False):
            ("d837c3fccf8d2fe8", "aa7bafb7bf08f34b"),
        (2, (0, 1, 2, 3, 5, 6, 7, 8, 9), True):
            ("d3a4886ed46fa9c1", "1ddefcbfe1ac6d21"),
        (2, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), False):
            ("013e6d45138a1f2e", "fd67a0cc91b468d4"),
        (2, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9), True):
            ("789951ba614768e9", "15a866b013754e1d"),
        (1, (0, 1, 5, 6, 10), False):
            ("ab7001519104bc88", "673e3ab5a1efb106"),
        (1, (0, 1, 5, 6, 10), True):
            ("1129f17c5b59a0d3", "e550bd511f856a26"),
        (1, (0, 1, 4, 5, 6, 10), False):
            ("e2d8ff0a245c22b6", "697b1986e774ed21"),
        (1, (0, 1, 4, 5, 6, 10), True):
            ("a6a3283e9fc21332", "5c9982ae861df22e"),
        (1, (0, 1, 2, 3, 5, 6, 10), False):
            ("2c0862b6ba41e451", "36ed27cffd46101f"),
        (1, (0, 1, 2, 3, 5, 6, 10), True):
            ("6cba243b9bf6e51b", "edda1c75598cc353"),
        (1, (0, 1, 2, 3, 4, 5, 6, 10), False):
            ("542346ef8826d4b9", "83a845baa6a41fec"),
        (1, (0, 1, 2, 3, 4, 5, 6, 10), True):
            ("8f49b7c9d5110c89", "1f43a67d7bdb8ad7"),
        (0, (0, 1, 5, 6), False):
            ("183ac6edb141b2f6", "491ec73236a3c5a2"),
        (0, (0, 1, 5, 6), True):
            ("a38ea462828ce19e", "f6683b7b39a3360a"),
        (0, (0, 1, 4, 5, 6), False):
            ("07f16c6b00a76cce", "d13525e1f0708c4a"),
        (0, (0, 1, 4, 5, 6), True):
            ("aad907bdadc89769", "a54edda284a23956"),
        (0, (0, 1, 2, 3, 5, 6), False):
            ("1b83bb1337e5000d", "95fef8ad1aabd0ad"),
        (0, (0, 1, 2, 3, 5, 6), True):
            ("6da96b55a7cb40ce", "cb8b1d1eb73f334b"),
        (0, (0, 1, 2, 3, 4, 5, 6), False):
            ("10ab60c057190321", "e7989c8976c57fa5"),
        (0, (0, 1, 2, 3, 4, 5, 6), True):
            ("eb51da98d5d6be7c", "890808c8bbc8c5a6"),
    }

    @pytest.mark.parametrize("key", STEP_DIGESTS, ids=_key_id)
    def test_step_text_is_pinned(self, key):
        # each text is pinned where it was recorded (ast.unparse may space
        # or bracket it differently on another version), and what it
        # parses to everywhere.  A failure shows both digests of the text
        # built, the pair to pin
        text = (_kernels._observer_source() if key == "observer" else
                _kernels._step_source(*key))
        recorded = sys.version_info[:2] == (3, 11)
        text_digest, shape_digest = self.STEP_DIGESTS[key]
        assert (_sha16(text) if recorded else None,
                _sha16(_shape(ast.parse(text)))) == (
            text_digest if recorded else None, shape_digest)

    #: the 24 closed-loop keys
    LOOP_KEYS = [key for key in STEP_DIGESTS if key != "observer"]

    @staticmethod
    def _parts(key):
        """The statements of the step of ``key``: of ``run``'s head
        before its loop, of the loop up to the test ``i == last`` (RK
        stage 1 and the record), and of the loop after it (stages 2-4 and
        the combination)."""
        run = ast.parse(_kernels._step_source(*key)).body[0]
        loop = next(st for st in run.body if isinstance(st, ast.For))
        cut = next(j for j, st in enumerate(loop.body)
                   if isinstance(st, ast.If)
                   and ast.unparse(st.test) == "i == last")
        return (run.body[:run.body.index(loop)], loop.body[:cut],
                loop.body[cut + 1:])

    @pytest.mark.parametrize("key", LOOP_KEYS, ids=_key_id)
    def test_step_copies_no_name(self, key):
        # a name another name's value is assigned to once is read as that
        # name, and a rate that is a name is named directly: no statement
        # of run or its loop copies one name to another.  (The valve's
        # saturation branches, which choose one of three names, remain)
        head, first, rest = self._parts(key)
        copies = [ast.unparse(st) for st in head + first + rest
                  if isinstance(st, ast.Assign)
                  and isinstance(st.value, ast.Name)
                  and all(isinstance(t, ast.Name) for t in st.targets)]
        assert copies == []

    @pytest.mark.parametrize("key", LOOP_KEYS, ids=_key_id)
    def test_run_head_only_unpacks(self, key):
        # before its loop, run unpacks the states and the constants and
        # takes the step's fractions; every value the rhs computes is
        # computed at each stage
        head, _, _ = self._parts(key)
        assert [ast.unparse(st) for st in head] == [
            f"{', '.join(_kernels.CL_STATE[:11])} = s[:11]",
            "kind, kp, ki, kd, gamma, r, vtau, vlo, vhi, dtarget, dtau = p",
            "h2 = 0.5 * dt", "h6 = dt / 6.0"]

    @pytest.mark.parametrize("live, observed", KEYS)
    def test_only_rhs_isfinite_and_range_are_called(self, live, observed):
        tree = ast.parse(_kernels._step_source(self.KIND_OF[live], live,
                                               observed))
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        # the rhs is inlined, not called; the row writer record is
        assert called == {"isfinite", "range", "record"}
        # the stage flows are written only when observed
        names = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        assert ("ys" in names) == observed
        if observed:
            # the observer step that follows an observed run calls only
            # isfinite, sqrt and range, and reads each stage's throttle:
            # it touches no stage flow
            tree = ast.parse(_kernels._observer_source())
            called = {node.func.id for node in ast.walk(tree)
                      if isinstance(node, ast.Call)}
            assert called == {"isfinite", "sqrt", "range"}
            names = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name)}
            assert "gs" in names and not {"ys", "sb"} & names

    @pytest.mark.parametrize("live, observed", KEYS)
    def test_step_reads_no_kind(self, live, observed):
        # the step is specialized to its kind: no test of the kind is left
        tree = ast.parse(_kernels._step_source(self.KIND_OF[live], live,
                                               observed))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        assert "kind" not in read
        assert not {n for n in read if n.startswith("KIND_")}

    @pytest.mark.parametrize("live, observed", KEYS)
    def test_step_stores_no_dead_rate(self, live, observed):
        # a state outside the live set gets no rate: not even the 0.0 the
        # rhs assigns it under this kind
        tree = ast.parse(_kernels._step_source(self.KIND_OF[live], live,
                                               observed))
        stored = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)}
        dead = {f"{n}_dot" for j, n in enumerate(_kernels.CL_STATE[:11])
                if j not in live}
        assert not stored & dead

    @pytest.mark.parametrize("source", ["_open_loop_source",
                                        "_observer_source"])
    def test_plant_steps_call_only_isfinite_sqrt_and_range(self, source):
        # surge_rhs and pressure_rise are inlined, not called
        tree = ast.parse(getattr(_kernels, source)())
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        assert called == {"isfinite", "sqrt", "range"}

    def test_second_run_reuses_the_step(self, monkeypatch):
        cfg = ControllerConfig(kind="fixed-pid", reference=0.7)
        first = simulate_closed_loop(cfg, t_end=0.5)
        live = _kernels.live_states(
            _kernel_args(cfg, ValveModel(), DisturbanceProfile()),
            initial_loop_state(cfg, ValveModel(), DisturbanceProfile()))
        run = _kernels._STEPS[KIND_FIXED_PID, live, False]
        built = len(_kernels._STEPS)

        def no_source(*key):
            raise AssertionError(f"step {key} built twice")

        monkeypatch.setattr(_kernels, "_step_source", no_source)
        again = simulate_closed_loop(cfg, t_end=0.5)
        assert again.samples.tobytes() == first.samples.tobytes()
        assert _kernels._STEPS[KIND_FIXED_PID, live, False] is run
        assert len(_kernels._STEPS) == built

    @staticmethod
    def _run_built_from(monkeypatch, rhs, p, state, dt, steps):
        """The live set and record of a run of the step built from the
        closed-loop rhs ``rhs``, which must integrate it bit for bit, as
        the full RK4 oracle does."""
        monkeypatch.setattr(_kernels, "_STEPS", {})
        monkeypatch.setattr(_kernels, "closed_loop_rhs", rhs)
        monkeypatch.setattr(support, "closed_loop_rhs", rhs)
        live = _kernels.live_states(p, state)
        rows, final, _ = TestLiveStates._oracle(
            state, dt, steps, p, None,
            [j for j in range(_kernels.CL_DIM) if j not in live])
        out = np.empty_like(rows)
        q = state.copy()
        assert _kernels.closed_loop_loop(out, q, dt, p) == (OK, steps, None)
        assert list(_kernels._STEPS) == [(p[0], live, False)]
        assert out.tobytes() == rows.tobytes()
        assert q.tobytes() == final.tobytes()
        return live, out

    def test_step_follows_the_rhs(self, monkeypatch):
        # a step built from another rhs integrates that rhs bit for bit,
        # as the full RK4 oracle does: the step holds no equation of its
        # own
        cfg = ControllerConfig(kind="adaptive", k3=0.0, reference=0.7)
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35)
        p = _kernel_args(cfg, valve, prof)
        state = initial_loop_state(cfg, valve, prof)
        dt, steps = 1e-3, 500
        shipped = np.empty((steps + 1, 11))
        assert _kernels.closed_loop_loop(shipped, state.copy(), dt, p) == (
            OK, steps, None)
        _, out = self._run_built_from(monkeypatch, slow_disturbance_rhs, p,
                                      state, dt, steps)
        assert out.tobytes() != shipped.tobytes()

    def test_dead_state_is_read_off_the_rhs(self, monkeypatch):
        # an rhs whose integral never moves leaves e_int out of the fixed
        # PID's live set, and its step integrates that rhs bit for bit:
        # live_states states no rate of its own
        cfg = ControllerConfig(kind="fixed-pid", reference=0.7)
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35)
        p = _kernel_args(cfg, valve, prof)
        state = initial_loop_state(cfg, valve, prof)
        state[10] = 0.25   # the integral term stays, at a constant
        assert 10 in _kernels.live_states(p, state)
        live, _ = self._run_built_from(monkeypatch, no_integral_rhs, p,
                                       state, 1e-3, 500)
        assert 10 not in live

    @pytest.mark.parametrize("key, source, run", [
        ("open loop", "_open_loop_source",
         lambda: simulate_greitzer(PlantState(0.63, 0.62), 0.6, t_end=1.0)),
        ("observer", "_observer_source",
         lambda: simulate_closed_loop(ControllerConfig(), t_end=0.5,
                                      observe=True))],
        ids=["open-loop", "observer"])
    def test_entry_point_reuses_its_step(self, monkeypatch, key, source,
                                         run):
        first = run()
        step = _kernels._STEPS[key]

        def no_source():
            raise AssertionError(f"step {key} built twice")

        monkeypatch.setattr(_kernels, source, no_source)
        assert run().samples.tobytes() == first.samples.tobytes()
        assert _kernels._STEPS[key] is step

    def test_open_loop_step_follows_the_rhs(self, monkeypatch):
        # the open-loop step built from another surge_rhs integrates it bit
        # for bit, as the RK4 oracle does
        def run():
            return simulate_greitzer(PlantState(0.63, 0.62), 0.6, dt=1e-2,
                                     t_end=5.0)

        shipped = run()
        monkeypatch.setattr(_kernels, "_STEPS", {})
        monkeypatch.setattr(_kernels, "surge_rhs", fast_pressure_rhs)
        monkeypatch.setattr(support, "surge_rhs", fast_pressure_rhs)
        traj = run()
        assert list(_kernels._STEPS) == ["open loop"]
        gen = support.integrate(
            lambda t, s: np.array(support.plant_rates(*s, 0.6)), [0.63, 0.62],
            1e-2, 5.0, ("phi", "psi"))
        assert traj.samples.tobytes() == gen.samples.tobytes()
        assert traj.samples.tobytes() != shipped.samples.tobytes()

    def test_observer_step_follows_the_rhs(self, monkeypatch):
        # the observer step built from another surge_rhs integrates it
        # bit for bit, as the coupled 13-state oracle does
        cfg = ControllerConfig(kind="fixed-pd", reference=0.7)
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35)
        p = _kernel_args(cfg, valve, prof)
        m = M.constants
        state = initial_loop_state(cfg, valve, prof)
        state[11:] = (state[2], map_pressure_rise(M, state[2]))
        dt, steps = 1e-3, 500

        def run():
            out = np.empty((steps + 1, 13))
            q = state.copy()
            assert loop._integrate(out, np.empty((steps + 1, 3)), q, dt, p,
                                   m) == (OK, steps, None)
            return out, q

        shipped, _ = run()
        monkeypatch.setattr(_kernels, "_STEPS", {})
        monkeypatch.setattr(_kernels, "surge_rhs", fast_pressure_rhs)
        monkeypatch.setattr(support, "surge_rhs", fast_pressure_rhs)
        live = _kernels.live_states(p, state)
        rows, final, _ = TestLiveStates._oracle(
            state, dt, steps, p, m, [j for j in range(11) if j not in live])
        out, q = run()
        assert "observer" in _kernels._STEPS
        assert out.tobytes() == rows.tobytes()
        assert q.tobytes() == final.tobytes()
        assert out[:, 11:].tobytes() != shipped[:, 11:].tobytes()

    PLANT_MALFORMED = [
        ("surge_rhs", "_open_loop_source", three_rates_rhs, "open-loop",
         "it does not end by returning the rates of phi and psi"),
        ("surge_rhs", "_observer_source", unobserved_rhs, "observer",
         "its parameters are ['phi', 'psi', 'psi0',"),
        ("surge_rhs", "_observer_source", record_index_rhs, "observer",
         "its names ['r'] are the step's"),
        # a call of a function of the rhs's module is inlined or refused,
        # never left a call
        ("surge_rhs", "_open_loop_source", augmented_rhs, "open-loop",
         "augmented_rhs calls local_pressure other than as "
         "t = local_pressure(...) or return local_pressure(...)"),
        ("surge_rhs", "_open_loop_source", nested_call_rhs, "open-loop",
         "nested_call_rhs calls local_pressure other than as"),
        ("surge_rhs", "_open_loop_source", keyword_call_rhs, "open-loop",
         "keyword_call_rhs does not pass local_pressure one name for each "
         "parameter"),
        ("surge_rhs", "_open_loop_source", scaled_flow_rhs, "open-loop",
         "scaled_flow_rhs does not pass local_pressure one name for each "
         "parameter"),
        ("surge_rhs", "_open_loop_source", clipped_rhs, "open-loop",
         "clipped_pressure returns before its end"),
        ("surge_rhs", "_open_loop_source", clashing_rhs, "open-loop",
         "the names ['w'] of local_pressure are clashing_rhs's"),
        ("surge_rhs", "_open_loop_source", recursive_rhs, "open-loop",
         "recursive_pressure calls itself"),
        ("surge_rhs", "_open_loop_source", unreturned_rhs, "open-loop",
         "unreturned_pressure does not end by returning a value"),
        ("surge_rhs", "_open_loop_source", shifted_rhs, "open-loop",
         "shifted_pressure assigns to ['phi']"),
    ]

    @pytest.mark.parametrize("name, source, rhs, step, why", PLANT_MALFORMED,
                             ids=[c[2].__name__ for c in PLANT_MALFORMED])
    def test_malformed_plant_rhs_is_refused(self, monkeypatch, name, source,
                                            rhs, step, why):
        monkeypatch.setattr(_kernels, name, rhs)
        with pytest.raises(ValueError, match=re.escape(
                f"cannot inline {rhs.__name__} into the {step} RK4 step: "
                f"{why}")):
            getattr(_kernels, source)()

    MALFORMED = [
        (short_rhs, "it does not end by returning the 15-tuple"),
        (swapped_signals_rhs, "it does not end by returning the 15-tuple"),
        (early_return_rhs, "it returns something other than None"),
        (clamping_rhs, "clamping_rhs assigns to ['x']"),
        (step_local_rhs, "its names ['h2'] are the step's"),
        (stage_rate_rhs, "its names ['x_1'] are the step's"),
        (step_constant_rhs, "its names ['ok'] are the step's"),
        (row_writer_rhs, "its names ['record'] are the step's"),
        (rebinding_rhs, "rebinding_rhs assigns to ['kind']"),
        (other_parameters_rhs, "its parameters are ['x', 'd', 'vtau', 'r']"),
        (no_constant_rhs, "its parameters are ['x', 'd', 'ym1', 'ym2', "
         "'v1', 'v2', 'v3', 'k1', 'k2', 'k3', 'e_int'], not ['x', 'd', "
         "'ym1', 'ym2', 'v1', 'v2', 'v3', 'k1', 'k2', 'k3', 'e_int'] and "
         "its constants"),
    ]

    @pytest.mark.parametrize("rhs, why", MALFORMED,
                             ids=[rhs.__name__ for rhs, _ in MALFORMED])
    def test_malformed_rhs_is_refused(self, monkeypatch, rhs, why):
        # an rhs the inliner would mistranslate is refused with one
        # ValueError when the step is first built, and none is cached
        monkeypatch.setattr(_kernels, "_STEPS", {})
        monkeypatch.setattr(_kernels, "closed_loop_rhs", rhs)
        with pytest.raises(ValueError, match=re.escape(
                f"cannot inline {rhs.__name__} into the closed-loop RK4 "
                f"step: {why}")):
            _kernels._step(_kernels.KIND_FIXED_PD, (0, 1, 5, 6), False)
        assert _kernels._STEPS == {}

    def test_fold_reads_a_local_kind_code_as_the_rhs_does(self):
        # only the KIND_* codes the rhs reads from its module are folded
        # in: a local of the same name keeps its own value
        assert shadowing_rhs(*[0.0] * 11, KIND_ADAPTIVE)[0] == 0.0
        _, body, _ = _kernels._folded(shadowing_rhs, KIND_ADAPTIVE)
        assert ast.unparse(ast.Module(body, [])) == "u = 0.0"

    def test_no_step_is_built_at_import(self):
        code = ("import surgekit.cli; from surgekit import _kernels; "
                "print(len(_kernels._STEPS))")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert done.stdout == "0\n"

    def test_each_step_build_inlines_its_rhs_once(self, monkeypatch):
        # a step build reads its rhs's definition once: the kind codes
        # and the step's globals come from the rhs's module, not from
        # inlining the rhs again
        calls = []
        inlined = _kernels._inlined

        def counted(fn, outer=()):
            if outer == ():
                calls.append(fn.__name__)
            return inlined(fn, outer)

        monkeypatch.setattr(_kernels, "_STEPS", {})
        monkeypatch.setattr(_kernels, "_inlined", counted)
        _kernels._folded.cache_clear()
        sc = resolve_scenario("fig10")
        args = (sc.controller, sc.valve, sc.disturbance)
        p = _kernel_args(*args)
        live = _kernels.live_states(p, initial_loop_state(*args).tolist())
        _kernels._step(p[0], live, False)
        assert calls == ["closed_loop_rhs"]
        _kernels.observed_compressor(_kernels.flat(np.zeros((1, 13))),
                                     _kernels.flat(np.zeros((1, 3))), 1e-3,
                                     M.constants, 0, 0)
        assert calls[1:] == ["surge_rhs"]
        assert _kernels.greitzer_loop(np.zeros((1, 3)), 1e-3,
                                      (0.6, *M.constants)) == (OK, 0)
        assert calls[2:] == ["surge_rhs"]
        assert list(_kernels._STEPS) == [(p[0], live, False), "observer",
                                         "open loop"]

    def test_three_state_step_is_a_plain_rk4_loop(self, monkeypatch):
        # a step of three states from the one writer (the shape of a model
        # with a stall amplitude) integrates its rhs bit for bit as a
        # plain RK4 loop that calls the rhs does
        monkeypatch.setattr(_kernels, "_STEPS", {})
        run = _kernels._built("toy", damped_rhs, damped_source)
        tree = ast.parse(damped_source())
        assert "damped_rhs" not in {node.id for node in ast.walk(tree)
                                    if isinstance(node, ast.Name)}
        m, dt, steps = (4.0, 0.3, 1.5), 0.01, 400
        out = [(1.0, 0.0, 0.5)]
        assert run(out, dt, m, 1, steps + 1) == (OK, steps)
        y, rows = out[0], [out[0]]
        h2, h6 = 0.5 * dt, dt / 6.0
        for _ in range(steps):
            k1 = damped_rhs(*y, *m)
            k2 = damped_rhs(*(v + h2 * r for v, r in zip(y, k1)), *m)
            k3 = damped_rhs(*(v + h2 * r for v, r in zip(y, k2)), *m)
            k4 = damped_rhs(*(v + dt * r for v, r in zip(y, k3)), *m)
            y = tuple(v + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                      for v, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4))
            rows.append(y)
        assert np.array(out).tobytes() == np.array(rows).tobytes()
        assert 0.0 < abs(out[-1][0]) < 0.5   # damped, not yet at rest

    def test_three_state_rhs_must_return_three_rates(self):
        with pytest.raises(ValueError, match=re.escape(
                "cannot inline two_rates_rhs into the toy RK4 step: it does "
                "not end by returning the rates of a and b and c")):
            _kernels._rhs_body(two_rates_rhs, "toy", TOY, TOY, frozenset())

    def test_steps_are_built_without_deep_copies(self, monkeypatch):
        # no stage, inlining or folding copies a tree: each works on one
        # parsed for it
        def no_copy(*args, **kwargs):
            raise AssertionError("copy.deepcopy called in a step build")

        sc = resolve_scenario("fig10")
        args = (sc.controller, sc.valve, sc.disturbance)
        p = _kernel_args(*args)
        state = initial_loop_state(*args).tolist()
        monkeypatch.setattr(copy, "deepcopy", no_copy)
        monkeypatch.setattr(_kernels, "_STEPS", {})
        _kernels._folded.cache_clear()
        live = _kernels.live_states(p, state)
        _kernels._step(p[0], live, False)
        _kernels._built("observer", _kernels.surge_rhs,
                        _kernels._observer_source)
        _kernels._built("open loop", _kernels.surge_rhs,
                        _kernels._open_loop_source)
        assert list(_kernels._STEPS) == [(p[0], live, False), "observer",
                                         "open loop"]


class TestKernelDeterminism:
    def test_repeat_runs_identical(self):
        cfg = ControllerConfig(kind="adaptive")
        runs = [simulate_closed_loop(cfg, t_end=3.0).samples
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
