"""The RK4 kernels against a full RK4 oracle, their status codes, the
merging of the loop's and the observer's failures, and their
determinism."""

import os

import numpy as np
import pytest
from support import coupled_rhs, rk4_step

from surgekit import _kernels, csvio, loop
from surgekit.compressor import DEFAULT_MAP, GreitzerParams, PlantState, \
    map_pressure_rise
from surgekit.loop import (CONTROLLER_KINDS, ControllerConfig,
                           DisturbanceProfile, ValveModel, _kernel_args,
                           _observer_args, initial_loop_state,
                           simulate_closed_loop)
from surgekit.odesim import _output_buffer

M = DEFAULT_MAP
OK = _kernels.OK
NONFINITE = _kernels.NONFINITE
PSI = _kernels.PSI_NONPOSITIVE


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

    def _check(self, monkeypatch, kind, observe, reference, dropped):
        """The kernels against the oracle, with the indices of the
        reference model and the set-point filter that ``live_states``
        drops; returns the oracle's projection count."""
        cfg = ControllerConfig(kind=kind, k3=0.0, reference=reference)
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35)
        p = _kernel_args(cfg, valve, prof)
        m = _observer_args() if observe else None
        state = initial_loop_state(cfg, valve, prof)
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
        # whole, and in ranges of 777 rows, whose bounds are no multiple
        # of the block size the CLI uses: the state carries over.  In this
        # process, and with the observer (or the formatter alone) in a
        # helper process
        for block in (None, 777):
            for forked in (False, True):
                q = state.copy()
                out = _output_buffer(self.DT, self.STEPS * self.DT,
                                     rows.shape[1])
                ys = _output_buffer(self.DT, self.STEPS * self.DT, 3)
                del forks[:]
                with csvio.RunHelper(1) as helper:
                    assert loop._integrate(
                        out, ys, q, self.DT, p, m, helper if forked else None,
                        block) == (_kernels.OK, self.STEPS, None)
                assert len(forks) == forked
                assert out.tobytes() == rows.tobytes()
                assert q.tobytes() == final.tobytes()
        if not observe:
            # the ranges reported, the last as the end of the run
            reported = []
            _kernels.closed_loop_loop(
                np.empty_like(rows), state.copy(), self.DT, p, 777,
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


class TestStatusCodes:
    def test_greitzer_breakdown_reported(self):
        out = np.empty((100, 3))
        out[0] = (0.0, 0.5, 1e-9)  # pressure collapses within one step
        c0, c1, c2, c3 = M.cubic
        status, row = _kernels.greitzer_loop(
            out, 1.0, M.psi0, M.h, M.slope, M.offset, c0, c1, c2, c3,
            0.8, 1.25, 5.0)
        assert status == _kernels.PSI_NONPOSITIVE
        assert row == 1

    def test_wrapper_raises_on_breakdown(self):
        from surgekit.errors import DivergenceError
        from surgekit.odesim import simulate_greitzer
        with pytest.raises(DivergenceError) as exc:
            simulate_greitzer(PlantState(0.5, 1e-9),
                              GreitzerParams(g=5.0), M, dt=1.0, t_end=50.0)
        # the run stops in its first step, keeping the finite initial row
        assert exc.value.partial.n_rows == 1
        assert np.all(np.isfinite(exc.value.partial.samples))

    @pytest.mark.parametrize("storage", [np.array, list])
    def test_zero_control_denominator_is_nonfinite(self, storage):
        # an RK stage may carry the gain k3 = -vtau, which zeroes the
        # denominator of the control signal in linear valve mode
        cfg = ControllerConfig(kind="adaptive")
        valve = ValveModel()
        prof = DisturbanceProfile()
        q = initial_loop_state(cfg, valve, prof)
        q[0] = 0.1
        q[9] = -valve.tau
        status = _kernels.closed_loop_rhs(
            storage(q.tolist()), storage([0.0] * _kernels.CL_DIM),
            storage([0.0] * 4), _kernel_args(cfg, valve, prof))
        assert status == _kernels.NONFINITE


class TestFailureMerge:
    """The loop's failure and the observer's merge by (step, RK stage):
    the earlier one is the run's, the loop's on a tie, as its checks come
    first in the coupled rhs.  An observer that fails first leaves the
    state of its step, the loop's part replayed."""

    @staticmethod
    def _merged(dt, k3, seen):
        """(status, row, stage) and final state of a 3-row observed run
        whose observer reports ``seen`` at the end."""
        cfg = ControllerConfig(kind="adaptive")
        valve = ValveModel()
        prof = DisturbanceProfile()
        state = initial_loop_state(cfg, valve, prof)
        state[9] = k3
        state[11:] = (0.55, 0.7)
        start = state.copy()
        rc = _kernels.closed_loop_loop(
            np.zeros((3, 13)), state, dt, _kernel_args(cfg, valve, prof),
            None, lambda rows, last: seen if last else None, np.zeros((3, 3)))
        return rc, state, start

    @pytest.mark.parametrize("seen, expected", [
        ((OK, 2, None), (NONFINITE, 1, None)),
        ((PSI, 1, None), (NONFINITE, 1, None)),
        ((PSI, 1, 4), (PSI, 1, 4)),
        ((PSI, 1, 2), (PSI, 1, 2)),
        ((PSI, 0, 1), (PSI, 0, 1)),
    ], ids=["observer-ok", "tie", "stage-4", "stage-2", "stage-1"])
    def test_overflowing_step(self, seen, expected):
        # a step of 1e200 overflows the loop state in step 0, after its
        # four stages
        rc, state, start = self._merged(1e200, 0.7, seen)
        assert rc == expected
        if rc[0] == PSI:
            # the state before step 0
            assert state.tobytes() == start.tobytes()
        else:
            assert not np.all(np.isfinite(state[:11]))

    def test_tie_at_a_stage(self):
        # k3 = -vtau zeroes the control denominator at stage 1 of row 0;
        # an observer failing there too loses
        rc, state, start = self._merged(1e-3, -2.0, (PSI, 0, 1))
        assert rc == (NONFINITE, 0, 1)
        assert state.tobytes() == start.tobytes()


class TestKernelDeterminism:
    def test_repeat_runs_identical(self):
        cfg = ControllerConfig(kind="adaptive")
        runs = [simulate_closed_loop(cfg, t_end=3.0).samples
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
