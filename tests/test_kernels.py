"""The RK4 kernels against a full RK4 oracle, their status codes and
their determinism."""

import numpy as np
import pytest
from support import rk4_step

from surgekit import _kernels
from surgekit.compressor import DEFAULT_MAP, GreitzerParams, PlantState, \
    map_pressure_rise
from surgekit.loop import (CONTROLLER_KINDS, ControllerConfig,
                           DisturbanceProfile, ValveModel, _kernel_args,
                           initial_loop_state, simulate_closed_loop)

M = DEFAULT_MAP


class TestLiveStates:
    """The loop integrates only :func:`_kernels.live_states`; a full
    13-state RK4 over ``closed_loop_rhs`` is the oracle it must match."""

    DT = 1e-3
    STEPS = 2000

    @staticmethod
    def _oracle(state, dt, steps, p, skipped):
        """Rows, final state and projection count of ``support.rk4_step``
        on every state, with the adaptive gain projection; asserts that
        each rhs call leaves the ``skipped`` rates at exactly 0.0."""
        sig = np.empty(4)

        def rates(_t, q):
            dq = np.empty(_kernels.CL_DIM)
            assert _kernels.closed_loop_rhs(q, dq, sig, p) == _kernels.OK
            assert np.all(dq[skipped] == 0.0)
            return dq

        observe = p[14]
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

    def _check(self, kind, observe, reference, dropped):
        """The kernel against the oracle, with the indices of the
        reference model and the set-point filter that ``live_states``
        drops; returns the oracle's projection count."""
        cfg = ControllerConfig(kind=kind, k3=0.0, reference=reference)
        valve = ValveModel()
        prof = DisturbanceProfile(target=0.35)
        p = _kernel_args(cfg, valve, prof, observe)
        state = initial_loop_state(cfg, valve, prof)
        if observe:
            state[11] = state[2]
            state[12] = map_pressure_rise(M, state[2])
        live = _kernels.live_states(p, state)
        skipped = [j for j in range(_kernels.CL_DIM) if j not in live]
        assert [j for j in (2, 3, 4) if j not in live] == list(dropped)
        assert len(live) == (7 - len(dropped) + 3 * (kind == "adaptive")
                             + (kind == "fixed-pid") + 2 * observe)
        rows, final, clamps = self._oracle(state, self.DT, self.STEPS, p,
                                           skipped)
        # whole, and in ranges of 777 rows, whose bounds are no multiple
        # of the block size the CLI uses: the state carries over
        for block in (None, 777):
            q = state.copy()
            out = np.empty_like(rows)
            reported = []
            assert _kernels.closed_loop_loop(out, q, self.DT, p, block,
                                             reported.append) \
                == (_kernels.OK, self.STEPS)
            assert out.tobytes() == rows.tobytes()
            assert q.tobytes() == final.tobytes()
            stops = range(block or len(rows), len(rows), block or 1)
            assert reported == [*stops, len(rows)]
        return clamps

    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_kernel_matches_full_rk4(self, kind, observe):
        # the set point 0.7 moves the reference model, which starts on
        # the measured flow 0.55; the set-point filter v1 starts on the
        # set point, at rest, and is dropped.  k3 starts at 0 and this set
        # point drives its rate negative, so the adaptive runs clamp it
        clamps = self._check(kind, observe, 0.7, dropped=(4,))
        assert (clamps > 0) == (kind == "adaptive")

    @pytest.mark.parametrize("reference, dropped", [
        (0.55, (2, 3, 4)), (-0.0, ())], ids=["at-rest", "negative-zero"])
    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_subsystems_at_rest_are_dropped(self, kind, observe, reference,
                                            dropped):
        # at the set point 0.55, the start's measured flow, the reference
        # model and v1 both start at rest and are dropped.  At -0.0 the
        # reference model moves, and v1 = -0.0 is kept: a full step would
        # turn it into 0.0
        self._check(kind, observe, reference, dropped)


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


class TestKernelDeterminism:
    def test_repeat_runs_identical(self):
        cfg = ControllerConfig(kind="adaptive")
        runs = [simulate_closed_loop(cfg, t_end=3.0).samples
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
