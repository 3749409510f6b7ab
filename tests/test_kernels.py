"""Compiled and pure-Python kernel flavours must agree bit for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest

from surgekit import _kernels
from surgekit.compressor import DEFAULT_MAP, GreitzerParams, PlantState, \
    map_pressure_rise, throttle_from_flow
from surgekit.loop import (CONTROLLER_KINDS, ControllerConfig,
                           DisturbanceProfile, ValveModel, _kernel_args,
                           initial_loop_state, simulate_closed_loop)

M = DEFAULT_MAP

needs_jit = pytest.mark.skipif(not _kernels.NUMBA_ENABLED,
                               reason="numba disabled or unavailable")


def _greitzer_args(out):
    c0, c1, c2, c3 = M.cubic
    return (out, 1e-2, M.psi0, M.h, M.slope, M.offset, c0, c1, c2, c3,
            0.8, 1.25, throttle_from_flow(M, 0.51))


def _closed_loop_args(out):
    cfg = ControllerConfig(kind="adaptive")
    valve = ValveModel()
    prof = DisturbanceProfile(target=0.35)
    return (out, initial_loop_state(cfg, valve, prof), 1e-3,
            *_kernel_args(cfg, valve, prof))


@needs_jit
class TestFlavourParity:
    def test_greitzer_bitwise(self):
        out_a = np.empty((2001, 3))
        out_a[0] = (0.0, 0.63, 0.62)
        out_b = out_a.copy()
        ra = _kernels.greitzer_loop_py(*_greitzer_args(out_a))
        rb = _kernels.greitzer_loop_jit(*_greitzer_args(out_b))
        assert ra == rb == (_kernels.OK, 2000)
        assert np.array_equal(out_a, out_b)

    def test_closed_loop_bitwise(self):
        out_a = np.empty((4001, 11))
        out_b = np.empty((4001, 11))
        ra = _kernels.closed_loop_loop_py(*_closed_loop_args(out_a))
        rb = _kernels.closed_loop_loop_jit(*_closed_loop_args(out_b))
        assert ra == rb == (_kernels.OK, 4000)
        assert np.array_equal(out_a, out_b)

    def test_fixed_pid_bitwise(self):
        # fixed-pid exercises the integral branch; compare the full
        # simulate wrapper across the env-flag boundary
        code = (
            "from surgekit.loop import *\n"
            "cfg = ControllerConfig(kind='fixed-pid', kp=10, ki=24, kd=1)\n"
            "tr = simulate_closed_loop(cfg, "
            "profile=DisturbanceProfile(target=0.35), t_end=4.0)\n"
            "print(repr(tr.samples[-1].tolist()))\n")
        env = dict(os.environ, SURGEKIT_NO_NUMBA="1")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        cfg = ControllerConfig(kind="fixed-pid", kp=10, ki=24, kd=1)
        tr = simulate_closed_loop(
            cfg, profile=DisturbanceProfile(target=0.35), t_end=4.0)
        assert eval(res.stdout) == tr.samples[-1].tolist()


class TestStorageParity:
    """The shared loop on an array state (the jit flavour's storage) and
    ``closed_loop_loop_py`` (Python floats) agree bit for bit."""

    @staticmethod
    def _run(kernel, kind, observe, target):
        cfg = ControllerConfig(kind=kind)
        valve = ValveModel()
        prof = DisturbanceProfile(target=target)
        state = initial_loop_state(cfg, valve, prof)
        if observe:
            state[11] = state[2]
            state[12] = map_pressure_rise(M, state[2])
        out = np.full((2001, 13 if observe else 11), np.nan)
        rc = kernel(out, state, 1e-3, *_kernel_args(cfg, valve, prof, observe))
        return rc, out, state

    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("kind", CONTROLLER_KINDS)
    def test_array_and_float_storage_agree(self, kind, observe):
        rc_a, out_a, state_a = self._run(_kernels._closed_loop_loop, kind,
                                         observe, 0.35)
        rc_b, out_b, state_b = self._run(_kernels.closed_loop_loop_py, kind,
                                         observe, 0.35)
        assert rc_a == rc_b == (_kernels.OK, 2000)
        assert np.array_equal(out_a, out_b)
        assert np.array_equal(state_a, state_b)

    def test_breakdown_agrees(self):
        # the observed compressor breaks down at row 855: both storages
        # stop there, leaving the same rows and the same final state
        runs = [self._run(kernel, "adaptive", True, 1.0)
                for kernel in (_kernels._closed_loop_loop,
                               _kernels.closed_loop_loop_py)]
        (rc_a, out_a, state_a), (rc_b, out_b, state_b) = runs
        assert rc_a == rc_b == (_kernels.PSI_NONPOSITIVE, 855)
        assert np.array_equal(out_a, out_b, equal_nan=True)
        assert np.array_equal(state_a, state_b)


class TestStatusCodes:
    def test_greitzer_breakdown_reported(self):
        out = np.empty((100, 3))
        out[0] = (0.0, 0.5, 1e-9)  # pressure collapses within one step
        c0, c1, c2, c3 = M.cubic
        status, row = _kernels.greitzer_loop_py(
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
            storage([0.0] * 4), *_kernel_args(cfg, valve, prof))
        assert status == _kernels.NONFINITE


class TestEnvFlag:
    def test_no_numba_env_selects_python_path(self):
        code = ("import surgekit._kernels as k; "
                "print(k.NUMBA_ENABLED, k.greitzer_loop is k.greitzer_loop_py)")
        env = dict(os.environ, SURGEKIT_NO_NUMBA="1")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.split() == ["False", "True"]

    def test_python_fallback_runs_the_loop(self):
        env = dict(os.environ, SURGEKIT_NO_NUMBA="1")
        code = (
            "import surgekit as sk\n"
            "from surgekit.compressor import PlantState, GreitzerParams\n"
            "t = sk.simulate_greitzer(PlantState(0.63, 0.62), "
            "GreitzerParams(g=0.6046), dt=1e-2, t_end=2.0)\n"
            "print(t.n_rows, t.column('phi')[-1])\n")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        n, phi = res.stdout.split()
        assert n == "201"
        # same result as the in-process (possibly compiled) path
        import surgekit as sk
        ref = sk.simulate_greitzer(PlantState(0.63, 0.62),
                                   GreitzerParams(g=0.6046),
                                   dt=1e-2, t_end=2.0)
        assert float(phi) == ref.column("phi")[-1]


class TestKernelDeterminism:
    def test_repeat_runs_identical(self):
        cfg = ControllerConfig(kind="adaptive")
        runs = [simulate_closed_loop(cfg, t_end=3.0).samples
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
