"""Test-side references: a plain RK4 integrator (the oracle the kernels
are compared against), the coupled 13-state closed-loop rhs, the kernel's
own surge-model, closed-loop and observer rates at named states, a digest
of the observed breakdown, the tracking cost of a run, and the values in
which two scenarios differ.
"""

import hashlib
import math
from dataclasses import asdict

import numpy as np

from surgekit._kernels import (CL_DIM, CL_STATE, OK, PSI_NONPOSITIVE,
                               closed_loop_rhs, observed_rhs, pressure_rise,
                               surge_rhs)
from surgekit.compressor import DEFAULT_MAP, FLOW_GAIN, PRESSURE_GAIN
from surgekit.csvio import RunHelper
from surgekit.errors import DivergenceError
from surgekit.loop import (ControllerConfig, DisturbanceProfile, ValveModel,
                           _kernel_args, _observer_args,
                           simulate_closed_loop)
from surgekit.odesim import Trajectory
from surgekit.scenario import KNOWN_KEYS, Scenario, load_scenario


def rk4_step(rhs, t, y, dt):
    """One classical fourth-order Runge-Kutta step of y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rhs, initial, dt, t_end, names):
    """RK4 of y' = rhs(t, y) from t=0 to t_end, every step recorded."""
    n = int(np.floor(t_end / dt + 1e-9))
    y = np.asarray(initial, dtype=float)
    out = np.empty((n + 1, len(names) + 1))
    out[0] = (0.0, *y)
    for i in range(1, n + 1):
        y = rk4_step(rhs, (i - 1) * dt, y, dt)
        out[i] = (i * dt, *y)
    return Trajectory(dt, ["t", *names], out)


def plant_rates(phi, psi, g, cmap=DEFAULT_MAP, a=FLOW_GAIN, b=PRESSURE_GAIN):
    """``surge_rhs`` at a hand-built state: (d phi/dt, d psi/dt)."""
    return surge_rhs(phi, psi, g, cmap.psi0, cmap.h, cmap.slope, cmap.offset,
                     *cmap.cubic, a, b)


def vector_field_grid(g, phi_range, psi_range, n, cmap=DEFAULT_MAP):
    """(PHI, PSI, DPHI, DPSI): the surge-model field on an n-by-n grid."""
    PHI, PSI = np.meshgrid(np.linspace(*phi_range, n),
                           np.linspace(*psi_range, n))
    DPHI = np.empty_like(PHI)
    DPSI = np.empty_like(PSI)
    for idx in np.ndindex(PHI.shape):
        DPHI[idx], DPSI[idx] = plant_rates(PHI[idx], PSI[idx], g, cmap)
    return PHI, PSI, DPHI, DPSI


def coupled_rhs(q, dq, sig, p, m=None):
    """The closed loop with the observed compressor as one 13-state system:
    ``closed_loop_rhs``'s rates and signals, and with the map constants
    ``m`` the (phi, psi) rates of ``surge_rhs`` throttled by the stage's
    measured flow, g = y/sqrt(psi_c(y)) (0.0 without ``m``).  The checks
    come in the order of one rhs: the loop's, psi <= 0, psi_c(y) <= 0.
    Returns a status code."""
    status = closed_loop_rhs(q, dq, sig, p)
    dq[11] = dq[12] = 0.0
    if status != OK or m is None:
        return status
    if q[12] <= 0.0:
        return PSI_NONPOSITIVE
    pcy = pressure_rise(sig[2], *m[:8])
    if pcy <= 0.0:
        return PSI_NONPOSITIVE
    dq[11], dq[12] = surge_rhs(q[11], q[12], sig[2] / math.sqrt(pcy), *m)
    return OK


def observed_rates(phi, psi, y, cmap=DEFAULT_MAP):
    """``observed_rhs`` at a hand-built state and flow."""
    return observed_rhs(phi, psi, y, *_observer_args(cmap))


def loop_rates(kind="adaptive", valve=ValveModel(), target=0.35,
               status=OK, **values):
    """``closed_loop_rhs`` at a hand-built state.

    Keywords named in ``CL_STATE`` set the state (the rest of it is 0; the
    adaptive gains in use are the state's k1..k3), the others are
    ``ControllerConfig`` fields; ``target`` is the disturbance target.
    Checks that the rhs returns ``status``.  Returns the signals u, co, y,
    e and each loop rate as ``<name>_dot``.
    """
    q = np.array([float(values.pop(name, 0.0)) for name in CL_STATE])
    args = _kernel_args(ControllerConfig(kind=kind, **values), valve,
                        DisturbanceProfile(target=target))
    dq = np.empty(CL_DIM)
    sig = np.empty(4)
    assert coupled_rhs(q, dq, sig, args) == status
    return {**dict(zip(("u", "co", "y", "e"), sig)),
            **{f"{name}_dot": rate for name, rate in zip(CL_STATE, dq)}}


def breakdown_digest():
    """sha256 of the error of the observed breakdown at d = 1.0 (message,
    time, stage, rows and state), the run given the CLI's helper."""
    with RunHelper(1) as helper:
        try:
            simulate_closed_loop(ControllerConfig(),
                                 profile=DisturbanceProfile(target=1.0),
                                 t_end=5.0, observe=True, helper=helper)
        except DivergenceError as err:
            return hashlib.sha256(repr((
                str(err), err.time, err.stage, err.partial.samples.tobytes(),
                err.state.tobytes())).encode()).hexdigest()
    raise AssertionError("the observed compressor did not break down")


def tracking_cost(traj):
    """Integral of the squared model error over a closed-loop run."""
    e = traj.column("e")
    return float(np.sum(e * e) * traj.dt)


def reference_matrix():
    """State matrix of the reference model, read off the rhs at r = 0."""
    cols = [loop_rates(ym1=ym1, ym2=ym2, reference=0.0)
            for ym1, ym2 in ((1.0, 0.0), (0.0, 1.0))]
    return np.array([[c["ym1_dot"] for c in cols],
                     [c["ym2_dot"] for c in cols]])


def scenario_diff(sc, base):
    """{leaf path: value in ``sc``} where ``sc`` differs from ``base``."""
    def leaves(node, path=()):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            if isinstance(v, (dict, tuple)):
                yield from leaves(v, path + (k,))
            else:
                yield path + (k,), v
    old = dict(leaves(asdict(base)))
    return {path: v for path, v in leaves(asdict(sc)) if old[path] != v}


#: a value no default holds, per key type, and for each str key one its
#: own validation accepts
_SAMPLES = {"float": 0.125, "int": 7, "bool": True, "run.name": "demo",
            "run.kind": "averaging", "controller.kind": "fixed-pid",
            "tune.rule": "PI"}


def key_sample(key):
    """A value to set scenario key ``key`` to (its text is ``str()``)."""
    return _SAMPLES.get(key, _SAMPLES.get(KNOWN_KEYS[key]))


def load_one_key(tmp_path, key):
    """scenario_diff of a file setting only ``key`` against the defaults."""
    path = tmp_path / "case.scn"
    path.write_text(f"{key} = {key_sample(key)}\n")
    return scenario_diff(load_scenario(path), Scenario(name="case"))
