"""Test-side references: a plain RK4 integrator (the oracle the kernels
are compared against), the kernel's own closed-loop rhs at named states,
and the values in which two scenarios differ.
"""

from dataclasses import asdict

import numpy as np

from surgekit._kernels import CL_DIM, CL_STATE, OK, closed_loop_rhs
from surgekit.loop import (ControllerConfig, DisturbanceProfile, ValveModel,
                           _kernel_args)
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


def loop_rates(kind="adaptive", valve=ValveModel(), target=0.35, **values):
    """``closed_loop_rhs`` at a hand-built state.

    Keywords named in ``CL_STATE`` set the state (the rest of it is 0; the
    adaptive gains in use are the state's k1..k3), the others are
    ``ControllerConfig`` fields; ``target`` is the disturbance target.
    Returns the signals u, co, y, e and each rate as ``<name>_dot``.
    """
    q = np.array([float(values.pop(name, 0.0)) for name in CL_STATE])
    args = _kernel_args(ControllerConfig(kind=kind, **values), valve,
                        DisturbanceProfile(target=target))
    dq = np.empty(CL_DIM)
    sig = np.empty(4)
    assert closed_loop_rhs(q, dq, sig, *args) == OK
    return {**dict(zip(("u", "co", "y", "e"), sig)),
            **{f"{name}_dot": rate for name, rate in zip(CL_STATE, dq)}}


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
