"""Anti-surge control loop: valve, disturbance, PID/adaptive laws, assembly.

The actuator is a recycle valve modeled as a first-order lag with hard
output limits; its flow adds to the upstream disturbance to form the
measured compressor inlet flow ``y = d + co``.  Fixed PD/PID gains come
from the open-loop tangent tuning rule; the adaptive controller tracks a
second-order reference model by gradient descent on the squared model
error, with the parameter updates gated off while the valve is saturated.
The reference model is defined in ``_kernels``, as the loop equations are.

Because the derivative term acts on ``y_dot`` and ``y_dot`` depends on the
control signal through the valve in linear mode, the control signal is an
algebraic loop; the kernel's ``closed_loop_rhs`` (the one definition of
the loop equations) solves it in closed form per actuator mode rather than
breaking it with a one-step delay.

``--observe`` runs a compressor beside the loop, throttled by the
measured flow and feeding nothing back.  The loop kernel records the flow
at each RK stage, and the observer's own kernel integrates (phi, psi) from
those flows: one block of rows behind the loop in the helper process
of ``csvio.RunHelper`` when the run goes to it (on the second CPU), else
here after the loop.  The loop runs to its own end or failure either way, and
:func:`_integrate` merges the observer's result with the loop's once, at
the end, so the columns, and the time, rows, stage and state of a
failure, are those of the coupled 13-state RK4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .compressor import CompressorMap, DEFAULT_MAP, map_pressure_rise
from .csvio import RunHelper
from .errors import DegenerateResponseError, DivergenceError, DomainError
from .odesim import LOOP_DT, LOOP_T_END, Trajectory, _output_buffer

FIXED_PD = "fixed-pd"
FIXED_PID = "fixed-pid"
ADAPTIVE = "adaptive"
_KIND_CODES = {FIXED_PD: _kernels.KIND_FIXED_PD,
               FIXED_PID: _kernels.KIND_FIXED_PID,
               ADAPTIVE: _kernels.KIND_ADAPTIVE}
CONTROLLER_KINDS = tuple(_KIND_CODES)

#: recorded columns of a closed-loop run (observation appends phi, psi)
LOOP_COLUMNS = ("t", "d", "u", "x", "co", "y", "ym", "e", "k1", "k2", "k3")


@dataclass(frozen=True)
class ValveModel:
    """First-order-lag recycle valve with hard flow limits."""

    tau: float = 2.0
    out_min: float = 0.05
    out_max: float = 0.25

    def __post_init__(self):
        values = (self.tau, self.out_min, self.out_max)
        if not (all(math.isfinite(v) for v in values) and self.tau > 0.0
                and 0.0 < self.out_min < self.out_max):
            raise DomainError(f"valve needs finite tau > 0 and "
                              f"0 < out_min < out_max, got {self}")


@dataclass(frozen=True)
class ControllerConfig:
    """Controller kind, gains, adaptation gain and set point."""

    kind: str = ADAPTIVE
    kp: float = 10.0
    ki: float = 24.0
    kd: float = 1.0
    k1: float = 10.0
    k2: float = 10.0
    k3: float = 0.7
    gamma: float = 1.0
    reference: float = 0.55

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise DomainError(
                f"controller kind must be one of {sorted(CONTROLLER_KINDS)}, "
                f"got {self.kind!r}")
        gains = (self.kp, self.ki, self.kd, self.k1, self.k2, self.k3)
        if any(not math.isfinite(g) or g < 0.0 for g in gains):
            raise DomainError(f"controller gains must be >= 0, got {self}")
        if not math.isfinite(self.gamma) or (self.kind == ADAPTIVE
                                             and not self.gamma > 0.0):
            raise DomainError(f"adaptation gain gamma must be finite and "
                              f"positive, got {self.gamma}")
        if not math.isfinite(self.reference):
            raise DomainError(f"reference must be finite, got {self.reference}")


@dataclass(frozen=True)
class DisturbanceProfile:
    """Upstream flow disturbance: first-order lag from initial to target."""

    target: float = 0.35
    tau: float = 1.0
    initial: float = 0.50

    def __post_init__(self):
        values = (self.target, self.tau, self.initial)
        if not (all(math.isfinite(v) for v in values) and self.target >= 0.0
                and self.tau > 0.0 and self.initial >= 0.0):
            raise DomainError(
                f"disturbance needs finite target >= 0, tau > 0, "
                f"initial >= 0, got {self}")


TUNE_RULES = ("P", "PI", "PID")


@dataclass(frozen=True)
class TuneConfig:
    """Dead time L, time constant T and rule (the ``tune`` section)."""

    L: float | None = None
    T: float | None = None
    rule: str = "PID"

    def __post_init__(self):
        if not (all(v is None or (math.isfinite(v) and v > 0.0)
                    for v in (self.L, self.T)) and self.rule in TUNE_RULES):
            raise DomainError(f"tune needs finite L > 0, T > 0 and a rule "
                              f"in {TUNE_RULES}, got {self}")


def zn_gains(tune: TuneConfig) -> dict[str, float]:
    """Open-loop tangent tuning rule from dead time L and time constant T.

    Returns kp, ti, td plus the parallel-form ki = kp/ti and kd = kp*td.
    """
    L, T = tune.L, tune.T
    if L is None or T is None:
        raise DomainError(f"tuning needs L and T, got {tune}")
    if tune.rule == "P":
        kp, ti, td = T / L, math.inf, 0.0
    elif tune.rule == "PI":
        kp, ti, td = 0.9 * T / L, L / 0.3, 0.0
    else:
        kp, ti, td = 1.2 * T / L, 2.0 * L, 0.5 * L
    ki = 0.0 if math.isinf(ti) else kp / ti
    kd = kp * td
    # ti is infinite for the P rule by design; a gain past the float range
    # is not a gain
    if not all(map(math.isfinite, (kp, ki, kd, td))):
        raise DomainError(
            f"rule {tune.rule} at L = {L:g}, T = {T:g} gives gains past the "
            f"float range: kp = {kp:g}, ki = {ki:g}, kd = {kd:g}, td = {td:g}")
    return {"kp": kp, "ti": ti, "td": td, "ki": ki, "kd": kd}


def extract_LT(traj: Trajectory, signal: str,
               final_value: float | None = None) -> tuple[float, float]:
    """Dead time L and time constant T from an S-shaped step response.

    Draws the tangent at the point of maximum slope; L is its intercept
    with the time axis (clamped at zero) and T the span from there to
    where the tangent reaches the final value.  The construction is
    amplitude-invariant.
    """
    t = traj.t
    y = traj.column(signal)
    # values near the float range overflow, and times so close that their
    # spacings' products underflow divide by 0: refused below, not warned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if final_value is None:
            n_tail = max(1, int(0.05 * len(y)))
            final_value = float(y[-n_tail:].mean())
        slope = np.gradient(y, t)
    i = int(np.argmax(slope))
    s = float(slope[i])
    ti, yi = float(t[i]), float(y[i])
    span = abs(final_value - float(y[0]))
    if (span <= 0.0 or s <= 0.0
            or s * (float(t[-1]) - float(t[0])) < 1e-9 * span):
        raise DegenerateResponseError(
            "step response is flat; cannot place an inflection tangent")
    L = max(0.0, ti - yi / s)
    T = ti + (final_value - yi) / s - L
    if not (math.isfinite(L) and math.isfinite(T)):
        raise DegenerateResponseError(
            f"tangent fit leaves the float range: L = {L}, T = {T}")
    return L, T


def initial_loop_state(cfg: ControllerConfig, valve: ValveModel,
                       profile: DisturbanceProfile) -> np.ndarray:
    """Initial state in ``CL_STATE`` order: the loop at rest.

    The valve sits at its floor, the reference model starts on the current
    output (zero initial model error), the regressor filters start at
    their steady values for that output, and the gains at their configured
    initial values.  The observed compressor pair (phi, psi) is zero.
    """
    y0 = profile.initial + valve.out_min
    return np.array([valve.out_min, profile.initial, y0, 0.0, cfg.reference,
                     -y0, 0.0, cfg.k1, cfg.k2, cfg.k3, 0.0, 0.0, 0.0])


def _kernel_args(cfg: ControllerConfig, valve: ValveModel,
                 profile: DisturbanceProfile) -> tuple:
    """The run's loop constants, for the kernel: ``closed_loop_rhs``'s
    constants, in its parameter order."""
    return (_KIND_CODES[cfg.kind], cfg.kp, cfg.ki, cfg.kd, cfg.gamma,
            cfg.reference, valve.tau, valve.out_min, valve.out_max,
            profile.target, profile.tau)


def _step_stage(row, stage):
    """(step, stage) of a failure reported at ``row``, ordered as the
    coupled RK4 meets it: the finite check after stage 4."""
    return (row, 1) if stage == 1 else (row - 1, stage or 5)


def _integrate(out, ys, state, dt, p, m=None, helper=None):
    """``_kernels.closed_loop_loop`` on the record ``out`` from ``state``,
    ``_kernels._BLOCK_ROWS`` rows at a time, each range reported to
    ``helper``, if given; with the map constants ``m``, observed, the
    stage flows going to ``ys``.  Both arrays must be made for the
    ``helper`` (``odesim._output_buffer``) for its process to read and
    write them.  Returns (status, row, stage), and leaves in ``state``
    the 13 states at the end or at the failure.

    Observed, (phi, psi) starts at ``state[11:13]``.  The observer's
    result is the helper's (``RunHelper.result``), or where no process
    gave one, that of :func:`_kernels.observed_compressor` run here over
    the rows the loop filled.  The earlier failure by (step, RK stage) is
    the run's, the loop's on a tie (its rates come first in the coupled
    rhs).  When it is the observer's, the loop's part of the state is
    rebuilt by running the loop again from the start up to the failing
    step.  When the loop fails at stage 2-4 of a step, the observer is
    given that step's row, whose flows from the failing stage on were
    never recorded: whatever it meets there comes at or after the loop's
    failure, and loses to it.
    """
    observe = None
    if m is not None:
        out[0, 11:] = state[11:]
        observe = functools.partial(_kernels.observed_compressor,
                                    _kernels.flat(out), _kernels.flat(ys),
                                    dt, m)
    report = None if helper is None else helper.start(
        out, None if m is None else (dt, m))
    start = state.copy()
    rc = _kernels.closed_loop_loop(out, state, dt, p, report,
                                   None if m is None else ys)
    if observe is None:
        return rc
    seen = None if helper is None else helper.result()
    if seen is None:
        seen = observe(0, len(out) if rc[0] == _kernels.OK else rc[1])
    replay = seen[0] != _kernels.OK and (
        rc[0] == _kernels.OK or _step_stage(*seen[1:]) < _step_stage(*rc[1:]))
    if replay:
        rc = seen
    # the step whose state the failure reports: after the step for the
    # finite check, before it for a stage
    at = rc[1] - 1 if rc[2] in (2, 3, 4) else rc[1]
    if replay:
        state[:] = start
        _kernels.closed_loop_loop(out[:at + 1], state, dt, p,
                                  ys=ys[:at + 1])
    state[11:] = out[at, 11:]
    return rc


def simulate_closed_loop(cfg: ControllerConfig,
                         valve: ValveModel = ValveModel(),
                         profile: DisturbanceProfile = DisturbanceProfile(),
                         dt: float = LOOP_DT, t_end: float = LOOP_T_END,
                         observe: bool = False,
                         cmap: CompressorMap = DEFAULT_MAP,
                         helper: Optional[RunHelper] = None) -> Trajectory:
    """Integrate the closed loop from :func:`initial_loop_state`.

    Columns: t, d, u, x, co, y, ym, e, k1, k2, k3.  With ``observe`` the
    measured inlet flow drives a side-by-side compressor integration
    (throttle parameter g = y/sqrt(psi_c(y))) and phi, psi columns are
    appended; the loop itself never feeds back from them.

    The kernel fills the record in blocks of ``_kernels._BLOCK_ROWS`` rows.
    A ``helper`` (``csvio.RunHelper``) is given each block when it is
    filled; where the run goes to its process, that process observes and
    formats the blocks while the kernel goes on.  Without one, the
    observer runs here after the loop.  An observed run whose observer
    fails still runs the loop to its end, or to the loop's own failure,
    before the earlier failure is raised.
    """
    columns = list(LOOP_COLUMNS) + (["phi", "psi"] if observe else [])
    out = _output_buffer(dt, t_end, len(columns), helper, observe)
    state = initial_loop_state(cfg, valve, profile)
    m = ys = None
    if observe:
        # the reference model starts on the measured flow; on a Python
        # float a huge flow overflows the map to inf or nan, not a warning
        y0 = float(state[2])
        psi0 = map_pressure_rise(cmap, y0)
        if not psi0 > 0.0:
            raise DomainError(
                f"map value at observed flow {y0} is {psi0}; cannot observe")
        state[11] = y0
        state[12] = psi0
        m = cmap.constants
        ys = _output_buffer(dt, t_end, 3, helper, True)
    if not np.all(np.isfinite(state)):
        raise DomainError("initial loop state must be finite, got "
                          f"{dict(zip(_kernels.CL_STATE, state.tolist()))}")

    # an overflow is reported by the kernel's status, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        status, row, stage = _integrate(
            out, ys, state, dt, _kernel_args(cfg, valve, profile), m, helper)
    if status == _kernels.OK:
        return Trajectory(dt, columns, out)
    partial = Trajectory(dt, columns, out[:row].copy())
    t_fail = (row - 1) * dt if row > 0 else 0.0
    reason = ("observed compressor model broke down (psi or psi_c <= 0)"
              if status == _kernels.PSI_NONPOSITIVE
              else "non-finite loop state")
    failing = tuple(name for name, v in zip(_kernels.CL_STATE, state.tolist())
                    if not math.isfinite(v))
    named = f": {', '.join(failing)}" if failing else ""
    raise DivergenceError(f"{reason} near t={t_fail:.6g}{named}",
                          time=t_fail, state=state, partial=partial,
                          stage=stage, failing=failing)


def gain_excursion(traj: Trajectory) -> float:
    """Largest |k_i(t) - k_i(0)| over the run, across the three gains."""
    exc = 0.0
    for name in ("k1", "k2", "k3"):
        col = traj.column(name)
        exc = max(exc, float(np.abs(col - col[0]).max()))
    return exc
