"""Trajectory records and the open-loop surge-model run.

:func:`simulate_greitzer` runs the surge model through the open-loop RK4
kernel in ``_kernels``, whose step is generated from ``surge_rhs``, the
one definition of the model's rates and gains; ``loop`` does the same
for the closed loop.  Both hand each block of rows they fill to a
``csvio.RunHelper``, if given, and produce the same :class:`Trajectory`
layout: column 0 is time, sampling is uniform, and a non-finite value
aborts the run instead of being recorded.  The default step sizes and
horizons of both runs are defined here.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .compressor import CompressorMap, DEFAULT_MAP, PlantState
from .errors import DivergenceError, DomainError, ModelBreakdownError

#: Default step sizes and horizons: nondimensional time for plant runs,
#: seconds for loop runs.
PLANT_DT = 1e-2
PLANT_T_END = 50.0
LOOP_DT = 1e-3
LOOP_T_END = 50.0


@dataclass
class Trajectory:
    """Uniformly sampled multi-signal record of one run.

    ``samples`` is row-major, one row per step, with ``columns[0] == 't'``.
    """

    dt: float
    columns: list[str] = field(default_factory=list)
    samples: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise DomainError(f"no column named {name!r}; have {self.columns}")
        return self.samples[:, idx]

    @property
    def t(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def n_rows(self) -> int:
        return self.samples.shape[0]

    def tail(self, fraction: float) -> "Trajectory":
        """The trailing ``fraction`` of the run, as a view."""
        if not 0.0 < fraction <= 1.0:
            raise DomainError(f"fraction must be in (0, 1], got {fraction}")
        start = int(self.n_rows * (1.0 - fraction))
        return Trajectory(self.dt, self.columns, self.samples[start:])


def _output_buffer(dt: float, t_end: float, n_cols: int, helper=None,
                   observed: bool = False) -> np.ndarray:
    """Zeroed record of a run from t=0 to t_end, one row per step; a run
    too long to hold is a DomainError naming the size it needs.

    The rows live in a shared mapping: of a memory file when the run,
    observed or not, goes to the process of ``helper``
    (``csvio.RunHelper.memfd``), else anonymous.  So the helper process
    reads the rows filled after the run is handed to it, and the rows it
    writes are the run's.
    """
    if not (dt > 0.0 and t_end > 0.0):
        raise DomainError(f"need dt > 0 and t_end > 0, got {dt}, {t_end}")
    rows = t_end / dt + 1e-9
    if math.isfinite(rows):
        rows = math.floor(rows) + 1
        size = 8 * rows * n_cols
        try:
            fd = -1 if helper is None else helper.memfd(rows, observed)
            if fd >= 0:
                os.ftruncate(fd, size)
            shared = mmap.mmap(fd, size)
        except (OverflowError, OSError, ValueError):
            pass
        else:
            return np.frombuffer(shared).reshape(rows, n_cols)
    raise DomainError(
        f"a run of t_end={t_end:g} at dt={dt:g} needs {rows:.6g} rows of "
        f"{n_cols} values ({8.0 * rows * n_cols:.3g} bytes); cannot allocate")


def simulate_greitzer(initial: PlantState, g: float,
                      cmap: CompressorMap = DEFAULT_MAP,
                      dt: float = PLANT_DT,
                      t_end: float = PLANT_T_END,
                      helper=None) -> Trajectory:
    """Kernel-backed open-loop run of the surge model at throttle ``g``,
    filled in blocks of ``_kernels._BLOCK_ROWS`` rows; a ``helper``
    (``csvio.RunHelper``) is given each block when filled."""
    if not (math.isfinite(g) and g > 0.0):
        raise DomainError(f"g must be finite and positive, got {g}")
    out = _output_buffer(dt, t_end, 3, helper)
    if not all(isinstance(v, numbers.Real) and math.isfinite(v)
               for v in (initial.phi, initial.psi)):
        raise DomainError(f"initial state must be two finite real numbers, "
                          f"got {initial}")
    if initial.psi <= 0.0:
        raise ModelBreakdownError(
            f"plenum pressure must stay positive, got psi={initial.psi}")
    out[0] = (0.0, initial.phi, initial.psi)
    report = None if helper is None else helper.start(out)
    # an overflow is reported by the kernel's status, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        status, row = _kernels.greitzer_loop(
            out, dt, (g, *cmap.constants), report)
    columns = ["t", "phi", "psi"]
    if status == _kernels.OK:
        return Trajectory(dt, columns, out)
    t_fail = (row - 1) * dt
    reason = (f"plenum pressure reached zero near t={t_fail:.6g} (surge model "
              "breakdown)" if status == _kernels.PSI_NONPOSITIVE
              else f"non-finite state near t={t_fail:.6g}")
    raise DivergenceError(reason, time=t_fail, state=out[row - 1, 1:].copy(),
                          partial=Trajectory(dt, columns, out[:row].copy()))


def steady_state_of(traj: Trajectory, window: float,
                    tol: float) -> Optional[np.ndarray]:
    """Mean of the final ``window`` time units if all signals are flat.

    Returns the per-signal means (time column excluded) when every
    signal's peak-to-peak variation inside the window is at most ``tol``,
    else None.
    """
    if traj.n_rows < 2:
        raise DomainError("trajectory too short")
    n_win = int(round(window / traj.dt))
    if not 1 <= n_win < traj.n_rows:
        raise DomainError(
            f"window of {window} time units does not fit a run of "
            f"{traj.n_rows} samples at dt={traj.dt}")
    tail = traj.samples[-n_win:, 1:]
    spread = tail.max(axis=0) - tail.min(axis=0)
    if np.any(spread > tol):
        return None
    return tail.mean(axis=0)
