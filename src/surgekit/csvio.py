"""Deterministic CSV emission.

Numbers are written with 9 significant digits so repeated runs produce
byte-identical files; the header row is always present.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .odesim import Trajectory


#: trajectory rows formatted at a time, which bounds the memory a write takes
_BLOCK_ROWS = 4096


def write_rows(header: Sequence[str], rows: Iterable[Sequence], path) -> None:
    """Write one header row plus data rows as comma-separated text.

    A string is written as it is, a number with 9 significant digits.
    """
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise DomainError(
                f"row width {len(row)} does not match header {header}")
        lines.append(",".join(v if isinstance(v, str) else "%.9g" % v
                              for v in row))
    _write_text(path, ["\n".join(lines) + "\n"])


def write_trajectory(traj: Trajectory, path, decimate: int = 1) -> None:
    """Trajectory CSV: column 't' first, then the recorded signals."""
    if decimate < 1:
        raise DomainError(f"decimation factor must be >= 1, got {decimate}")
    samples = traj.samples[::decimate]
    width = samples.shape[1]
    if width != len(traj.columns):
        raise DomainError(
            f"row width {width} does not match header {traj.columns}")
    # a column whose values all have the same bits (-0.0 and NaN compared
    # exactly) is formatted once, into the row template
    bits = samples.view(np.uint64)
    constant = (bits == bits[:1]).all(axis=0) & (len(samples) > 0)
    row_format = ",".join(["%.9g" % samples[0, k] if constant[k] else "%.9g"
                           for k in range(width)]) + "\n"
    varying = np.flatnonzero(~constant)

    def blocks():
        yield ",".join(traj.columns) + "\n"
        for start in range(0, len(samples), _BLOCK_ROWS):
            block = samples[start:start + _BLOCK_ROWS, varying].tolist()
            yield "".join([row_format % tuple(row) for row in block])

    _write_text(path, blocks())


def _write_text(path, chunks: Iterable[str]) -> None:
    """Write the text pieces in order, creating the directory if needed."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)
