"""Deterministic CSV emission.

Numbers are written with 9 significant digits so repeated runs produce
byte-identical files; the header row is always present.

A long closed-loop record can be formatted while the kernel fills it: a
:class:`TrajectoryFormatter` forks a process that formats each finished
block of rows and sends the text back once the run is complete.  That
process never touches the filesystem.  :func:`write_trajectory` creates
and writes the file either way, and formats the rows itself when there is
no formatter or it failed, so the bytes are the same.
"""

from __future__ import annotations

import gc
import os
import signal
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .odesim import Trajectory


#: trajectory rows formatted at a time, which bounds the memory a write
#: takes.  Also the rows the closed-loop kernel fills between reports, so
#: at most the rows a formatter process has left when the kernel ends: on
#: fig10, 1024 beat 4096 end to end by about 2% (9 of 12 alternating runs)
_BLOCK_ROWS = 1024

#: written rows from which a forked formatter pays for itself.  On a
#: 2-core Xeon VM, a fork round trip took 8 ms in an 87 MB process, and
#: ``closedloop`` with the formatter against without (8 alternating runs
#: each, 4096-row blocks) was even at 6,001 rows, 4% faster at 8,201 and
#: 10% at 12,001
_FORK_MIN_ROWS = 8192

#: written rows up to which a forked formatter is used: it holds its text,
#: about 130 bytes a row, until the run ends, where the in-process path
#: holds one block at a time
_FORK_MAX_ROWS = 2_000_000


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


def write_trajectory(traj: Trajectory, path, decimate: int = 1,
                     formatter: Optional[TrajectoryFormatter] = None) -> None:
    """Trajectory CSV: column 't' first, then the recorded signals.

    With a ``formatter`` that followed the run of ``traj`` to its end, at
    this decimation, the text it formatted is written.
    """
    if decimate < 1:
        raise DomainError(f"decimation factor must be >= 1, got {decimate}")
    samples = traj.samples[::decimate]
    width = samples.shape[1]
    if width != len(traj.columns):
        raise DomainError(
            f"row width {width} does not match header {traj.columns}")
    header = ",".join(traj.columns) + "\n"
    text = None if formatter is None else formatter.text(traj.samples,
                                                         decimate)
    if text is not None:
        try:
            _write_text(path, chain([header], text))
            return
        except _FormatterLost:
            pass   # the file is written again below, from the record
    _write_text(path, chain([header], (
        _format_rows(samples[start:start + _BLOCK_ROWS])
        for start in range(0, len(samples), _BLOCK_ROWS))))


def _format_rows(samples: np.ndarray) -> str:
    """CSV lines of the rows of ``samples``.

    A column whose values all have the same bits (-0.0 and NaN compared
    exactly) is formatted once, into the row template.
    """
    if not len(samples):
        return ""
    bits = samples.view(np.uint64)
    constant = (bits == bits[:1]).all(axis=0)
    row_format = ",".join(["%.9g" % samples[0, k] if constant[k] else "%.9g"
                           for k in range(samples.shape[1])]) + "\n"
    rows = samples[:, ~constant].tolist()
    return "".join([row_format % tuple(row) for row in rows])


class _FormatterLost(Exception):
    """The formatter process ended without sending all of its text."""


def _fork_pays(rows: int) -> bool:
    """Whether a formatter process pays for ``rows`` written rows: there
    is ``os.fork``, a second CPU, and more than ``_FORK_MIN_ROWS`` rows
    but no more than ``_FORK_MAX_ROWS``."""
    if not (hasattr(os, "fork") and _FORK_MIN_ROWS < rows <= _FORK_MAX_ROWS):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


class TrajectoryFormatter:
    """The CSV rows of a run, formatted in a forked process while the run
    fills its record.

    Pass :meth:`rows_filled` as the run's ``on_block`` and the formatter
    to :func:`write_trajectory`, inside a ``with`` block, which ends the
    process if its text is not collected.  The process is forked at the
    first report when :func:`_fork_pays` for the rows to be written at
    ``decimate``.  It formats the rows of each reported block and sends
    the text back when the whole record has been reported.
    """

    def __init__(self, decimate: int):
        self.decimate = decimate
        self._samples = None
        self._pid = 0
        self._to_child = self._from_child = -1
        self._complete = False

    def __enter__(self) -> "TrajectoryFormatter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def rows_filled(self, samples: np.ndarray, rows: int) -> None:
        """Report that the first ``rows`` rows of the record ``samples``
        are final; all of them means the run is complete."""
        if self._samples is None:
            self._samples = samples
            if _fork_pays(len(range(0, len(samples), self.decimate))):
                self._fork()
        if self._pid:
            try:
                os.write(self._to_child, rows.to_bytes(8, "little"))
            except OSError:   # the process is gone
                self.close()
                return
            self._complete = rows == len(samples)

    def _fork(self) -> None:
        inbox = os.pipe()
        outbox = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in inbox + outbox:
                os.close(fd)
            return
        if pid == 0:
            code = 1
            try:
                # a collection would write to, and so copy, every page of
                # the heap the two processes share; the rows make no cycles
                gc.disable()
                os.close(inbox[1])
                os.close(outbox[0])
                _format_reported_rows(self._samples, self.decimate,
                                      inbox[0], outbox[1])
                code = 0
            finally:
                os._exit(code)
        os.close(inbox[0])
        os.close(outbox[1])
        self._pid = pid
        self._to_child = inbox[1]
        self._from_child = outbox[0]

    def text(self, samples: np.ndarray, decimate: int) -> Optional[Iterable]:
        """The text of the rows of ``samples`` at ``decimate``, as pieces
        read from the process, or None when it has not formatted them.
        Reading past the last piece raises ``_FormatterLost`` when the
        process ended without sending them all."""
        if (self._complete and samples is self._samples
                and decimate == self.decimate):
            return self._receive()
        return None

    def _receive(self):
        # formatted numbers are ASCII, so any chunk decodes on its own
        while chunk := os.read(self._from_child, 1 << 20):
            yield chunk.decode("ascii")
        if not self._reap():
            raise _FormatterLost

    def _reap(self) -> bool:
        """Wait for the process; whether it exited cleanly."""
        pid, self._pid = self._pid, 0
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status) == 0

    def close(self) -> None:
        """End the process, if any, and release its pipes."""
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()
        for fd in (self._to_child, self._from_child):
            if fd >= 0:
                os.close(fd)
        self._to_child = self._from_child = -1
        self._complete = False


def _format_reported_rows(samples: np.ndarray, decimate: int, inbox: int,
                          outbox: int) -> None:
    """The formatter process: format the rows of ``samples`` kept at
    ``decimate`` as the counts of filled rows arrive on ``inbox``, and
    write the text to ``outbox`` once every row has been reported."""
    pieces = []
    done = 0
    with open(inbox, "rb") as reports:
        while done < len(samples):
            report = reports.read(8)
            if len(report) < 8:
                raise _FormatterLost   # the run stopped short
            rows = int.from_bytes(report, "little")
            first = -(-done // decimate) * decimate
            pieces.append(_format_rows(samples[first:rows:decimate]))
            done = rows
    with open(outbox, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(pieces)


def _write_text(path, chunks: Iterable[str]) -> None:
    """Write the text pieces in order, creating the directory if needed."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)
