"""Deterministic CSV emission, and the helper process of a closed-loop run.

Numbers are written with 9 significant digits so repeated runs produce
byte-identical files; the header row is always present.

A closed-loop run can hand two jobs to a second CPU while its kernel
fills the record: integrating the observed compressor, and formatting the
CSV rows.  A :class:`RunHelper` forks one process per run that does both
for each finished block of rows, and sends the text back once the run is
complete.  That process never touches the filesystem.
:func:`write_trajectory` creates and writes the file either way, and
formats the rows itself when there is no helper or it failed, so the
bytes are the same.
"""

from __future__ import annotations

import gc
import os
import signal
import struct
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from ._kernels import OK
from .errors import DomainError
from .odesim import Trajectory


#: trajectory rows formatted at a time, which bounds the memory a write
#: takes.  Also the rows the closed-loop kernel fills between reports, so
#: at most the rows a helper process has left when the kernel ends: on
#: fig10, 1024 beat 4096 end to end by about 2% (9 of 12 alternating runs)
_BLOCK_ROWS = 1024

#: written rows from which a helper process pays for formatting alone.
#: On a 2-core Xeon VM, a fork round trip took 8 ms in an 87 MB process,
#: and ``closedloop`` with a formatter process against without (8
#: alternating runs each, 4096-row blocks) was even at 6,001 rows, 4%
#: faster at 8,201 and 10% at 12,001
_FORK_MIN_ROWS = 8192

#: written rows up to which a helper process formats them: it holds their
#: text, about 130 bytes a row, until the run ends, where the in-process
#: path holds one block at a time
_FORK_MAX_ROWS = 2_000_000

#: observed rows from which a helper process pays for the observer alone.
#: On the same VM, ``closedloop --observe --decimation 100`` with the
#: helper against without (10 to 12 alternating runs each) was even at
#: 2,001 and 3,001 rows (4 and 5 wins of 10), 3 to 13% faster from 3,501
#: to 4,501 rows (7/10 to 10/12 wins) and 20% at 8,001 (10/10)
_OBSERVE_MIN_ROWS = 4096


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
                     helper: Optional[RunHelper] = None) -> None:
    """Trajectory CSV: column 't' first, then the recorded signals.

    With a ``helper`` that followed the run of ``traj`` to its end and
    formatted it at this decimation, the text it formatted is written.
    """
    if decimate < 1:
        raise DomainError(f"decimation factor must be >= 1, got {decimate}")
    samples = traj.samples[::decimate]
    width = samples.shape[1]
    if width != len(traj.columns):
        raise DomainError(
            f"row width {width} does not match header {traj.columns}")
    header = ",".join(traj.columns) + "\n"
    text = None if helper is None else helper.text(traj.samples, decimate)
    if text is not None:
        try:
            _write_text(path, chain([header], text))
            return
        except HelperLost:
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


class HelperLost(Exception):
    """The helper process ended without sending what it owed."""


def _fork_pays(written: int, observed: int) -> bool:
    """Whether a helper process pays for a run that writes ``written`` CSV
    rows and observes ``observed`` rows (0 when unobserved): there is
    ``os.fork``, a second CPU, and either more than ``_FORK_MIN_ROWS``
    written rows but no more than ``_FORK_MAX_ROWS``, or more than
    ``_OBSERVE_MIN_ROWS`` observed ones."""
    if not (hasattr(os, "fork")
            and (_FORK_MIN_ROWS < written <= _FORK_MAX_ROWS
                 or observed > _OBSERVE_MIN_ROWS)):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


#: the observer's result: status, row and stage (0 for None)
_RESULT = struct.Struct("<qqq")
#: a report: the rows filled, and whether the run ended there
_REPORT = struct.Struct("<qq")


class RunHelper:
    """A forked process that follows a closed-loop run while the kernel
    fills its record: it integrates the observed compressor over each
    reported range of rows, when the run is observed, and then formats
    the range's CSV rows.

    Pass the helper to ``loop.simulate_closed_loop`` and then to
    :func:`write_trajectory`, inside a ``with`` block, which ends the
    process if it is still running.  The process is forked when the run
    starts (:meth:`start`) if :func:`_fork_pays`.  It formats the rows
    when their text, which it holds until the run is complete, fits in
    ``_FORK_MAX_ROWS`` rows.  Without the process, the caller observes and
    formats in its own; it takes over the same way when the process is
    lost.
    """

    def __init__(self, decimate: int):
        self.decimate = decimate
        self._samples = None
        self._pid = 0
        self._to_child = self._from_child = -1
        self._observes = self._formats = self._complete = False

    def __enter__(self) -> "RunHelper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, samples: np.ndarray, observe=None) -> bool:
        """Fork the process, where it pays, for the run whose record is
        ``samples``; ``observe(start, stop)`` integrates the observed
        compressor over rows start..stop-1 and returns its (status, row,
        stage).  Returns whether the process observes."""
        self._samples = samples
        written = len(range(0, len(samples), self.decimate))
        if _fork_pays(written, 0 if observe is None else len(samples)):
            self._fork(observe, written <= _FORK_MAX_ROWS)
        return self._observes

    def rows_filled(self, rows: int, last: bool = False):
        """Report that the first ``rows`` rows of the record are final;
        ``last``: the run ended there, complete if they are all of them.

        Returns the observer's result when the process has one: its
        failure, after which the process ends, or at the last report its
        result.  Otherwise None.  Raises :class:`HelperLost` when the
        process is gone without the result.
        """
        if not self._pid:
            return None
        try:
            os.write(self._to_child, _REPORT.pack(rows, last))
        except OSError:   # the process is gone, after a failure or not
            return self._result()
        if last:
            self._complete = self._formats and rows == len(self._samples)
            if self._observes:
                return self._result()
        return None

    def _result(self):
        data = b""
        while len(data) < _RESULT.size:
            chunk = os.read(self._from_child, _RESULT.size - len(data))
            if not chunk:
                self.close()
                raise HelperLost
            data += chunk
        status, row, stage = _RESULT.unpack(data)
        return status, row, stage or None

    def _fork(self, observe, formats: bool) -> None:
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
                _follow_run(self._samples, self.decimate if formats else 0,
                            observe, inbox[0], outbox[1])
                code = 0
            finally:
                os._exit(code)
        os.close(inbox[0])
        os.close(outbox[1])
        self._pid = pid
        self._to_child = inbox[1]
        self._from_child = outbox[0]
        self._observes = observe is not None
        self._formats = formats

    def text(self, samples: np.ndarray, decimate: int) -> Optional[Iterable]:
        """The text of the rows of ``samples`` at ``decimate``, as pieces
        read from the process, or None when it has not formatted them.
        Reading past the last piece raises :class:`HelperLost` when the
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
            raise HelperLost

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
        self._observes = self._formats = self._complete = False


def _follow_run(samples: np.ndarray, decimate: int, observe, inbox: int,
                outbox: int) -> None:
    """The helper process: for each range of filled rows reported on
    ``inbox``, integrate the observed compressor over it with ``observe``,
    if given, then format its rows kept at ``decimate``, if not 0.

    The observer's result goes to ``outbox`` as soon as it fails, and
    otherwise at the last report; then, when the run is complete, the
    text.
    """
    pieces = []
    done = 0
    with open(inbox, "rb") as reports:
        while True:
            report = reports.read(_REPORT.size)
            if len(report) < _REPORT.size:
                raise HelperLost   # the run's process is gone
            rows, last = _REPORT.unpack(report)
            if observe is not None:
                status, row, stage = observe(done, rows)
                if status != OK or last:
                    os.write(outbox, _RESULT.pack(status, row, stage or 0))
                    if status != OK:
                        return
            if last and rows < len(samples):
                return
            if decimate:
                first = -(-done // decimate) * decimate
                pieces.append(_format_rows(samples[first:rows:decimate]))
            done = rows
            if last:
                break
    with open(outbox, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(pieces)


def _write_text(path, chunks: Iterable[str]) -> None:
    """Write the text pieces in order, creating the directory if needed."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)
