"""Deterministic CSV emission, and the helper process of a run.

Numbers are written with 9 significant digits so repeated runs produce
byte-identical files; the header row is always present.

A run, open loop or closed, can hand work to a second CPU while its
kernel fills the record: formatting the CSV rows, and for an observed
closed loop integrating the observed compressor.  A :class:`RunHelper`
forks one process per run that does both for each finished block of
rows.  It writes the text into an anonymous memory file as it goes,
and ends the run with one message: the observer's result and the text's
length.  That process never touches the filesystem.
:func:`write_trajectory` creates and writes the file either way: it has
the operating system copy the memory file into it when the length
matches, and formats the rows itself when there is no helper or it
failed, so the bytes are the same.
"""

from __future__ import annotations

import gc
import os
import signal
import struct
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from ._kernels import _BLOCK_ROWS, OK
from .errors import DomainError
from .odesim import Trajectory


#: written rows from which a helper process pays for formatting alone.
#: On a 2-core Xeon VM, a fork round trip took 8 ms in an 87 MB process,
#: and ``closedloop`` with a formatter process against without (8
#: alternating runs each, 4096-row blocks) was even at 6,001 rows, 4%
#: faster at 8,201 and 10% at 12,001.  On the open loop's 3 columns
#: (``simulate``, 1024-row blocks, 60 alternating calls in one process),
#: the helper took 10,001 rows from 41 to 32 ms, but 5,001 only from 23
#: to 22
_FORK_MIN_ROWS = 8192

#: written rows up to which a helper process formats them: their text,
#: about 130 bytes a row, waits in the memory file until the CSV is
#: written, where the in-process path holds one block at a time
_FORK_MAX_ROWS = 2_000_000

#: observed rows from which a helper process pays for the observer alone.
#: On the same VM, ``closedloop --observe --decimation 100`` with the
#: helper against without (10 alternating calls each in one process, the
#: observer's step generated from its rhs) was 15% slower at 2,001 rows
#: (1 win of 10), within 4% from 3,001 to 4,001 (5 to 8 wins), and 12 to
#: 16% faster from 4,501 to 8,001 (8 or 9 wins)
_OBSERVE_MIN_ROWS = 4096


def write_rows(header: Sequence[str], rows: Iterable[Sequence], path) -> None:
    """Write one header row plus data rows as comma-separated text.

    A string is written as it is, a number with 9 significant digits.
    Each column holds the type of the first row's value: every row is
    formatted with one ``%`` of a row template, ``%s`` for a string and
    ``%.9g`` for a number, the same bytes as formatting each value on its
    own.  A row of another width than the header is a DomainError, and
    then no file is written.  A row that is not a tuple (an array's
    ``tolist()`` gives lists) is copied into one; a tuple is used as it
    is.
    """
    rows = list(map(tuple, rows.tolist() if isinstance(rows, np.ndarray)
                    else rows))
    if set(map(len, rows)) - {len(header)}:
        width = next(len(row) for row in rows if len(row) != len(header))
        raise DomainError(f"row width {width} does not match header {header}")
    row_format = ",".join(["%s" if isinstance(v, str) else "%.9g"
                           for v in rows[0]]) + "\n" if rows else ""
    _write_text(path, [",".join(header) + "\n",
                       "".join(map(row_format.__mod__, rows))])


def write_trajectory(traj: Trajectory, path, decimate: int = 1,
                     helper: Optional[RunHelper] = None) -> None:
    """Trajectory CSV: column 't' first, then the recorded signals.

    With a ``helper`` that followed the run of ``traj`` to its end and
    formatted it at this decimation, the text it formatted is copied from
    its memory file.
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
        _write_text(path, [header], text)
        return
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


def _fork_pays(written: int, observed: int) -> bool:
    """Whether a helper process pays for a run that writes ``written`` CSV
    rows and observes ``observed`` rows (0 when unobserved): there are
    ``os.fork`` and ``os.memfd_create``, a second CPU, and either more
    than ``_FORK_MIN_ROWS`` written rows but no more than
    ``_FORK_MAX_ROWS``, or more than ``_OBSERVE_MIN_ROWS`` observed
    ones."""
    if not (hasattr(os, "fork") and hasattr(os, "memfd_create")
            and (_FORK_MIN_ROWS < written <= _FORK_MAX_ROWS
                 or observed > _OBSERVE_MIN_ROWS)):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2


#: a report: the rows filled, and whether the run ended there
_REPORT = struct.Struct("<qq")
#: the end of a run: the observer's status (-1 when it did not observe),
#: row and stage (0 for None), then the text's length in bytes (-1 when it
#: did not format the whole run)
_END = struct.Struct("<qqqq")


class RunHelper:
    """A forked process that follows a run while the kernel fills its
    record: it integrates the observed compressor over each reported range
    of rows, when the run is an observed closed loop, and then formats
    the range's CSV rows.

    Pass the helper to ``odesim.simulate_greitzer`` or
    ``loop.simulate_closed_loop`` and then to :func:`write_trajectory`,
    inside a ``with`` block.  The process is forked when the run starts
    (:meth:`start`) if :func:`_fork_pays`.  It observes to the end of the
    run, or to the observer's failure, and formats the rows when their
    text fits in ``_FORK_MAX_ROWS`` rows, writing it into an anonymous
    memory file block by block.  After the last report it sends one
    message, ``_END``, which this process reads once, when the first of
    :meth:`result` and :meth:`text` asks for its part.  Only the end of
    the ``with`` block (:meth:`close`) waits for the process, so its exit
    overlaps the caller's work after the write.  Without the process, the
    caller observes and formats in its own; it does the same when the
    process is lost.
    """

    def __init__(self, decimate: int):
        self.decimate = decimate
        self._samples = None
        self._pid = 0
        self._to_child = self._from_child = self._text = -1
        self._end = None

    def __enter__(self) -> "RunHelper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, samples: np.ndarray, observe=None):
        """Fork the process, where it pays, for the run whose record is
        ``samples``; ``observe(start, stop)`` integrates the observed
        compressor over rows start..stop-1 and returns its (status, row,
        stage).  Returns the report function for the kernel
        (:meth:`rows_filled`), or None when no process was forked."""
        self._samples = samples
        written = len(range(0, len(samples), self.decimate))
        if _fork_pays(written, 0 if observe is None else len(samples)):
            self._fork(observe, written <= _FORK_MAX_ROWS)
        return self.rows_filled if self._pid else None

    def rows_filled(self, rows: int, last: bool = False) -> None:
        """Report that the first ``rows`` rows of the record are final;
        ``last``: the run ended there, complete if they are all of them.
        A process found gone is closed."""
        if not self._pid:
            return
        try:
            os.write(self._to_child, _REPORT.pack(rows, last))
        except OSError:
            self.close()

    def result(self):
        """The observer's (status, row, stage) over the run, from the
        process's last message; None when no process observed the run,
        or it was lost."""
        end = self._ended()
        if end is None or end[0] < 0:
            return None
        status, row, stage, _ = end
        return status, row, stage or None

    def text(self, samples: np.ndarray, decimate: int) -> Optional[int]:
        """The memory file holding the text of the rows of ``samples`` at
        ``decimate``, when the process's last message gives the file's
        length; None when it has not formatted them all.  Waits for the
        message, not for the process to exit."""
        if samples is not self._samples or decimate != self.decimate:
            return None
        end = self._ended()
        if end is None or end[3] != os.fstat(self._text).st_size:
            return None
        return self._text

    def _ended(self) -> Optional[tuple]:
        """The process's last message (``_END``), read the first time it
        is asked for; None when there is no process, or it ended before
        sending the message, which closes it."""
        if self._end is None and self._pid:
            data = b""
            while len(data) < _END.size:
                chunk = os.read(self._from_child, _END.size - len(data))
                if not chunk:
                    self.close()
                    return None
                data += chunk
            self._end = _END.unpack(data)
        return self._end

    def _fork(self, observe, formats: bool) -> None:
        fds = []
        try:
            fds.extend(os.pipe())
            fds.extend(os.pipe())
            fds.append(os.memfd_create("surgekit-csv"))
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        inbox, self._to_child, self._from_child, outbox, self._text = fds
        if pid == 0:
            try:
                # a collection would write to, and so copy, every page of
                # the heap the two processes share; the rows make no cycles
                gc.disable()
                os.close(self._to_child)
                os.close(self._from_child)
                _follow_run(self._samples, self.decimate if formats else 0,
                            observe, inbox, outbox, self._text)
            finally:
                os._exit(0)
        os.close(inbox)
        os.close(outbox)
        self._pid = pid

    def close(self) -> None:
        """End the process, if any, reap it, and release its pipes and
        memory file."""
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0
        for fd in (self._to_child, self._from_child, self._text):
            if fd >= 0:
                os.close(fd)
        self._to_child = self._from_child = self._text = -1
        self._end = None


def _follow_run(samples: np.ndarray, decimate: int, observe, inbox: int,
                outbox: int, text: int) -> None:
    """The helper process: for each range of filled rows reported on
    ``inbox``, integrate the observed compressor over it with ``observe``,
    if given and it has not failed, then format its rows kept at
    ``decimate``, if not 0, into the file open as ``text``.

    After the last report, one ``_END`` message goes to ``outbox``: the
    observer's result, status -1 when it did not observe, and the text's
    length, -1 unless the run is complete and formatted.
    """
    done = size = 0
    status, row, stage = OK if observe is not None else -1, 0, None
    with open(inbox, "rb") as reports, \
            open(text, "w", encoding="ascii", newline="\n") as fh:
        while True:
            report = reports.read(_REPORT.size)
            if len(report) < _REPORT.size:
                return   # the run's process is gone
            rows, last = _REPORT.unpack(report)
            if status == OK:
                status, row, stage = observe(done, rows)
            if last and rows < len(samples):
                break
            if decimate:
                first = -(-done // decimate) * decimate
                size += fh.write(_format_rows(samples[first:rows:decimate]))
            done = rows
            if last:
                break
    complete = decimate and done == len(samples)
    os.write(outbox, _END.pack(status, row, stage or 0,
                               size if complete else -1))


def _write_text(path, chunks: Iterable[str], text: int = -1) -> None:
    """Write the text pieces in order, then the whole file open as
    ``text`` if given, creating the directory if needed."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)
        if text >= 0:
            # the system copies the file: its text never enters this process
            fh.flush()
            offset = 0
            while sent := os.sendfile(fh.fileno(), text, offset, 1 << 30):
                offset += sent
