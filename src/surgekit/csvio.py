"""Deterministic CSV emission, and the helper process of the runs.

Numbers are written with 9 significant digits so repeated runs produce
byte-identical files; the header row is always present.

A run, open loop or closed, can hand work to a second CPU while its
kernel fills the record: formatting the CSV rows, and for an observed
closed loop integrating the observed compressor.  One helper process per
interpreter does both.  The first run that pays for it forks it, and it
then follows run after run until the interpreter exits.  A
:class:`RunHelper` hands it one run: the run's record, and an observed
run's stage flows, live in memory files (``os.memfd_create``) whose
descriptors go to the process over a socket, with a header giving the
run's shape, decimation and observer constants.  For each finished block
of rows the process writes the text into a memory file of its own, and
it ends each run with one message: the observer's result and the text's
length.  It never touches the filesystem.  :func:`write_trajectory`
creates and writes the file either way: it has the operating system copy
the memory file into it when the length matches, and formats the rows
itself when there is no helper or it failed, so the bytes are the same.
"""

from __future__ import annotations

import _thread
import atexit
import functools
import gc
import mmap
import os
import signal
import struct
from itertools import chain
from typing import Iterable, Optional, Sequence

from . import _kernels
from ._kernels import _BLOCK_ROWS, OK
from .errors import DomainError
from .odesim import Trajectory


#: written rows from which the helper process pays for formatting alone.
#: With the process forked once per interpreter and each record handed
#: over in a memory file, on a 2-core Xeon VM (Python 3.11.7; ``simulate``
#: on fig3_4's start, 40 alternating calls with and without the helper in
#: one process that had forked it, 1,024-row blocks), the helper took
#: 1,025 rows (one block) from a median 3.9 to 4.2 ms (faster in 14 of
#: 40), but 1,537 from 4.5 to 3.9 ms (37 of 40), 2,049 from 4.7-5.7 to
#: 4.1-4.9 ms (38 and 40 of 40), fig7's 5,001 from 11.2 to 8.5 ms and
#: 10,001 from 23.4 to 15.9 ms
_FORK_MIN_ROWS = 2048

#: written rows up to which the helper process formats them: their text,
#: about 130 bytes a row, waits in the memory file until the CSV is
#: written, where the in-process path holds one block at a time
_FORK_MAX_ROWS = 2_000_000

#: observed rows from which the helper process pays for the observer
#: alone.  On the same VM, ``closedloop --observe --decimation 100``
#: with the helper against without (20 alternating calls each in one
#: process) was slower up to 1,201 rows (2 to 8 wins of 20), mixed from
#: 1,537 to 2,049 (12 to 20 wins, within 16% either way), and 13 to 25%
#: faster from 3,001 rows (19 or 20 wins)
_OBSERVE_MIN_ROWS = 2048


def write_rows(header: Sequence[str], rows: Iterable[Sequence], path) -> None:
    """Write one header row plus data rows as comma-separated text.

    A string is written as it is, a number with 9 significant digits.
    Each column holds the type of the first row's value: the row template
    has ``%s`` for a string and ``%.9g`` for a number, and the whole table
    is formatted with one ``%`` of that template repeated once per row
    over the rows' values in order, the same bytes as formatting each
    value on its own.  A row of another width than the header is a
    DomainError, and then no file is written.
    """
    import numpy as np
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    if set(map(len, rows)) - {len(header)}:
        width = next(len(row) for row in rows if len(row) != len(header))
        raise DomainError(f"row width {width} does not match header {header}")
    row_format = ",".join(["%s" if isinstance(v, str) else "%.9g"
                           for v in rows[0]]) + "\n" if rows else ""
    _write_text(path, [",".join(header) + "\n",
                       (row_format * len(rows))
                       % tuple(chain.from_iterable(rows))])


def write_trajectory(traj: Trajectory, path, decimate: int = 1,
                     helper: Optional[RunHelper] = None) -> None:
    """Trajectory CSV: column 't' first, then the recorded signals.

    With a ``helper`` whose process followed the run of ``traj`` to its
    end and formatted it at this decimation, the text it formatted is
    copied from its memory file.
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
    """CSV lines of the rows of ``samples``, formatted with one ``%`` of
    the row template repeated once per row over the block's values.

    A column whose values all have the same bits (-0.0 and NaN compared
    exactly) is formatted once, into the row template.
    """
    import numpy as np
    if not len(samples):
        return ""
    bits = samples.view(np.uint64)
    constant = (bits == bits[:1]).all(axis=0)
    row_format = ",".join(["%.9g" % samples[0, k] if constant[k] else "%.9g"
                           for k in range(samples.shape[1])]) + "\n"
    return ((row_format * len(samples))
            % tuple(samples[:, ~constant].ravel().tolist()))


def _fork_pays(written: int, observed: int) -> bool:
    """Whether the helper process pays for a run that writes ``written``
    CSV rows and observes ``observed`` rows (0 when unobserved): there are
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


#: a run handed to the helper process: the record's rows and columns, the
#: decimation it formats at (0: none), whether it observes, and the
#: observer's dt and the eight map constants (zeros when it does not)
_RUN = struct.Struct("<4q9d")
#: a report: the rows filled, and whether the run ended there
_REPORT = struct.Struct("<qq")
#: the end of a run: the observer's status (-1 when it did not observe),
#: row and stage (0 for None), then the text's length in bytes (-1 when it
#: did not format the whole run)
_END = struct.Struct("<qqqq")


class _Process:
    """The helper process: its pid, this process's end of its channel (a
    Unix ``SOCK_SEQPACKET`` socket, one message a run, report or end; a
    run's memory files go with it as ``SCM_RIGHTS``) and the descriptor
    of that end, and the memory file it writes the text in."""

    def __init__(self, pid: int, channel, text: int):
        self.pid = pid
        self.channel = channel
        self.fd = channel.fileno()
        self.text = text


#: the helper process of this interpreter, once forked
_helper: Optional[_Process] = None
#: held by the run the helper process follows, from its record's memory
#: file to the run's :meth:`RunHelper.close`: it follows one at a time
_claim = _thread.allocate_lock()


class RunHelper:
    """One run's part in the helper process: the process integrates the
    observed compressor over each reported range of rows, when the run is
    an observed closed loop, and then formats the range's CSV rows.

    Pass the helper to ``odesim.simulate_greitzer`` or
    ``loop.simulate_closed_loop`` and then to :func:`write_trajectory`,
    inside a ``with`` block, one run to a ``RunHelper``.  The run goes to
    the process if :func:`_fork_pays` and no other run has it: its record
    is then made in memory files (:meth:`memfd`), handed over when the run
    starts (:meth:`start`), which forks the process if there is none.  It
    observes to the end of the run, or to the observer's failure, and
    formats the rows when their text fits in ``_FORK_MAX_ROWS`` rows,
    writing it into its memory file block by block.  After the last report
    it sends one message, ``_END``, which this process reads once, when
    the first of :meth:`result` and :meth:`text` asks for its part, so
    what the caller reads off the record between the run and the write
    overlaps the formatting of the last blocks.  The end of the ``with``
    block (:meth:`close`) reads the message if nothing did, so the process
    is ready for the next run; the process lives on, and is reaped at
    exit.  Without the process, the caller observes and formats in its
    own; it does the same when the process is lost, which is then reaped,
    and the next run forks another.
    """

    def __init__(self, decimate: int):
        self.decimate = decimate
        self._samples = None
        self._files = []
        self._pays = None
        self._process = None
        self._rows = 0
        self._last = False
        self._end = None

    def __enter__(self) -> "RunHelper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def memfd(self, rows: int, observed: bool = False) -> int:
        """A new memory file for one of this run's arrays of ``rows`` rows
        (``odesim._output_buffer``), the record first, then an observed
        run's stage flows; -1 when the run does not go to the helper
        process.  It does, settled at the first call, when
        :func:`_fork_pays` for the rows it writes at this decimation, and
        observes if ``observed``, and no other run has the process.  The
        file is closed once handed over, or at :meth:`close`."""
        if self._pays is None:
            written = -(-rows // self.decimate)
            self._pays = (_fork_pays(written, rows if observed else 0)
                          and _claim.acquire(False))
        if not self._pays:
            return -1
        try:
            fd = os.memfd_create("surgekit-record")
        except OSError:
            return -1
        self._files.append(fd)
        return fd

    def start(self, samples: np.ndarray, observer=None):
        """Hand the run whose record is ``samples`` to the helper process,
        forked if there is none, when the record is in this run's memory
        file (:meth:`memfd`), and so are its stage flows if ``observer``:
        an observed closed loop's (dt, map constants).  Returns the report
        function for the kernel (:meth:`rows_filled`), or None when the
        run stays in this process."""
        self._samples = samples
        files, self._files = self._files, []
        try:
            if len(files) == 1 + (observer is not None):
                self._hand(samples, observer, files)
        finally:
            for fd in files:
                os.close(fd)
        return None if self._process is None else self.rows_filled

    def _hand(self, samples: np.ndarray, observer, files: list) -> None:
        import _socket
        written = -(-len(samples) // self.decimate)
        dt, m = observer or (0.0, (0.0,) * 8)
        run = _RUN.pack(*samples.shape, self.decimate
                        if written <= _FORK_MAX_ROWS else 0,
                        observer is not None, dt, *m)
        rights = [(_socket.SOL_SOCKET, _socket.SCM_RIGHTS,
                   struct.pack(f"{len(files)}i", *files))]
        # a process found lost is reaped, and another forked for this run
        for _ in range(2):
            process = _helper_process()
            if process is None:
                return
            try:
                process.channel.sendmsg([run], rights)
            except OSError:
                _shutdown(kill=True)
                continue
            self._process = process
            return

    def rows_filled(self, rows: int, last: bool = False) -> None:
        """Report that the first ``rows`` rows of the record are final;
        ``last``: the run ended there, complete if they are all of them.
        A process found gone is reaped."""
        if self._process is None:
            return
        self._rows, self._last = rows, last
        try:
            os.write(self._process.fd, _REPORT.pack(rows, last))
        except OSError:
            self._lose()

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
        length; None when it has not formatted them all."""
        if samples is not self._samples or decimate != self.decimate:
            return None
        end = self._ended()
        if end is None or end[3] != os.fstat(self._process.text).st_size:
            return None
        return self._process.text

    def _ended(self) -> Optional[tuple]:
        """The process's last message of the run (``_END``), read the first
        time it is asked for; None when the run did not go to the process,
        or it was lost before sending the message."""
        if self._end is None and self._process is not None:
            try:
                data = os.read(self._process.fd, _END.size)
            except OSError:
                data = b""
            if len(data) != _END.size:
                self._lose()
                return None
            self._end = _END.unpack(data)
        return self._end

    def _lose(self) -> None:
        """Go on without the process, found lost: reap it."""
        if self._process is _helper:
            _shutdown(kill=True)
        self._process = None

    def close(self) -> None:
        """End the run's part: close its memory files not handed over, and
        when the process follows it, send the last report if the kernel
        did not (the run stopped early) and read the run's last message,
        so the process starts the next run in step."""
        for fd in self._files:
            os.close(fd)
        self._files = []
        if self._process is not None:
            if not self._last:
                self.rows_filled(self._rows, True)
            self._ended()
            self._process = None
        if self._pays:
            _claim.release()
        self._pays = None


def _helper_process() -> Optional[_Process]:
    """The helper process, forked if there is none; None when the fork or
    its channel fails."""
    global _helper
    if _helper is not None:
        return _helper
    # _socket, not socket: importing the socket module took about 6 ms on
    # a 2-core VM, paid by a one-shot run
    import _socket
    ends, text = (), -1
    try:
        ends = _socket.socketpair(_socket.AF_UNIX, _socket.SOCK_SEQPACKET)
        text = os.memfd_create("surgekit-csv")
        pid = os.fork()
    except OSError:
        for end in ends:
            end.close()
        if text >= 0:
            os.close(text)
        return None
    ours, theirs = ends
    if pid == 0:
        try:
            # a collection would write to, and so copy, every page of the
            # heap the two processes share; what it allocates makes no
            # cycles.  Of the descriptors, it keeps its channel and text
            # file, and the standard streams: a file or pipe this process
            # closes later must not stay open in the helper
            gc.disable()
            low, high = sorted((theirs.fileno(), text))
            os.closerange(3, low)
            os.closerange(low + 1, high)
            os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
            _serve(theirs, text)
        finally:
            os._exit(0)
    theirs.close()
    _helper = _Process(pid, ours, text)
    return _helper


def _shutdown(kill: bool = False) -> None:
    """Close this process's end of the helper process's channel and its
    text file, so the process exits, and reap it; with ``kill`` (a
    process found lost) it is killed first.  Runs at exit."""
    global _helper
    process, _helper = _helper, None
    if process is None:
        return
    if kill:
        try:
            os.kill(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.channel.close()
    os.close(process.text)
    try:
        os.waitpid(process.pid, 0)
    except ChildProcessError:
        pass


def _forget() -> None:
    """In a child forked from this process, other than the helper: close
    the copies of the helper process's channel and text file, so that the
    helper's channel ends when this process's parent closes it."""
    global _helper
    process, _helper = _helper, None
    if process is not None:
        process.channel.close()
        os.close(process.text)


atexit.register(_shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def _serve(channel, text: int) -> None:
    """The helper process: follow each run handed over on ``channel``
    (:meth:`RunHelper.start`) until the channel ends, when the process
    that forked it closes its end or exits."""
    import _socket
    while True:
        try:
            run, rights, _, _ = channel.recvmsg(_RUN.size,
                                                _socket.CMSG_SPACE(8))
        except OSError:
            return
        if len(run) != _RUN.size or not rights:
            return
        fds = rights[0][2]
        _follow_handed(run, struct.unpack(f"{len(fds) // 4}i", fds),
                       channel.fileno(), text)


def _follow_handed(run: bytes, fds: tuple, channel: int,
                   text: int) -> None:
    """Follow one run handed over (``_RUN``, with the memory files of its
    record and stage flows), its text written into the file open as
    ``text``, emptied and rewound first."""
    import numpy as np
    rows, cols, decimate, observed, dt, *m = _RUN.unpack(run)
    arrays = []
    for fd, width in zip(fds, (cols, 3)):
        arrays.append(np.frombuffer(mmap.mmap(fd, 8 * rows * width))
                      .reshape(rows, width))
        os.close(fd)
    observe = None
    if observed:
        observe = functools.partial(
            _kernels.observed_compressor, *map(_kernels.flat, arrays), dt, m)
    os.ftruncate(text, 0)
    os.lseek(text, 0, os.SEEK_SET)
    _follow_run(arrays[0], decimate, observe, channel, channel, text)


def _follow_run(samples: np.ndarray, decimate: int, observe, inbox: int,
                outbox: int, text: int) -> None:
    """One run in the helper process: for each range of filled rows
    reported on ``inbox``, integrate the observed compressor over it with
    ``observe``, if given and it has not failed, then format its rows kept
    at ``decimate``, if not 0, into the file open as ``text``.

    After the last report, one ``_END`` message goes to ``outbox``: the
    observer's result, status -1 when it did not observe, and the text's
    length, -1 unless the run is complete and formatted.
    """
    done = size = 0
    status, row, stage = OK if observe is not None else -1, 0, None
    with open(text, "w", encoding="ascii", newline="\n",
              closefd=False) as fh:
        while True:
            report = os.read(inbox, _REPORT.size)
            if len(report) != _REPORT.size:
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
