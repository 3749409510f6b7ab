"""CSV formatting/determinism, output bytes, and SVG structure."""

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from support import breakdown_digest

from surgekit import _kernels, csvio, loop, svgplot
from surgekit.cli import main
from surgekit.compressor import DEFAULT_MAP, PlantState
from surgekit.csvio import write_rows, write_trajectory
from surgekit.errors import DomainError
from surgekit.odesim import Trajectory, simulate_greitzer
from surgekit.svgplot import Series, render_svg


def small_traj(n=20):
    t = np.arange(n) * 0.5
    return Trajectory(0.5, ["t", "a", "b"],
                      np.column_stack([t, np.sin(t), np.cos(t)]))


#: any float, or one of the values %.9g writes in its own way: signed
#: zeros, nan, infinities, subnormals and the ends of the exponent range
_CELLS = st.floats() | st.sampled_from(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e-300,
     -1e300, 1e300, 1.0 / 3.0])


@st.composite
def _blocks(draw):
    """A block of rows as the kernels write it: empty, one row, a few
    rows or a whole 1,024-row block.  Each column's cells are drawn from
    a pool of one to three values of its own, so some columns are
    constant and some mix values such as 0.0 and -0.0."""
    n = draw(st.sampled_from([0, 1, 2, 5, 1024]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.column_stack([
        rng.choice(np.array(draw(st.lists(_CELLS, min_size=1, max_size=3))),
                   size=n) for _ in range(draw(st.integers(1, 6)))])


#: a column of zeros of both signs, which is not constant, and constant
#: columns of nan, -0.0 and a subnormal
_MIXED = np.array([[0.0, -0.0, 0.0, 0.0, -0.0], [np.nan] * 5, [-0.0] * 5,
                   [5e-324] * 5, [1e300, -np.inf, np.inf, np.nan, 1e-300]]).T


class TestCsv:
    def test_nine_significant_digits(self, tmp_path):
        # table rows and trajectory rows are written with the same digits
        values = (0.4349777151359241, 1.0, -3.8073628448112613)
        expected = "v,w,x\n0.434977715,1,-3.80736284\n"
        write_rows(("v", "w", "x"), [values], tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_text() == expected
        write_trajectory(Trajectory(1.0, ["v", "w", "x"], np.array([values])),
                         tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_text() == expected

    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(("a", "b", "cls"), [(1.0, 2.5, "stable")], path)
        text = path.read_text()
        assert text == "a,b,cls\n1,2.5,stable\n"

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(DomainError):
            write_rows(("a", "b"), [(1.0,)], tmp_path / "x.csv")

    @pytest.mark.parametrize("header, rows", [
        (("L", "T", "rule", "kp", "ki"),
         [(0.5, 2.0, "PID", 1.0 / 3.0, 7), (1e-300, -0.0, "PI", 2e300, -5)]),
        (("phi", "psi_c"),
         np.column_stack([np.linspace(0.0, 0.8, 201),
                          np.linspace(-0.0, 1e-310, 201)])),
        (("phi", "x"), np.array([[np.nan, np.inf], [-np.inf, -0.0]])),
        (("a", "b"), [])],
        ids=["string-column", "numpy-rows", "numpy-specials", "no-rows"])
    def test_bytes_equal_per_value_formatting(self, tmp_path, header, rows):
        # one row template writes what formatting each value on its own
        # wrote: a string as it is, a number with %.9g
        expected = "\n".join(
            [",".join(header)]
            + [",".join(v if isinstance(v, str) else "%.9g" % v for v in row)
               for row in rows]) + "\n"
        write_rows(header, rows, tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows_of", [
        lambda columns: (row for row in zip(*columns)),
        lambda columns: list(zip(*columns))],
        ids=["generator", "zipped-tuples"])
    def test_rows_zipped_from_columns(self, tmp_path, rows_of):
        # rows built from columns' tolist()s, as a scan's CSV is, give
        # the bytes of formatting each value on its own
        columns = [np.linspace(0.1, 0.79, 7).tolist(),
                   [-0.0, 1e-300, np.nan, np.inf, -2e300, 1.0 / 3.0, 5.0],
                   ["boundary", "stable-focus", "a,b", "", "x", "y", "z"]]
        expected = "phi,v,class\n" + "".join(
            ",".join(v if isinstance(v, str) else "%.9g" % v
                     for v in row) + "\n" for row in zip(*columns))
        write_rows(("phi", "v", "class"), rows_of(columns),
                   tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows", [
        [(1.0, "a"), (2.0, "b", 3.0)], np.zeros((3, 1))],
        ids=["later-row", "numpy-rows"])
    def test_width_mismatch_writes_no_file(self, tmp_path, rows):
        path = tmp_path / "x.csv"
        with pytest.raises(DomainError, match=r"^row width (3|1) does not "
                           r"match header \('a', 'b'\)$"):
            write_rows(("a", "b"), rows, path)
        assert not path.exists()

    def test_trajectory_schema(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(small_traj(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,a,b"
        assert len(lines) == 21

    def test_decimation(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(small_traj(20), path, decimate=5)
        lines = path.read_text().splitlines()
        assert len(lines) == 5  # header + rows 0,5,10,15
        assert lines[1].startswith("0,")

    def test_constant_columns_written_as_varying_ones(self, tmp_path):
        # constant columns go into the row template; the text must be that
        # of formatting every value, -0.0 and NaN included, and a column
        # of zeros with one -0.0 is not constant
        t = np.arange(6.0)
        zeros = np.zeros(6)
        zeros[2] = -0.0
        samples = np.column_stack([t, np.full(6, -0.0), np.full(6, np.nan),
                                   np.full(6, 1.0 / 3.0), zeros, -t])
        path = tmp_path / "traj.csv"
        write_trajectory(Trajectory(1.0, list("tabcde"), samples), path,
                         decimate=2)
        expected = "".join(",".join("%.9g" % v for v in row) + "\n"
                           for row in samples[::2].tolist())
        assert path.read_text() == "t,a,b,c,d,e\n" + expected
        assert expected.splitlines()[0] == "0,-0,nan,0.333333333,0,-0"
        write_trajectory(Trajectory(1.0, list("tabcde"), samples[:0]), path)
        assert path.read_text() == "t,a,b,c,d,e\n"

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory(small_traj(), p1)
        write_trajectory(small_traj(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 300), decimate=st.integers(1, 400))
    def test_decimation_keeps_every_nth_row(self, tmp_path, n, decimate):
        # the t column holds the row index, so it names the rows kept
        rows = np.arange(n, dtype=float)
        path = tmp_path / "traj.csv"
        write_trajectory(Trajectory(1.0, ["t", "a"],
                                    np.column_stack([rows, -rows])),
                         path, decimate=decimate)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,a"
        kept = [int(line.split(",")[0]) for line in lines[1:]]
        assert kept == list(range(0, n, decimate))

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(samples=hnp.arrays(
        float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=20),
        elements=st.floats(allow_nan=False, allow_infinity=False,
                           allow_subnormal=False)))
    def test_read_back_matches_to_nine_digits(self, tmp_path, samples):
        # rounding to 9 significant digits moves a value by at most
        # 5e-9 of it; parsing the digits back adds at most half an ulp
        path = tmp_path / "traj.csv"
        names = [f"c{j}" for j in range(samples.shape[1])]
        write_trajectory(Trajectory(1.0, names, samples), path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline() == ",".join(names) + "\n"
            back = np.array([[float(v) for v in line.split(",")]
                             for line in fh])
        assert back.shape == samples.shape
        assert np.all(np.abs(back - samples)
                      <= 5e-9 * (1 + 1e-7) * np.abs(samples))

    @settings(max_examples=80, deadline=None, database=None)
    @given(block=_blocks())
    @example(block=_MIXED)
    def test_block_bytes_equal_per_value_formatting(self, block):
        # one % of the row template repeated over the block's values
        # writes what %.9g of each value joined by commas wrote
        assert csvio._format_rows(block) == "".join(
            ",".join("%.9g" % v for v in row) + "\n"
            for row in block.tolist())

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(block=_blocks(), strings=st.lists(st.booleans(), min_size=6,
                                             max_size=6),
           cells=st.lists(st.text(alphabet="%sdg.9,x ", max_size=6),
                          min_size=1, max_size=8))
    @example(block=_MIXED, strings=[False, True] * 3,
             cells=["%s", "100%", "%.9g", "%%", ""])
    def test_table_bytes_equal_per_value_formatting(self, tmp_path, block,
                                                    strings, cells):
        # a table whose string columns hold cells with % in them, through
        # write_rows: %s of a string, %.9g of a number
        rows = [tuple(cells[(i + j) % len(cells)] if strings[j] else v
                      for j, v in enumerate(row))
                for i, row in enumerate(block.tolist())]
        header = tuple(f"c{j}" for j in range(block.shape[1]))
        write_rows(header, rows, tmp_path / "rows.csv")
        expected = "".join(
            ",".join(v if isinstance(v, str) else "%.9g" % v for v in row)
            + "\n" for row in [header] + rows)
        assert (tmp_path / "rows.csv").read_bytes() == expected.encode()


#: sha256 of each catalog CSV, recorded when the benchmark was defined
DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "digests.json")


def _sha256_of_run(argv, csv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with open(csv, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class TestOutputBytes:
    # the short catalog calls of the benchmark, through the CLI
    @pytest.mark.parametrize("name,argv", [
        ("fig3_4", ["simulate", "--scenario", "fig3_4"]),
        ("fig6", ["limit-cycle", "--scenario", "fig6"]),
        ("fig7", ["simulate", "--scenario", "fig7"]),
        ("stability", ["stability", "--n", "1000"]),
        ("map", ["map"]),
        ("avg", ["averaging", "--scenario", "avg"]),
        ("zn", ["tune", "--scenario", "zn"]),
    ])
    def test_catalog_csv_matches_recorded_digest(self, tmp_path, name, argv):
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh)[name]
        assert _sha256_of_run(argv + ["--out-dir", str(tmp_path)],
                              tmp_path / f"{name}.csv") == expected

    def test_observed_closed_loop_csv_is_pinned(self, tmp_path):
        csv = tmp_path / "observe.csv"
        assert _sha256_of_run(
            ["closedloop", "--observe", "--t-end", "2", "--csv", str(csv)],
            csv) == ("5f9c9a07f26aedfa1c7a26eccc1a6ec0"
                     "ade274138dc5fa81b33a29362cede01b")

    # closed-loop runs no catalog CSV pins: the fixed PD, unobserved and
    # observed; a disturbance target of 0.7; and a set point of 0.7, away
    # from the start's flow 0.55, which moves the reference model
    # (ym1, ym2)
    @pytest.mark.parametrize("argv, digest", [
        (["--controller", "fixed-pd"],
         "60334565d4c99d320c1b7d6e84e58de547c0717205f71304bca989778d273ba4"),
        (["--controller", "fixed-pd", "--observe"],
         "13e6a4321eed7c0312f80a03eb9cbde56d8e3ddf71f476124d47efbb6947c66f"),
        (["--target", "0.7"],
         "5b1147823776b0076d895e5bebe5830e834a783c586d2f3bb7bcc82aa0b0b80f"),
        (["--reference", "0.7"],
         "a7608063bdae2ac741acf3f1af6bfc2fb4a67ad3cd23f70b97f69c5f65cb2638"),
    ], ids=["fixed-pd", "fixed-pd-observed", "disturbance-target",
            "moving-reference"])
    def test_closed_loop_csv_is_pinned(self, tmp_path, argv, digest):
        csv = tmp_path / "run.csv"
        assert _sha256_of_run(["closedloop", *argv, "--t-end", "5",
                               "--csv", str(csv)], csv) == digest

    @pytest.mark.parametrize("kind", ["fixed-pd", "fixed-pid"])
    def test_fixed_gain_written_as_negative_zero_stays(self, tmp_path, kind):
        # a fixed controller's gains have no rate, so the loop leaves them
        # as given: -0 on every row, never -0 + 0 = 0
        csv = tmp_path / "k1.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["closedloop", "--controller", kind, "--k1=-0",
                         "--t-end", "0.01", "--csv", str(csv)]) == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        assert rows[0][8:] == ["k1", "k2", "k3"]
        assert [row[8:] for row in rows[1:]] == [["-0", "10", "0.7"]] * 11


class TestSvgBytes:
    # sha256 of each figure as written before the polylines were scaled as
    # arrays and formatted by one %: the benchmark's catalog figures and
    # fig10's pair
    @pytest.mark.parametrize("name,argv,digest", [
        ("fig3_4", ["simulate", "--scenario", "fig3_4"],
         "d86a6e6fd11f3ac598e069b5025ef28b7fcf595a8c4b79ab0ee79ee769f9e79c"),
        ("fig6", ["limit-cycle", "--scenario", "fig6"],
         "551b470ff453d1838843e26300486fa4382542179b3805c74aaff821232bd075"),
        ("stability", ["stability", "--n", "1000"],
         "d609d6b76e8be4d06adc365bed629506735423472cc12a47abbe069e8305e41d"),
        ("map", ["map"],
         "7fdc342dd08843258d44c5d701a6763c710481dfff1d39b5abbd1fb89efce6e8"),
    ])
    def test_catalog_svg_is_pinned(self, tmp_path, name, argv, digest):
        svg = tmp_path / f"{name}.svg"
        assert _sha256_of_run(argv + ["--out-dir", str(tmp_path),
                                      "--svg", str(svg)], svg) == digest

    def test_closed_loop_svgs_are_pinned(self, tmp_path):
        flow, gains = tmp_path / "y.svg", tmp_path / "k.svg"
        _sha256_of_run(["closedloop", "--scenario", "fig10", "--t-end", "5",
                        "--out-dir", str(tmp_path), "--svg", str(flow),
                        "--svg-params", str(gains)], flow)
        assert [hashlib.sha256(path.read_bytes()).hexdigest()
                for path in (flow, gains)] == [
            "9f21794fb26d9e44691947513e0fddb2fd5ea542133ed9808dbff423c96b1e3d",
            "0ef5bbdbd8b2afa4566b4f083af29ba17b85312be889d0ae230279f890316f55"]


class _Forks:
    """The processes forked through ``os.fork`` while it is patched, the
    runs handed to the helper process (``handed``: True for each run
    started with it, False for each run left in this process), and
    ``pays``, for a patched ``csvio._fork_pays`` to answer."""

    def __init__(self, monkeypatch):
        self.pids = []
        self.handed = []
        self.pays = True
        fork = os.fork
        start = csvio.RunHelper.start

        def counted_fork():
            pid = fork()
            if pid:
                self.pids.append(pid)
            return pid

        def counted_start(helper, *args):
            report = start(helper, *args)
            self.handed.append(report is not None)
            return report

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(csvio.RunHelper, "start", counted_start)


def _run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def forks(monkeypatch):
    """Small kernel blocks, the helper processes counted, and
    ``forks.pays`` deciding whether one is forked."""
    forks = _Forks(monkeypatch)
    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 1000)
    monkeypatch.setattr(csvio, "_fork_pays", lambda *rows: forks.pays)
    return forks


def _both(capsys, forks, *argv):
    """(code, stdout, stderr) of the run without and with a helper
    process, checking that the second forks one."""
    results = []
    for pays in (False, True):
        forks.pays = pays
        del forks.pids[:]
        results.append(_run_cli(capsys, *argv))
        assert len(forks.pids) == pays, argv
    return results


class TestFormatterProcess:
    """A closed-loop run whose helper process observes the compressor and
    formats the CSV while the kernel runs has the bytes, record, errors,
    files and messages of the in-process path."""

    @pytest.mark.parametrize("decimation", [1, 7, 100])
    @pytest.mark.parametrize("observe", [False, True])
    @pytest.mark.parametrize("kind", ["fixed-pd", "fixed-pid", "adaptive"])
    def test_bytes_match_in_process(self, tmp_path, capsys, forks, kind,
                                    observe, decimation):
        # 2501 rows in blocks of 1000: the kept rows straddle the bounds
        csv = tmp_path / "run.csv"
        argv = ["closedloop", "--controller", kind, "--t-end", "2.5",
                f"--decimation={decimation}", "--csv", str(csv)]
        if observe:
            argv.append("--observe")
        texts = []
        for pays in (False, True):
            forks.pays = pays
            assert _run_cli(capsys, *argv)[0] == 0
            texts.append(csv.read_bytes())
        assert len(forks.pids) == 1
        assert texts[0] == texts[1]
        assert len(texts[0].splitlines()) == 1 + len(range(0, 2501,
                                                           decimation))

    def test_divergence_leaves_no_file(self, tmp_path, capsys, forks,
                                       monkeypatch):
        # the observed compressor breaks down at t=0.854, after the
        # helper has forked: no directory, no file, one line
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 100)
        csv = tmp_path / "new" / "run.csv"
        in_process, forked = _both(
            capsys, forks, "closedloop", "--observe", "--target", "1.0",
            "--t-end", "5", "--csv", str(csv))
        assert in_process == forked == (
            4, "", "error: observed compressor model broke down "
                   "(psi or psi_c <= 0) near t=0.854\n")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_csv_exits_five(self, tmp_path, capsys, forks):
        (tmp_path / "afile").write_text("")
        csv = tmp_path / "afile" / "run.csv"
        in_process, forked = _both(
            capsys, forks, "closedloop", "--t-end", "2.5", "--csv", str(csv))
        assert in_process == forked == (
            5, "", f"error: [Errno 17] File exists: "
                   f"'{tmp_path / 'afile'}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    @pytest.mark.parametrize("block", [100, 1000])
    def test_observed_breakdown_same_with_and_without_helper(
            self, forks, monkeypatch, block):
        # the observer fails at t=0.854 (row 855), in the first block or
        # the ninth; the loop runs on to the end of the run, the helper
        # reports the failure at the last report, and the loop's state is
        # rebuilt by running it again up to the failing step.  The error's
        # time, stage, rows and 13 states are those of the in-process run
        # and of a process with one CPU, which forks no helper
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", block)
        digests = []
        for pays in (False, True):
            forks.pays = pays
            digests.append(breakdown_digest())
        assert len(forks.pids) == 1
        assert digests[0] == digests[1]
        if hasattr(os, "sched_setaffinity"):
            paths = [os.path.dirname(os.path.dirname(loop.__file__)),
                     os.path.dirname(__file__)]
            one_cpu = subprocess.run(
                [sys.executable, "-c", _ONE_CPU.format(paths=paths)],
                capture_output=True, text=True, check=True).stdout.split()
            assert one_cpu == [digests[0], "forks=0"]

    @staticmethod
    def _killed_at_start(samples, decimate, observe, inbox, outbox, text):
        os.kill(os.getpid(), signal.SIGKILL)

    @staticmethod
    def _killed_mid_run(samples, decimate, observe, inbox, outbox, text):
        # the first reported range observed, if the run is, then no more
        rows, _ = csvio._REPORT.unpack(os.read(inbox, csvio._REPORT.size))
        if observe is not None:
            observe(0, rows)
        os.kill(os.getpid(), signal.SIGKILL)

    @staticmethod
    def _killed_mid_text(samples, decimate, observe, inbox, outbox, text):
        # the whole run observed and its end sent with a length of -1,
        # then part of a text in the memory file
        keep = os.dup(text)
        _follow_run(samples, 0, observe, inbox, outbox, text)
        os.write(keep, b"0,1,2\n" * 1000)
        os.kill(os.getpid(), signal.SIGKILL)

    @staticmethod
    def _wrong_length(samples, decimate, observe, inbox, outbox, text):
        # the whole run observed and formatted, then one more byte in the
        # memory file, which the length sent after it does not count
        keep = os.dup(text)
        sent, passed = os.pipe()
        _follow_run(samples, decimate, observe, inbox, passed, text)
        os.write(keep, b"9")
        os.write(outbox, os.read(sent, csvio._END.size))

    @pytest.mark.parametrize("helper", ["_killed_at_start",
                                        "_killed_mid_run",
                                        "_killed_mid_text",
                                        "_wrong_length"])
    def test_killed_formatter_falls_back(self, tmp_path, forks,
                                         monkeypatch, helper):
        # the run observes and formats in this process from where it
        # finds the helper gone: the same record and the same CSV, with
        # the observer or without
        csv = tmp_path / "run.csv"

        def run(observe):
            with csvio.RunHelper(3) as process:
                traj = loop.simulate_closed_loop(
                    loop.ControllerConfig(reference=0.7), t_end=2.5,
                    observe=observe, helper=process)
                write_trajectory(traj, csv, 3, helper=process)
            return traj.samples.tobytes(), csv.read_bytes()

        for observe in (False, True):
            forks.pays = False
            expected = run(observe)
            forks.pays = True
            with monkeypatch.context() as patch:
                patch.setattr(csvio, "_follow_run", getattr(self, helper))
                assert run(observe) == expected
            if helper == "_killed_mid_text":
                # killed after its end: dead, and left unreaped (WNOWAIT),
                # before the next run finds it lost
                os.waitid(os.P_PID, forks.pids[-1], os.WEXITED | os.WNOWAIT)
        # a helper that lives on follows the second run too; one killed
        # is reaped, and the next run forks another
        assert len(forks.pids) == (1 if helper == "_wrong_length" else 2)

    def test_forks_only_where_it_pays(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        pays = csvio._fork_pays
        assert pays(csvio._FORK_MIN_ROWS + 1, 0)
        assert not pays(csvio._FORK_MIN_ROWS, 0)
        assert pays(csvio._FORK_MAX_ROWS, 0)
        assert not pays(csvio._FORK_MAX_ROWS + 1, 0)
        # an observed run pays from its own row count, whatever it writes
        assert pays(1, csvio._OBSERVE_MIN_ROWS + 1)
        assert pays(csvio._FORK_MAX_ROWS + 1, csvio._FORK_MAX_ROWS + 1)
        assert not pays(csvio._OBSERVE_MIN_ROWS, csvio._OBSERVE_MIN_ROWS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not pays(50001, 0)
        assert not pays(201, 20001)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.delattr(os, "fork")
        assert not pays(50001, 0)
        assert not pays(201, 20001)

    def test_catalog_run_and_sweep_call_go_to_one_helper(self, tmp_path,
                                                         monkeypatch):
        # a 10001-row CSV goes to the helper to be formatted, and so does
        # the 20001-row record a decimated sweep call observes; a 1001-row
        # observed run stays here.  The first forks the helper, the
        # second finds it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        forks = _Forks(monkeypatch)
        csv = str(tmp_path / "run.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["closedloop", "--t-end", "10", "--csv", csv]) == 0
            assert main(["closedloop", "--observe", "--t-end", "20",
                         "--decimation", "100", "--csv", csv]) == 0
            assert main(["closedloop", "--observe", "--t-end", "1",
                         "--csv", csv]) == 0
        assert forks.handed == [True, True, False]
        assert len(forks.pids) == 1

    def test_dense_observed_run_forks_one_helper_for_both_jobs(
            self, tmp_path, monkeypatch):
        # 10001 written rows: one process observes and formats them all,
        # and this one does neither
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        forks = _Forks(monkeypatch)
        here = []

        def counted(fn):
            def wrapper(*args):
                here.append(fn.__name__)
                return fn(*args)
            return wrapper

        csv = tmp_path / "run.csv"
        argv = ["closedloop", "--observe", "--t-end", "10", "--csv", str(csv)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            forked = csv.read_bytes()
            monkeypatch.setattr(csvio, "_format_rows",
                                counted(csvio._format_rows))
            monkeypatch.setattr(_kernels, "observed_compressor",
                                counted(_kernels.observed_compressor))
            assert main(argv) == 0
        assert forks.handed == [True, True]
        assert len(forks.pids) == 1
        assert here == []
        monkeypatch.setattr(csvio, "_fork_pays", lambda *rows: False)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(forks.pids) == 1
        assert set(here) == {"_format_rows", "observed_compressor"}
        assert csv.read_bytes() == forked


class TestOpenLoopFormatterProcess:
    """An open-loop run (``simulate``, ``limit-cycle``) whose helper
    process formats the CSV while the kernel runs has the bytes, errors,
    files and messages of the in-process path."""

    PLANTS = [("simulate", "fig3_4"), ("limit-cycle", "fig6")]

    @pytest.mark.parametrize("decimation", [1, 7, 100])
    @pytest.mark.parametrize("command, scenario", PLANTS)
    def test_bytes_match_in_process(self, tmp_path, capsys, forks,
                                    monkeypatch, command, scenario,
                                    decimation):
        # 2501 rows in blocks of 1000: the kept rows straddle the bounds.
        # Through the helper, this process formats no row
        formatted = []
        format_rows = csvio._format_rows
        monkeypatch.setattr(csvio, "_format_rows", lambda samples: (
            formatted.append(len(samples)) or format_rows(samples)))
        csv = tmp_path / "run.csv"
        argv = [command, "--scenario", scenario, "--t-end", "25",
                f"--decimation={decimation}", "--csv", str(csv)]
        results, texts, here = [], [], []
        for pays in (False, True):
            forks.pays = pays
            del formatted[:]
            results.append(_run_cli(capsys, *argv))
            texts.append(csv.read_bytes())
            here.append(sum(formatted))
        assert len(forks.pids) == 1
        assert results[0] == results[1] and results[0][0] == 0
        assert texts[0] == texts[1]
        kept = len(range(0, 2501, decimation))
        assert len(texts[0].splitlines()) == 1 + kept
        assert here == [kept, 0]

    @pytest.mark.parametrize("command", ["simulate", "limit-cycle"])
    def test_breakdown_leaves_no_file(self, tmp_path, capsys, forks,
                                      command):
        # psi reaches zero at t=1.605, in the second block, after the
        # helper has forked: no directory, no file, one line
        csv = tmp_path / "new" / "run.csv"
        in_process, forked = _both(
            capsys, forks, command, "--g", "1", "--phi0", "0", "--psi0", "2",
            "--dt", "0.001", "--t-end", "2.5", "--csv", str(csv))
        assert in_process == forked == (
            4, "", "error: plenum pressure reached zero near t=1.605 "
                   "(surge model breakdown)\n")
        assert list(tmp_path.iterdir()) == []

    def test_ss_window_refused_after_the_run(self, tmp_path, capsys, forks):
        # the window is checked against the run's dt, once the helper has
        # forked: exit 3 and no file
        csv = tmp_path / "run.csv"
        in_process, forked = _both(
            capsys, forks, "simulate", "--scenario", "fig3_4", "--t-end",
            "25", "--ss-window", "0.001", "--csv", str(csv))
        assert in_process == forked == (
            3, "", "error: steady-state window 0.001 (--ss-window, at most "
                   "half of t_end) is under one step of dt=0.01\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, scenario", PLANTS)
    def test_unwritable_csv_exits_five(self, tmp_path, capsys, forks,
                                       command, scenario):
        (tmp_path / "afile").write_text("")
        csv = tmp_path / "afile" / "run.csv"
        in_process, forked = _both(
            capsys, forks, command, "--scenario", scenario, "--t-end", "25",
            "--csv", str(csv))
        assert in_process == forked == (
            5, "", f"error: [Errno 17] File exists: "
                   f"'{tmp_path / 'afile'}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    @pytest.mark.parametrize("helper", ["_killed_mid_text",
                                        "_wrong_length"])
    def test_lost_text_falls_back(self, tmp_path, forks, monkeypatch,
                                  helper):
        # the rows are formatted in this process when the helper's text
        # has no length or the wrong one: the same CSV
        formatted = []
        format_rows = csvio._format_rows
        monkeypatch.setattr(csvio, "_format_rows", lambda samples: (
            formatted.append(len(samples)) or format_rows(samples)))
        csv = tmp_path / "run.csv"

        def run():
            with csvio.RunHelper(3) as process:
                traj = simulate_greitzer(PlantState(0.3, 0.6), 0.5,
                                         DEFAULT_MAP, dt=0.01, t_end=25,
                                         helper=process)
                write_trajectory(traj, csv, 3, helper=process)
            return csv.read_bytes()

        forks.pays = False
        expected = run()
        forks.pays = True
        monkeypatch.setattr(csvio, "_follow_run",
                            getattr(TestFormatterProcess, helper))
        del formatted[:]
        assert run() == expected
        assert len(forks.pids) == 1
        assert sum(formatted) == len(range(0, 2501, 3))

    def test_catalog_open_loop_runs_fork_where_they_pay(self, tmp_path,
                                                        monkeypatch):
        # fig3_4 and fig6 write 10001 rows and fig7 5001: they go to the
        # helper, forked by the first
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        forks = _Forks(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()):
            for command, scenario in self.PLANTS + [("simulate", "fig7")]:
                assert main([command, "--scenario", scenario, "--out-dir",
                             str(tmp_path)]) == 0
        assert forks.handed == [True, True, True]
        assert len(forks.pids) == 1


class TestTextHandoff:
    """The helper process leaves the text in an anonymous memory file and
    sends only its length; the CSV is copied from that file.  The process
    outlives the run's ``with`` block, and is reaped at shutdown."""

    RUNS = [["closedloop", "--t-end", "2.5"],
            ["simulate", "--scenario", "fig3_4", "--t-end", "25"]]

    @pytest.mark.parametrize("argv", RUNS, ids=["closedloop", "simulate"])
    def test_csv_to_dev_null(self, capsys, forks, argv):
        code, out, err = _run_cli(capsys, *argv, "--csv", os.devnull)
        assert (code, err) == (0, "")
        assert f"-> {os.devnull}\n" in out
        assert len(forks.pids) == 1

    def test_no_memfd_no_fork(self, tmp_path, monkeypatch):
        # 10001 written rows fork a helper where os.memfd_create exists,
        # and are formatted here where it does not: the same bytes
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        forks = _Forks(monkeypatch)
        csv = tmp_path / "run.csv"
        runs = [["closedloop", "--t-end", "10"],
                ["simulate", "--scenario", "fig3_4"]]
        texts = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                assert main(argv + ["--csv", str(csv)]) == 0
                texts.append(csv.read_bytes())
            monkeypatch.delattr(os, "memfd_create")
            for argv, text in zip(runs, texts):
                assert main(argv + ["--csv", str(csv)]) == 0
                assert csv.read_bytes() == text
        assert forks.handed == [True, True, False, False]
        assert len(forks.pids) == 1

    @pytest.mark.parametrize("observe", [False, True])
    def test_reads_only_result_and_length(self, tmp_path, capsys, forks,
                                          monkeypatch, observe):
        # the text never passes through this process
        read = os.read
        received = []
        monkeypatch.setattr(os, "read", lambda fd, n: (
            received.append(len(data := read(fd, n))) or data))
        argv = ["closedloop", "--t-end", "2.5", "--csv",
                str(tmp_path / "run.csv")]
        assert _run_cli(capsys, *argv, *["--observe"] * observe)[0] == 0
        assert len(forks.pids) == 1
        assert sum(received) == csvio._END.size

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    @pytest.mark.parametrize("fork_fails", [False, True])
    def test_no_descriptor_left_open(self, tmp_path, capsys, forks,
                                     monkeypatch, fork_fails):
        def failed_fork():
            raise OSError("fork refused")

        if fork_fails:
            monkeypatch.setattr(os, "fork", failed_fork)
        argv = ["closedloop", "--t-end", "2.5", "--csv",
                str(tmp_path / "run.csv")]
        before = set(os.listdir("/proc/self/fd"))
        assert _run_cli(capsys, *argv)[0] == 0
        # the helper's channel and text file stay open, as long as it
        # lives; the run's record and the files of its handover do not
        kept = set() if fork_fails else {
            str(csvio._helper.fd), str(csvio._helper.text)}
        assert set(os.listdir("/proc/self/fd")) == before | kept
        assert len(forks.pids) == (not fork_fails)
        csvio._shutdown()
        assert set(os.listdir("/proc/self/fd")) == before

    @staticmethod
    def _lingering(samples, decimate, observe, inbox, outbox, text):
        # the whole run formatted and its length sent, then no return
        # until the channel carries another message or ends
        keep = os.dup(inbox)
        _follow_run(samples, decimate, observe, inbox, outbox, text)
        os.read(keep, 1)

    def test_text_never_waits_and_shutdown_reaps(self, tmp_path, forks,
                                                 monkeypatch):
        # the helper outlives the write, which copies its text, and the
        # with block; only the shutdown, as at exit, ends and reaps it
        waitpid = os.waitpid
        shutting, waited, texts = [], [], []

        def watched_waitpid(pid, options):
            assert shutting, "waited for the helper before the shutdown"
            waited.append(waitpid(pid, options))
            return waited[-1]

        text = csvio.RunHelper.text
        monkeypatch.setattr(os, "waitpid", watched_waitpid)
        monkeypatch.setattr(csvio.RunHelper, "text", lambda helper, *args: (
            texts.append(text(helper, *args)) or texts[-1]))
        monkeypatch.setattr(csvio, "_follow_run", self._lingering)
        csv = tmp_path / "run.csv"
        with csvio.RunHelper(1) as helper:
            traj = simulate_greitzer(PlantState(0.3, 0.6), 0.5, DEFAULT_MAP,
                                     dt=0.01, t_end=25, helper=helper)
            write_trajectory(traj, csv, 1, helper=helper)
            assert texts[0] is not None
        (pid,) = forks.pids
        os.kill(pid, 0)   # not reaped yet
        assert waited == []
        shutting.append(1)
        csvio._shutdown()
        # it exited by itself, with status 0, once its channel ended
        assert waited == [(pid, 0)]
        in_process = tmp_path / "in-process.csv"
        write_trajectory(traj, in_process, 1)
        assert csv.read_bytes() == in_process.read_bytes()


class TestOneHelperPerProcess:
    """One helper process serves every run of the process that forked it:
    the first run that pays forks it, the later ones find it, and it ends
    with its parent.  A run that stops early, or a helper lost between
    runs, leaves the next run's bytes those of the in-process path."""

    #: forking runs of the catalog, the last the first again; the closed
    #: loops cut to 10001 rows
    CATALOG = [["simulate", "--scenario", "fig3_4"],
               ["limit-cycle", "--scenario", "fig6"],
               ["closedloop", "--scenario", "fig10", "--observe",
                "--t-end", "10"],
               ["closedloop", "--scenario", "fig15", "--t-end", "10"],
               ["simulate", "--scenario", "fig3_4"]]

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    @staticmethod
    def _csv(argv, csv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--csv", str(csv)]) == 0
        return csv.read_bytes()

    def _in_process(self, monkeypatch, argv, csv):
        with monkeypatch.context() as patch:
            patch.setattr(csvio, "_fork_pays", lambda *rows: False)
            return self._csv(argv, csv)

    @staticmethod
    def _formatted_here(monkeypatch):
        """The rows this process formats from now on: none, where every
        CSV is copied from the helper's text."""
        formatted = []
        format_rows = csvio._format_rows
        monkeypatch.setattr(csvio, "_format_rows", lambda samples: (
            formatted.append(len(samples)) or format_rows(samples)))
        return formatted

    def test_catalog_runs_fork_once(self, tmp_path, monkeypatch, two_cpus):
        csv = tmp_path / "run.csv"
        expected = [self._in_process(monkeypatch, argv, csv)
                    for argv in self.CATALOG]
        forks = _Forks(monkeypatch)
        formatted = self._formatted_here(monkeypatch)
        assert [self._csv(argv, csv) for argv in self.CATALOG] == expected
        assert forks.handed == [True] * 5
        assert len(forks.pids) == 1
        assert formatted == []

    @staticmethod
    def _raising_after_one_block(run, first, n, report):
        run(first, first + _kernels._BLOCK_ROWS)
        report(first + _kernels._BLOCK_ROWS, False)
        raise RuntimeError("kernel stopped")

    def test_run_stopped_early_leaves_the_next_in_step(self, tmp_path,
                                                       monkeypatch, two_cpus):
        # a kernel that raises after its first block, and a figure that
        # cannot be written after the run (exit 5), both between the
        # handover and the write: the next run writes the in-process bytes
        # through the same helper
        argv = ["simulate", "--scenario", "fig3_4"]
        csv = tmp_path / "run.csv"
        expected = self._in_process(monkeypatch, argv, csv)
        forks = _Forks(monkeypatch)
        formatted = self._formatted_here(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_in_blocks",
                          self._raising_after_one_block)
            with pytest.raises(RuntimeError, match="kernel stopped"):
                main(argv + ["--csv", str(tmp_path / "stopped.csv")])
        assert self._csv(argv, csv) == expected
        (tmp_path / "afile").write_text("")
        svg = tmp_path / "afile" / "fig.svg"
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv + ["--csv", str(tmp_path / "no.csv"),
                                "--svg", str(svg)]) == 5
        assert self._csv(argv, csv) == expected
        assert forks.handed == [True] * 4
        assert len(forks.pids) == 1
        assert formatted == []
        assert not (tmp_path / "stopped.csv").exists()
        assert not (tmp_path / "no.csv").exists()

    def test_helper_killed_between_runs(self, tmp_path, monkeypatch,
                                        two_cpus):
        # the next run finds it lost: it is reaped, no zombie is left, and
        # another is forked for the run, which writes the same bytes
        argv = ["simulate", "--scenario", "fig3_4"]
        csv = tmp_path / "run.csv"
        expected = self._in_process(monkeypatch, argv, csv)
        forks = _Forks(monkeypatch)
        assert self._csv(argv, csv) == expected
        (killed,) = forks.pids
        os.kill(killed, signal.SIGKILL)
        # dead, and left unreaped (WNOWAIT) for the run to find
        os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)
        assert self._csv(argv, csv) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(killed, os.WNOHANG)
        assert forks.handed == [True, True]
        assert len(forks.pids) == 2
        assert csvio._helper.pid == forks.pids[1]

    def test_threads_take_turns(self, tmp_path, monkeypatch):
        # more threads than CPUs, switching often, each making runs: the
        # run that has the helper keeps it to its close and the others
        # stay in their own thread, so the one helper forked serves them
        # all, and every CSV has the in-process bytes
        forks = _Forks(monkeypatch)
        monkeypatch.setattr(csvio, "_fork_pays", lambda *rows: True)
        errors = []

        def run(csv, handed=True):
            with csvio.RunHelper(1) as helper:
                traj = simulate_greitzer(PlantState(0.3, 0.6), 0.5,
                                         DEFAULT_MAP, dt=0.01, t_end=25,
                                         helper=helper if handed else None)
                write_trajectory(traj, csv, 1, helper=helper)
            return csv.read_bytes()

        def runs(k):
            try:
                for i in range(4):
                    run(tmp_path / f"{k}-{i}.csv")
            except BaseException as err:   # reported below
                errors.append(err)

        expected = run(tmp_path / "in-process.csv", handed=False)
        assert run(tmp_path / "first.csv") == expected
        threads = [threading.Thread(target=runs, args=(k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert {(tmp_path / f"{k}-{i}.csv").read_bytes()
                for k in range(4) for i in range(4)} == {expected}
        assert len(forks.pids) == 1
        assert forks.handed.count(True) >= 2

    def test_no_helper_outlives_its_parent(self, tmp_path):
        # a process that runs fig3_4 through the helper and then leaves by
        # os._exit, with no exit hook: the helper holds the process's
        # stdout and stderr, so their end shows that it exited too, on
        # its channel's end
        code = _PARENT_EXITS.format(
            paths=[os.path.dirname(os.path.dirname(csvio.__file__))],
            csv=str(tmp_path / "fig3_4.csv"))
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=5)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, err
        word, pid = out.splitlines()[-1].split()
        assert word == "helper" and int(pid) > 0


#: the helper process's own function, for the fakes that wrap it
_follow_run = csvio._follow_run

#: what a fresh interpreter bound to one CPU prints: the breakdown's
#: digest, and the processes forked for it
_ONE_CPU = """
import os
import sys
sys.path[:0] = {paths!r}
from support import breakdown_digest
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
print(breakdown_digest(), f"forks={{len(forks)}}")
"""


class TestSvg:
    def test_structure(self, tmp_path):
        path = tmp_path / "plot.svg"
        t = np.linspace(0, 1, 50)
        render_svg([Series("one", t, np.sin(t)),
                    Series("two", t, np.cos(t))], path,
                   x_label="time", y_label="value", title="demo")
        text = path.read_text()
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        assert text.count("<polyline") == 2
        assert "time" in text and "value" in text and "demo" in text
        assert "one" in text and "two" in text

    def test_constant_series_draws_horizontal_line(self, tmp_path):
        path = tmp_path / "flat.svg"
        render_svg([Series("c", np.arange(10.0), np.full(10, 0.7))], path)
        text = path.read_text()
        ys = {pt.split(",")[1] for pt in
              text.split('points="')[1].split('"')[0].split()}
        assert len(ys) == 1

    def test_phase_plane_mode(self, tmp_path):
        # any series may plot one signal against another
        path = tmp_path / "orbit.svg"
        ang = np.linspace(0, 2 * np.pi, 100)
        render_svg([Series("orbit", np.cos(ang), np.sin(ang))], path,
                   x_label="phi", y_label="psi")
        assert path.read_text().count("<polyline") == 1

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            render_svg([], tmp_path / "x.svg")
        with pytest.raises(DomainError):
            render_svg([Series("e", np.array([]), np.array([]))],
                       tmp_path / "y.svg")

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            render_svg([Series("bad", np.arange(3.0),
                               np.array([1.0, np.nan, 2.0]))],
                       tmp_path / "z.svg")

    def test_text_is_escaped(self, tmp_path):
        # &, < and > become entities, & first; quotes are left alone
        path = tmp_path / "esc.svg"
        render_svg([Series('s"1', np.arange(3.0), np.arange(3.0))], path,
                   x_label="x&y", title="a<b&c>d")
        text = path.read_text()
        assert 'font-size="15">a&lt;b&amp;c&gt;d</text>' in text
        assert 'font-size="13">x&amp;y</text>' in text
        assert 'font-size="12">s"1</text>' in text
        assert ET.fromstring(text).tag.endswith("svg")

    @pytest.mark.parametrize("seed", range(6))
    def test_polyline_matches_scaling_point_by_point(self, tmp_path, seed):
        # the reference: each point scaled and formatted on its own, as
        # numpy scalars, over series of any scale, integer x and -0.0
        rng = np.random.default_rng(seed)
        series = []
        for j in range(3):
            n = int(rng.integers(1, 200))
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
            y = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12)
            if j == 1:
                x = np.arange(n) - n // 2
            if seed % 2 and j == 2:
                y = np.full(n, -0.0)
            series.append(Series(f"s{j}", x, y))
        path = tmp_path / "random.svg"
        render_svg(series, path)
        x_lo, x_hi = svgplot._bounds([s.x for s in series])
        y_lo, y_hi = svgplot._bounds([s.y for s in series])
        plot_w = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
        plot_h = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B

        def px(x):
            return svgplot.MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

        def py(y):
            return (svgplot.MARGIN_T + plot_h
                    - (y - y_lo) / (y_hi - y_lo) * plot_h)

        expected = [" ".join(f"{px(xx):.2f},{py(yy):.2f}"
                             for xx, yy in zip(s.x, s.y)) for s in series]
        drawn = [line.split('points="')[1].split('"')[0]
                 for line in path.read_text().splitlines()
                 if line.startswith("<polyline")]
        assert drawn == expected

    def test_deterministic_output(self, tmp_path):
        t = np.linspace(0, 1, 30)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg([Series("s", t, t ** 2)], p1)
        render_svg([Series("s", t, t ** 2)], p2)
        assert p1.read_bytes() == p2.read_bytes()

#: a process that runs fig3_4 through the helper, prints the helper's pid
#: and leaves with os._exit, which runs no exit hook
_PARENT_EXITS = """
import os
import sys
sys.path[:0] = {paths!r}
os.sched_getaffinity = lambda pid: {{0, 1}}
from surgekit import cli, csvio
cli.main(["simulate", "--scenario", "fig3_4", "--csv", {csv!r}])
print("helper", csvio._helper.pid, flush=True)
os._exit(0)
"""


class TestRewrite:
    """An output file written over an older one is rewritten in place and
    cut to the new text's length: the bytes of a write to a new path, the
    old file's inode, links and mode, and no old byte after the text."""

    @staticmethod
    def _over_longer(path, write):
        """Check that ``write(path)`` over a file longer than its text
        leaves what it writes to a new path."""
        fresh = path.with_name("fresh-" + path.name)
        write(fresh)
        expected = fresh.read_bytes()
        path.write_bytes(b"x" * (2 * len(expected) + 5000))
        write(path)
        assert path.read_bytes() == expected

    def test_rows(self, tmp_path):
        self._over_longer(tmp_path / "rows.csv", lambda path: write_rows(
            ("a", "b", "cls"), [(1.0, 2.5, "stable"), (-0.0, 1e300, "x")],
            path))

    def test_trajectory_in_process(self, tmp_path):
        self._over_longer(tmp_path / "traj.csv",
                          lambda path: write_trajectory(small_traj(3000), path,
                                                        decimate=7))

    def test_trajectory_through_the_helper(self, tmp_path, capsys, forks,
                                           monkeypatch):
        # the text is copied from the helper's memory file; none of the
        # rows is formatted here
        formatted = []
        format_rows = csvio._format_rows
        monkeypatch.setattr(csvio, "_format_rows", lambda samples: (
            formatted.append(len(samples)) or format_rows(samples)))

        def write(path):
            code, _, err = _run_cli(capsys, "simulate", "--scenario",
                                    "fig3_4", "--t-end", "25", "--csv",
                                    str(path))
            assert (code, err) == (0, "")

        self._over_longer(tmp_path / "run.csv", write)
        assert forks.handed == [True, True]
        assert formatted == []

    def test_svg(self, tmp_path):
        t = np.linspace(0, 1, 30)
        self._over_longer(tmp_path / "plot.svg", lambda path: render_svg(
            [Series("s", t, t ** 2)], path, title="rewritten"))

    def test_keeps_inode_links_and_mode(self, tmp_path):
        path, link = tmp_path / "rows.csv", tmp_path / "link.csv"
        path.write_text("old,text\n" * 100)
        path.chmod(0o640)
        os.link(path, link)
        before = path.stat()
        write_rows(("a",), [(1.0,)], path)
        after = path.stat()
        assert (after.st_ino, after.st_nlink) == (before.st_ino, 2)
        assert after.st_mode & 0o7777 == 0o640
        assert link.read_bytes() == b"a\n1\n"

    def test_new_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o027)
        try:
            write_rows(("a",), [(1.0,)], tmp_path / "rows.csv")
        finally:
            os.umask(umask)
        assert (tmp_path / "rows.csv").stat().st_mode & 0o7777 == 0o640

    def test_failed_write_leaves_a_prefix_of_the_new_text(self, tmp_path):
        # a write that raises cuts the file at what it wrote: no byte of
        # the longer old file follows
        path = tmp_path / "rows.csv"
        path.write_text("old,text\n" * 1000)

        def chunks():
            yield "a,b\n"
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left on device"):
            csvio._write_text(path, chunks())
        assert path.read_bytes() == b"a,b\n"


_TWO_CPUS = pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                               or len(os.sched_getaffinity(0)) < 2,
                               reason="needs two CPUs")


def _in_thread(cpus, target):
    """Call ``target`` in a worker thread confined to ``cpus``, while this
    thread waits confined to the allowed CPU furthest from them."""
    allowed = os.sched_getaffinity(0)
    errors = []

    def run():
        try:
            os.sched_setaffinity(0, cpus)
            target()
        except BaseException as err:   # reported below
            errors.append(err)

    os.sched_setaffinity(0, {max(allowed - {min(cpus)})})
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
    finally:
        os.sched_setaffinity(0, allowed)
    assert not thread.is_alive()
    assert errors == []


class TestHelperAffinity:
    """At each run handed to it, the helper process is restricted to the
    CPUs the run's thread may use other than the one it runs on."""

    @_TWO_CPUS
    def test_helper_runs_off_the_run_cpu(self, tmp_path, monkeypatch):
        allowed = os.sched_getaffinity(0)
        forks = _Forks(monkeypatch)
        for cpu in (max(allowed), min(allowed)):
            monkeypatch.setattr(csvio, "_current_cpu", lambda: cpu)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--scenario", "fig7", "--out-dir",
                             str(tmp_path)]) == 0
            assert os.sched_getaffinity(csvio._helper.pid) == allowed - {cpu}
        assert forks.handed == [True, True]
        assert len(forks.pids) == 1

    @_TWO_CPUS
    def test_cpu_reader_reads_the_calling_thread(self):
        # a worker thread on one CPU while the main thread waits on
        # another: the CPU read is the worker's, not the main thread's
        run_cpu = min(os.sched_getaffinity(0))
        read = []
        _in_thread({run_cpu}, lambda: read.append(csvio._current_cpu()))
        assert read == [run_cpu]

    @_TWO_CPUS
    def test_run_from_a_thread(self, tmp_path, forks, monkeypatch):
        # runs made from a worker thread while the main thread waits on
        # another CPU, each handed to the helper: it is kept off the CPU
        # the worker read, and never confined to the worker's own CPU
        allowed = os.sched_getaffinity(0)
        run_cpu = min(allowed)
        read = []
        current_cpu = csvio._current_cpu
        monkeypatch.setattr(csvio, "_current_cpu", lambda: (
            read.append(current_cpu()) or read[-1]))

        def simulate():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--scenario", "fig7", "--out-dir",
                             str(tmp_path)]) == 0

        simulate()
        # the worker may use every allowed CPU: the helper gets the others
        os.sched_setaffinity(csvio._helper.pid, allowed)
        _in_thread(allowed, simulate)
        assert os.sched_getaffinity(csvio._helper.pid) == allowed - {read[-1]}
        # the worker may use its CPU alone: the helper stays as it was
        os.sched_setaffinity(csvio._helper.pid, allowed)
        _in_thread({run_cpu}, simulate)
        assert read[-1] == run_cpu
        assert os.sched_getaffinity(csvio._helper.pid) == allowed
        assert forks.handed == [True, True, True]
        assert len(forks.pids) <= 1

    @pytest.mark.parametrize("missing", ["stat-file", "setaffinity",
                                         "second-cpu"])
    def test_pin_skipped_silently(self, tmp_path, capsys, forks, monkeypatch,
                                  missing):
        # no /proc/thread-self/stat, no os.sched_setaffinity, or no CPU
        # but the run's: the helper stays where it is, with the same bytes
        # and messages
        csv = tmp_path / "run.csv"
        argv = ["simulate", "--scenario", "fig7", "--csv", str(csv)]
        forks.pays = False
        expected = _run_cli(capsys, *argv), csv.read_bytes()
        forks.pays = True
        pinned = []
        if missing == "stat-file":
            def no_stat_file():
                raise FileNotFoundError(2, "No such file or directory")
            monkeypatch.setattr(csvio, "_current_cpu", no_stat_file)
        elif missing == "setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                                raising=False)
            monkeypatch.setattr(csvio, "_current_cpu", lambda: 0)
            monkeypatch.setattr(os, "sched_setaffinity",
                                lambda *args: pinned.append(args),
                                raising=False)
        assert (_run_cli(capsys, *argv), csv.read_bytes()) == expected
        assert forks.handed == [False, True]
        assert pinned == []
