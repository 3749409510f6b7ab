"""Command-line behavior: subcommands, scenario catalog, exit codes."""

import argparse
import ast
import hashlib
import importlib
import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from support import integrate, key_sample, load_one_key, scenario_diff

from surgekit import __version__, cli
from surgekit.cli import _apply_overrides, _read_step_csv, build_parser, main
from surgekit.errors import AnalysisError
from surgekit.loop import CONTROLLER_KINDS
from surgekit.scenario import KNOWN_KEYS, Scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=None,
                         encoding="utf-8")
    return header, data


class TestStability:
    def test_scan_and_summary(self, tmp_path, capsys):
        code, out, _ = run(capsys, "stability", "--lo", "0.1", "--hi", "0.79",
                           "--n", "1000", "--out-dir", str(tmp_path))
        assert code == 0
        assert "surge boundary phi* = 0.43" in out
        header, _ = read_csv(tmp_path / "stability.csv")
        assert header == ["phi", "delta", "real_part", "bendixson_r", "class"]

    def test_boundary_value_in_window(self, tmp_path, capsys):
        code, out, _ = run(capsys, "stability", "--out-dir", str(tmp_path))
        value = float(out.split("phi* = ")[1].split()[0])
        assert 0.42 <= value <= 0.44

    def test_default_range_summary(self, tmp_path, capsys):
        code, out, err = run(capsys, "stability", "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert out == (
            f"stability scan: 1000 points on [0.1, 0.79] -> "
            f"{tmp_path / 'stability.csv'}\n"
            "surge boundary phi* = 0.434977715 "
            "(unstable focus below, stable focus above)\n")

    @pytest.mark.parametrize("lo, hi, cls", [
        ("0.5", "0.7", "stable-focus"), ("0.1", "0.3", "unstable-focus")],
        ids=["stable-only", "unstable-only"])
    def test_range_without_boundary(self, tmp_path, capsys, lo, hi, cls):
        # the scan is complete: its CSV and figure are kept, and the
        # summary says the range holds no boundary
        csv, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        code, out, err = run(capsys, "stability", "--lo", lo, "--hi", hi,
                             "--csv", str(csv), "--svg", str(svg))
        assert (code, err) == (0, "")
        assert out == (
            f"stability scan: 1000 points on [{lo}, {hi}] -> {csv}\n"
            f"no surge boundary on [{lo}, {hi}]: 1000 of 1000 points "
            f"{cls}\n"
            f"figure -> {svg}\n")
        _, data = read_csv(csv)
        assert len(data) == 1000
        assert {row[4] for row in data} == {cls}
        assert svg.read_text().startswith("<svg")

    def test_mixed_class_summary(self, tmp_path, capsys):
        # a range that starts on the boundary has two classes and no sign
        # change: the summary counts each class, in the order the scan
        # first meets it
        csv = tmp_path / "scan.csv"
        code, out, err = run(capsys, "stability", "--lo", "0.434977715135924",
                             "--hi", "0.6", "--n", "50", "--csv", str(csv))
        assert (code, err) == (0, "")
        assert out == (
            f"stability scan: 50 points on [0.434978, 0.6] -> {csv}\n"
            "no surge boundary on [0.434978, 0.6]: 1 of 50 points "
            "boundary, 49 of 50 points stable-focus\n")
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "b3fa8f30dd4c5192eb932a5bd58f6a046419110ac2b6cbf2b1510c005eab60b6")

    def test_boundary_bisects_the_written_scan(self, tmp_path, capsys):
        # the boundary bisects the rightmost sign change of the five points
        # the scan writes.  A 1,000-point grid on this map meets real
        # eigenvalues at phi = 0.7105705705705706, which these five foci
        # step over
        scn = tmp_path / "st.scn"
        scn.write_text("[run]\nname = st\nkind = stability\n"
                       "[map]\nh = 0.25\n[stability]\nn = 5\n")
        csv, svg = tmp_path / "st.csv", tmp_path / "st.svg"
        code, out, err = run(capsys, "stability", "--scenario", str(scn),
                             "--csv", str(csv), "--svg", str(svg))
        assert (code, err) == (0, "")
        assert out == (
            f"stability scan: 5 points on [0.1, 0.79] -> {csv}\n"
            "surge boundary phi* = 0.461409434 "
            "(unstable focus below, stable focus above)\n"
            f"figure -> {svg}\n")
        _, data = read_csv(csv)
        assert len(data) == 5
        assert svg.read_text().startswith("<svg")

    def test_boundary_check_skipped(self, tmp_path, capsys, monkeypatch):
        # a boundary the analysis cannot place is named in one line; the
        # scan's files are written and the command succeeds
        def no_boundary(cmap, scan):
            raise AnalysisError("no bisection")

        monkeypatch.setattr(cli, "surge_boundary", no_boundary)
        csv, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        code, out, err = run(capsys, "stability", "--csv", str(csv),
                             "--svg", str(svg))
        assert (code, err) == (0, "")
        assert out == (
            f"stability scan: 1000 points on [0.1, 0.79] -> {csv}\n"
            "surge boundary check skipped: no bisection\n"
            f"figure -> {svg}\n")
        _, data = read_csv(csv)
        assert len(data) == 1000
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("n", [2, 5, 31, 999, 1001, 3000])
    def test_boundary_whatever_the_n(self, tmp_path, capsys, n):
        # the boundary is bisected on the scan written, of any size: on
        # the shipped map it prints as the default 1,000-point scan's
        code, out, err = run(capsys, "stability", "--n", str(n),
                             "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == (
            "surge boundary phi* = 0.434977715 "
            "(unstable focus below, stable focus above)")


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark, as one saved as
    "CSV UTF-8" does, reads as the same file without it."""

    # a step response through two equal lags of time constant 2
    STEP = "t,y\n" + "".join(
        f"{t!r},{1.0 - (1.0 + t / 2.0) * math.exp(-t / 2.0)!r}\n"
        for t in (0.25 * i for i in range(121)))

    @pytest.mark.parametrize("name, text, flags", [
        ("bom.scn", "[run]\nkind = stability\n[stability]\nn = 5\n",
         ["stability", "--scenario"]),
        ("bom.scn", "run.kind = stability\nstability.n = 5\n",
         ["stability", "--scenario"]),
        ("bom.csv", STEP, ["tune", "--step-csv"]),
    ], ids=["scenario-section", "scenario-key", "step-csv"])
    def test_same_output_as_without(self, tmp_path, capsys, name, text,
                                    flags):
        path, out_dir = tmp_path / name, tmp_path / "out"
        out_dir.mkdir()
        results = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + text.encode())
            code, out, err = run(capsys, *flags, str(path),
                                 "--out-dir", str(out_dir))
            results.append((code, out, err, {
                f.name: f.read_bytes() for f in out_dir.iterdir()}))
        assert results[0][0] == 0 and results[0][2] == ""
        assert results[0][3]
        assert results[1] == results[0]


class TestParserBuiltOnce:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_a_parse_leaves_nothing_for_the_next(self, tmp_path, capsys):
        # --observe's default is not left set by the call that gave it
        observed, plain = tmp_path / "observed.csv", tmp_path / "plain.csv"
        for csv, flags in ((observed, ["--observe"]), (plain, [])):
            code, _, err = run(capsys, "closedloop", *flags, "--t-end", "1",
                               "--csv", str(csv))
            assert (code, err) == (0, "")
        assert observed.read_text().split("\n")[0].endswith(",phi,psi")
        assert plain.read_text().split("\n")[0] == \
            "t,d,u,x,co,y,ym,e,k1,k2,k3"
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(["--version"])
            assert stop.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n" * 2

    def test_commands_call_the_module_globals(self, tmp_path, capsys,
                                              monkeypatch):
        # a function rebound on the module after the parser was built is
        # the one the command calls, as a tracer that wraps it needs
        build_parser()
        calls = []
        render = cli.render_svg
        monkeypatch.setattr(cli, "render_svg",
                            lambda *args, **kw: calls.append(args[1])
                            or render(*args, **kw))
        svg = tmp_path / "map.svg"
        code, _, _ = run(capsys, "map", "--out-dir", str(tmp_path),
                         "--svg", str(svg))
        assert (code, calls) == (0, [str(svg)])


class TestTune:
    def test_reference_constants(self, tmp_path, capsys):
        code, out, _ = run(capsys, "tune", "--L", "0.213", "--T", "1.79",
                           "--rule", "PID", "--out-dir", str(tmp_path))
        assert code == 0
        assert "kp = 10.0845" in out
        assert "ki = 23.6726" in out
        assert "kd = 1.074" in out

    def test_scenario_file(self, tmp_path, capsys):
        code, out, _ = run(capsys, "tune", "--scenario", "zn",
                           "--out-dir", str(tmp_path))
        assert code == 0 and "kp = 10.0845" in out

    def test_p_rule_writes_infinite_ti(self, tmp_path, capsys):
        # the P rule has no integral term, so its ti is infinite by
        # design, also at a dead time where the PI and PID ti overflow
        code, out, _ = run(capsys, "tune", "--scenario", "zn", "--rule", "P",
                           "--L", "1e308", "--T", "1", "--out-dir",
                           str(tmp_path))
        assert code == 0
        assert out.startswith("rule P: kp = 1e-308, ti = inf, td = 0, ki = 0")
        assert ((tmp_path / "zn.csv").read_text().splitlines()[1]
                == "1e+308,1,P,1e-308,inf,0,0,0")

    def test_from_step_csv(self, tmp_path, capsys):
        # S-shaped two-lag step response written the same way the other
        # subcommands write trajectories
        from surgekit.csvio import write_trajectory

        def rhs(t, s):
            return np.array([s[1], (1.0 - s[0] - 3.0 * s[1]) / 2.0])
        traj = integrate(rhs, [0.0, 0.0], 1e-3, 25.0, ("y", "ydot"))
        write_trajectory(traj, tmp_path / "step.csv")
        code, out, _ = run(capsys, "tune", "--step-csv",
                           str(tmp_path / "step.csv"), "--signal", "y",
                           "--final", "1.0", "--out-dir", str(tmp_path))
        assert code == 0
        assert "tangent fit" in out
        assert "L = 0.386" in out and "T = 4\n" in out
        assert "kp = " in out

    @pytest.mark.parametrize("signal, values", [
        ("y out", "0,0.5,1"), ("z-1", "1,1.5,2")])
    def test_step_csv_header_names_read_as_written(self, tmp_path, capsys,
                                                   signal, values):
        # a name with a blank or a dash is the column's name, as written
        path = tmp_path / "step.csv"
        path.write_text("t,y out,z-1\n" + "".join(
            f"{t},{y},{z}\n" for t, y, z in zip(range(3), (0, 0.5, 1),
                                                (1, 1.5, 2))))
        traj, fitted = _read_step_csv(path, signal)
        assert fitted == signal and traj.columns == ["t", "y out", "z-1"]
        assert ",".join(f"{v:g}" for v in traj.column(signal)) == values
        code, out, err = run(capsys, "tune", "--step-csv", str(path),
                             f"--signal={signal}", "--out-dir",
                             str(tmp_path))
        assert code == 0 and err == ""
        assert out.startswith(f"tangent fit of {signal!r}: L = ")

    @pytest.mark.parametrize("text,complaint,signal", [
        ("t,y\n0,0.1\n", "at least 3 rows", None),
        ("time,y\n0,0\n1,0.5\n2,1\n", "no 't' column", None),
        ("t,y\n0,0\n1,0.5\n0.5,0.7\n2,1\n", "strictly increasing", None),
        ("t,y\n0,0\n1,0.5\n3,0.7\n4,1\n", "uniform", None),
        ("t,y\n0,0\n1,nan\n2,1\n", "column 'y' holds a non-finite", None),
        ("t,y\n0,0\n1,abc\n2,1\n", "column 'y' holds a non-finite", None),
        ("t,y\n0,0\ninf,0.5\n2,1\n", "must be finite", None),
        ("t\n0\n1\n2\n", "no column besides 't'", None),
        ("", "Empty input file", None),
        ("t,y\n0,0,1\n1,0.5\n2,1\n", "got 3 columns instead of 2", None),
        ("t,y\n0,0\n1,0.5\n2,1\n",
         "--signal 'zz' names no signal column; have ['y']", "zz"),
        ("t,y\n0,0\n1,0.5\n2,1\n",
         "--signal 't' names no signal column; have ['y']", "t"),
        ("t,y,y\n0,0,1\n1,0.5,2\n2,1,3\n",
         "header names must be unique and nonempty, got ['t', 'y', 'y']",
         None),
        ("t,,z\n0,0,1\n1,0.5,2\n2,1,3\n",
         "header names must be unique and nonempty, got ['t', '', 'z']",
         None),
        ("t,y out,z-1\n0,0,1\n1,0.5,2\n2,1,3\n",
         "--signal 'y_out' names no signal column; have ['y out', 'z-1']",
         "y_out"),
    ], ids=["one-row", "no-t", "non-monotonic", "non-uniform", "nan",
            "unparseable", "infinite-t", "t-only", "empty", "ragged",
            "unknown-signal", "time-as-signal", "duplicate-name",
            "empty-name", "mangled-name"])
    def test_bad_step_csv_exits_three(self, tmp_path, capsys, text,
                                      complaint, signal):
        path = tmp_path / "step.csv"
        path.write_text(text)
        argv = ["tune", "--step-csv", str(path), "--out-dir", str(tmp_path)]
        if signal is not None:
            argv.append(f"--signal={signal}")
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert complaint in err
        assert len(err.splitlines()) == 1 and out == ""


class TestClosedLoop:
    def test_fig14_gains_never_move(self, tmp_path, capsys):
        code, out, _ = run(capsys, "closedloop", "--scenario", "fig14",
                           "--out-dir", str(tmp_path))
        assert code == 0
        header, _ = read_csv(tmp_path / "fig14.csv")
        cols = {name: i for i, name in enumerate(header)}
        raw = np.genfromtxt(tmp_path / "fig14.csv", delimiter=",",
                            skip_header=1)
        for name, init in (("k1", 10.0), ("k2", 10.0), ("k3", 0.7)):
            col = raw[:, cols[name]]
            assert np.all(col == init)
        assert "gain excursion 0" in out

    def test_fig10_summary(self, tmp_path, capsys):
        code, out, _ = run(capsys, "closedloop", "--scenario", "fig10",
                           "--out-dir", str(tmp_path), "--svg",
                           str(tmp_path / "y.svg"), "--svg-params",
                           str(tmp_path / "k.svg"))
        assert code == 0
        assert "terminal flow y = 0.54" in out
        assert "stayed above the surge boundary" in out
        assert (tmp_path / "y.svg").exists()
        assert (tmp_path / "k.svg").exists()

    def test_flag_overrides(self, tmp_path, capsys):
        code, out, _ = run(capsys, "closedloop", "--scenario", "fig10",
                           "--t-end", "2", "--gamma", "0.5",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "gamma = 0.5" in out

    @pytest.mark.parametrize("key, why", [
        ("h = 0.01", "eigenvalue real part does not change sign on "
                     "[0.1, 0.79]"),
        ("h = 2.0", "eigenvalues at phi=0.1 are real; real-part analysis "
                    "assumes a complex pair"),
        ("domain_hi = 0.5", "equilibrium flow must lie in (0.0, 0.5), got "
                            "0.5006006006006006"),
        ("psi0 = -0.5", "map value at phi=0.1 is -0.46256; need psi_c > 0")],
        ids=["no-sign-change", "real-eigenvalues", "short-domain",
             "negative-map"])
    def test_map_without_boundary(self, tmp_path, capsys, key, why):
        # the boundary is looked up after the run: a map on which it
        # cannot be placed skips the comparison, and the run's files are
        # those it writes on the shipped map, which the loop does not use
        outs = []
        for case, section in (("shipped", ""), ("odd", f"[map]\n{key}\n")):
            (tmp_path / case).mkdir()
            scn = tmp_path / case / "case.scn"
            scn.write_text("[run]\nname = case\nkind = closedloop\n"
                           f"t_end = 2\n{section}")
            code, out, err = run(capsys, "closedloop", "--scenario", str(scn),
                                 "--out-dir", str(tmp_path / case), "--svg",
                                 str(tmp_path / case / "case.svg"))
            assert (code, err) == (0, ""), case
            outs.append(out.replace(str(tmp_path / case), "DIR")
                        .splitlines())
        shipped, odd = outs
        assert shipped[-2].startswith("flow stayed above the surge boundary")
        assert odd == shipped[:-2] + [f"surge boundary check skipped: {why}",
                                      shipped[-1]]
        for name in ("case.csv", "case.svg"):
            assert (tmp_path / "odd" / name).read_bytes() == \
                (tmp_path / "shipped" / name).read_bytes()

    def test_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "closedloop", "--scenario", "fig10", "--t-end", "2",
            "--csv", str(a))
        run(capsys, "closedloop", "--scenario", "fig10", "--t-end", "2",
            "--csv", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestPlantCommands:
    def test_simulate_reports_steady_state(self, tmp_path, capsys):
        code, out, _ = run(capsys, "simulate", "--scenario", "fig7",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "steady state" in out
        assert "phi = 0.51" in out

    @pytest.mark.parametrize("flow", ["5e-7", "0.7999995", "0.79999999"])
    def test_flow_near_a_domain_end_runs(self, tmp_path, capsys, flow):
        # validation accepts a flow this near either end of the map's
        # domain, and the run starts on that flow's own equilibrium
        code, out, err = run(capsys, "simulate", "--scenario", "fig3_4",
                             "--flow", flow, "--t-end", "1",
                             "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert out.startswith("open-loop run: 101 samples")

    @pytest.mark.parametrize("g", ["1.9536483621135727", "8.4e-7"])
    def test_throttle_near_a_domain_end_runs(self, tmp_path, capsys, g):
        # these throttles hold the flows 0.7999995 and about 5e-7, inside
        # the map's domain but within 1e-6 of one of its ends
        code, out, err = run(capsys, "simulate", "--scenario", "fig3_4",
                             "--g", g, "--t-end", "1",
                             "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert out.startswith("open-loop run: 101 samples")

    def test_limit_cycle_detection(self, tmp_path, capsys):
        code, out, _ = run(capsys, "limit-cycle", "--scenario", "fig6",
                           "--svg", str(tmp_path / "orbit.svg"),
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "limit cycle detected" in out
        assert (tmp_path / "orbit.svg").exists()

    @pytest.mark.parametrize("flag", [
        "--ss-window=nan", "--ss-window=inf", "--ss-window=0",
        "--ss-window=-1", "--ss-tol=nan", "--ss-tol=inf", "--ss-tol=-1",
        "--t-end=0.001", "--t-end=0.02 --ss-window=0.001"])
    def test_bad_steady_state_flag_exits_three(self, tmp_path, capsys, flag):
        # nan made steady_state_of raise a ValueError, and a nan tolerance
        # let every run settle.  The window, at most half of t_end, must
        # span a step of fig7's dt = 0.01: the last two ran, then failed
        _assert_refused(capsys, tmp_path,
                        ["simulate", "--scenario", "fig7", *flag.split()])

    def test_stable_zone_reports_no_cycle(self, tmp_path, capsys):
        code, out, _ = run(capsys, "limit-cycle", "--flow", "0.55",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "no limit cycle" in out

    def test_map_table(self, tmp_path, capsys):
        code, out, _ = run(capsys, "map", "--out-dir", str(tmp_path))
        assert code == 0
        assert "peak pressure rise 0.712 at phi = 0.5" in out
        header, _ = read_csv(tmp_path / "map.csv")
        assert header == ["phi", "psi_c"]

    def test_out_dir_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SURGEKIT_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "map")
        assert code == 0
        assert (tmp_path / "map.csv").exists()

    def test_observe_appends_compressor_columns(self, tmp_path, capsys):
        code, _, _ = run(capsys, "closedloop", "--scenario", "fig10",
                         "--t-end", "2", "--observe",
                         "--out-dir", str(tmp_path))
        assert code == 0
        header, _ = read_csv(tmp_path / "fig10.csv")
        assert header == ["t", "d", "u", "x", "co", "y", "ym", "e",
                          "k1", "k2", "k3", "phi", "psi"]


class TestAveraging:
    def test_grid_report(self, tmp_path, capsys):
        code, out, _ = run(capsys, "averaging", "--scenario", "avg",
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "100/100 points stable" in out
        assert "numeric eigensolve" in out
        header, _ = read_csv(tmp_path / "avg.csv")
        assert header == ["k1", "k2", "k3", "gamma", "r",
                          "lam1", "lam2", "lam3", "verdict"]


class TestShippedCatalogRuns:
    @pytest.mark.parametrize("name,command", [
        ("fig3_4", "simulate"), ("fig6", "limit-cycle"),
        ("fig7", "simulate"), ("fig10", "closedloop"),
        ("fig12", "closedloop"), ("fig14", "closedloop"),
        ("fig15", "closedloop"), ("zn", "tune"), ("avg", "averaging"),
    ])
    def test_every_scenario_exits_zero(self, tmp_path, capsys, name, command):
        code, _, err = run(capsys, command, "--scenario", name,
                           "--out-dir", str(tmp_path))
        assert code == 0, err

    def test_scenarios_listing(self, capsys):
        code, out, _ = run(capsys, "scenarios")
        assert code == 0
        assert "fig10" in out and "avg" in out


class TestRunSummaries:
    """The whole stdout of each run command with its figures, the output
    directory written as DIR."""

    @pytest.mark.parametrize("argv, expected", [
        (["simulate", "--scenario", "fig3_4", "--svg", "DIR/fig3_4.svg"],
         "open-loop run: 10001 samples, dt=0.01 -> DIR/fig3_4.csv\n"
         "final state phi = 0.629959, psi = 0.635996\n"
         "no steady state within tol 0.001 over the final 5 time units\n"
         "figure -> DIR/fig3_4.svg\n"),
        (["limit-cycle", "--scenario", "fig6", "--svg", "DIR/fig6.svg"],
         "run: 10001 samples, dt=0.01 -> DIR/fig6.csv\n"
         "limit cycle detected: amplitude phi = 0.535145, amplitude psi = "
         "0.674802, period = 7.245, cycles analyzed = 6\n"
         "figure -> DIR/fig6.svg\n"),
        (["closedloop", "--scenario", "fig10", "--t-end", "5", "--svg",
          "DIR/y.svg", "--svg-params", "DIR/k.svg"],
         "closed-loop run (adaptive, gamma = 1): 5001 samples, dt=0.001 "
         "-> DIR/fig10.csv\n"
         "terminal flow y = 0.536257 (set point 0.55, error 0.0137)\n"
         "valve flow range [0.05, 0.185247], gain excursion 0.0485532\n"
         "flow stayed above the surge boundary 0.435 (min y = 0.525327)\n"
         "figure -> DIR/y.svg\n"
         "figure -> DIR/k.svg\n")],
        ids=["simulate", "limit-cycle", "closedloop"])
    def test_stdout_is_pinned(self, tmp_path, capsys, argv, expected):
        argv = [arg.replace("DIR", str(tmp_path)) for arg in argv]
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        assert out.replace(str(tmp_path), "DIR") == expected

    @pytest.mark.parametrize("argv, record_calls", [
        (["simulate", "--scenario", "fig3_4", "--t-end", "25"],
         ["steady_state_of", "render_svg"]),
        (["limit-cycle", "--scenario", "fig6", "--t-end", "25"],
         ["detect_limit_cycle", "render_svg"]),
        (["closedloop", "--scenario", "fig10", "--t-end", "2",
          "--svg-params", "DIR/k.svg"],
         ["surge_boundary", "gain_excursion", "render_svg", "render_svg"])],
        ids=["simulate", "limit-cycle", "closedloop"])
    def test_record_read_before_the_write(self, tmp_path, capsys,
                                          monkeypatch, argv, record_calls):
        # everything read off the finished record, figures included, is
        # made before the CSV waits for the helper's text; the lines are
        # printed after the write, through the names the command imports
        log = []

        def logged(name, fn):
            return lambda *args, **kw: log.append(name) or fn(*args, **kw)

        for name in ("steady_state_of", "detect_limit_cycle",
                     "surge_boundary", "gain_excursion", "render_svg",
                     "write_trajectory"):
            monkeypatch.setattr(cli, name, logged(name, getattr(cli, name)))
        monkeypatch.setattr(cli, "print", lambda *args, **kw: (
            log.append(("print", *args)), print(*args, **kw)), raising=False)
        argv = [arg.replace("DIR", str(tmp_path)) for arg in argv]
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path),
                             "--svg", str(tmp_path / "f.svg"))
        assert (code, err) == (0, "")
        assert log == record_calls + ["write_trajectory"] + [
            ("print", line) for line in out.splitlines()]
        assert out.count("\nfigure -> ") == record_calls.count("render_svg")

    def test_unwritable_svg_exits_five_before_the_csv(self, tmp_path,
                                                      capsys):
        # the figure is written before the CSV: a figure path that names
        # a directory ends the run there, with no CSV and no summary
        svg = tmp_path / "figure.svg"
        svg.mkdir()
        code, out, err = run(capsys, "simulate", "--scenario", "fig3_4",
                             "--out-dir", str(tmp_path), "--svg", str(svg))
        assert (code, out) == (5, "")
        assert err == f"error: [Errno 21] Is a directory: '{svg}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["figure.svg"]
        assert list(svg.iterdir()) == []

    def test_unwritable_csv_exits_five_after_the_svg(self, tmp_path,
                                                     capsys):
        # a CSV path that cannot be created ends the run once the figure
        # is on disk, with no summary
        (tmp_path / "afile").write_text("")
        svg = tmp_path / "figure.svg"
        code, out, err = run(capsys, "simulate", "--scenario", "fig3_4",
                             "--csv", str(tmp_path / "afile" / "run.csv"),
                             "--svg", str(svg))
        assert (code, out) == (5, "")
        assert err == (f"error: [Errno 17] File exists: "
                       f"'{tmp_path / 'afile'}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile",
                                                              "figure.svg"]
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "d86a6e6fd11f3ac598e069b5025ef28b7fcf595a8c4b79ab0ee79ee769f9e79c")


class TestExitCodes:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command",
                             ["map", "stability", "tune", "averaging"])
    def test_decimation_flag_only_where_a_run_is_recorded(self, capsys,
                                                          command):
        # these subcommands write no trajectory, so they have no flag that
        # would thin one
        with pytest.raises(SystemExit) as exc:
            main([command, "--decimation", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --decimation 2" in \
            capsys.readouterr().err

    def test_decimation_key_still_loads_for_any_kind(self, tmp_path, capsys):
        # run.decimation stays a scenario key for every kind
        scn = tmp_path / "table.scn"
        scn.write_text("[run]\nkind = map\ndecimation = 2\n")
        code, out, err = run(capsys, "map", "--scenario", str(scn),
                             "--csv", str(tmp_path / "a.csv"))
        assert (code, err) == (0, "")
        code, _, _ = run(capsys, "map", "--csv", str(tmp_path / "b.csv"))
        assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_invalid_config_exits_three(self, tmp_path, capsys):
        code, _, err = run(capsys, "closedloop", "--scenario", "fig10",
                           "--gamma", "-1", "--out-dir", str(tmp_path))
        assert code == 3
        assert "gamma" in err

    def test_kind_mismatch_exits_three(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--scenario", "fig10",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "kind" in err

    def test_model_error_exits_four(self, tmp_path, capsys):
        # reversed flow drains the plenum: pressure collapses mid-run
        code, _, err = run(capsys, "simulate", "--flow", "0.4", "--phi0",
                           "-0.5", "--psi0", "0.01", "--out-dir",
                           str(tmp_path))
        assert code == 4
        assert "pressure" in err

    def test_unallocatable_run_exits_four(self, tmp_path, capsys):
        # 1e303 rows: refused before anything is allocated
        code, out, err = run(capsys, "closedloop", "--t-end", "1e300",
                             "--out-dir", str(tmp_path))
        assert code == 4
        assert "cannot allocate" in err and "bytes" in err
        assert len(err.splitlines()) == 1 and out == ""

    @pytest.mark.parametrize("flag", ["--dinit", "--dtau", "--target",
                                      "--gamma"])
    def test_nonfinite_config_exits_three(self, tmp_path, capsys, flag):
        code, out, err = run(capsys, "closedloop", flag, "inf",
                             "--out-dir", str(tmp_path))
        assert code == 3 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (["closedloop", "--dt", "1e200", "--t-end", "1e201"],
         "error: non-finite loop state near t=0: x, d, v2, v3\n"),
        (["simulate", "--scenario", "fig7", "--dt", "1e200", "--t-end",
          "1e201"],
         "error: plenum pressure reached zero near t=0 "
         "(surge model breakdown)\n"),
        (["map", "--hi", "1e300"], "error: map value at phi = 5e+297 is "
         "-inf; the range leaves the map's float range\n"),
        (["averaging", "--scenario", "avg", "--avg-r", "1e300"],
         "error: averaged Jacobian is not finite at AveragedPoint(k1=0.1, "
         "k2=0.1, k3=0.7, r=1e+300, gamma=1.0)\n"),
        (["tune", "--L", "1e-300", "--T", "1e300"],
         "error: rule PID at L = 1e-300, T = 1e+300 gives gains past the "
         "float range: kp = inf, ti = 2e-300, ki = inf, kd = inf, "
         "td = 5e-301\n"),
        (["tune", "--rule", "PI", "--L", "1e-300", "--T", "1e300"],
         "error: rule PI at L = 1e-300, T = 1e+300 gives gains past the "
         "float range: kp = inf, ti = 3.33333e-300, ki = inf, kd = nan, "
         "td = 0\n"),
        # ti itself overflows, and ki = kp / ti reads 0
        (["tune", "--scenario", "zn", "--rule", "PID", "--L", "1e308", "--T",
          "1"],
         "error: rule PID at L = 1e+308, T = 1 gives gains past the float "
         "range: kp = 1.2e-308, ti = inf, ki = 0, kd = 0.6, td = 5e+307\n"),
        (["tune", "--scenario", "zn", "--rule", "PI", "--L", "6e307", "--T",
          "1"],
         "error: rule PI at L = 6e+307, T = 1 gives gains past the float "
         "range: kp = 1.5e-308, ti = inf, ki = 0, kd = 0, td = 0\n"),
    ])
    def test_overflow_exits_four_without_warnings(self, tmp_path, capsys,
                                                  argv, message):
        # the kernels report an overflow through their status alone; the
        # map and the averaged Jacobian overflow on Python floats and are
        # refused.  One line, no warning and no CSV
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 4 and out == "" and err == message
        assert [str(w.message) for w in caught] == []
        assert list(tmp_path.iterdir()) == []

    def test_observed_breakdown_exits_four(self, tmp_path, capsys):
        # the observed compressor breaks down mid-run: one line, no CSV
        code, out, err = run(capsys, "closedloop", "--observe", "--target",
                             "1.0", "--t-end", "5", "--out-dir",
                             str(tmp_path))
        assert code == 4 and out == ""
        assert err == ("error: observed compressor model broke down "
                       "(psi or psi_c <= 0) near t=0.854\n")
        assert list(tmp_path.iterdir()) == []

    def test_observed_start_overflowing_the_map_exits_four(self, tmp_path,
                                                           capsys):
        # a huge finite flow overflows the map at the observed start: one
        # line, no warning, no CSV
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "closedloop", "--observe",
                                 "--dinit=1e300", "--out-dir", str(tmp_path))
        assert code == 4 and out == ""
        assert err == ("error: map value at observed flow 1e+300 is -inf; "
                       "cannot observe\n")
        assert [str(w.message) for w in caught] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["averaging", "--scenario", "avg", "--avg-gamma", "inf"],
        ["simulate", "--scenario", "fig7", "--g", "inf"],
        ["map", "--lo=-inf", "--hi", "0.5"],
        ["stability", "--lo=-1e308", "--hi=1e308"],
    ], ids=["averaging-gamma", "simulate-g", "map-lo", "stability-span"])
    def test_nonfinite_input_exits_three(self, tmp_path, capsys, argv):
        # over a shipped scenario, map's own range flags, and a stability
        # range whose span hi - lo is past the float range; the other
        # float flags are TestOverrideFlags' cases
        _assert_refused(capsys, tmp_path, argv)

    @pytest.mark.parametrize("argv, err", [
        (["stability", "--n", str(10**18)],
         f"a scan of {10**18} points is too large to hold"),
        (["averaging", "--scenario", "avg", "--grid-n", str(10**18)],
         f"an averaging grid of {10**18} x {10**18} points is too large "
         "to hold"),
    ], ids=["stability", "averaging"])
    def test_table_too_large_exits_four(self, tmp_path, capsys, argv, err):
        code, out, stderr = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert (code, out, stderr) == (4, "", f"error: {err}\n")
        assert list(tmp_path.iterdir()) == []

    def test_empty_section_header_exits_three(self, tmp_path, capsys):
        path = tmp_path / "f.scn"
        path.write_text("# map\n[ ]\nname = m\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        _assert_refused(capsys, out_dir, ["map", "--scenario", str(path)])
        _, _, err = run(capsys, "map", "--scenario", str(path),
                        "--out-dir", str(out_dir))
        assert err == "error: line 2: empty section header\n"

    def test_empty_run_name_exits_three(self, tmp_path, capsys):
        # an empty name would write the hidden file ".csv"
        path = tmp_path / "f.scn"
        path.write_text("[run]\nname =\nkind = map\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        _assert_refused(capsys, out_dir, ["map", "--scenario", str(path)])

    @pytest.mark.parametrize("text", [b"[run]\nname = caf\xe9\n",
                                      b"\xff\xfe[\x00r\x00u\x00n\x00]\x00"],
                             ids=["latin-1", "utf-16"])
    def test_scenario_not_utf8_exits_three(self, tmp_path, capsys, text):
        # a scenario file is read as UTF-8; other bytes are refused in one
        # line that names the file, as a step CSV's are
        path = tmp_path / "x.scn"
        path.write_bytes(text)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        _assert_refused(capsys, out_dir, ["closedloop", "--scenario",
                                          str(path), "--t-end", "0.1"])
        _, _, err = run(capsys, "closedloop", "--scenario", str(path),
                        "--out-dir", str(out_dir))
        assert err.startswith(f"error: scenario file {path}: 'utf-8' codec "
                              "can't decode byte 0x")

    @pytest.mark.parametrize("name", ["../escaped", "sub/inner", ".hidden"])
    def test_run_name_outside_out_dir_exits_three(self, tmp_path, capsys,
                                                  name):
        # the name is joined to --out-dir: "../escaped" wrote beside it,
        # and ".hidden" a hidden file in it
        path = tmp_path / "f.scn"
        path.write_text(f"[run]\nname = {name}\nkind = map\n")
        out_dir = tmp_path / "out" / "a"
        out_dir.mkdir(parents=True)
        _assert_refused(capsys, out_dir, ["map", "--scenario", str(path)])
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "a", "f.scn", "out"]

    def test_scenario_file_named_scn_writes_default_csv(self, tmp_path,
                                                        capsys):
        path = tmp_path / ".scn"
        path.write_text("[run]\nkind = map\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, _, err = run(capsys, "map", "--scenario", str(path),
                           "--out-dir", str(out_dir))
        assert (code, err) == (0, "")
        assert [p.name for p in out_dir.iterdir()] == ["default.csv"]

    def test_directory_does_not_shadow_catalog_entry(self, tmp_path, capsys,
                                                      monkeypatch):
        # a directory left by an earlier "--out-dir fig10" is not read as
        # the scenario file fig10
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig10").mkdir()
        code, _, err = run(capsys, "closedloop", "--scenario", "fig10",
                           "--t-end", "1", "--out-dir", "fig10")
        assert (code, err) == (0, "")
        assert [p.name for p in (tmp_path / "fig10").iterdir()] == [
            "fig10.csv"]

    def test_missing_scenario_exits_three(self, tmp_path, capsys):
        code, _, err = run(capsys, "closedloop", "--scenario", "figZZ",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "shipped" in err

    # zeros, extremes, ordinary values and any finite float
    _VALUES = (st.sampled_from([0.0, -0.0, 1e300, 1.7e308])
               | st.floats(0.0, 100.0)
               | st.floats(allow_nan=False, allow_infinity=False))
    # the same, or a negative one, an infinity or nan
    _ANY = _VALUES | st.sampled_from([-1.0, math.inf, -math.inf, math.nan])

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(CONTROLLER_KINDS),
           values=st.dictionaries(
               st.sampled_from(["kp", "ki", "kd", "k1", "k2", "k3", "gamma",
                                "reference", "target", "dinit"]), _VALUES),
           dt=st.floats(1e-4, 0.05), t_end=st.floats(1e-6, 0.05),
           observe=st.booleans(), decimation=st.integers(0, 600))
    # a run of one row, whose terminal error in the summary overflows
    @example(kind="fixed-pd",
             values={"dinit": 1.7e308, "reference": -9.769313486231587e306},
             dt=0.046875, t_end=0.03125, observe=False, decimation=1)
    def test_fuzzed_closedloop_exits_cleanly(self, tmp_path, capsys, kind,
                                             values, dt, t_end, observe,
                                             decimation):
        # a short closed-loop run from any flags ends in 0, 3 or 4, with
        # at most one error line and no warning
        argv = ["closedloop", "--controller", kind, f"--dt={dt!r}",
                f"--t-end={t_end!r}", f"--decimation={decimation}",
                "--out-dir", str(tmp_path)]
        argv += [f"--{flag}={value!r}" for flag, value in values.items()]
        if observe:
            argv.append("--observe")
        _assert_clean_exit(capsys, argv)

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.dictionaries(st.sampled_from(["lo", "hi"]), _VALUES),
           n=st.none() | st.integers(-3, 300)
           | st.sampled_from([10**18, 2**63 - 1, 2**64]))
    @example(values={"hi": 1e300}, n=None)
    @example(values={"lo": -1.7976931348623157e+308}, n=7)
    def test_fuzzed_map_exits_cleanly(self, tmp_path, capsys, values, n):
        # any range and size, huge ones included: the map overflows to
        # inf in Python floats and is refused, and a table too large to
        # hold is refused before it is built
        argv = ["map", "--out-dir", str(tmp_path)]
        argv += [f"--{flag}={value!r}" for flag, value in values.items()]
        if n is not None:
            argv.append(f"--n={n}")
        _assert_clean_exit(capsys, argv)

    # sizes the tables cannot hold: 8e14 bytes and more, past the address
    # space, so they are refused without touching memory
    _HUGE = (st.integers(10**14, 10**18)
             | st.sampled_from([10**18, 2**63 - 1, 2**63, 2**64]))

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.dictionaries(st.sampled_from(["lo", "hi"]), _VALUES),
           n=st.none() | st.integers(-3, 40) | _HUGE)
    @example(values={}, n=10**18)
    def test_fuzzed_stability_exits_cleanly(self, tmp_path, capsys, values,
                                            n):
        # any flow range and point count: a scan too large to hold is
        # refused before it is built
        argv = ["stability", "--out-dir", str(tmp_path)]
        argv += [f"--{flag}={value!r}" for flag, value in values.items()]
        if n is not None:
            argv.append(f"--n={n}")
        _assert_clean_exit(capsys, argv)

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.dictionaries(
        st.sampled_from(["avg-k3", "avg-gamma", "avg-r", "k1-lo", "k1-hi",
                         "k2-lo", "k2-hi"]), _VALUES),
           n=st.integers(-1, 12) | st.integers(10**7, 10**18) | _HUGE)
    @example(values={"avg-r": 1e300}, n=10)
    @example(values={"k1-hi": 1.7976931348623157e+308}, n=10)
    @example(values={}, n=10**18)
    def test_fuzzed_averaging_exits_cleanly(self, tmp_path, capsys, values,
                                            n):
        # a huge gain, gamma or set point overflows the averaged Jacobian,
        # which is refused before the eigensolve; a grid of n*n >= 1e14
        # points, too large to hold, is refused before it is built
        argv = ["averaging", "--scenario", "avg", f"--grid-n={n}",
                "--out-dir", str(tmp_path)]
        argv += [f"--{flag}={value!r}" for flag, value in values.items()]
        _assert_clean_exit(capsys, argv)

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(window=st.none() | _ANY, tol=st.none() | _ANY,
           t_end=st.floats(1e-3, 2.0))
    @example(window=math.nan, tol=None, t_end=1.0)
    @example(window=None, tol=math.nan, t_end=1.0)
    @example(window=None, tol=-1.0, t_end=1.0)
    def test_fuzzed_simulate_exits_cleanly(self, tmp_path, capsys, window,
                                           tol, t_end):
        # any steady-state window and tolerance over a short run
        argv = ["simulate", "--scenario", "fig7", f"--t-end={t_end!r}",
                "--out-dir", str(tmp_path)]
        if window is not None:
            argv.append(f"--ss-window={window!r}")
        if tol is not None:
            argv.append(f"--ss-tol={tol!r}")
        _assert_clean_exit(capsys, argv)

    @settings(max_examples=60, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.dictionaries(
        st.sampled_from(["flow", "g", "perturb-phi", "perturb-psi",
                         "settle-fraction", "tol"]), _ANY),
           t_end=st.floats(1e-3, 2.0))
    def test_fuzzed_limit_cycle_exits_cleanly(self, tmp_path, capsys, values,
                                              t_end):
        # any plant start and detector setting over a short run
        argv = ["limit-cycle", "--scenario", "fig6", f"--t-end={t_end!r}",
                "--out-dir", str(tmp_path)]
        argv += [f"--{flag}={value!r}" for flag, value in values.items()]
        _assert_clean_exit(capsys, argv)

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.dictionaries(st.sampled_from(["L", "T"]), _ANY),
           rule=st.none() | st.sampled_from(["P", "PI", "PID"]))
    @example(values={"L": 1e-320, "T": 1e308}, rule=None)
    @example(values={"L": 1e-300, "T": 1e300}, rule="PI")
    @example(values={"L": 1e308}, rule=None)
    def test_fuzzed_tune_exits_cleanly(self, tmp_path, capsys, values, rule):
        # any dead time and time constant: gains past the float range are
        # refused, and only the P rule's ti (infinite by design) may be
        # written non-finite
        argv = ["tune", "--scenario", "zn", "--out-dir", str(tmp_path)]
        argv += [f"--{flag}={value!r}" for flag, value in values.items()]
        if rule is not None:
            argv.append(f"--rule={rule}")
        if _assert_clean_exit(capsys, argv) == 0:
            header, row = read_csv(tmp_path / "zn.csv")
            gains = dict(zip(header, row.tolist()))
            assert all(math.isfinite(gains[g])
                       for g in ("kp", "td", "ki", "kd")), argv
            assert math.isfinite(gains["ti"]) or gains["rule"] == "P", argv

    # a step-response field: any float, or a field that reads as nan
    _FIELDS = (_ANY.map(repr)
               | st.sampled_from(["", "abc", "1e999", "-1e999", "0x1"]))

    @settings(max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(t0=_ANY, dt=_ANY, ys=st.lists(_FIELDS, max_size=12),
           final=st.none() | _ANY,
           signal=st.none() | st.sampled_from(["y", "t", "zz", "Y"])
           | st.text(max_size=4))
    @example(t0=0.0, dt=1.0, ys=["0", "nan", "1", "1"], final=None,
             signal=None)
    @example(t0=0.0, dt=1.0, ys=["0", "0.2", "0.9", "1"], final=math.nan,
             signal=None)
    @example(t0=0.0, dt=1.0, ys=["0", "0.2", "0.9", "1"], final=None,
             signal="t")
    # times so close that np.gradient's spacing products underflow to 0
    @example(t0=6.338690196548449e-211, dt=6.338690196548449e-211,
             ys=["0.0", "0.0", "0.0"], final=None, signal=None)
    def test_fuzzed_tune_step_csv_exits_cleanly(self, tmp_path, capsys, t0,
                                                dt, ys, final, signal):
        # a written step response with any times and fields, any final
        # value and any column named to fit: each is refused or fitted,
        # and only the column y is fitted
        path = tmp_path / "step.csv"
        path.write_text("t,y\n" + "".join(
            f"{t0 + k * dt!r},{y}\n" for k, y in enumerate(ys)))
        argv = ["tune", "--step-csv", str(path), "--out-dir", str(tmp_path)]
        if final is not None:
            argv.append(f"--final={final!r}")
        if signal is not None:
            argv.append(f"--signal={signal}")
        code = _assert_clean_exit(capsys, argv)
        if signal not in ("y", "", None):
            assert code == 3, argv


def _assert_clean_exit(capsys, argv):
    """Exit 0, 3 or 4 with no warning, and one error line unless 0;
    returns the exit code."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, *argv)
    assert code in (0, 3, 4), argv
    assert [str(w.message) for w in caught] == [], argv
    if code == 0:
        assert err == "", argv
    else:
        assert err.startswith("error:"), argv
        assert len(err.splitlines()) == 1, argv
    return code


def _assert_refused(capsys, tmp_path, argv):
    """Exit 3 with one error line: no warning, no output and no CSV."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert [str(w.message) for w in caught] == []
    assert list(tmp_path.iterdir()) == []


def _subcommands(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _float_flags():
    """(subcommand, option) of every override flag with a float key."""
    return [(command, action.option_strings[0])
            for command, sub in _subcommands(build_parser()).items()
            for action in sub._actions
            if KNOWN_KEYS.get(action.dest) == "float"]


class TestOverrideFlags:
    def test_override_flags_land_on_their_keys(self, tmp_path):
        # each flag whose dest is a scenario key changes what that key
        # changes when a scenario file sets it
        parser = build_parser()
        commands = _subcommands(parser)
        seen = set()
        for command, sub in commands.items():
            for action in sub._actions:
                key = action.dest
                if key not in KNOWN_KEYS:
                    continue
                seen.add(key)
                argv = [command, action.option_strings[0]]
                if action.nargs != 0:
                    argv.append(action.choices[0] if action.choices
                                else str(key_sample(key)))
                sc = Scenario(name="case")
                _apply_overrides(sc, parser.parse_args(argv))
                expected = load_one_key(tmp_path, key)
                assert scenario_diff(sc, Scenario(name="case")).keys() == \
                    expected.keys(), argv
        assert len(seen) == 38

    @pytest.mark.parametrize("command, text, flags, alone", [
        ("tune", "[run]\nkind = tune\n[tune]\nrule = PI\n",
         ["--L", "0.2", "--T", "1.8"], ["--rule", "PI"]),
        ("simulate", "[run]\nkind = simulate\n", ["--flow", "0.51"], []),
        ("simulate", "[run]\nkind = simulate\nt_end = -1\n"
         "[plant]\nflow = 0.51\n", ["--t-end", "1"], ["--flow", "0.51"])],
        ids=["tune-L-T", "simulate-flow", "t-end"])
    def test_flags_complete_a_scenario_file(self, tmp_path, capsys, command,
                                            text, flags, alone):
        # the file is validated once the flags apply, so they may give a
        # key it lacks or mend a value it cannot run: the run is the one
        # the flags alone give (``alone`` holding what the file set)
        path = tmp_path / "case.scn"
        path.write_text(text)
        code, _, err = run(capsys, command, "--scenario", str(path),
                           "--out-dir", str(tmp_path))
        assert code == 3 and len(err.splitlines()) == 1
        from_file = tmp_path / "file.csv"
        by_flags = tmp_path / "flags.csv"
        code, _, err = run(capsys, command, "--scenario", str(path), *flags,
                           "--csv", str(from_file))
        assert (code, err) == (0, "")
        code, _, err = run(capsys, command, *alone, *flags,
                           "--csv", str(by_flags))
        assert (code, err) == (0, "")
        assert from_file.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command,option", _float_flags())
    def test_nonfinite_float_flag_exits_three(self, tmp_path, capsys, command,
                                              option, value):
        # a flag value meets the same check as the key in a scenario file
        _assert_refused(capsys, tmp_path, [command, f"{option}={value}"])


def test_import_loads_no_network_modules():
    # svgplot escapes its own text: xml.sax.saxutils would import
    # urllib.request and, through it, http.client, email and ssl, which
    # every fresh start would pay for
    code = ("import sys, surgekit.cli; print([m for m in ('urllib.request', "
            "'http.client', 'email', 'ssl') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert res.stdout == "[]\n"


PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"

#: a fresh interpreter that runs ``main`` on its arguments and prints the
#: exit code and whether numpy was imported
_FOOTPRINT = ("import sys\n"
              "from surgekit.cli import main\n"
              "try:\n"
              "    code = main(sys.argv[1:])\n"
              "except SystemExit as exit:\n"
              "    code = exit.code\n"
              "print(code, 'numpy' in sys.modules)\n")


@pytest.mark.parametrize("argv,code", [
    (["scenarios"], 0), (["--version"], 0), (["--help"], 0),
    (["simulate", "--bogus"], 2), (["closedloop", "--gamma", "-1"], 3)])
def test_commands_that_compute_nothing_leave_numpy_unloaded(argv, code):
    # numpy is imported by the functions that compute, so a start that
    # lists the catalog, prints the version or help, or refuses its
    # arguments does not pay for it
    res = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv],
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == f"{code} False"


def test_numpy_free_start_then_a_command_that_computes(tmp_path):
    # the command after a start without numpy imports it where it computes
    # and writes the catalog's bytes
    path = tmp_path / "P"
    script = ("import sys\n"
              "from surgekit.cli import main\n"
              "print(main(['scenarios']), 'numpy' in sys.modules)\n"
              "print(main(['stability', '--n', '1000', '--csv', sys.argv[1]]),"
              " 'numpy' in sys.modules)\n")
    res = subprocess.run([sys.executable, "-c", script, str(path)],
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "0 True"
    assert "0 False" in res.stdout.splitlines()
    digest = json.loads((PERFBENCH / "digests.json").read_text())["stability"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_tune_leaves_numpy_unloaded(tmp_path):
    # the tuning table is a list of one row: writing it needs no numpy,
    # and its bytes are the catalog's
    path = tmp_path / "P"
    res = subprocess.run([sys.executable, "-c", _FOOTPRINT, "tune",
                          "--scenario", "zn", "--csv", str(path)],
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "0 False"
    digest = json.loads((PERFBENCH / "digests.json").read_text())["zn"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_tracer_names_are_the_cli_imports():
    # perfbench's tracer rebinds each name of its WRAPPED table on
    # surgekit.cli, and a span "<module>.<name>" names the module that
    # defines it: each must be a global of the CLI, and the function
    # that module defines.  The table is read as text, not imported
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    wrapped, = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "WRAPPED"]
    assert wrapped
    for name, (_, span) in wrapped.items():
        module, defined = span.rsplit(".", 1)
        assert defined == name
        assert name in vars(cli), name
        assert getattr(cli, name) is getattr(
            importlib.import_module(f"surgekit.{module}"), name), name
