"""Command-line behavior: subcommands, scenario catalog, exit codes."""

import argparse
import warnings

import numpy as np
import pytest
from support import integrate, key_sample, load_one_key, scenario_diff

from surgekit.cli import _apply_overrides, build_parser, main
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

    @pytest.mark.parametrize("text,complaint", [
        ("t,y\n0,0.1\n", "at least 3 rows"),
        ("time,y\n0,0\n1,0.5\n2,1\n", "no 't' column"),
        ("t,y\n0,0\n1,0.5\n0.5,0.7\n2,1\n", "strictly increasing"),
        ("t,y\n0,0\n1,0.5\n3,0.7\n4,1\n", "uniform"),
    ], ids=["one-row", "no-t", "non-monotonic", "non-uniform"])
    def test_bad_step_csv_exits_three(self, tmp_path, capsys, text,
                                      complaint):
        path = tmp_path / "step.csv"
        path.write_text(text)
        code, out, err = run(capsys, "tune", "--step-csv", str(path),
                             "--out-dir", str(tmp_path))
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

    def test_limit_cycle_detection(self, tmp_path, capsys):
        code, out, _ = run(capsys, "limit-cycle", "--scenario", "fig6",
                           "--svg", str(tmp_path / "orbit.svg"),
                           "--out-dir", str(tmp_path))
        assert code == 0
        assert "limit cycle detected" in out
        assert (tmp_path / "orbit.svg").exists()

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


class TestExitCodes:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

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
        (["closedloop"], "error: non-finite loop state near t=0\n"),
        (["simulate", "--scenario", "fig7"],
         "error: plenum pressure reached zero near t=0 "
         "(surge model breakdown)\n"),
    ])
    def test_overflow_exits_four_without_warnings(self, tmp_path, capsys,
                                                  argv, message):
        # the kernel reports the overflow through its status alone
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--dt", "1e200", "--t-end",
                                 "1e201", "--out-dir", str(tmp_path))
        assert code == 4 and out == "" and err == message
        assert [str(w.message) for w in caught] == []

    def test_observed_breakdown_exits_four(self, tmp_path, capsys):
        # the observed compressor breaks down mid-run: one line, no CSV
        code, out, err = run(capsys, "closedloop", "--observe", "--target",
                             "1.0", "--t-end", "5", "--out-dir",
                             str(tmp_path))
        assert code == 4 and out == ""
        assert err == ("error: observed compressor model broke down "
                       "(psi or psi_c <= 0) near t=0.854\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["averaging", "--scenario", "avg", "--avg-gamma", "inf"],
        ["simulate", "--scenario", "fig7", "--g", "inf"],
        ["map", "--lo=-inf", "--hi", "0.5"],
    ], ids=["averaging-gamma", "simulate-g", "map-lo"])
    def test_nonfinite_input_exits_three(self, tmp_path, capsys, argv):
        # over a shipped scenario, and map's own range flags; the other
        # float flags are TestOverrideFlags' cases
        _assert_refused(capsys, tmp_path, argv)

    def test_missing_scenario_exits_three(self, tmp_path, capsys):
        code, _, err = run(capsys, "closedloop", "--scenario", "figZZ",
                           "--out-dir", str(tmp_path))
        assert code == 3
        assert "shipped" in err



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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command,option", _float_flags())
    def test_nonfinite_float_flag_exits_three(self, tmp_path, capsys, command,
                                              option, value):
        # a flag value meets the same check as the key in a scenario file
        _assert_refused(capsys, tmp_path, [command, f"{option}={value}"])
