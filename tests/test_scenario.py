"""Scenario file parsing, validation, and the shipped catalog."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from support import key_sample, load_one_key, load_scenario

from surgekit.errors import ScenarioError
from surgekit.scenario import (KNOWN_KEYS, Scenario, resolve_scenario,
                               shipped_scenarios, validate)


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_sections_and_comments(self, tmp_path):
        sc = load_scenario(write(tmp_path, """
# comment
[run]
kind = closedloop
name = demo

[disturbance]
target = 0.35
tau = 1

[controller]
kind = adaptive
"""))
        assert sc.name == "demo"
        assert sc.kind == "closedloop"
        assert sc.disturbance.target == 0.35
        assert sc.controller.kind == "adaptive"

    def test_dotted_keys_without_sections(self, tmp_path):
        sc = load_scenario(write(tmp_path, """
run.kind = closedloop
disturbance.target = 0.45
controller.gamma = 2.0
"""))
        assert sc.disturbance.target == 0.45
        assert sc.controller.gamma == 2.0

    def test_empty_file_is_default_scenario(self, tmp_path):
        sc = load_scenario(write(tmp_path, "", name="whatever.scn"))
        assert sc.name == "default"
        assert sc.kind == "closedloop"
        assert sc.controller.kind == "adaptive"
        assert sc.disturbance.target == 0.35

    def test_unknown_key_is_an_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown key .*goma"):
            load_scenario(write(tmp_path, "controller.goma = 1.0\n"))

    def test_unknown_section_is_an_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="unknown key"):
            load_scenario(write(tmp_path, "[compresor]\nfoo = 1\n"))

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(write(tmp_path, "# one\n[run]\nkind closedloop\n"))

    def test_bad_value_names_key_and_line(self, tmp_path):
        with pytest.raises(ScenarioError, match="line 1.*run.dt"):
            load_scenario(write(tmp_path, "run.dt = fast\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(write(tmp_path,
                                "run.t_end = 1\nrun.t_end = 2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.scn")


class TestValidation:
    def test_negative_gamma_names_key(self, tmp_path):
        with pytest.raises(ScenarioError, match="controller"):
            load_scenario(write(tmp_path, "controller.gamma = -1\n"))

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ScenarioError, match="run.kind"):
            load_scenario(write(tmp_path, "run.kind = fly\n"))

    def test_simulate_needs_throttle_or_flow(self, tmp_path):
        with pytest.raises(ScenarioError, match="plant.flow or plant.g"):
            load_scenario(write(tmp_path, "run.kind = simulate\n"))

    def test_flow_domain_checked(self, tmp_path):
        with pytest.raises(ScenarioError, match="plant.flow"):
            load_scenario(write(tmp_path,
                                "run.kind = simulate\nplant.flow = 0.9\n"))

    def test_initial_state_must_be_complete(self, tmp_path):
        with pytest.raises(ScenarioError, match="phi0 and plant.psi0"):
            load_scenario(write(
                tmp_path,
                "run.kind = simulate\nplant.flow = 0.4\nplant.phi0 = 0.5\n"))

    def test_stability_range(self, tmp_path):
        with pytest.raises(ScenarioError, match="stability"):
            load_scenario(write(
                tmp_path,
                "run.kind = stability\nstability.lo = 0.6\nstability.hi = 0.2\n"))

    def test_tune_requires_constants(self, tmp_path):
        with pytest.raises(ScenarioError, match="tune.L and tune.T"):
            load_scenario(write(tmp_path, "run.kind = tune\n"))

    def test_averaging_grid(self, tmp_path):
        with pytest.raises(ScenarioError, match="averaging.n"):
            load_scenario(write(
                tmp_path, "run.kind = averaging\naveraging.n = 1\n"))

    def test_negative_dt(self, tmp_path):
        with pytest.raises(ScenarioError, match="run.dt"):
            load_scenario(write(tmp_path, "run.dt = -0.1\n"))

    def test_empty_name(self, tmp_path):
        # the name is the CSV's file name: empty, it would be hidden
        with pytest.raises(ScenarioError, match="^run.name: must not be "
                           "empty$"):
            load_scenario(write(tmp_path, "[run]\nname =\n"))

    @pytest.mark.parametrize("name", ["../escaped", "sub/inner", ".hidden",
                                      ".", ".."])
    def test_name_outside_out_dir(self, tmp_path, name):
        # the name is joined to --out-dir: a separator would leave it, and
        # a leading dot would make the CSV hidden
        with pytest.raises(ScenarioError, match=re.escape(
                "run.name: must not start with '.' or contain a path "
                f"separator, got {name!r}")):
            load_scenario(write(tmp_path, f"[run]\nname = {name}\n"))

    def test_name_from_file_name(self, tmp_path):
        # the .scn suffix is stripped; a file named only that is "default",
        # and one named ".x.scn" gets a hidden name, refused
        sc = load_scenario(write(tmp_path, "run.kind = map\n", name=".scn"))
        assert sc.name == "default"
        sc = load_scenario(write(tmp_path, "run.kind = map\n",
                                 name="a.b.scn"))
        assert sc.name == "a.b"
        with pytest.raises(ScenarioError, match="got '.x'$"):
            load_scenario(write(tmp_path, "run.kind = map\n", name=".x.scn"))

    def test_resolve_leaves_validation_to_the_caller(self, tmp_path):
        # the CLI applies its flags before it validates the whole
        path = write(tmp_path, "run.kind = tune\n")
        sc = resolve_scenario(str(path))
        assert (sc.name, sc.kind, sc.tune.L) == ("case", "tune", None)
        with pytest.raises(ScenarioError, match="tune.L and tune.T"):
            validate(sc)

    def test_validate_direct(self):
        sc = Scenario(kind="tune")
        with pytest.raises(ScenarioError):
            validate(sc)


class TestCatalog:
    def test_expected_entries(self):
        names = set(shipped_scenarios())
        assert {"fig3_4", "fig6", "fig7", "fig10", "fig12", "fig14",
                "fig15", "zn", "avg"} <= names

    def test_all_shipped_scenarios_load_and_validate(self):
        for name in shipped_scenarios():
            sc = resolve_scenario(name)
            validate(sc)
            assert sc.name == name

    def test_resolve_by_name_or_error(self):
        sc = resolve_scenario("fig10")
        assert sc.kind == "closedloop"
        assert sc.disturbance.target == 0.35
        with pytest.raises(ScenarioError, match="shipped"):
            resolve_scenario("fig99")

    def test_fig14_freezes_gains_config(self):
        sc = resolve_scenario("fig14")
        assert sc.disturbance.target == 0.6
        assert sc.controller.kind == "adaptive"

    def test_fig15_is_fixed_pid(self):
        sc = resolve_scenario("fig15")
        assert sc.controller.kind == "fixed-pid"
        assert (sc.controller.kp, sc.controller.ki, sc.controller.kd) == \
            (10.0, 24.0, 1.0)


class TestKeys:
    @pytest.mark.parametrize("key", sorted(KNOWN_KEYS))
    def test_key_round_trip(self, tmp_path, key):
        # a one-line file changes exactly one value, named like the key,
        # to the value it sets
        (path, value), = load_one_key(tmp_path, key).items()
        assert value == key_sample(key)
        name = key.partition(".")[2]
        if key == "observe.enabled":
            assert path == ("observe",)
        else:
            assert str(path[-1]).endswith(name)

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted(KNOWN_KEYS)),
           text=st.text(st.characters(blacklist_categories=("Cs",),
                                      blacklist_characters="\r\n"))
           | st.floats().map(repr) | st.integers().map(str))
    def test_any_value_loads_or_is_rejected(self, tmp_path, key, text):
        # a one-line file yields a Scenario or a ScenarioError, nothing else
        path = tmp_path / "case.scn"
        path.write_text(f"{key} = {text}\n", encoding="utf-8")
        try:
            sc = load_scenario(path)
        except ScenarioError:
            return
        assert isinstance(sc, Scenario)
