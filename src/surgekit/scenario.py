"""Scenario files: plain-text run configuration for the CLI.

Format: one ``key = value`` per line, ``#`` starts a full-line comment,
``[section]`` headers prefix the keys below them, and dotted keys
(``disturbance.target = 0.35``) work without a section header.  Unknown
keys are hard errors so typos cannot silently fall back to defaults.
An empty file is the all-defaults scenario named ``default``.

Besides the ``run`` and ``observe`` keys, each section is a frozen config
class beside the code it drives (``loop``, ``compressor``, ``stability``,
``averaging``) that holds its keys' defaults and checks its own values,
finiteness included: a file value and a CLI flag value meet one check.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources

from .averaging import AveragingConfig
from .compressor import CompressorMap, PlantConfig
from .errors import DomainError, ScenarioError
from .loop import ControllerConfig, DisturbanceProfile, TuneConfig, ValveModel
from .odesim import LOOP_DT, LOOP_T_END, PLANT_DT, PLANT_T_END
from .stability import CycleConfig, StabilityConfig

KINDS = ("map", "stability", "simulate", "limit-cycle", "tune",
         "closedloop", "averaging")

#: per-kind (dt, t_end) defaults for the kinds that integrate
_TIME_DEFAULTS = {
    "simulate": (PLANT_DT, PLANT_T_END),
    "limit-cycle": (PLANT_DT, 100.0),
    "closedloop": (LOOP_DT, LOOP_T_END),
}

_FLOAT, _INT, _BOOL = "float", "int", "bool"


@dataclass
class Scenario:
    """Validated configuration for one CLI run: the run keys, plus one
    checked config per section."""

    name: str = "default"
    kind: str = "closedloop"
    dt: float | None = None
    t_end: float | None = None
    decimation: int = 1
    observe: bool = False
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    disturbance: DisturbanceProfile = field(default_factory=DisturbanceProfile)
    valve: ValveModel = field(default_factory=ValveModel)
    cmap: CompressorMap = field(default_factory=CompressorMap)
    plant: PlantConfig = field(default_factory=PlantConfig)
    stability: StabilityConfig = field(default_factory=StabilityConfig)
    cycle: CycleConfig = field(default_factory=CycleConfig)
    averaging: AveragingConfig = field(default_factory=AveragingConfig)
    tune: TuneConfig = field(default_factory=TuneConfig)

    def _time_defaults(self) -> tuple[float, float]:
        return _TIME_DEFAULTS.get(self.kind, _TIME_DEFAULTS["closedloop"])

    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else self._time_defaults()[0]

    def resolved_t_end(self) -> float:
        return (self.t_end if self.t_end is not None
                else self._time_defaults()[1])


#: scenario key -> flat ``Scenario`` attribute
_FLAT_KEYS = {
    "run.name": "name", "run.kind": "kind", "run.dt": "dt",
    "run.t_end": "t_end", "run.decimation": "decimation",
    "observe.enabled": "observe",
}

#: scenario section -> the ``Scenario`` attribute holding its config (every
#: config field, ``map`` as ``cmap``); the section's keys are the config's
#: fields
_SECTIONS = {("map" if f.name == "cmap" else f.name): f.name
             for f in fields(Scenario) if f.default_factory is not MISSING}


def _known_keys() -> dict:
    def value_type(f):
        return f.type.removesuffix(" | None")
    attr_type = {f.name: value_type(f) for f in fields(Scenario)}
    keys = {key: attr_type[attr] for key, attr in _FLAT_KEYS.items()}
    defaults = Scenario()
    for section, attr in _SECTIONS.items():
        for f in fields(getattr(defaults, attr)):
            keys[f"{section}.{f.name}"] = value_type(f)
    return keys


#: every key a scenario file may set, with its value type
KNOWN_KEYS = _known_keys()


def apply_values(sc: Scenario, values: dict) -> None:
    """Set scenario keys on ``sc``: flat keys by attribute, section keys by
    rebuilding that section's checked config from its current value."""
    by_section = {}
    for key, value in values.items():
        if key in _FLAT_KEYS:
            setattr(sc, _FLAT_KEYS[key], value)
        else:
            section, _, name = key.partition(".")
            by_section.setdefault(section, {})[name] = value
    for section, attr in _SECTIONS.items():
        changes = by_section.get(section)
        if not changes:
            continue
        try:
            setattr(sc, attr, replace(getattr(sc, attr), **changes))
        except DomainError as err:
            raise ScenarioError(f"{section}: {err}") from err


def _parse_value(key: str, raw: str, lineno: int):
    want = KNOWN_KEYS[key]
    try:
        if want == _FLOAT:
            return float(raw)
        if want == _INT:
            return int(raw)
        if want == _BOOL:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError("not a boolean")
        return raw
    except ValueError as err:
        raise ScenarioError(
            f"line {lineno}: bad value for {key}: {raw!r} ({err})") from err


def _parse_lines(lines) -> dict:
    values = {}
    section = ""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if not section:
                raise ScenarioError(f"line {lineno}: empty section header")
            continue
        if "=" not in text:
            raise ScenarioError(
                f"line {lineno}: expected 'key = value', got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        raw = raw.strip()
        full = f"{section}.{key}" if section else key
        if full not in KNOWN_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {full!r}")
        if full in values:
            raise ScenarioError(f"line {lineno}: duplicate key {full!r}")
        values[full] = _parse_value(full, raw, lineno)
    return values


def validate(sc: Scenario) -> None:
    """Reject, before any integration starts, what no single section can
    check: the run keys, the keys a kind requires, flows off the map."""
    if not sc.name:
        raise ScenarioError("run.name: must not be empty")
    if sc.name.startswith(".") or any(
            sep in sc.name for sep in ("/", os.sep, os.altsep) if sep):
        raise ScenarioError("run.name: must not start with '.' or contain a "
                            f"path separator, got {sc.name!r}")
    if sc.kind not in KINDS:
        raise ScenarioError(f"run.kind: must be one of {KINDS}, got {sc.kind!r}")
    for key, value in (("run.dt", sc.dt), ("run.t_end", sc.t_end)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ScenarioError(f"{key}: must be finite and > 0, got {value}")
    if sc.decimation < 1:
        raise ScenarioError(
            f"run.decimation: must be >= 1, got {sc.decimation}")

    plant = sc.plant
    if sc.kind in ("simulate", "limit-cycle"):
        try:
            plant.check_start()
        except DomainError as err:
            raise ScenarioError(f"{err} for kind={sc.kind}") from err
        if plant.flow is not None:
            _check_flows(sc, "plant.flow", plant.flow)
    if sc.kind == "stability":
        _check_flows(sc, "stability.lo/hi", sc.stability.lo, sc.stability.hi)
    if sc.kind == "tune" and (sc.tune.L is None or sc.tune.T is None):
        raise ScenarioError("tune.L and tune.T: required for kind=tune")


def _check_flows(sc: Scenario, key: str, *flows: float) -> None:
    try:
        sc.cmap.check_flow(*flows)
    except DomainError as err:
        raise ScenarioError(f"{key}: {err}") from err


def _read_scenario(path) -> Scenario:
    """Parse a scenario file, each section checked but not the whole."""
    path = os.fspath(path)
    default_name = os.path.basename(path).removesuffix(".scn") or "default"
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except FileNotFoundError as err:
        raise ScenarioError(f"scenario file not found: {path}") from err
    except UnicodeDecodeError as err:
        raise ScenarioError(f"scenario file {path}: {err}") from None
    if not any(line.strip() and not line.strip().startswith("#")
               for line in lines):
        default_name = "default"
    sc = Scenario(name=default_name)
    apply_values(sc, _parse_lines(lines))
    return sc


def shipped_scenarios() -> dict[str, object]:
    """Name -> resource path of the scenario files installed with the package."""
    root = resources.files(__package__) / "scenarios"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".scn"):
            out[entry.name[:-4]] = entry
    return out


def resolve_scenario(name_or_path: str) -> Scenario:
    """Parse a scenario by file path or catalog name, not yet validated.
    Only a file is read as a path: a directory named after a catalog entry
    (an earlier ``--out-dir fig10``, say) does not shadow it."""
    if os.path.isfile(name_or_path):
        return _read_scenario(name_or_path)
    catalog = shipped_scenarios()
    name = name_or_path[:-4] if name_or_path.endswith(".scn") else name_or_path
    if name in catalog:
        with resources.as_file(catalog[name]) as real:
            return _read_scenario(real)
    raise ScenarioError(
        f"no scenario file or catalog entry named {name_or_path!r}; "
        f"shipped: {', '.join(sorted(catalog))}")
