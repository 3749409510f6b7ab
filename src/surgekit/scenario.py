"""Scenario files: plain-text run configuration for the CLI.

Format: one ``key = value`` per line, ``#`` starts a full-line comment,
``[section]`` headers prefix the keys below them, and dotted keys
(``disturbance.target = 0.35``) work without a section header.  Unknown
keys are hard errors so typos cannot silently fall back to defaults.
An empty file is the all-defaults scenario named ``default``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from importlib import resources

from .compressor import CompressorMap, throttle_from_flow
from .errors import DomainError, ScenarioError
from .loop import ControllerConfig, DisturbanceProfile, ValveModel
from .odesim import LOOP_DT, LOOP_T_END, PLANT_DT, PLANT_T_END

KINDS = ("map", "stability", "simulate", "limit-cycle", "tune",
         "closedloop", "averaging")

TUNE_RULES = ("P", "PI", "PID")

#: per-kind (dt, t_end) defaults for the kinds that integrate
_TIME_DEFAULTS = {
    "simulate": (PLANT_DT, PLANT_T_END),
    "limit-cycle": (PLANT_DT, 100.0),
    "closedloop": (LOOP_DT, LOOP_T_END),
}

_FLOAT, _INT, _BOOL = "float", "int", "bool"


@dataclass
class Scenario:
    """Validated configuration for one CLI run."""

    name: str = "default"
    kind: str = "closedloop"
    dt: float | None = None
    t_end: float | None = None
    decimation: int = 1
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    disturbance: DisturbanceProfile = field(default_factory=DisturbanceProfile)
    valve: ValveModel = field(default_factory=ValveModel)
    cmap: CompressorMap = field(default_factory=CompressorMap)
    observe: bool = False
    phi0: float | None = None
    psi0: float | None = None
    flow: float | None = None
    g: float | None = None
    perturb_phi: float = 0.01
    perturb_psi: float = 0.01
    stab_lo: float = 0.1
    stab_hi: float = 0.79
    stab_n: int = 1000
    settle_fraction: float = 0.5
    cycle_tol: float = 0.01
    avg_k1_lo: float = 0.1
    avg_k1_hi: float = 50.0
    avg_k2_lo: float = 0.1
    avg_k2_hi: float = 50.0
    avg_n: int = 10
    avg_k3: float = 0.7
    avg_gamma: float = 1.0
    avg_r: float = 0.55
    tune_L: float | None = None
    tune_T: float | None = None
    tune_rule: str = "PID"

    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        return _TIME_DEFAULTS.get(self.kind, (LOOP_DT,))[0]

    def resolved_t_end(self) -> float:
        if self.t_end is not None:
            return self.t_end
        return _TIME_DEFAULTS.get(self.kind, (None, 50.0))[1]

    def throttle(self) -> float:
        """Throttle parameter of a plant run (from plant.g or plant.flow)."""
        if self.g is not None:
            return self.g
        return throttle_from_flow(self.cmap, self.flow)


#: scenario key -> flat ``Scenario`` attribute
_FLAT_KEYS = {
    "run.name": "name", "run.kind": "kind", "run.dt": "dt",
    "run.t_end": "t_end", "run.decimation": "decimation",
    "observe.enabled": "observe",
    "plant.phi0": "phi0", "plant.psi0": "psi0", "plant.flow": "flow",
    "plant.g": "g", "plant.perturb_phi": "perturb_phi",
    "plant.perturb_psi": "perturb_psi",
    "stability.lo": "stab_lo", "stability.hi": "stab_hi",
    "stability.n": "stab_n",
    "cycle.settle_fraction": "settle_fraction", "cycle.tol": "cycle_tol",
    "averaging.k1_lo": "avg_k1_lo", "averaging.k1_hi": "avg_k1_hi",
    "averaging.k2_lo": "avg_k2_lo", "averaging.k2_hi": "avg_k2_hi",
    "averaging.n": "avg_n", "averaging.k3": "avg_k3",
    "averaging.gamma": "avg_gamma", "averaging.r": "avg_r",
    "tune.L": "tune_L", "tune.T": "tune_T", "tune.rule": "tune_rule",
}

#: scenario section -> (``Scenario`` attribute, its config class); the
#: section's keys are the class's fields, with ``map.c0..c3`` for ``cubic``
_SECTIONS = {
    "controller": ("controller", ControllerConfig),
    "disturbance": ("disturbance", DisturbanceProfile),
    "valve": ("valve", ValveModel),
    "map": ("cmap", CompressorMap),
}
_CUBIC_KEYS = ("c0", "c1", "c2", "c3")


def _known_keys() -> dict:
    attr_type = {f.name: f.type.removesuffix(" | None")
                 for f in fields(Scenario)}
    keys = {key: attr_type[attr] for key, attr in _FLAT_KEYS.items()}
    for section, (_, cls) in _SECTIONS.items():
        for f in fields(cls):
            if f.name == "cubic":
                keys.update((f"map.{c}", _FLOAT) for c in _CUBIC_KEYS)
            else:
                keys[f"{section}.{f.name}"] = f.type
    return keys


#: every key a scenario file may set, with its value type
KNOWN_KEYS = _known_keys()


def apply_values(sc: Scenario, values: dict) -> None:
    """Set scenario keys on ``sc``: flat keys by attribute, section keys by
    rebuilding that section's validated config from its current value."""
    by_section = {}
    for key, value in values.items():
        if key in _FLAT_KEYS:
            setattr(sc, _FLAT_KEYS[key], value)
        else:
            section, _, name = key.partition(".")
            by_section.setdefault(section, {})[name] = value
    for section, (attr, _) in _SECTIONS.items():
        changes = by_section.get(section)
        if not changes:
            continue
        current = getattr(sc, attr)
        if section == "map":
            changes["cubic"] = tuple(
                changes.pop(c, old) for c, old in zip(_CUBIC_KEYS, current.cubic))
        try:
            setattr(sc, attr, replace(current, **changes))
        except DomainError as err:
            raise ScenarioError(f"{section}: {err}") from err


def _parse_value(key: str, raw: str, lineno: int):
    want = KNOWN_KEYS[key]
    try:
        if want == _FLOAT:
            v = float(raw)
            if not math.isfinite(v):
                raise ValueError("not finite")
            return v
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


def _build(values: dict, default_name: str) -> Scenario:
    sc = Scenario(name=default_name)
    apply_values(sc, values)
    validate(sc)
    return sc


def validate(sc: Scenario) -> None:
    """Reject precondition violations before any integration starts."""
    if sc.kind not in KINDS:
        raise ScenarioError(f"run.kind: must be one of {KINDS}, got {sc.kind!r}")
    if sc.dt is not None and not sc.dt > 0.0:
        raise ScenarioError(f"run.dt: must be > 0, got {sc.dt}")
    if sc.t_end is not None and not sc.t_end > 0.0:
        raise ScenarioError(f"run.t_end: must be > 0, got {sc.t_end}")
    if sc.decimation < 1:
        raise ScenarioError(
            f"run.decimation: must be >= 1, got {sc.decimation}")

    if sc.kind in ("simulate", "limit-cycle"):
        if sc.flow is None and sc.g is None:
            raise ScenarioError(
                f"plant.flow or plant.g: required for kind={sc.kind}")
        if sc.flow is not None and not (
                sc.cmap.domain_lo < sc.flow < sc.cmap.domain_hi):
            raise ScenarioError(
                f"plant.flow: must lie in ({sc.cmap.domain_lo}, "
                f"{sc.cmap.domain_hi}), got {sc.flow}")
        if sc.g is not None and not sc.g > 0.0:
            raise ScenarioError(f"plant.g: must be > 0, got {sc.g}")
        if sc.psi0 is not None and not sc.psi0 > 0.0:
            raise ScenarioError(f"plant.psi0: must be > 0, got {sc.psi0}")
        if (sc.phi0 is None) != (sc.psi0 is None):
            raise ScenarioError(
                "plant.phi0 and plant.psi0 must be given together")
    if sc.kind == "limit-cycle":
        if not 0.0 < sc.settle_fraction < 1.0:
            raise ScenarioError(
                f"cycle.settle_fraction: must be in (0, 1), "
                f"got {sc.settle_fraction}")
        if not sc.cycle_tol > 0.0:
            raise ScenarioError(f"cycle.tol: must be > 0, got {sc.cycle_tol}")
    if sc.kind == "stability":
        if not (sc.cmap.domain_lo < sc.stab_lo < sc.stab_hi
                < sc.cmap.domain_hi):
            raise ScenarioError(
                f"stability.lo/hi: need {sc.cmap.domain_lo} < lo < hi < "
                f"{sc.cmap.domain_hi}, got ({sc.stab_lo}, {sc.stab_hi})")
        if sc.stab_n < 2:
            raise ScenarioError(f"stability.n: must be >= 2, got {sc.stab_n}")
    if sc.kind == "tune":
        if sc.tune_L is None or sc.tune_T is None:
            raise ScenarioError("tune.L and tune.T: required for kind=tune")
        if not (sc.tune_L > 0.0 and sc.tune_T > 0.0):
            raise ScenarioError(
                f"tune.L/tune.T: must be > 0, got ({sc.tune_L}, {sc.tune_T})")
        if sc.tune_rule not in TUNE_RULES:
            raise ScenarioError(
                f"tune.rule: must be one of {TUNE_RULES}, got {sc.tune_rule!r}")
    if sc.kind == "averaging":
        if not (0.0 <= sc.avg_k1_lo <= sc.avg_k1_hi
                and 0.0 <= sc.avg_k2_lo <= sc.avg_k2_hi):
            raise ScenarioError("averaging.k*_lo/hi: bounds must be ordered "
                                "and nonnegative")
        if sc.avg_n < 2:
            raise ScenarioError(f"averaging.n: must be >= 2, got {sc.avg_n}")
        if not sc.avg_gamma > 0.0:
            raise ScenarioError(
                f"averaging.gamma: must be > 0, got {sc.avg_gamma}")
        if sc.avg_k3 < 0.0:
            raise ScenarioError(f"averaging.k3: must be >= 0, got {sc.avg_k3}")


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    path = os.fspath(path)
    default_name = os.path.splitext(os.path.basename(path))[0] or "default"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError as err:
        raise ScenarioError(f"scenario file not found: {path}") from err
    if not any(line.strip() and not line.strip().startswith("#")
               for line in lines):
        default_name = "default"
    return _build(_parse_lines(lines), default_name)


def shipped_scenarios() -> dict[str, object]:
    """Name -> resource path of the scenario files installed with the package."""
    root = resources.files(__package__) / "scenarios"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".scn"):
            out[entry.name[:-4]] = entry
    return out


def resolve_scenario(name_or_path: str) -> Scenario:
    """Load a scenario by file path or shipped catalog name."""
    if os.path.exists(name_or_path):
        return load_scenario(name_or_path)
    catalog = shipped_scenarios()
    name = name_or_path[:-4] if name_or_path.endswith(".scn") else name_or_path
    if name in catalog:
        with resources.as_file(catalog[name]) as real:
            return load_scenario(real)
    raise ScenarioError(
        f"no scenario file or catalog entry named {name_or_path!r}; "
        f"shipped: {', '.join(sorted(catalog))}")
