"""Command-line front end.

Subcommands: map, stability, simulate, limit-cycle, tune, closedloop,
averaging.  Each accepts ``--scenario`` (shipped catalog name or file
path) plus flag overrides, writes deterministic CSV output, and prints a
short summary.  Exit codes: 0 success, 2 usage, 3 scenario/config
validation, 4 model/runtime failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from collections import Counter

import numpy as np

from . import __version__
from ._kernels import pressure_rise
from .averaging import REPORT_HEADER, grid_points, stability_verdict
from .csvio import RunHelper, write_rows, write_trajectory
from .errors import AnalysisError, DomainError, NoSignChangeError, \
    ScenarioError, SurgeKitError
from .loop import CONTROLLER_KINDS, TUNE_RULES, extract_LT, gain_excursion, \
    simulate_closed_loop, zn_gains
from .odesim import Trajectory, simulate_greitzer, steady_state_of
from .scenario import KNOWN_KEYS, Scenario, apply_values, resolve_scenario, \
    shipped_scenarios, validate
from .stability import SCAN_HEADER, detect_limit_cycle, stability_scan, \
    surge_boundary
from .svgplot import Series, render_svg


def _csv_path(args, sc: Scenario) -> str:
    if args.csv:
        return args.csv
    out_dir = args.out_dir or os.environ.get("SURGEKIT_OUT_DIR", ".")
    return os.path.join(out_dir, f"{sc.name}.csv")


def _load(args, kind: str) -> Scenario:
    if args.scenario:
        sc = resolve_scenario(args.scenario)
        if sc.kind != kind:
            raise ScenarioError(
                f"scenario {sc.name!r} has kind {sc.kind!r}, "
                f"but was passed to the {kind!r} subcommand")
    else:
        sc = Scenario(name=kind, kind=kind)
    _apply_overrides(sc, args)
    validate(sc)
    return sc


def _apply_overrides(sc: Scenario, args) -> None:
    """Apply the override flags given: each flag's dest is its scenario key."""
    apply_values(sc, {key: value for key, value in vars(args).items()
                      if key in KNOWN_KEYS and value is not None})


def _thin(arr, limit: int = 2000):
    """Stride-decimate a series for plotting; keeps the final sample."""
    n = len(arr)
    stride = max(1, n // limit)
    if stride == 1:
        return arr
    return np.concatenate([arr[::stride], arr[-1:]])


def _run_plant(sc: Scenario, helper: RunHelper) -> Trajectory:
    initial, g = sc.plant.start(sc.cmap)
    return simulate_greitzer(initial, g, sc.cmap, dt=sc.resolved_dt(),
                             t_end=sc.resolved_t_end(), helper=helper)


def cmd_map(args) -> int:
    sc = _load(args, "map")
    lo = args.lo if args.lo is not None else sc.cmap.domain_lo
    hi = args.hi if args.hi is not None else sc.cmap.domain_hi
    n = args.n if args.n is not None else 201
    # a span hi - lo past the float range would make linspace overflow
    if not (np.isfinite([lo, hi, hi - lo]).all() and lo < hi and n >= 2):
        raise ScenarioError(f"need finite lo < hi, a finite span hi - lo "
                            f"and n >= 2, got ({lo}, {hi}, {n})")
    try:
        phis = np.empty(n)
    except (ValueError, MemoryError):
        raise DomainError(
            f"a map table of {n} points is too large to hold") from None
    # near the float range, linspace's last step can round past it; that
    # point is then set to hi
    with np.errstate(over="ignore"):
        phis[:] = np.linspace(lo, hi, n)
    # an overflow gives inf or nan, refused below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        psis = pressure_rise(phis, *sc.cmap.constants)
    finite = np.isfinite(psis)
    if not finite.all():
        k = int(np.argmin(finite))
        raise DomainError(f"map value at phi = {phis[k]:.9g} is {psis[k]}; "
                          "the range leaves the map's float range")
    path = _csv_path(args, sc)
    write_rows(("phi", "psi_c"), np.column_stack([phis, psis]), path)
    peak = int(np.argmax(psis))
    print(f"map table: {n} points on [{lo:g}, {hi:g}] -> {path}")
    print(f"peak pressure rise {psis[peak]:.9g} at phi = {phis[peak]:.9g}")
    if args.svg:
        render_svg([Series("psi_c", phis, psis)], args.svg,
                   x_label="phi (mass flow)", y_label="psi_c (pressure rise)",
                   title="compressor map")
        print(f"figure -> {args.svg}")
    return 0


def cmd_stability(args) -> int:
    sc = _load(args, "stability")
    scan = sc.stability
    table = stability_scan(sc.cmap, scan)
    path = _csv_path(args, sc)
    write_rows(SCAN_HEADER,
               list(zip(*[column.tolist() for column in table.columns()])),
               path)
    why = boundary = None
    try:
        boundary = surge_boundary(sc.cmap, scan)
    except NoSignChangeError:
        pass
    except (AnalysisError, DomainError) as err:
        why = err
    print(f"stability scan: {scan.n} points on "
          f"[{scan.lo:g}, {scan.hi:g}] -> {path}")
    if why is not None:
        print(f"surge boundary check skipped: {why}")
    elif boundary is None:
        classes = Counter(table.classification.tolist())
        print(f"no surge boundary on [{scan.lo:g}, {scan.hi:g}]: "
              + ", ".join(f"{count} of {scan.n} points {cls}"
                          for cls, count in classes.items()))
    else:
        print(f"surge boundary phi* = {boundary:.9g} "
              "(unstable focus below, stable focus above)")
    if args.svg:
        render_svg([Series("eigenvalue real part", table.phi,
                           table.real_part),
                    Series("divergence indicator", table.phi,
                           table.bendixson_r)],
                   args.svg, x_label="phi (mass flow)", y_label="1/time",
                   title="equilibrium stability vs flow")
        print(f"figure -> {args.svg}")
    return 0


def cmd_simulate(args) -> int:
    sc = _load(args, "simulate")
    if not (np.isfinite(args.ss_window) and args.ss_window > 0.0):
        raise ScenarioError(f"--ss-window must be finite and > 0, "
                            f"got {args.ss_window}")
    if not (np.isfinite(args.ss_tol) and args.ss_tol >= 0.0):
        raise ScenarioError(f"--ss-tol must be finite and >= 0, "
                            f"got {args.ss_tol}")
    # where it pays, the helper process formats the CSV while the kernel
    # runs.  The summary and the figure are made from the record while it
    # formats its last rows; only then does the write wait for its text.
    # It lives on after the block, for the process's next run
    with RunHelper(sc.decimation) as helper:
        traj = _run_plant(sc, helper)
        window = min(args.ss_window, 0.5 * sc.resolved_t_end())
        # steady_state_of averages round(window/dt) rows: none up to 0.5.
        # A run that breaks down fails first, as it does at any window
        if not window / traj.dt > 0.5:
            raise ScenarioError(
                f"steady-state window {window:g} (--ss-window, at most half "
                f"of t_end) is under one step of dt={traj.dt:g}")
        phi = traj.column("phi")
        psi = traj.column("psi")
        ss = steady_state_of(traj, window=window, tol=args.ss_tol)
        if args.svg:
            render_svg([Series("phi", _thin(traj.t), _thin(phi)),
                        Series("psi", _thin(traj.t), _thin(psi))],
                       args.svg, x_label="time", y_label="state",
                       title=f"open-loop transient ({sc.name})")
        path = _csv_path(args, sc)
        write_trajectory(traj, path, sc.decimation, helper=helper)
        print(f"open-loop run: {traj.n_rows} samples, dt={traj.dt:g} "
              f"-> {path}")
        print(f"final state phi = {phi[-1]:.6g}, psi = {psi[-1]:.6g}")
        if ss is None:
            print(f"no steady state within tol {args.ss_tol:g} over the final "
                  f"{window:g} time units")
        else:
            print(f"steady state ({args.ss_tol:g} tol): "
                  f"phi = {ss[0]:.6g}, psi = {ss[1]:.6g}")
        if args.svg:
            print(f"figure -> {args.svg}")
    return 0


def cmd_limit_cycle(args) -> int:
    sc = _load(args, "limit-cycle")
    # as in cmd_simulate: the summary and the figure first, then the write
    with RunHelper(sc.decimation) as helper:
        traj = _run_plant(sc, helper)
        report = detect_limit_cycle(traj, sc.cycle)
        if args.svg:
            render_svg([Series("orbit", _thin(traj.column("phi"), 5000),
                               _thin(traj.column("psi"), 5000))],
                       args.svg, x_label="phi (mass flow)",
                       y_label="psi (pressure rise)",
                       title=f"phase plane ({sc.name})")
        path = _csv_path(args, sc)
        write_trajectory(traj, path, sc.decimation, helper=helper)
        print(f"run: {traj.n_rows} samples, dt={traj.dt:g} -> {path}")
        if report.detected:
            print(f"limit cycle detected: amplitude phi = "
                  f"{report.amplitude_phi:.6g}, amplitude psi = "
                  f"{report.amplitude_psi:.6g}, period = {report.period:.6g}, "
                  f"cycles analyzed = {report.cycles_analyzed}")
        else:
            print("no limit cycle detected")
        if args.svg:
            print(f"figure -> {args.svg}")
    return 0


def _read_step_csv(path, signal) -> tuple[Trajectory, str]:
    """A step-response CSV with a uniform, increasing ``t`` column, and
    the column to fit: ``signal``, which must name a column other than
    ``t``, else the first one after ``t``.  The header names are read as
    they are written, less the blanks around them, and must be unique and
    nonempty; the time column and the fitted one must hold finite
    numbers."""
    with warnings.catch_warnings():
        # genfromtxt warns of an empty file before it fails on it
        warnings.simplefilter("error", UserWarning)
        try:
            # the header is the first row, read as text; as numbers it is
            # a row of nan, dropped
            names = [name.strip() for name in np.genfromtxt(
                path, delimiter=",", dtype=str, max_rows=1, ndmin=1,
                encoding="utf-8-sig")]
            data = np.genfromtxt(path, delimiter=",", ndmin=2,
                                 encoding="utf-8-sig")[1:]
        except (ValueError, UserWarning) as err:
            detail = " ".join(str(err).split())  # one line
            raise ScenarioError(f"step CSV {path}: {detail}") from None
    if "" in names or len(set(names)) < len(names):
        raise ScenarioError(f"step CSV {path}: header names must be unique "
                            f"and nonempty, got {names}")
    if "t" not in names:
        raise ScenarioError(f"step CSV {path}: no 't' column in {names}")
    if len(data) < 3:
        raise ScenarioError(
            f"step CSV {path}: need at least 3 rows, got {len(data)}")
    column = dict(zip(names, data.T))
    # a span past the float range overflows; it is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(column["t"])
    if not (np.all(np.isfinite(steps)) and np.all(steps > 0.0)
            and np.allclose(steps, steps[0], rtol=1e-3, atol=0.0)):
        raise ScenarioError(
            f"step CSV {path}: time column must be finite and strictly "
            "increasing with a uniform step")
    columns = ["t"] + [c for c in names if c != "t"]
    if len(columns) < 2:
        raise ScenarioError(f"step CSV {path}: no column besides 't'")
    signal = signal or columns[1]
    if signal not in columns[1:]:
        raise ScenarioError(f"step CSV {path}: --signal {signal!r} names "
                            f"no signal column; have {columns[1:]}")
    if not np.all(np.isfinite(column[signal])):
        raise ScenarioError(f"step CSV {path}: column {signal!r} holds a "
                            "non-finite or unreadable value")
    return Trajectory(float(steps[0]), columns,
                      np.column_stack([column[c] for c in columns])), signal


def cmd_tune(args) -> int:
    if args.step_csv:
        if args.final is not None and not np.isfinite(args.final):
            raise ScenarioError(f"--final must be finite, got {args.final}")
        traj, signal = _read_step_csv(args.step_csv, args.signal)
        L, T = extract_LT(traj, signal, final_value=args.final)
        print(f"tangent fit of {signal!r}: L = {L:.6g}, T = {T:.6g}")
        if L <= 0.0:
            print("dead time is zero: the tuning table needs L > 0; "
                  "pass --L and --T explicitly to override")
            return 0
        # the fit takes the place of --L and --T
        vars(args).update({"tune.L": L, "tune.T": T})
    sc = _load(args, "tune")
    tune = sc.tune
    gains = zn_gains(tune)
    print(f"rule {tune.rule}: kp = {gains['kp']:.6g}, "
          f"ti = {gains['ti']:.6g}, td = {gains['td']:.6g}, "
          f"ki = {gains['ki']:.6g}, kd = {gains['kd']:.6g}")
    path = _csv_path(args, sc)
    write_rows(("L", "T", "rule", "kp", "ti", "td", "ki", "kd"),
               [(tune.L, tune.T, tune.rule, gains["kp"], gains["ti"],
                 gains["td"], gains["ki"], gains["kd"])], path)
    print(f"gains -> {path}")
    return 0


def cmd_closedloop(args) -> int:
    sc = _load(args, "closedloop")
    path = _csv_path(args, sc)
    # where it pays, the helper process observes the compressor and
    # formats the CSV while the kernel runs.  As in cmd_simulate, the
    # summary and the figures are made from the record before the write
    # waits for the text
    with RunHelper(sc.decimation) as helper:
        traj = simulate_closed_loop(sc.controller, sc.valve, sc.disturbance,
                                    dt=sc.resolved_dt(),
                                    t_end=sc.resolved_t_end(),
                                    observe=sc.observe, cmap=sc.cmap,
                                    helper=helper)
        y = traj.column("y")
        co = traj.column("co")
        r = sc.controller.reference
        # the boundary is only compared with the finished run: a map on which
        # it cannot be placed skips that comparison, not the run
        try:
            boundary = surge_boundary(sc.cmap)
        except (AnalysisError, DomainError) as err:
            boundary, why = None, err
        excursion = gain_excursion(traj)
        y_min, co_min, co_max = y.min(), co.min(), co.max()
        if args.svg:
            tt = _thin(traj.t)
            series = [Series("y (inlet flow)", tt, _thin(y)),
                      Series("ym (reference model)", tt,
                             _thin(traj.column("ym"))),
                      Series("d (disturbance)", tt, _thin(traj.column("d"))),
                      Series("co (valve flow)", tt, _thin(co))]
            render_svg(series, args.svg, x_label="time (s)", y_label="flow",
                       title=f"closed loop ({sc.name})")
        if args.svg_params:
            series = [Series(n, _thin(traj.t), _thin(traj.column(n)))
                      for n in ("k1", "k2", "k3")]
            render_svg(series, args.svg_params, x_label="time (s)",
                       y_label="controller gain",
                       title=f"adaptive gains ({sc.name})")
        write_trajectory(traj, path, sc.decimation, helper=helper)
        print(f"closed-loop run ({sc.controller.kind}, gamma = "
              f"{sc.controller.gamma:g}): {traj.n_rows} samples, "
              f"dt={traj.dt:g} -> {path}")
        print(f"terminal flow y = {y[-1]:.6g} (set point {r:g}, "
              f"error {abs(y[-1] - r):.3g})")
        print(f"valve flow range [{co_min:.6g}, {co_max:.6g}], "
              f"gain excursion {excursion:.6g}")
        if boundary is None:
            print(f"surge boundary check skipped: {why}")
        elif y_min < boundary:
            print(f"WARNING: flow dipped below the surge boundary "
                  f"{boundary:.4g} (min y = {y_min:.6g})")
        else:
            print(f"flow stayed above the surge boundary {boundary:.4g} "
                  f"(min y = {y_min:.6g})")
        if args.svg:
            print(f"figure -> {args.svg}")
        if args.svg_params:
            print(f"figure -> {args.svg_params}")
    return 0


def cmd_averaging(args) -> int:
    sc = _load(args, "averaging")
    grid = sc.averaging
    rows = stability_verdict(grid_points(grid))
    path = _csv_path(args, sc)
    write_rows(REPORT_HEADER,
               [(w.point.k1, w.point.k2, w.point.k3, w.point.gamma,
                 w.point.r, *w.eigenvalues, w.verdict) for w in rows], path)
    lam_max = max(max(w.eigenvalues) for w in rows)
    n_stable = sum(w.verdict == "stable" for w in rows)
    print(f"averaged-dynamics grid {grid.n}x{grid.n} "
          f"(gamma = {grid.gamma:g}, r = {grid.r:g}) -> {path}")
    print(f"{n_stable}/{len(rows)} points stable; "
          f"largest eigenvalue {lam_max:.3g}")
    print("note: eigenvalues come from the numeric eigensolve of the "
          "analytic Jacobian (two exact zeros plus the singular-block "
          "trace); commonly quoted closed-form expressions for the nonzero "
          "eigenvalue do not match direct differentiation and are not used.")
    return 0


def _override(p, option: str, key: str, **kwargs) -> None:
    """Add a flag that overrides scenario key ``key`` (its dest), parsed as
    the key's type; the help shows the metavar argparse derives from the
    option, not the key."""
    if "choices" not in kwargs and kwargs.get("action") != "store_true":
        kwargs["metavar"] = option.lstrip("-").replace("-", "_").upper()
        kwargs["type"] = int if KNOWN_KEYS[key] == "int" else float
    p.add_argument(option, dest=key, **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``surgekit`` parser, built once per process: each parse returns
    a fresh namespace, and each command reads the functions it calls as
    module globals when it runs, so rebinding one still takes effect."""
    parser = argparse.ArgumentParser(
        prog="surgekit",
        description="Compressor surge stability analysis and anti-surge "
                    "control simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--scenario", help="shipped scenario name or file path")
        p.add_argument("--out-dir", help="output directory "
                       "(default: $SURGEKIT_OUT_DIR or '.')")
        p.add_argument("--csv", help="explicit CSV output path")
        return p

    def run_flags(p):
        _override(p, "--dt", "run.dt")
        _override(p, "--t-end", "run.t_end")
        _override(p, "--decimation", "run.decimation",
                  help="record every Nth sample in the CSV")

    p = command("map", cmd_map, "tabulate the compressor map")
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--svg")

    p = command("stability", cmd_stability,
                "scan equilibrium stability vs flow")
    for flag in ("lo", "hi"):
        _override(p, f"--{flag}", f"stability.{flag}")
    _override(p, "--n", "stability.n")
    p.add_argument("--svg")

    def plant_flags(p):
        _override(p, "--flow", "plant.flow",
                  help="equilibrium flow; sets the throttle parameter")
        _override(p, "--g", "plant.g",
                  help="throttle parameter directly")
        for flag in ("phi0", "psi0", "perturb-phi", "perturb-psi"):
            _override(p, f"--{flag}", "plant." + flag.replace("-", "_"))
        run_flags(p)
        p.add_argument("--svg")

    p = command("simulate", cmd_simulate, "open-loop surge-model run")
    plant_flags(p)
    p.add_argument("--ss-window", dest="ss_window", type=float, default=5.0)
    p.add_argument("--ss-tol", dest="ss_tol", type=float, default=1e-3)

    p = command("limit-cycle", cmd_limit_cycle,
                "open-loop run plus limit-cycle detection")
    plant_flags(p)
    _override(p, "--settle-fraction", "cycle.settle_fraction")
    _override(p, "--tol", "cycle.tol")

    p = command("tune", cmd_tune, "tangent tuning rule gains")
    _override(p, "--L", "tune.L", help="dead time")
    _override(p, "--T", "tune.T", help="time constant")
    _override(p, "--rule", "tune.rule", choices=TUNE_RULES)
    p.add_argument("--step-csv", dest="step_csv",
                   help="extract L and T from a step-response trajectory CSV")
    p.add_argument("--signal", help="column to fit (default: first signal)")
    p.add_argument("--final", type=float,
                   help="known final value of the step response")

    p = command("closedloop", cmd_closedloop, "closed-loop anti-surge run")
    _override(p, "--controller", "controller.kind", choices=CONTROLLER_KINDS)
    for flag in ("kp", "ki", "kd", "k1", "k2", "k3", "gamma", "reference"):
        _override(p, f"--{flag}", f"controller.{flag}")
    for flag, name in (("target", "target"), ("dtau", "tau"),
                       ("dinit", "initial")):
        _override(p, f"--{flag}", f"disturbance.{name}")
    _override(p, "--observe", "observe.enabled", action="store_true",
              default=None,
              help="append side-by-side compressor states phi, psi")
    run_flags(p)
    p.add_argument("--svg")
    p.add_argument("--svg-params", dest="svg_params")

    p = command("averaging", cmd_averaging,
                "stability grid of the averaged adaptation")
    for flag in ("k1-lo", "k1-hi", "k2-lo", "k2-hi"):
        _override(p, f"--{flag}", "averaging." + flag.replace("-", "_"))
    _override(p, "--grid-n", "averaging.n")
    for name in ("k3", "gamma", "r"):
        _override(p, f"--avg-{name}", f"averaging.{name}")

    p = sub.add_parser("scenarios", help="list shipped scenario files")
    p.set_defaults(func=lambda args: _cmd_scenarios())
    return parser


def _cmd_scenarios() -> int:
    for name in shipped_scenarios():
        sc = resolve_scenario(name)
        print(f"{name:8s} {sc.kind}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except SurgeKitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
