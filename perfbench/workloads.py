"""The three workloads: the ``cli.main`` calls of one pass, and their checks.

Every workload is a closed loop with one caller: each call starts when the
previous one has returned.

- ``catalog_closedloop``: the closed-loop catalog entries at their shipped
  settings, dense CSV with no SVG.  This is the run users make most; it is
  dominated by the closed-loop RK4 kernel and the CSV writer.  fig14 takes
  the saturated, adaptation-gated branch and fig15 the fixed-PID branch.
- ``catalog_analysis``: every other catalog entry plus the stability scan
  and the map table.  Short calls where fixed per-call cost, the open-loop
  kernel, the analyses and SVG rendering matter; the closed-loop kernel does
  no work, so this workload must not move when only that kernel changes.
- ``sweep_observe``: a parameter study drawn from the seed, run as
  ``closedloop --observe --decimation 100 --t-end 20``.  Same kernel, used
  through its 13-state observe branch with 100x fewer CSV rows: a CSV-writer
  gain shows nothing here, a kernel gain shows most.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass

import speed

HERE = os.path.dirname(os.path.abspath(__file__))

#: sha256 of each catalog CSV as written at commit d34736d, where this
#: benchmark was defined; every later commit must write the same bytes
DIGESTS_PATH = os.path.join(HERE, "digests.json")

CLOSEDLOOP_CATALOG = ("fig10", "fig12", "fig14", "fig15")

SWEEP_POINTS = 6                  # calls per pass, two of each controller
SWEEP_KINDS = ("adaptive", "fixed-pid", "fixed-pd")
SWEEP_GAMMA = (0.25, 4.0)
SWEEP_TARGET = (0.3, 0.65)
SWEEP_T_END = 20.0
LOOP_DT = 1e-3                    # the closed loop's default step
SWEEP_DECIMATION = 100
SWEEP_HEADER = "t,d,u,x,co,y,ym,e,k1,k2,k3,phi,psi"

#: span name of each ``cli.main`` call when traced
MAIN_SPAN = "cli.main"

#: horizon of the warm-up pass, which runs every call of a pass once
WARMUP_T_END = "0.5"


@dataclass
class Invocation:
    """One ``cli.main`` call and what its output must be."""

    name: str               # output stem, unique within a pass
    argv: list
    csv: str                # CSV path the call writes
    steps: int              # RK4 steps it integrates at the stated size
    svg: str | None = None
    digest: str | None = None   # expected sha256 of the CSV, if fixed
    rows: int | None = None     # expected data rows, if checked by count

    def warmup_argv(self) -> list:
        """The same call, with its horizon cut short when it integrates."""
        if self.steps == 0:
            return self.argv
        return self.argv + ["--t-end", WARMUP_T_END]


def _load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# Steps per call are t_end / dt of the shipped scenario: 50 / 1e-3 for the
# closed loop, 100 / 1e-2 (fig3_4, fig6) and 50 / 1e-2 (fig7) open loop.

def catalog_closedloop(out: str, seed: int) -> list:
    digests = _load_digests()
    return [Invocation(name, ["closedloop", "--scenario", name,
                              "--out-dir", out],
                       os.path.join(out, f"{name}.csv"), 50_000,
                       digest=digests[name])
            for name in CLOSEDLOOP_CATALOG]


def catalog_analysis(out: str, seed: int) -> list:
    digests = _load_digests()

    def inv(name, argv, steps=0, svg=False):
        svg_path = os.path.join(out, f"{name}.svg") if svg else None
        argv = argv + ["--out-dir", out] + (["--svg", svg_path] if svg else [])
        return Invocation(name, argv, os.path.join(out, f"{name}.csv"), steps,
                          svg=svg_path, digest=digests[name])

    return [inv("fig3_4", ["simulate", "--scenario", "fig3_4"], 10_000, True),
            inv("fig6", ["limit-cycle", "--scenario", "fig6"], 10_000, True),
            inv("fig7", ["simulate", "--scenario", "fig7"], 5_000),
            inv("stability", ["stability", "--n", "1000"], svg=True),
            inv("map", ["map"], svg=True),
            inv("avg", ["averaging", "--scenario", "avg"]),
            inv("zn", ["tune", "--scenario", "zn"])]


def _stratified(rng, lo, hi, n) -> list:
    """One uniform draw in each of n equal bins of [lo, hi], in random order."""
    values = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(values)
    return values


def sweep_points(seed: int) -> list:
    """(controller, gamma, target) of each call; the seed fixes them all.

    Each pass holds every controller kind equally often, and one gamma and
    one target from each of SWEEP_POINTS equal bins of their ranges, so
    passes of different seeds integrate a like mix of branches and costs.
    """
    rng = random.Random(seed)
    kinds = list(SWEEP_KINDS) * (SWEEP_POINTS // len(SWEEP_KINDS))
    rng.shuffle(kinds)
    return list(zip(kinds, _stratified(rng, *SWEEP_GAMMA, SWEEP_POINTS),
                    _stratified(rng, *SWEEP_TARGET, SWEEP_POINTS)))


def sweep_observe(out: str, seed: int) -> list:
    steps = round(SWEEP_T_END / LOOP_DT)
    rows = len(range(0, steps + 1, SWEEP_DECIMATION))
    calls = []
    for i, (kind, gamma, target) in enumerate(sweep_points(seed)):
        csv = os.path.join(out, f"sweep_{i}.csv")
        argv = ["closedloop", "--controller", kind, "--gamma", f"{gamma:.6f}",
                "--target", f"{target:.6f}", "--observe",
                "--decimation", str(SWEEP_DECIMATION),
                "--t-end", f"{SWEEP_T_END:g}", "--csv", csv]
        calls.append(Invocation(f"sweep_{i}", argv, csv, steps, rows=rows))
    return calls


WORKLOADS = {"catalog_closedloop": catalog_closedloop,
             "catalog_analysis": catalog_analysis,
             "sweep_observe": sweep_observe}


def output_facts(inv: Invocation) -> dict:
    """What the checks need from a call's outputs, read right after it."""
    try:
        with open(inv.csv, "rb") as fh:
            data = fh.read()
        facts = {"sha256": hashlib.sha256(data).hexdigest(),
                 "header": data.split(b"\n", 1)[0].decode(),
                 "rows": data.count(b"\n") - 1}
        if inv.svg is not None:
            with open(inv.svg, "rb") as fh:
                facts["svg_complete"] = fh.read().endswith(b"</svg>\n")
    except OSError as err:
        return {"error": str(err)}
    return facts


def call_main(main, argv) -> tuple:
    """(exit code, stderr text) of one call; a traceback is exit code 1."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback exit is a failed call, not a crash
            rc = 1
            err.write(traceback.format_exc())
    return rc, err.getvalue()


def run_pass(main, invs, warmup: bool = False, tracer=None) -> list:
    """Run every call of a pass once, in order; only the calls are timed.

    Returns one dict per call: exit code, stderr, seconds and, outside the
    warm-up, the mean time of the speed probes around the call
    (``probe_s``) and, for a successful call, the facts of its outputs.
    Probes run before the first call, after the last, and before any call
    that starts ``speed.EVERY_S`` after the previous probe.
    """
    done, probes = [], []       # probes: (index of the next call, seconds)
    last_probe = -math.inf
    for k, inv in enumerate(invs):
        if not warmup and time.perf_counter() - last_probe >= speed.EVERY_S:
            probes.append((k, speed.probe()))
            last_probe = time.perf_counter()
        argv = inv.warmup_argv() if warmup else inv.argv
        t0 = time.perf_counter()
        if tracer is None:
            rc, err = call_main(main, argv)
        else:
            tracer.invocation += 1
            rc, err = tracer.call(MAIN_SPAN, call_main, main, argv)
        call = {"rc": rc, "stderr": err, "seconds": time.perf_counter() - t0}
        if rc == 0 and not warmup:
            call["facts"] = output_facts(inv)
        done.append(call)
    if not warmup:
        probes.append((len(invs), speed.probe()))
        for k, call in enumerate(done):
            before = [p for at, p in probes if at <= k][-1]
            after = next(p for at, p in probes if at > k)
            call["probe_s"] = 0.5 * (before + after)
    return done


class Checker:
    """Judges each call by its exit code and output facts.

    Catalog CSVs must match the recorded digests.  Sweep CSVs must have the
    expected header and row count, and be byte-identical every time the same
    call runs within one benchmark run (the first sighting is the reference).
    Warm-up calls, whose horizon is cut short, are judged by exit code only.
    """

    def __init__(self):
        self.seen = {}

    def failures(self, invs, calls, warmup: bool = False) -> list:
        """One line per failed call."""
        out = []
        for inv, call in zip(invs, calls):
            if call["rc"] != 0:
                problem = f"exit code {call['rc']}"
            elif warmup:
                continue
            else:
                problem = self._output_problem(inv, call["facts"])
            if problem:
                last = call["stderr"].strip().splitlines()[-1:] or [""]
                out.append(f"{inv.name}: {problem} {last[0]}".strip())
        return out

    def _output_problem(self, inv: Invocation, facts: dict):
        if "error" in facts:
            return f"output unreadable: {facts['error']}"
        if inv.digest is not None and facts["sha256"] != inv.digest:
            return f"CSV sha256 {facts['sha256']} != recorded {inv.digest}"
        if inv.rows is not None:
            if facts["header"] != SWEEP_HEADER or facts["rows"] != inv.rows:
                return (f"CSV has header {facts['header']!r} and "
                        f"{facts['rows']} rows, expected {inv.rows}")
            if self.seen.setdefault(inv.name, facts["sha256"]) \
                    != facts["sha256"]:
                return "CSV differs from an earlier run of the same call"
        if inv.svg is not None and not facts["svg_complete"]:
            return "SVG is truncated"
        return None
