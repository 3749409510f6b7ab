#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of surgekit through ``cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog_closedloop --seed 1 \\
        --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  This script starts fresh
interpreters one at a time, each with one thread of its own, and never
two at once: the set-up probes, then one worker (``worker.py``) that
calls ``cli.main`` in-process for every pass of the run.  A fresh worker
makes its peak memory that of the workload alone.  The package comes from
the checkout's ``src``; without it the run fails (exit 2, no result).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: a fresh interpreter importing ``surgekit.cli`` and running
  ``cli.main(["scenarios"])``, median of several.
- ``wall_s``: one pass of the workload, median of the passes measured in
  ``--seconds`` after a warm-up pass (every call of a pass once, with
  horizons cut to 0.5 time units: it loads the same code, and compiles the
  same kernel signatures when numba is present, for 1% of a full pass).
- ``invocation_s.p50`` and ``invocation_s.tail``: latency of one call.  The
  tail is the highest of p90/p95/p99/p99.9 with at least ten calls above
  it; with fewer than 100 calls, the slowest call's median over the passes.
- ``steps_per_s``: RK4 steps (open and closed loop) of a pass per second.
- ``peak_rss_mb``: peak resident memory of the worker.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (see ``spans.py``), per pass.
``trace.overhead_s`` is the traced minus the untraced pass time.

Every call's exit code and outputs are checked (``workloads.Checker``);
failed calls count in ``failed`` and the printed ``failed_ratio``, and are
never retried.  Human-readable lines come first; the last line of standard
output is the JSON result.  A record of the run (environment, metrics with
sample counts, failures and, when traced, every span) is written to
``.perfbench/<workload>-seed<seed>-trace<trace>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 5
RUN_BUDGET_S = 170           # a run, set-up included, must end within this
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None     # not a git checkout: source_sha256 identifies it


def _source_sha256():
    """Digest of the package source, which identifies it without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "surgekit")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".scn")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    """Machine and code of the run; the worker adds numpy and the flavour."""
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numba_present": importlib.util.find_spec("numba") is not None,
            "git_commit": _git_commit(),
            "source_sha256": _source_sha256(),
            "loadavg_before": os.getloadavg()}


def tail(passes):
    """(statistic, value) of the latency tail, at reference speed.

    The highest ladder percentile with at least ten calls above it; with
    too few calls for any, the slowest call's median over the passes (a
    pass makes the same calls in the same order).
    """
    latencies = [_seconds(c) for p in passes for c in p["calls"]]
    for p in TAIL_PERCENTILES:
        if len(latencies) * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return f"p{p:g}", cuts[round(p * 10) - 1]
    per_call = zip(*([_seconds(c) for c in p["calls"]] for p in passes))
    return "slowest call median", max(map(statistics.median, per_call))


def child_env(numba_cache: str, no_numba: bool = False) -> dict:
    """Environment of a fresh interpreter: checkout source, cold JIT cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["NUMBA_CACHE_DIR"] = numba_cache
    if no_numba:
        env["SURGEKIT_NO_NUMBA"] = "1"
    return env


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def setup_seconds(run_dir: str, deadline: float) -> tuple:
    """Fresh-interpreter start-up times at reference speed, and exit codes.

    The interpreters run one at a time, with a speed probe between them.
    """
    code = ("import sys, surgekit.cli; "
            "sys.exit(surgekit.cli.main(['scenarios']))")
    times, codes, probes = [], [], [speed.probe()]
    for k in range(SETUP_RUNS):
        env = child_env(os.path.join(run_dir, f"numba-cache-setup-{k}"))
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=remaining(deadline))
        times.append(time.perf_counter() - t0)
        codes.append(proc.returncode)
        probes.append(speed.probe())
    return [t * speed.REF_S / (0.5 * (p0 + p1))
            for t, p0, p1 in zip(times, probes, probes[1:])], codes


class WorkerError(RuntimeError):
    pass


def run_worker(args, run_dir, tag, seconds, deadline, no_numba=False):
    """(invocations, result) of a worker run; see ``worker.py``."""
    out = os.path.join(run_dir, f"out-{tag}")
    result_path = os.path.join(run_dir, f"worker-{tag}.json")
    env = child_env(os.path.join(run_dir, f"numba-cache-{tag}"), no_numba)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
         str(args.seed), repr(seconds), str(args.trace), out, result_path],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return workloads.WORKLOADS[args.workload](out, args.seed), result


class Tally:
    """Attempted and failed calls of the whole run."""

    def __init__(self):
        self.checker = workloads.Checker()
        self.attempted = 0
        self.failures = []

    def add_worker(self, invs, result):
        self.attempted += len(result["warmup"])
        self.failures += self.checker.failures(invs, result["warmup"],
                                               warmup=True)
        for one in result["passes"]:
            self.attempted += len(one["calls"])
            self.failures += self.checker.failures(invs, one["calls"])


def _scale(call) -> float:
    """Factor that takes a call's seconds to the reference speed."""
    return speed.REF_S / call["probe_s"]


def _seconds(call) -> float:
    """A call's time at reference speed."""
    return call["seconds"] * _scale(call)


def _wall(one_pass) -> float:
    """Pass time at reference speed."""
    return sum(_seconds(c) for c in one_pass["calls"])


def end_to_end(invs, result, setup):
    """The end-to-end metrics: name -> (value, unit, samples, statistic)."""
    passes = result["passes"]
    walls = [_wall(p) for p in passes]
    latencies = [_seconds(c) for p in passes for c in p["calls"]]
    tail_label, tail_value = tail(passes)
    wall = statistics.median(walls)
    steps = sum(inv.steps for inv in invs)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup), "median"),
        "wall_s": (wall, "s", len(walls), "median"),
        "invocation_s.p50": (statistics.median(latencies), "s",
                             len(latencies), "median"),
        "invocation_s.tail": (tail_value, "s", len(latencies), tail_label),
        "steps_per_s": (steps / wall, "1/s", len(walls), "median pass"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", 1, "worker peak"),
    }


def per_layer(result):
    """The per-layer metrics of the traced passes, per pass."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    walls = [_wall(p) for p in traced]
    first = traced[0]
    counts = first["counts"]
    calls_of = spans.layer_calls(first["spans"])
    selfs = [spans.layer_self_seconds(p["spans"],
                                      [_scale(c) for c in p["calls"]])
             for p in traced]
    n = len(traced)
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (calls_of[layer], "count", n, "")
        metrics[f"{layer}.self_s"] = (
            statistics.median(s[layer] for s in selfs), "s", n, "median")
        metrics[f"{layer}.share"] = (
            statistics.median(s[layer] / w for s, w in zip(selfs, walls)),
            "ratio", n, "median")
    for name, unit in spans.COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit, n, "")
    for layer in ("loop.simulate_closed_loop", "odesim.simulate_greitzer"):
        steps = counts.get(f"{layer}.steps", 0)
        self_s = metrics[f"{layer}.self_s"][0]
        metrics[f"{layer}.us_per_step"] = (
            1e6 * self_s / steps if steps else 0.0, "us", n, "median")
    csv_s = metrics["csvio.self_s"][0]
    metrics["csvio.mb_per_s"] = (
        counts.get("csvio.bytes", 0) / 1e6 / csv_s if csv_s > 0 else 0.0,
        "MB/s", n, "median")
    inputs = first["boundary_inputs"]
    metrics["stability.surge_boundary.distinct_ratio"] = (
        len(set(inputs)) / len(inputs) if inputs else 0.0, "ratio", n, "")
    metrics["trace.overhead_s"] = (
        statistics.median(walls) - statistics.median(map(_wall, plain)),
        "s", n, "median traced - median untraced")
    return metrics


def machine_speed(result) -> dict:
    """The raw side of the scaling: probe and pass times as measured."""
    calls = [c for p in result["passes"] for c in p["calls"]]
    return {"probe_s_median": statistics.median(c["probe_s"] for c in calls),
            "ref_s": speed.REF_S,
            "raw_pass_s": [sum(c["seconds"] for c in p["calls"])
                           for p in result["passes"]]}


def measure(args, run_dir, record, tally, deadline):
    if not args.trace:
        setup, codes = setup_seconds(run_dir, deadline)
        tally.attempted += len(codes)
        tally.failures += [f"setup: exit code {rc}" for rc in codes if rc]
    invs, result = run_worker(args, run_dir, "main", args.seconds, deadline)
    tally.add_worker(invs, result)
    record["environment"].update(flavour=result["flavour"],
                                 numpy=result["numpy"])
    record["machine_speed"] = machine_speed(result)
    if args.trace:
        record["spans"] = [
            {"pass": k, "name": name, "start": start, "end": end,
             "parent": parent, "invocation": inv}
            for k, p in enumerate(result["passes"]) if p["traced"]
            for name, start, end, parent, inv in p["spans"]]
        return per_layer(result)

    record["flavours"] = {result["flavour"]: list(map(_wall,
                                                      result["passes"]))}
    if result["flavour"] == "jit":
        # the pure-Python flavour, which users without numba run
        invs_py, result_py = run_worker(args, run_dir, "py", 0.0, deadline,
                                        no_numba=True)
        tally.add_worker(invs_py, result_py)
        record["flavours"]["py"] = list(map(_wall, result_py["passes"]))
    return end_to_end(invs, result, setup)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "surgekit", "cli.py")):
        print(f"error: no surgekit source under {SRC}", file=sys.stderr)
        return 2

    run_dir = os.path.join(
        WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    record = {"environment": environment(args)}
    tally = Tally()
    try:
        metrics = measure(args, run_dir, record, tally, deadline)
    except (WorkerError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(run_dir):
            if name.startswith(("out-", "numba-cache-", "worker-")):
                shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)
    record["environment"]["loadavg_after"] = os.getloadavg()

    failed = len(tally.failures)
    failed_ratio = failed / tally.attempted
    record["failures"] = tally.failures
    record["failed_ratio"] = failed_ratio
    record["metrics"] = {name: {"value": v, "unit": u, "samples": n,
                                "statistic": stat}
                         for name, (v, u, n, stat) in metrics.items()}
    with open(os.path.join(run_dir, "record.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(record["environment"]))
    print("machine speed: " + json.dumps(record["machine_speed"]))
    for line in tally.failures:
        print(f"FAILED {line}")
    for name, (value, unit, n, stat) in metrics.items():
        extra = f", {stat}" if stat else ""
        print(f"{name:44s} {value:14.6g} {unit:6s} (n={n}{extra})")
    print(f"{'failed_ratio':44s} {failed_ratio:14.6g} {'ratio':6s} "
          f"(n={tally.attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
