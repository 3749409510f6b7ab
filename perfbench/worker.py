"""The passes of one benchmark run, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR RESULT

The caller puts the checkout's ``src`` on PYTHONPATH.  The worker runs a
warm-up pass, then passes until SECONDS have gone (at least two); with
TRACE 1 every untraced pass is followed by a traced one.  The peak
resident memory is read after the first pass: that of a fresh process
which has run one pass (and the short warm-up).  RESULT receives the
kernel flavour, the peak memory, each call's exit code, stderr, seconds,
speed probe and output facts, and the spans and counts of each traced
pass.
"""

import json
import resource
import sys
import time

import spans
import workloads

#: two passes at least, so repeated calls can be compared byte for byte
MIN_PASSES = 2


def main(argv) -> int:
    workload, seed, seconds, trace, out, result_path = argv
    import numpy
    from surgekit import _kernels, cli
    invs = workloads.WORKLOADS[workload](out, int(seed))
    warmup = workloads.run_pass(cli.main, invs, warmup=True)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append({"traced": False,
                       "calls": workloads.run_pass(cli.main, invs)})
        if len(passes) == 1:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace == "1":
            tracer = spans.Tracer()
            originals = spans.install(cli, tracer)
            try:
                calls = workloads.run_pass(cli.main, invs, tracer=tracer)
            finally:
                spans.uninstall(cli, originals)
            passes.append({"traced": True, "calls": calls,
                           **tracer.as_dict()})
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start >= float(seconds)):
            break
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"flavour": "jit" if _kernels.NUMBA_ENABLED else "py",
                   "numpy": numpy.__version__,
                   "peak_rss_mb": peak_kib / 1024.0,
                   "warmup": warmup, "passes": passes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
