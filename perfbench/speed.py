"""The machine's current speed, from a fixed piece of interpreter work.

The benchmark runs on shared CPUs whose speed swings with the load of
their other users: on the 2-core Xeon VM where it was defined, the same
call took anywhere from 1x to 1.7x its fastest time over a few minutes,
so raw times of runs made minutes apart differed by more than any useful
regression bound.  The probe below, timed right before and after the
calls, slowed down with them: the ratio of a call's time to the probe's
stayed within 1% while the raw times moved 17%.

Times are therefore reported at a reference speed: each call's seconds
times ``REF_S`` over the mean of the probes around it.  ``REF_S`` is the
probe's median time on that machine, so reported times read as seconds
there.  The probe shares no code with surgekit, so a change to the
program moves the reported times in full; raw seconds are recorded too.
"""

import time

#: RK4 steps of the probe's scalar ODE
PROBE_STEPS = 18000
#: the probe's median time on the machine where the benchmark was defined
REF_S = 0.0185
#: during a pass, a probe runs before a call once this long has passed
EVERY_S = 1.0


def probe() -> float:
    """Seconds taken by a fixed amount of interpreter work.

    Scalar RK4 steps and 9-digit formatting: the kinds of work the
    pure-Python kernels and the CSV writer do.
    """
    t0 = time.perf_counter()
    x, v, h = 1.0, 0.0, 1e-3
    lines = []
    for i in range(PROBE_STEPS):
        a1, b1 = v, -x - 0.1 * v
        x2, v2 = x + 0.5 * h * a1, v + 0.5 * h * b1
        a2, b2 = v2, -x2 - 0.1 * v2
        x3, v3 = x + 0.5 * h * a2, v + 0.5 * h * b2
        a3, b3 = v3, -x3 - 0.1 * v3
        x4, v4 = x + h * a3, v + h * b3
        a4, b4 = v4, -x4 - 0.1 * v4
        x += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        v += h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        if i % 8 == 0:
            lines.append("%.9g,%.9g" % (x, v))
    return time.perf_counter() - t0
