"""Spans recorded from outside the program, around calls into each layer.

The tracer replaces each public function under the name ``surgekit.cli``
imported it with a wrapper that records a span (name, start, end, parent
span, invocation id) and the work counts of that call.  Nothing inside
the package is edited: functions the CLI reaches through other modules
(the RK4 kernels under ``simulate_*``, ``write_rows`` under
``write_trajectory``) are inside their caller's span.

Spans stay in memory until the worker writes its result at the end of the
run.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from workloads import MAIN_SPAN

#: function imported by ``surgekit.cli`` -> (layer, span name)
WRAPPED = {
    "resolve_scenario": ("scenario", "scenario.resolve_scenario"),
    "validate": ("scenario", "scenario.validate"),
    "simulate_closed_loop": ("loop.simulate_closed_loop",
                             "loop.simulate_closed_loop"),
    "simulate_greitzer": ("odesim.simulate_greitzer",
                          "odesim.simulate_greitzer"),
    "stability_scan": ("stability", "stability.stability_scan"),
    "surge_boundary": ("stability", "stability.surge_boundary"),
    "detect_limit_cycle": ("stability", "stability.detect_limit_cycle"),
    "grid_points": ("averaging", "averaging.grid_points"),
    "stability_verdict": ("averaging", "averaging.stability_verdict"),
    "steady_state_of": ("odesim.steady_state_of", "odesim.steady_state_of"),
    "gain_excursion": ("loop.gain_excursion", "loop.gain_excursion"),
    "write_rows": ("csvio", "csvio.write_rows"),
    "write_trajectory": ("csvio", "csvio.write_trajectory"),
    "render_svg": ("svgplot", "svgplot.render_svg"),
}

LAYERS = ("cli", "scenario", "loop.simulate_closed_loop",
          "odesim.simulate_greitzer", "stability", "averaging",
          "odesim.steady_state_of", "loop.gain_excursion", "csvio",
          "svgplot")

_LAYER_OF = {span: layer for layer, span in WRAPPED.values()}
_LAYER_OF[MAIN_SPAN] = "cli"   # its self time is the CLI's own


#: work counts kept per traced pass, with their units
COUNTS = {
    "loop.simulate_closed_loop.steps": "count",
    "loop.simulate_closed_loop.state_cols": "count",
    "odesim.simulate_greitzer.steps": "count",
    "stability.points": "count",
    "averaging.points": "count",
    "csvio.rows": "count",
    "csvio.bytes": "B",
    "svgplot.points": "count",
    "svgplot.bytes": "B",
}


def _count(tracer, span, result, args, kwargs):
    """Work counts of one call, keyed '<layer>.<count>'."""
    counts = tracer.counts
    if span in ("loop.simulate_closed_loop", "odesim.simulate_greitzer"):
        counts[span + ".steps"] += result.n_rows - 1
        if span == "loop.simulate_closed_loop":
            counts[span + ".state_cols"] = max(counts[span + ".state_cols"],
                                               len(result.columns))
    elif span == "stability.stability_scan":
        counts["stability.points"] += len(result)
    elif span == "stability.surge_boundary":
        tracer.boundary_inputs.append(repr((args, sorted(kwargs.items()))))
    elif span == "averaging.grid_points":
        counts["averaging.points"] += len(result)
    elif span == "csvio.write_rows":
        counts["csvio.rows"] += len(args[1])
        counts["csvio.bytes"] += os.path.getsize(args[2])
    elif span == "csvio.write_trajectory":
        decimate = args[2] if len(args) > 2 else kwargs.get("decimate", 1)
        counts["csvio.rows"] += len(range(0, args[0].n_rows, decimate))
        counts["csvio.bytes"] += os.path.getsize(args[1])
    elif span == "svgplot.render_svg":
        counts["svgplot.points"] += sum(len(s.x) for s in args[0])
        counts["svgplot.bytes"] += os.path.getsize(args[1])


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, invocation]
        self.counts = defaultdict(int)
        self.boundary_inputs = []   # one key per surge_boundary call
        self._stack = []
        self.invocation = -1

    def call(self, span, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``span``."""
        parent = self._stack[-1] if self._stack else -1
        record = [span, time.perf_counter(), 0.0, parent, self.invocation]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        _count(self, span, result, args, kwargs)
        return result

    def as_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "boundary_inputs": self.boundary_inputs}


def layer_self_seconds(spans, scales) -> dict:
    """Per layer: span durations minus the time their child spans cover.

    Each span's duration is multiplied by ``scales[invocation]``.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, start, end, parent, invocation in spans:
        seconds = (end - start) * scales[invocation]
        self_s[_LAYER_OF[name]] += seconds
        if parent >= 0:
            self_s[_LAYER_OF[spans[parent][0]]] -= seconds
    return self_s


def layer_calls(spans) -> dict:
    calls = dict.fromkeys(LAYERS, 0)
    for record in spans:
        calls[_LAYER_OF[record[0]]] += 1
    return calls


def install(cli_module, tracer: Tracer) -> dict:
    """Point the CLI's imported names at traced wrappers; returns originals."""
    originals = {name: getattr(cli_module, name) for name in WRAPPED}
    for name, (_, span) in WRAPPED.items():
        setattr(cli_module, name,
                functools.partial(tracer.call, span, originals[name]))
    return originals


def uninstall(cli_module, originals: dict) -> None:
    for name, fn in originals.items():
        setattr(cli_module, name, fn)
