"""Shared fixtures: closed-loop runs integrated once per test session,
and a check that no test leaves a child process behind."""

import inspect
import os

import pytest

from surgekit import csvio
from surgekit.loop import simulate_closed_loop


@pytest.fixture(scope="session")
def closed_loop_run():
    """``simulate_closed_loop``, integrated once per distinct argument set.

    Calls with the same arguments (defaults filled in) share one run; its
    samples are read-only, so a test that mutates a shared run fails.
    """
    signature = inspect.signature(simulate_closed_loop)
    runs = {}

    def run(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.items())
        if key not in runs:
            traj = simulate_closed_loop(*args, **kwargs)
            traj.samples.flags.writeable = False
            runs[key] = traj
        return runs[key]
    return run


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.  The
    helper process of the runs (``csvio.RunHelper``) is shut down first,
    as at exit (``csvio._shutdown``), so the check also proves that the
    shutdown reaps it, and each test starts without one."""
    yield
    csvio._shutdown()
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"{pid} unreaped" if pid else "running"))
