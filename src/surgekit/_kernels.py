"""Hot fixed-step integration loops, in pure Python.

The loops compute on Python floats, several times faster in the
interpreter than numpy scalars: the open-loop kernel
:func:`greitzer_loop` starts from ``float`` scalars, and
:func:`closed_loop_loop` runs on ``state.tolist()`` and records rows
through a flat ``memoryview`` of ``out``.  Each fills a preallocated
``out`` array; the closed loop fills it in ranges of rows, and reports
each to a caller's ``report`` (``csvio.RunHelper`` observes and formats
them in another process).

The closed loop integrates only its live states, :func:`live_states`:
those whose rate :func:`closed_loop_rhs` can make nonzero for the run's
controller kind, less the reference model and the set-point filter when
they start at rest.  The gains k1..k3 move only under the adaptive kind
and ``e_int`` only under the fixed PID; the rhs sets every other rate to
exactly 0.0, so those states keep their initial values, as a full RK4
step would leave them.  The one exception is a zero written as ``-0.0``
(a fixed controller's gain, say), which stays ``-0.0`` where a full
step's ``-0.0 + 0.0`` would make it ``0.0``.

The rhs takes the 11 loop states as scalars and returns their rates and
the signals as one tuple.  The RK4 step over a range of rows is written
out as straight-line code for each live set, observed or not
(:func:`_step_source`), compiled on its first use and cached
(:func:`_step`): every loop state is a local named after it, and the
stages are closed_loop_rhs's own statements, inlined.  So the step calls
no function but ``isfinite`` and ``range``, and builds no tuple of rates;
to inline the rhs it reads this module's source, which every installed
copy has.  There are 24 such functions at most (12 live sets, observed or
not).

The observed compressor (phi, psi) of ``closedloop --observe`` is
one-way coupled: the measured flow y drives it and no loop rate reads it.
So it has its own kernel, :func:`observed_compressor`, which integrates it
over a range of rows from the flows the loop recorded: y at RK stage 1 in
the record, and at stages 2-4 in a stage buffer.  It may run in another
process while the loop goes on (``csvio.RunHelper``), or in this one
after the loop; its columns are bit for bit those of the coupled
13-state RK4.  ``loop`` merges its failure with the loop's.

Each model equation is defined once: the compressor map in
:func:`pressure_rise`, the surge model's rates in :func:`surge_rhs`
(called by the open-loop kernel at each RK4 stage, and through
:func:`observed_rhs` by the observer), and the closed-loop equations in
:func:`closed_loop_rhs` (inlined into the closed-loop step, and called by
:func:`live_states`).

Kernels never raise: they return ``(status, row)`` (the closed loop and
the observer ``(status, row, stage)``) so the wrappers in
``odesim``/``loop`` can map failures onto the package exceptions.
"""

import ast
import copy
import functools
import inspect
import math
import textwrap

# the kernels are never compiled; perfbench/worker.py reads this flag to
# record which flavour it timed
NUMBA_ENABLED = False

# status codes
OK = 0
NONFINITE = 1
PSI_NONPOSITIVE = 2

# controller kind codes
KIND_FIXED_PD = 0
KIND_FIXED_PID = 1
KIND_ADAPTIVE = 2

# closed-loop state vector layout
CL_STATE = ("x", "d", "ym1", "ym2", "v1", "v2", "v3",
            "k1", "k2", "k3", "e_int", "phi", "psi")
CL_DIM = len(CL_STATE)


def pressure_rise(phi, psi0, h, slope, offset, c0, c1, c2, c3):
    """The compressor map psi_c(phi) = psi0 + h * P(slope*phi + offset),
    ``P`` the cubic with ascending coefficients c0..c3."""
    w = slope * phi + offset
    return psi0 + h * (c0 + w * (c1 + w * (c2 + w * c3)))


def surge_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3, a, b):
    """Rates (d phi/dt, d psi/dt) of the surge model at throttle g.

    Needs psi > 0; callers check it, since sqrt(psi) is undefined below.
    """
    pc = pressure_rise(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return a * (pc - psi), b * (phi - g * math.sqrt(psi))


def greitzer_loop(out, dt, m_psi0, m_h, m_sl, m_off, c0, c1, c2, c3,
                  a, b, g):
    """RK4 on the two-state surge model.

    ``out`` is a preallocated (rows, 3) array whose row 0 already holds
    (0, phi0, psi0); remaining rows are filled with (t, phi, psi).
    Returns (status, row): on failure ``row`` is the first unfilled row.
    """
    n = out.shape[0]
    phi = float(out[0, 1])
    psi = float(out[0, 2])
    for i in range(1, n):
        if psi <= 0.0:
            return PSI_NONPOSITIVE, i
        k1p, k1s = surge_rhs(phi, psi, g, m_psi0, m_h, m_sl, m_off,
                             c0, c1, c2, c3, a, b)
        p2 = phi + 0.5 * dt * k1p
        s2 = psi + 0.5 * dt * k1s
        if s2 <= 0.0:
            return PSI_NONPOSITIVE, i
        k2p, k2s = surge_rhs(p2, s2, g, m_psi0, m_h, m_sl, m_off,
                             c0, c1, c2, c3, a, b)
        p3 = phi + 0.5 * dt * k2p
        s3 = psi + 0.5 * dt * k2s
        if s3 <= 0.0:
            return PSI_NONPOSITIVE, i
        k3p, k3s = surge_rhs(p3, s3, g, m_psi0, m_h, m_sl, m_off,
                             c0, c1, c2, c3, a, b)
        p4 = phi + dt * k3p
        s4 = psi + dt * k3s
        if s4 <= 0.0:
            return PSI_NONPOSITIVE, i
        k4p, k4s = surge_rhs(p4, s4, g, m_psi0, m_h, m_sl, m_off,
                             c0, c1, c2, c3, a, b)

        phi = phi + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        psi = psi + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        if not (math.isfinite(phi) and math.isfinite(psi)):
            return NONFINITE, i
        out[i, 0] = i * dt
        out[i, 1] = phi
        out[i, 2] = psi
    return OK, n - 1


def closed_loop_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int, p):
    """The closed-loop equations at the loop state (x .. e_int, the first
    11 entries of ``CL_STATE``): the 15-tuple of the 11 loop rates in
    ``CL_STATE`` order, then the signals (u, co, y, e).  None where the
    control signal is undefined: its denominator is zero.

    ``p`` is the tuple of the loop constants (``loop._kernel_args``).  The
    observed compressor (phi, psi) feeds nothing back; its rates are
    :func:`observed_rhs`'s.
    """
    (kind, kp, ki, kd, gamma, r, vtau, vlo, vhi, ftau, dtarget, dtau, rm_w2,
     rm_2zw) = p
    d_dot = (dtarget - d) / dtau
    linear = vlo <= x <= vhi
    if x > vhi:
        co = vhi
    elif x < vlo:
        co = vlo
    else:
        co = x
    y = d + co
    # control signal, solved per mode for the u <-> y_dot loop
    if kind == KIND_ADAPTIVE:
        prop = k1 * r - k2 * y
        dgain = k3
    elif kind == KIND_FIXED_PID:
        prop = kp * (r - y) + ki * e_int
        dgain = kd
    else:
        prop = kp * (r - y)
        dgain = kd
    if linear:
        den = 1.0 + dgain / vtau
        if den == 0.0:  # an RK stage can carry a negative gain k3 = -vtau
            return None
        u = (prop - dgain * d_dot + dgain * x / vtau) / den
    else:
        u = prop - dgain * d_dot
    x_dot = (u - x) / vtau
    if linear:
        y_dot = d_dot + x_dot
    else:
        y_dot = d_dot
    e = y - ym1
    if kind == KIND_ADAPTIVE and linear:
        k1_dot = -gamma * e * v1
        k2_dot = -gamma * e * v2
        k3_dot = -gamma * e * v3
    else:
        k1_dot = k2_dot = k3_dot = 0.0
    if kind == KIND_FIXED_PID:
        e_int_dot = r - y
    else:
        e_int_dot = 0.0
    return (x_dot, d_dot, ym2, rm_w2 * r - rm_w2 * ym1 - rm_2zw * ym2,
            (r - v1) / ftau, (-y - v2) / ftau, (-y_dot - v3) / ftau,
            k1_dot, k2_dot, k3_dot, e_int_dot, u, co, y, e)


def observed_rhs(phi, psi, y, psi0, h, slope, offset, c0, c1, c2, c3, a, b):
    """Rates (d phi/dt, d psi/dt) of the observed compressor, throttled by
    the measured flow ``y`` with g = y/sqrt(psi_c(y)), or None where the
    model is undefined: psi <= 0 or psi_c(y) <= 0."""
    if psi <= 0.0:
        return None
    pcy = pressure_rise(y, psi0, h, slope, offset, c0, c1, c2, c3)
    if pcy <= 0.0:
        return None
    return surge_rhs(phi, psi, y / math.sqrt(pcy), psi0, h, slope, offset,
                     c0, c1, c2, c3, a, b)


def live_states(p, state):
    """Indices of the loop states the kernel integrates from ``state``
    under the constants ``p``.

    The gains k1..k3 move only under the adaptive kind and ``e_int`` only
    under the fixed PID; :func:`closed_loop_rhs` sets every other such rate
    to exactly 0.0.  The reference model (ym1, ym2) and the set-point
    filter v1 are closed subsystems: their rates read only themselves and
    the constants.  Each is left out when its rates at ``state`` are
    exactly zero and none of its values is ``-0.0``.  By induction it then
    never moves, and a full RK4 step leaves it bit for bit as it is
    (``-0.0 + 0.0`` would be ``0.0``, hence the sign check).  Where the rhs
    returns None, every rate counts as nonzero.  The observed (phi, psi)
    is never among them: :func:`observed_compressor` integrates it.
    """
    kind = p[0]
    rates = closed_loop_rhs(*state[:11], p)
    live = (0, 1)
    for sub in ((2, 3), (4,)):
        if rates is None or not all(
                rates[j] == 0.0 and (state[j] != 0.0
                                     or math.copysign(1.0, state[j]) > 0.0)
                for j in sub):
            live += sub
    live += (5, 6)
    if kind == KIND_ADAPTIVE:
        live += (7, 8, 9)
    elif kind == KIND_FIXED_PID:
        live += (10,)
    return live


#: the RK4 range function of each (live, observed) key, built on first use
_STEPS = {}

#: the names of the range function besides the loop states and ``p``; the
#: inlined rhs may use none of them
_STEP_NAMES = frozenset(
    ["run", "out", "s", "dt", "start", "stop", "last", "ys", "i", "b",
     "sb", "h2", "h6", "ok", "isfinite", "range", "OK", "NONFINITE"]
    + [f"{n}_{k}" for n in CL_STATE[:11] for k in ("s", 1, 2, 3, 4)])


@functools.lru_cache(maxsize=None)
def _rhs_body(rhs):
    """The definition of the closed-loop rhs ``rhs``, read from its source
    and taken apart for :func:`_step_source` to inline: (unpack, body,
    rates, constants), the statement that unpacks ``p``, the statements
    after it up to the final return, the expressions of the 11 loop rates
    that return gives, and the module globals the definition reads.  The
    nodes are shared by every call; :func:`_step_source` copies them.

    Raises ValueError where the definition has another shape than
    :func:`closed_loop_rhs`'s: its parameters, an optional docstring, the
    unpack of ``p`` into names, ``return None`` only where it fails, and a
    final 15-tuple whose last four entries are the names u, co, y, e; or
    where it assigns to a parameter, or one of its names is the range
    function's.
    """
    fn = ast.parse(textwrap.dedent(inspect.getsource(rhs))).body[0]

    def refuse(why):
        return ValueError(f"cannot inline {rhs.__qualname__} into the "
                          f"closed-loop RK4 step: {why}")

    params = [a.arg for a in fn.args.args]
    if params != [*CL_STATE[:11], "p"]:
        raise refuse(f"its parameters are {params}, not the 11 loop "
                     "states and p")
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    unpack = body[0] if len(body) > 1 else None
    if not (isinstance(unpack, ast.Assign) and len(unpack.targets) == 1
            and isinstance(unpack.targets[0], ast.Tuple)
            and all(isinstance(t, ast.Name) for t in unpack.targets[0].elts)
            and isinstance(unpack.value, ast.Name)
            and unpack.value.id == "p"):
        raise refuse("it does not begin by unpacking p into names")
    *body, final = body[1:]
    entries = []
    if isinstance(final, ast.Return) and isinstance(final.value, ast.Tuple):
        entries = final.value.elts
    if not (len(entries) == 15
            and [getattr(v, "id", None) for v in entries[11:]]
            == ["u", "co", "y", "e"]):
        raise refuse("it does not end by returning the 15-tuple of the 11 "
                     "loop rates and u, co, y, e")
    nodes = [node for st in body + [unpack, final] for node in ast.walk(st)]
    returned = [node.value for node in nodes
                if isinstance(node, ast.Return) and node is not final]
    if any(v is not None and not (isinstance(v, ast.Constant)
                                  and v.value is None) for v in returned):
        raise refuse("it returns something other than None before its end")
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    stored = {node.id for node in nodes if isinstance(node, ast.Name)
              and not isinstance(node.ctx, ast.Load)}
    if stored & set(params):
        raise refuse(f"it assigns to {sorted(stored & set(params))}")
    clash = names & _STEP_NAMES
    if clash:
        raise refuse(f"its names {sorted(clash)} are the step's")
    constants = {n: rhs.__globals__[n] for n in names - stored - set(params)
                 if n in rhs.__globals__}
    return unpack, body, entries[:11], constants


class _Stage(ast.NodeTransformer):
    """One RK stage of the inlined rhs: a read of a state in ``local``
    reads its stage local instead, and ``return None`` becomes the
    statements ``failure``."""

    def __init__(self, local, failure):
        self.local = local
        self.failure = failure

    def visit_Name(self, node):
        node.id = self.local.get(node.id, node.id)
        return node

    def visit_Return(self, node):
        return ast.parse(self.failure).body


def _step_source(live, observed):
    """Source of ``run(out, s, dt, p, start, stop, last, ys)``, the RK4
    range function of the live states ``live``, observed or not.

    ``run`` integrates the loop over rows start..stop-1 of a record whose
    last row is ``last``.  ``s`` is the list of the ``CL_DIM`` states in
    ``CL_STATE`` order, at t = start*dt; in ``run`` each loop state is a
    local named after it.  Only those in
    ``live`` (:func:`live_states` of ``p`` and the run's first state) are
    integrated: the others are passed to every stage unchanged, as a full
    step would leave them.  ``out`` is the flat view of a C-ordered
    (rows, w) array: row i holds t, d, u, x, co, y, ym, e, k1, k2, k3 at
    ``w*i`` to ``w*i + 10``, recorded from the state at t = i*dt before
    stepping.  w is 11, or 13 when observed: then ``ys`` is the flat view
    of a (rows, 3) array, and row i of it gets the measured flow y at RK
    stages 2, 3 and 4 of step i (stage 1's is column 5 of the record).
    The adaptive gains, when live, are kept nonnegative by projection
    after each step.  The loop states are written back into ``s`` on every
    return: unless ``stop - 1`` is ``last``, ``s`` ends at t = stop*dt,
    where the next range starts.  ``p`` is the constants tuple of
    :func:`closed_loop_rhs`.  Returns (status, row, stage): on
    failure ``row`` is the first unfilled row and ``stage`` the RK stage
    1-4 whose rates failed, or None when the step's result is not finite;
    else ``row`` is the last row filled.

    The stages are closed_loop_rhs's own statements, inlined
    (:func:`_rhs_body`, which reads them from this module's source): its
    unpack of ``p`` runs once, at the head of ``run``; at stages 2-4 a
    live state is read from a stage local ``<name>_s``, the state
    advanced by the rates of the stage before; its ``return None`` is the
    stage's failure return; and its final return assigns the stage's
    live rates ``<name>_<k>``, u, co, y and e being locals of the body
    already.  A dead state keeps its name, which keeps the ``-0.0`` rule.
    The rest of the code is the RK combination, the record and the
    checks.
    """
    unpack, rhs, rates, _ = _rhs_body(closed_loop_rhs)
    names = CL_STATE[:11]
    moving = [names[j] for j in live]
    state = ", ".join(names)

    def stage(k, coef=None):
        """The inlined rhs at stage k, at the state advanced by ``coef``
        times the rates of stage k-1."""
        local = {n: f"{n}_s" for n in moving} if coef else {}
        inline = _Stage(local, f"s[:11] = {state}\n"
                        f"return NONFINITE, {'i' if k == 1 else 'i + 1'}, {k}")
        code = [f"{n}_s = {n} + {coef} * {n}_{k - 1}" for n in local]
        code += [ast.unparse(inline.visit(copy.deepcopy(st))) for st in rhs]
        code += [f"{n}_{k} = {ast.unparse(inline.visit(copy.deepcopy(v)))}"
                 for n, v in zip(names, rates) if n in moving]
        return "\n".join(code).splitlines()

    w = 13 if observed else 11
    body = stage(1)
    body += [f"b = {w} * i", "out[b] = i * dt"]
    body += [f"out[b + {c}] = {v}" for c, v in enumerate(
        ("d", "u", "x", "co", "y", "ym1", "e", "k1", "k2", "k3"), 1)]
    body += ["if i == last:", "    break"]
    if observed:
        body += ["sb = 3 * i"]   # the step's row of the stage flows
    for k, coef, at in ((2, "h2", "sb"), (3, "h2", "sb + 1"),
                        (4, "dt", "sb + 2")):
        body += stage(k, coef)
        if observed:
            body += [f"ys[{at}] = y"]
    body += [f"{n} = {n} + h6 * ({n}_1 + 2.0 * {n}_2 + 2.0 * {n}_3 + {n}_4)"
             for n in moving]
    body += ["ok = " + " and ".join(f"isfinite({n})" for n in moving)]
    # adaptive gains are kept nonnegative by projection
    for n in ("k1", "k2", "k3"):
        if n in moving:
            body += [f"if {n} < 0.0:", f"    {n} = 0.0"]
    body += ["if not ok:",
             f"    s[:11] = {state}",
             "    return NONFINITE, i + 1, None"]
    lines = ["def run(out, s, dt, p, start, stop, last, ys):",
             f"    {state} = s[:11]",
             f"    {ast.unparse(unpack)}",
             "    h2 = 0.5 * dt",
             "    h6 = dt / 6.0",
             "    for i in range(start, stop):"]
    lines += ["        " + line for line in body]
    lines += [f"    s[:11] = {state}", "    return OK, stop - 1, None"]
    return "\n".join(lines) + "\n"


def _step(live, observed):
    """The RK4 range function of ``_step_source(live, observed)``, built
    on its first use and cached in ``_STEPS``."""
    run = _STEPS.get((live, observed))
    if run is None:
        namespace = dict(_rhs_body(closed_loop_rhs)[3],
                         isfinite=math.isfinite, OK=OK, NONFINITE=NONFINITE)
        exec(compile(_step_source(live, observed),
                     f"<closed-loop step {live} observed={observed}>",
                     "exec"), namespace)
        run = _STEPS[live, observed] = namespace["run"]
    return run


def observed_compressor(out, ys, dt, m, start, stop):
    """RK4 on the observed compressor (phi, psi) over rows start..stop-1
    of an observed closed-loop record, driven by the flows the loop kernel
    recorded there.

    ``out`` and ``ys`` are the flat views of the loop's (rows, 13)
    record and (rows, 3) stage flows, ``m`` the map constants
    (psi0, h, slope, offset, c0..c3, a, b).  (phi, psi) at t = start*dt is
    read from columns 11-12 of row ``start``, and each step writes its
    result into those of the next row.  The rates, checks and stages are
    those the coupled 13-state RK4 would take: :func:`observed_rhs` at each
    stage, and a finite result.  Returns (status, row, stage) as the
    loop's range function (:func:`_step_source`) does.
    """
    psi0, h, slope, offset, c0, c1, c2, c3, a, b = m
    n = len(out) // 13
    h2 = 0.5 * dt
    h6 = dt / 6.0
    phi = out[13 * start + 11]
    psi = out[13 * start + 12]
    for i in range(start, stop):
        r = 13 * i
        k = observed_rhs(phi, psi, out[r + 5], psi0, h, slope, offset,
                         c0, c1, c2, c3, a, b)
        if k is None:
            return PSI_NONPOSITIVE, i, 1
        if i == n - 1:
            break
        k1p, k1s = k
        sb = 3 * i
        k = observed_rhs(phi + h2 * k1p, psi + h2 * k1s, ys[sb], psi0, h,
                         slope, offset, c0, c1, c2, c3, a, b)
        if k is None:
            return PSI_NONPOSITIVE, i + 1, 2
        k2p, k2s = k
        k = observed_rhs(phi + h2 * k2p, psi + h2 * k2s, ys[sb + 1], psi0, h,
                         slope, offset, c0, c1, c2, c3, a, b)
        if k is None:
            return PSI_NONPOSITIVE, i + 1, 3
        k3p, k3s = k
        k = observed_rhs(phi + dt * k3p, psi + dt * k3s, ys[sb + 2], psi0, h,
                         slope, offset, c0, c1, c2, c3, a, b)
        if k is None:
            return PSI_NONPOSITIVE, i + 1, 4
        k4p, k4s = k
        phi = phi + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        psi = psi + h6 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        out[r + 24] = phi
        out[r + 25] = psi
        if not (math.isfinite(phi) and math.isfinite(psi)):
            return NONFINITE, i + 1, None
    return OK, stop - 1, None


def flat(a):
    """The flat ``memoryview`` of doubles of the C-ordered array ``a``."""
    return memoryview(a).cast("B").cast("d")


def closed_loop_loop(out, state, dt, p, block=None, report=None, ys=None):
    """RK4 on the closed loop over the C-ordered array ``out`` from the
    array ``state``, into which the loop states at the end are copied
    back.  The loop runs on ``state.tolist()`` and records through a flat
    view of ``out``; the live states are taken once, from the first state,
    and select the range function that integrates them (:func:`_step`).

    With ``block`` the rows are filled ``block`` at a time, and after each
    such range ``report(rows, False)`` is called with the rows filled so
    far; at the end, ``report(rows, True)`` with the rows the loop filled
    (all of them, or those before its failure).  What ``report`` returns
    is ignored.  Observed, ``ys`` is the (rows, 3) array of stage flows.

    Returns (status, row, stage) as the range function does.
    """
    s = state.tolist()
    rec = flat(out)
    stages = None if ys is None else flat(ys)
    run = _step(live_states(p, s), stages is not None)
    n = len(out)
    block = block or n
    rc = OK, n - 1, None
    try:
        for start in range(0, n, block):
            stop = min(start + block, n)
            rc = run(rec, s, dt, p, start, stop, n - 1, stages)
            if rc[0] != OK:
                break
            if report is not None and stop < n:
                report(stop, False)
        if report is not None:
            report(n if rc[0] == OK else rc[1], True)
        return rc
    finally:
        state[:] = s
