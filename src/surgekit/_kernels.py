"""Hot fixed-step integration loops, in pure Python.

Three RK4 kernels run here, each over a range of rows of a preallocated
record: the open-loop surge model (:func:`greitzer_loop`), the closed
loop (:func:`closed_loop_loop`) and the observed compressor
(:func:`observed_compressor`).  Each runs on Python floats, several times
faster in the interpreter than numpy scalars, and records through a
``memoryview`` of its record: of its doubles (:func:`flat`), or of its
bytes for the closed loop, which packs each row.  The open and the closed
loop fill their records in ranges of rows, and report each to a caller's
``report`` (:func:`_in_blocks`): ``csvio.RunHelper`` formats them, and
observes the closed loop's, in another process.

Each model equation is defined once: the compressor map in
:func:`pressure_rise`, the surge model's rates in :func:`surge_rhs` and
the closed loop's in :func:`closed_loop_rhs`, each a function of scalars,
beside the fixed coefficients it reads (the surge gains ``FLOW_GAIN``,
``PRESSURE_GAIN``, the reference model's ``REF_MODEL_*``): a kernel's
constant tuple holds only what a run sets.  No kernel calls them: each
kernel's RK4 step over a range of rows is written out as straight-line
code by one writer, :func:`_rk4_source`, which :func:`_step_source`,
:func:`_open_loop_source` and :func:`_observer_source` call with their
rhs, states, record layout and failure returns; each step is compiled on
its first use with the globals of its rhs's module and cached
(:func:`_built`).  Every state is a local named after it, and each stage
is the rhs's own statements, inlined from this module's source, which
every installed copy has, with surge_rhs's call of pressure_rise inlined
in turn (:func:`_inlined`, once for each step built).  One rule
set reads every function: an rhs takes its states, then its constants,
as parameters, which the step unpacks once from its constant tuple; no
function assigns to a parameter; and a call is inlined only where it
passes a name for each parameter, which then reads as that name.
A build copies no tree: each inlining and stage works on a tree parsed
for it.  So a plant step calls no function but ``isfinite``, ``sqrt`` and
``range``, and builds no tuple of rates.  The closed-loop step is
specialized to the run's controller kind: its stages keep only the
branches of closed_loop_rhs that kind takes, and read a name assigned
only a constant or another name as that value (:func:`_folded`); a rate
that is a name is the stage's rate itself, with no copy (:func:`_stage`).
Each stage gives each value the rhs computes by the same IEEE
operations on the same operands, so the record is that of the rhs bit
for bit.  The step writes each record row with one call of ``record``
(``struct.Struct.pack_into``), so it calls only ``isfinite``, ``range``
and ``record``.

The closed loop integrates only its live states, :func:`live_states`.
Dead states are read off the kind-folded rhs, which gives each the rate
0.0 (k1..k3 under a fixed kind, ``e_int`` unless the fixed PID), and the
reference model and set-point filter are dead when they start at rest.
A dead state keeps its initial value, as a full RK4 step would, but for
a zero written as ``-0.0``: a full step's ``-0.0 + 0.0`` would make it
``0.0``.  There is one closed-loop step for each kind and live set,
observed or not: 24 at most, since the kind settles which gains are live.

The observed compressor (phi, psi) of ``closedloop --observe`` is
one-way coupled: the measured flow y drives it and no loop rate reads it.
So it has its own kernel, which integrates it over a range of rows from
the flows the loop recorded: y at RK stage 1 in the record, and at
stages 2-4 in a stage buffer.  Its rates are surge_rhs's at the throttle
g = y/sqrt(psi_c(y)), which depends on the recorded flows alone: the
kernel computes the throttles of a range's stages first, on arrays
(:func:`_throttles`), and its step reads each stage's g from them.  It
may run in another process while the loop goes on (``csvio.RunHelper``),
or in this one after the loop; its columns are bit for bit those of the
coupled 13-state RK4.  ``loop`` merges its failure with the loop's.

Kernels never raise: they return ``(status, row)`` (the closed loop and
the observer ``(status, row, stage)``) so the wrappers in
``odesim``/``loop`` can map failures onto the package exceptions.
"""

import ast
import functools
import inspect
import math
import struct
import textwrap
from math import sqrt

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


#: the surge model's flow-equation and pressure-equation gains a and b
FLOW_GAIN = 0.8
PRESSURE_GAIN = 1.25


def surge_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3):
    """Rates (d phi/dt, d psi/dt) of the surge model at throttle g.

    Needs psi > 0, since sqrt(psi) is undefined below: the open-loop and
    the observer steps check it before each stage.
    """
    pc = pressure_rise(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return FLOW_GAIN * (pc - psi), PRESSURE_GAIN * (phi - g * sqrt(psi))


#: the reference model ym/r = W2 / (s^2 + TWO_ZW*s + W2): damping 0.85, 5 rad/s
REF_MODEL_W2 = 25.0
REF_MODEL_TWO_ZW = 8.5


def closed_loop_rhs(x, d, ym1, ym2, v1, v2, v3, k1, k2, k3, e_int,
                    kind, kp, ki, kd, gamma, r, vtau, vlo, vhi, dtarget, dtau):
    """The closed-loop equations at the loop state (x .. e_int, the first
    11 entries of ``CL_STATE``): the 15-tuple of the 11 loop rates in
    ``CL_STATE`` order, then the signals (u, co, y, e).  None where the
    control signal is undefined: its denominator is zero.

    The parameters after the state are the run's loop constants, in the
    order of ``loop._kernel_args``: the controller kind and gains, the
    adaptation rate ``gamma``, the set point ``r``, the valve's lag and
    limits and the disturbance's target and lag.  The regressors v1..v3
    are filtered through the valve's lag ``vtau``.  The observed
    compressor (phi, psi) feeds nothing back; its rates are
    :func:`surge_rhs`'s at the throttle of the flow y
    (:func:`observed_compressor`).
    """
    d_dot = (dtarget - d) / dtau
    if x > vhi:
        co = vhi
    elif x < vlo:
        co = vlo
    else:
        co = x
    y = d + co
    e = y - ym1
    if kind == KIND_ADAPTIVE:
        prop = k1 * r - k2 * y
        dgain = k3
    elif kind == KIND_FIXED_PID:
        prop = kp * (r - y) + ki * e_int
        dgain = kd
    else:
        prop = kp * (r - y)
        dgain = kd
    # control signal, solved per valve mode for the u <-> y_dot loop; the
    # gains adapt only in linear valve mode, and only the adaptive kind's
    if vlo <= x <= vhi:
        den = 1.0 + dgain / vtau
        if den == 0.0:  # an RK stage can carry a negative gain k3 = -vtau
            return None
        u = (prop - dgain * d_dot + dgain * x / vtau) / den
        x_dot = (u - x) / vtau
        y_dot = d_dot + x_dot
        if kind == KIND_ADAPTIVE:
            ge = -gamma * e
            k1_dot = ge * v1
            k2_dot = ge * v2
            k3_dot = ge * v3
        else:
            k1_dot = k2_dot = k3_dot = 0.0
    else:
        u = prop - dgain * d_dot
        x_dot = (u - x) / vtau
        y_dot = d_dot
        k1_dot = k2_dot = k3_dot = 0.0
    if kind == KIND_FIXED_PID:
        e_int_dot = r - y
    else:
        e_int_dot = 0.0
    return (x_dot, d_dot, ym2,
            REF_MODEL_W2 * r - REF_MODEL_W2 * ym1 - REF_MODEL_TWO_ZW * ym2,
            (r - v1) / vtau, (-y - v2) / vtau, (-y_dot - v3) / vtau,
            k1_dot, k2_dot, k3_dot, e_int_dot, u, co, y, e)


def live_states(p, state):
    """Indices of the loop states the kernel integrates from ``state``
    under the constants ``p``.

    A state is dead where :func:`closed_loop_rhs` folded to the kind
    ``p[0]`` (:func:`_folded`) gives it the rate 0.0.  The reference model
    (ym1, ym2) and the set-point filter v1 are closed subsystems: their
    rates read only themselves and the constants.  Each is left out when
    its rates at ``state`` are exactly zero and none of its values is
    ``-0.0``.  By induction it then never moves, and a full RK4 step leaves
    it bit for bit as it is (``-0.0 + 0.0`` would be ``0.0``, hence the
    sign check).  Where the rhs returns None, every rate counts as nonzero.
    The observed (phi, psi) is never among them: :func:`observed_compressor`
    integrates it.
    """
    folded = _folded(closed_loop_rhs, p[0])[2]
    dead = {j for j, n in enumerate(CL_STATE[:11])
            if isinstance(folded[n], ast.Constant)
            and type(folded[n].value) is float and folded[n].value == 0.0}
    rates = closed_loop_rhs(*state[:11], *p)
    for sub in ((2, 3), (4,)):
        if rates is not None and all(
                rates[j] == 0.0 and (state[j] != 0.0
                                     or math.copysign(1.0, state[j]) > 0.0)
                for j in sub):
            dead.update(sub)
    return tuple(j for j in range(11) if j not in dead)


#: the RK4 range functions built so far: the closed loop's by its
#: (kind, live, observed) key, the open loop's and the observer's by name
_STEPS = {}


def _names(stmts):
    """(used, stored): the names the statements ``stmts`` use, and those
    of them they assign, from one walk of their trees."""
    used, stored = set(), set()
    for st in stmts:
        for node in ast.walk(st):
            if isinstance(node, ast.Name):
                used.add(node.id)
                if not isinstance(node.ctx, ast.Load):
                    stored.add(node.id)
    return used, stored


class _Stage(ast.NodeTransformer):
    """Renames each name in ``local`` to its value, and each
    ``return None`` becomes the statements ``failure``."""

    def __init__(self, local, failure=None):
        self.local = local
        self.failure = failure

    def visit_Name(self, node):
        node.id = self.local.get(node.id, node.id)
        return node

    def visit_Return(self, node):
        return ast.parse(self.failure).body


class _Folded(ast.NodeTransformer):
    """Reads each name in ``known`` as its value, an expression (a
    constant or a name), drops an assignment to known names only, and
    folds what that settles: ``c == c'`` of two constants, and an ``if``
    on a constant, of which only the branch that runs is kept."""

    def __init__(self, known):
        self.known = known

    def visit_Assign(self, node):
        dead = all(getattr(t, "id", None) in self.known for t in node.targets)
        return None if dead else self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.known:
            value = self.known[node.id]   # a leaf: a constant or a name
            return type(value)(**dict(ast.iter_fields(value)))
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        left, right = node.left, node.comparators[-1]
        if (len(node.ops) == 1 and isinstance(node.ops[0], ast.Eq)
                and isinstance(left, ast.Constant)
                and isinstance(right, ast.Constant)):
            return ast.Constant(left.value == right.value)
        return node

    def visit_If(self, node):
        self.generic_visit(node)
        if isinstance(node.test, ast.Constant):
            return (node.body if node.test.value else node.orelse
                    or [ast.Pass()])
        return node


@functools.lru_cache(maxsize=None)
def _source(fn):
    """The dedented source text of the function ``fn``, read once per
    process: a build parses its own tree from it."""
    return textwrap.dedent(inspect.getsource(fn))


def _inlined(fn, outer=()):
    """(params, statements): the parameters of the function ``fn`` and its
    statements after the docstring, parsed from its source
    (:func:`_source`) for this call, with its calls inlined.

    A statement ``t = f(...)`` or ``return f(...)`` whose ``f`` is another
    function of ``fn``'s module becomes ``f``'s own statements, inlined in
    turn (:func:`_call_inlined`).  Raises ValueError where ``fn`` assigns
    to one of its parameters (an inlined call renames each to the name
    passed it, and a step reads each as given), or a call cannot be
    inlined.
    """
    node = ast.parse(_source(fn)).body[0]
    params = [a.arg for a in node.args.args]
    stmts = node.body[1:] if ast.get_docstring(node) is not None else node.body
    used, stored = _names(stmts)
    if stored & set(params):
        raise ValueError(f"{fn.__name__} assigns to "
                         f"{sorted(stored & set(params))}")
    names = used | set(params)
    bound = stored | set(params)
    code = []
    for st in stmts:
        code += _call_inlined(st, fn, names, bound, outer + (fn,))
    return params, code


def _callee(node, fn):
    """The function of ``fn``'s module that ``node`` calls, or None."""
    f = (fn.__globals__.get(node.func.id) if isinstance(node, ast.Call)
         and isinstance(node.func, ast.Name) else None)
    return f if (inspect.isfunction(f)
                 and f.__globals__ is fn.__globals__) else None


def _call_inlined(st, fn, names, bound, outer):
    """The statements that replace the statement ``st`` of the function
    ``fn``: ``[st]`` where it calls no function of ``fn``'s module, else
    the call inlined.  ``st`` must then be ``t = f(...)`` or
    ``return f(...)`` with a name for each of ``f``'s parameters, and
    becomes ``f``'s statements (:func:`_inlined`), each parameter renamed
    to the name passed it, and ``f``'s final return assigning ``t`` or
    returned.

    Raises ValueError where ``st`` calls such an ``f`` in another way,
    ``f`` is in ``outer`` (being inlined already), is not passed one name
    for each parameter, returns before its end or does not end by
    returning a value, or would clash with ``fn``: it assigns one of
    ``fn``'s ``names``, or reads one ``fn`` assigns or takes, ``bound``.
    """
    calls = [n for n in ast.walk(st) if _callee(n, fn) is not None]
    if not calls:
        return [st]
    call = calls[0]
    f = _callee(call, fn)
    if not (calls == [getattr(st, "value", None)]
            and (isinstance(st, ast.Return)
                 or isinstance(st, ast.Assign) and len(st.targets) == 1
                 and isinstance(st.targets[0], ast.Name))):
        raise ValueError(
            f"{fn.__name__} calls {f.__name__} other than as "
            f"t = {f.__name__}(...) or return {f.__name__}(...)")
    if f in outer:
        raise ValueError(f"{f.__name__} calls itself")
    params, stmts = _inlined(f, outer)
    if (len(params) != len(call.args) or call.keywords
            or not all(isinstance(a, ast.Name) for a in call.args)):
        raise ValueError(f"{fn.__name__} does not pass {f.__name__} one "
                         "name for each parameter")
    *body, final = stmts or [None]
    if not isinstance(final, ast.Return) or final.value is None:
        raise ValueError(f"{f.__name__} does not end by returning a value")
    if any(isinstance(n, ast.Return) for s in body for n in ast.walk(s)):
        raise ValueError(f"{f.__name__} returns before its end")
    used, assigned = _names(body)
    # f's free names: those it reads but neither assigns nor takes
    final_used, final_stored = _names([final])
    free = (used | final_used) - assigned - final_stored - set(params)
    clash = (assigned & names) | (free & bound)
    if clash:
        raise ValueError(f"the names {sorted(clash)} of {f.__name__} are "
                         f"{fn.__name__}'s")
    inline = _Stage({p: a.id for p, a in zip(params, call.args)})
    value = inline.visit(final.value)
    code = [inline.visit(s) for s in body]
    code.append(ast.Return(value) if isinstance(st, ast.Return)
                else ast.Assign(st.targets, value))
    return [ast.fix_missing_locations(ast.copy_location(s, st))
            for s in code]


def _reserved(states, *extra):
    """The names a range function over ``states`` gives its own locals and
    globals, the common ones and ``extra``: the inlined rhs may use none
    of them."""
    return frozenset(
        ["run", "out", "dt", "start", "stop", "i", "h2", "h6", "ok",
         "isfinite", "range", "OK", "NONFINITE", "PSI_NONPOSITIVE", *extra]
        + [f"{n}_{k}" for n in states for k in ("s", 1, 2, 3, 4)])


def _refusal(rhs, step, why):
    return ValueError(f"cannot inline {rhs.__qualname__} into the {step} "
                      f"RK4 step: {why}")


def _rhs_body(rhs, step, lead, states, reserved, signals=()):
    """The rhs ``rhs`` of the ``step`` RK4 step, inlined (:func:`_inlined`)
    and taken apart for a range function: (constants, body, rates), the
    parameters after ``lead``, the statements before the final return,
    and the entries of the tuple that return gives, by name: the rate of
    each state in ``states``, then the signals ``signals``.

    Raises ValueError where :func:`_inlined` does (the rhs or a function
    it calls assigns to a parameter, or a call cannot be inlined), the
    parameters are not ``lead`` and at least one constant, or the rhs
    returns something other than None before its end, uses a name in
    ``reserved``, or does not end by returning one rate for each state,
    then each signal as the name it is.
    """
    try:
        params, stmts = _inlined(rhs)
    except ValueError as e:
        raise _refusal(rhs, step, str(e)) from None
    if len(params) <= len(lead) or params[:len(lead)] != list(lead):
        raise _refusal(rhs, step, f"its parameters are {params}, not "
                       f"{list(lead)} and its constants")
    *body, final = stmts or [None]
    entries = []
    if isinstance(final, ast.Return) and isinstance(final.value, ast.Tuple):
        entries = final.value.elts
    returned = [node.value for st in body for node in ast.walk(st)
                if isinstance(node, ast.Return)]
    if any(v is not None and not (isinstance(v, ast.Constant)
                                  and v.value is None) for v in returned):
        raise _refusal(rhs, step,
                       "it returns something other than None before its end")
    clash = (_names(stmts)[0] | set(params)) & reserved
    if clash:
        raise _refusal(rhs, step, f"its names {sorted(clash)} are the step's")
    named = (*states, *signals)
    if not (len(entries) == len(named)
            and [getattr(v, "id", None) for v in entries[len(states):]]
            == list(signals)):
        raise _refusal(rhs, step, "it does not end by returning " + (
            f"the {len(named)}-tuple of the {len(states)} loop rates and "
            f"{', '.join(signals)}" if signals
            else "the rates of " + " and ".join(states)))
    return params[len(lead):], body, dict(zip(named, entries))


def _stage(body, assigned, rates, k, coef, failure, after, named):
    """The lines of RK stage k of the inlined rhs statements ``body`` (a
    text, parsed anew for the stage), which assign the names ``assigned``,
    at the state advanced by ``coef`` times the rates of stage k-1 (at the
    state itself without ``coef``), then the lines ``after``.

    The rate expressions ``rates`` (state name: its text) give the stage-k
    rates, ``<name>_<k>``, of the states they name, and each such state is
    read from its stage local ``<name>_s`` at stages 2-4; ``return None``
    becomes the statements ``failure``.  ``named`` is the list of the
    names of those rates at the stages before: the stage advances the
    state by the last, and appends its own.  Where a rate is a name, no
    line copies it where the stage can read it as the rate: a name the
    body assigns is renamed ``<name>_<k>`` in the stage, and so is a
    state's stage local at stages 2-4; at stage 1 the rate is that state
    itself, where the combination updates it later.
    """
    moving = list(rates)
    local = {n: f"{n}_s" for n in moving} if coef else {}
    advanced = dict(local)
    own, lines = {}, []
    for n, v in rates.items():
        src = v if v.isidentifier() else None
        if src in assigned and src not in local:
            local[src] = own[n] = f"{n}_{k}"
        elif src in moving and coef and local[src] == f"{src}_s":
            local[src] = advanced[src] = own[n] = f"{n}_{k}"
        elif (src in moving and not coef
              and moving.index(src) > moving.index(n)):
            own[n] = src
        else:
            own[n] = f"{n}_{k}"
            lines.append(f"{own[n]} = {v}")
    code = ast.parse("\n".join(f"{advanced[n]} = {n} + {coef} * "
                               f"{named[-1][n]}" for n in advanced)).body
    named.append(own)
    tree = ast.parse("\n".join([body, *lines, *after]))
    code += _Stage(local, failure).visit(tree).body
    return ast.unparse(ast.Module(code, [])).splitlines()


#: RK4's stages: (stage k, the step coefficient by which stage k-1's
#: rates advance the state stage k is taken at)
_RK4 = ((1, None), (2, "h2"), (3, "h2"), (4, "dt"))


def _rk4_source(params, head, body, rates, failure, post, tail,
                lines=None):
    """Source of ``run(<params>)``, an RK4 range function over rows
    start..stop-1: the lines ``head``, the half step ``h2`` and the sixth
    ``h6`` of ``dt``, a loop ``for i in range(start, stop)`` and the lines
    ``tail``.  Each pass of the loop takes RK stages 1-4 (:func:`_stage`)
    of the inlined rhs statements ``body`` and its rate expressions
    ``rates`` (state name: rate), combines the states those rates name,
    sets ``ok`` to whether they all are finite, and runs the lines
    ``post``.

    At stage k, ``return None`` becomes the statements of the text
    ``failure`` formatted with ``k`` and ``row``, the first unfilled row:
    ``i`` at stage 1, ``i + 1`` after it.  ``lines``, where given, is the
    function of k that gives stage k's lines before it and those after
    it, which read its values.  A function that takes ``last``, the
    record's last row, ends its loop after stage 1 of that row.
    """
    assigned = _names(body)[1]
    body = ast.unparse(ast.Module(body, []))
    rates = {n: ast.unparse(v) for n, v in rates.items()}
    code, named = [], []
    for k, coef in _RK4:
        before, after = lines(k) if lines else ((), ())
        if k == 2 and "last" in params:
            code += ["if i == last:", "    break"]
        code += before
        code += _stage(body, assigned, rates, k, coef, failure.format(
            k=k, row="i" if k == 1 else "i + 1"), after, named)
    code += [f"{n} = {n} + h6 * ({named[0][n]} + 2.0 * {named[1][n]} + "
             f"2.0 * {named[2][n]} + {named[3][n]})" for n in rates]
    code += ["ok = " + " and ".join(f"isfinite({n})" for n in rates), *post]
    return "\n".join([f"def run({', '.join(params)}):",
                      *("    " + line for line in head),
                      "    h2 = 0.5 * dt", "    h6 = dt / 6.0",
                      "    for i in range(start, stop):",
                      *("        " + line for line in code),
                      *("    " + line for line in tail)]) + "\n"


#: the signals closed_loop_rhs returns after the 11 loop rates
_SIGNALS = ("u", "co", "y", "e")

#: the names the closed loop's range function gives its own locals and
#: globals
_LOOP_RESERVED = _reserved(CL_STATE[:11], "s", "last", "ys", "sb", "record")


@functools.lru_cache(maxsize=None)
def _folded(rhs, kind):
    """(constants, body, entries) of the closed-loop rhs ``rhs``, inlined
    (:func:`_rhs_body`) and folded to the controller kind ``kind``: its
    parameters after the 11 loop states, its statements before the final
    return, and the entries of that return by name, the rate of each loop
    state and the signals u, co, y, e.  The first constant, the kind, and
    the ``KIND_*`` codes of ``rhs``'s module (but a name ``rhs`` assigns
    or takes) read as their values, and then so does each name to which
    every assignment of the folded statements gives one value: a
    constant, or a name they never assign, which is then read in its place
    (:class:`_Folded`).  Cached by ``rhs`` and ``kind``.  Raises
    ValueError where :func:`_rhs_body` does.
    """
    names = CL_STATE[:11]
    constants, body, entries = _rhs_body(rhs, "closed-loop", names, names,
                                         _LOOP_RESERVED, _SIGNALS)
    taken = _names(body)[1] | set(constants)
    known = {n: ast.Constant(v) for n, v in rhs.__globals__.items()
             if n.startswith("KIND_") and n not in taken}
    known[constants[0]] = ast.Constant(kind)
    body = _Folded(known).visit(ast.Module(body, [])).body
    tree = ast.Module(body, [])
    stores = [n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)]
    values = {}
    for st in ast.walk(tree):
        if isinstance(st, ast.Assign) and (
                isinstance(st.value, ast.Constant)
                or isinstance(st.value, ast.Name)
                and st.value.id not in stores):
            for t in st.targets:
                if isinstance(t, ast.Name):
                    values.setdefault(t.id, []).append(st.value)
    known.update((n, v[0]) for n, v in values.items()
                 if len(v) == stores.count(n)
                 and len({ast.dump(value) for value in v}) == 1)
    fold = _Folded(known)
    body = fold.visit(ast.Module(body, [])).body
    return constants, body, {n: fold.visit(v) for n, v in entries.items()}


def _step_source(kind, live, observed):
    """Source of ``run(out, s, dt, p, start, stop, last, ys)``, the RK4
    range function of the controller kind ``kind`` and the live states
    ``live``, observed or not.

    ``run`` integrates the loop over rows start..stop-1 of a record whose
    last row is ``last``.  ``s`` is the list of the ``CL_DIM`` states in
    ``CL_STATE`` order, at t = start*dt; in ``run`` each loop state is a
    local named after it.  Only those in
    ``live`` (:func:`live_states` of ``p`` and the run's first state) are
    integrated: the others are passed to every stage unchanged, as a full
    step would leave them.  ``out`` is the byte view of a C-ordered
    (rows, w) array of doubles: row i holds t, d, u, x, co, y, ym, e, k1,
    k2, k3 in columns 0-10, recorded from the state at t = i*dt before
    stepping with one call of ``record``, ``struct.Struct("11d")``'s
    ``pack_into``.  w is 11, or 13 when observed: then ``ys`` is the flat
    view of a (rows, 3) array, and row i of it gets the measured flow y at
    RK stages 2, 3 and 4 of step i (stage 1's is column 5 of the record).
    The adaptive gains, when live, are kept nonnegative by projection
    after each step.  The loop states are written back into ``s`` on every
    return: unless ``stop - 1`` is ``last``, ``s`` ends at t = stop*dt,
    where the next range starts.  ``p`` is the tuple of the constants of
    :func:`closed_loop_rhs`, its parameters after the loop states, whose
    first entry is ``kind``.  Returns (status, row, stage): on failure
    ``row`` is the first unfilled row and ``stage`` the RK stage 1-4 whose
    rates failed, or None when the step's result is not finite; else
    ``row`` is the last row filled.

    The stages are closed_loop_rhs's statements folded to ``kind``
    (:func:`_folded`), so ``run`` reads no kind, and each value they use
    is the rhs's, by the same IEEE operations on the same operands.
    ``run``'s head unpacks ``p`` once into the names of those constants;
    each stage computes all the rest and names the rates directly
    (:func:`_stage`).  A dead state keeps its name at every stage, which
    keeps the ``-0.0`` rule.  Raises ValueError where _folded does.
    """
    names = CL_STATE[:11]
    moving = [names[j] for j in live]
    constants, body, entries = _folded(closed_loop_rhs, kind)
    u, co, y, e = (ast.unparse(entries[n]) for n in _SIGNALS)
    state = ", ".join(names)
    # adaptive gains are kept nonnegative by projection
    projected = [line for n in ("k1", "k2", "k3") if n in moving
                 for line in (f"if {n} < 0.0:", f"    {n} = 0.0")]

    def lines(k):
        # stage 1 records the row; observed, each later stage's flow goes
        # to the step's row sb of stage flows
        if k == 1:
            return (), [f"record(out, {8 * (13 if observed else 11)} * i, "
                        f"i * dt, d, {u}, x, {co}, {y}, ym1, {e}, k1, k2, k3)"]
        if not observed:
            return (), ()
        at = "sb" if k == 2 else f"sb + {k - 2}"
        return ["sb = 3 * i"] if k == 2 else [], [f"ys[{at}] = {y}"]

    return _rk4_source(
        ("out", "s", "dt", "p", "start", "stop", "last", "ys"),
        [f"{state} = s[:11]",
         ast.unparse(ast.parse(f"({', '.join(constants)},) = p"))], body,
        {n: entries[n] for n in moving},
        f"s[:11] = {state}\nreturn NONFINITE, {{row}}, {{k}}",
        [*projected, "if not ok:", f"    s[:11] = {state}",
         "    return NONFINITE, i + 1, None"],
        [f"s[:11] = {state}", "return OK, stop - 1, None"], lines)


#: the states of the open loop and of the observed compressor
_PLANT = ("phi", "psi")


def _open_loop_source():
    """Source of ``run(out, dt, m, start, stop)``, the open loop's RK4
    range function: the surge model, :func:`surge_rhs`.

    ``out`` is the flat view of a C-ordered (rows, 3) record whose row
    ``start - 1`` holds (t, phi, psi); ``run`` fills rows start..stop-1
    with the state after each step.  ``m`` is the tuple of surge_rhs's
    constants, its parameters after phi and psi.  Each stage first checks
    psi > 0, which surge_rhs needs.  Returns (status, row): on failure
    ``row`` is the first unfilled row (PSI_NONPOSITIVE where a stage's psi
    is not positive, NONFINITE where the step's result is not finite),
    else ``row`` is the last row filled.  The stages are surge_rhs's own
    statements, with pressure_rise's inlined.
    """
    constants, body, rates = _rhs_body(surge_rhs, "open-loop", _PLANT,
                                       _PLANT, _reserved(_PLANT, "m", "r"))
    return _rk4_source(
        ("out", "dt", "m", "start", "stop"),
        [f"[{', '.join(constants)}] = m", "phi = out[3 * start - 2]",
         "psi = out[3 * start - 1]"],
        ast.parse("if psi <= 0.0:\n    return None").body + body, rates,
        "return PSI_NONPOSITIVE, i",
        ["if not ok:", "    return NONFINITE, i", "r = 3 * i",
         "out[r] = i * dt", "out[r + 1] = phi", "out[r + 2] = psi"],
        ["return OK, stop - 1"])


def _observer_source():
    """Source of ``run(out, gs, dt, m, start, stop, last)``, the RK4 range
    function of the observed compressor (phi, psi): :func:`surge_rhs` at
    the throttle of the flow the loop measured at each RK stage.

    ``out`` is the flat view of the loop's (rows, 13) record, whose last
    row is ``last``; ``gs`` the list of the throttles of rows
    start..stop-1 (:func:`_throttles`), four a row in stage order, and
    ``m`` the tuple of surge_rhs's constants, its parameters after phi,
    psi and g.  (phi, psi) at t = start*dt is read from columns 11-12 of
    row ``start``, and each step over rows start..stop-1 writes its result
    into those of the next row.  Each stage reads its g from ``gs`` and
    first checks that psi > 0 and that g is not None, which marks the
    range's first flow whose map value is not positive: the checks,
    rates and stages are those the coupled 13-state RK4 would take
    (at stage 1 also in the last row), and a finite result.  Returns
    (status, row, stage) as the loop's range function
    (:func:`_step_source`) does.
    """
    constants, body, rates = _rhs_body(
        surge_rhs, "observer", _PLANT + ("g",), _PLANT,
        _reserved(_PLANT, "m", "r", "gs", "q", "last"))
    return _rk4_source(
        ("out", "gs", "dt", "m", "start", "stop", "last"),
        [f"[{', '.join(constants)}] = m", "phi = out[13 * start + 11]",
         "psi = out[13 * start + 12]"],
        ast.parse("if psi <= 0.0 or g is None:\n    return None").body
        + body, rates, "return PSI_NONPOSITIVE, {row}, {k}",
        ["out[r + 24] = phi", "out[r + 25] = psi", "if not ok:",
         "    return NONFINITE, i + 1, None"],
        ["return OK, stop - 1, None"],
        lambda k: ((["r = 13 * i", "q = 4 * (i - start)", "g = gs[q]"]
                    if k == 1 else [f"g = gs[q + {k - 1}]"]), ()))


def _throttles(out, ys, m, start, stop):
    """The throttles g = y/sqrt(psi_c(y)) of the flows y the loop measured
    at RK stages 1-4 of rows start..stop-1 of an observed record, a list of
    four a row in stage order, in which the first flow whose map value
    psi_c(y) is not positive has None instead.

    ``out`` and ``ys`` are the flat views of the record and the stage
    flows (:func:`observed_compressor`), ``m`` the map constants.  Stage
    1's flow is column 5 of the row, stages 2-4's its row of ``ys``.  Each
    throttle is computed on arrays by the operations of
    ``compressor.throttle_from_flow``, so bit for bit as the scalar
    arithmetic gives it; a NaN map value is not "not positive", as in the
    scalar test.  A flow the step never reaches (after the record's last
    stage 1, or after a failure) may be unfilled: its arithmetic warns of
    nothing.
    """
    import numpy as np
    y = np.empty((stop - start, 4))
    y[:, 0] = np.asarray(out)[13 * start + 5:13 * stop:13]
    y[:, 1:] = np.asarray(ys)[3 * start:3 * stop].reshape(-1, 3)
    with np.errstate(all="ignore"):
        pc = pressure_rise(y, *m)
        gs = (y / np.sqrt(pc)).ravel().tolist()
        bad = np.flatnonzero(pc <= 0.0)
    if bad.size:
        gs[bad[0]] = None
    return gs


def _built(key, rhs, source, **bound):
    """The range function ``run`` of the text ``source()``, whose globals
    are those of ``rhs``'s module and ``bound``: built on its first use
    and cached in ``_STEPS`` under ``key``."""
    run = _STEPS.get(key)
    if run is None:
        text = source()
        namespace = dict(rhs.__globals__, isfinite=math.isfinite, OK=OK,
                         NONFINITE=NONFINITE,
                         PSI_NONPOSITIVE=PSI_NONPOSITIVE, **bound)
        exec(compile(text, f"<RK4 step {key}>", "exec"), namespace)
        run = _STEPS[key] = namespace["run"]
    return run


#: the closed-loop step's row writer: the 11 doubles of a record row
_ROW = struct.Struct("11d")


def _step(kind, live, observed):
    """The RK4 range function of ``_step_source(kind, live, observed)``,
    built on its first use and cached in ``_STEPS``."""
    return _built((kind, live, observed), closed_loop_rhs,
                  lambda: _step_source(kind, live, observed),
                  record=_ROW.pack_into)


def greitzer_loop(out, dt, m, report=None):
    """RK4 on the two-state surge model (:func:`_open_loop_source`).

    ``out`` is a preallocated C-ordered (rows, 3) array whose row 0
    already holds (0, phi0, psi0); remaining rows are filled with
    (t, phi, psi), ``_BLOCK_ROWS`` at a time and each range reported, as
    :func:`_in_blocks` does.  ``m`` is the tuple of surge_rhs's constants
    (g, psi0, h, slope, offset, c0..c3).  Returns (status, row): on
    failure ``row`` is the first unfilled row.
    """
    run = _built("open loop", surge_rhs, _open_loop_source)
    return _in_blocks(functools.partial(run, flat(out), dt, m), 1, len(out),
                      report)


def observed_compressor(out, ys, dt, m, start, stop):
    """RK4 on the observed compressor (phi, psi) over rows start..stop-1
    of an observed closed-loop record, driven by the flows the loop kernel
    recorded there, ``_BLOCK_ROWS`` rows at a time (:func:`_in_blocks`):
    for each range, the throttles of its stages on arrays
    (:func:`_throttles`), then its steps (:func:`_observer_source`).  The
    ranges bound the memory those arrays take where a whole record is
    observed after the loop.

    ``out`` and ``ys`` are the flat views of the loop's (rows, 13)
    record and (rows, 3) stage flows, ``m`` the map constants
    (psi0, h, slope, offset, c0..c3).  Returns (status, row, stage)
    as the loop's range function (:func:`_step_source`) does.
    """
    run = _built("observer", surge_rhs, _observer_source)
    last = len(out) // 13 - 1
    return _in_blocks(lambda first, end: run(
        out, _throttles(out, ys, m, first, end), dt, m, first, end, last),
        start, stop, None)


def flat(a):
    """The flat ``memoryview`` of doubles of the C-ordered array ``a``."""
    return memoryview(a).cast("B").cast("d")


#: the rows a kernel fills between reports, and the trajectory rows
#: ``csvio`` formats at a time, which bounds the memory a write takes.  So
#: at most the rows a helper process has left when the kernel ends: on
#: fig10, 1024 beat 4096 end to end by about 2% (9 of 12 alternating runs)
_BLOCK_ROWS = 1024


def _in_blocks(run, first, n, report):
    """Fill rows first..n-1 of a record with the range function
    ``run(start, stop)``, ``_BLOCK_ROWS`` rows at a time (read per call),
    up to a failure.  A ``report`` is called with (rows filled, False)
    after each range but the last, and at the end with (n or the first
    unfilled row, True).  Returns the last range's (status, row, ...)."""
    start = first
    while True:
        stop = min(start + _BLOCK_ROWS, n)
        rc = run(start, stop)
        if rc[0] != OK or stop == n:
            break
        if report is not None:
            report(stop, False)
        start = stop
    if report is not None:
        report(n if rc[0] == OK else rc[1], True)
    return rc


def closed_loop_loop(out, state, dt, p, report=None, ys=None):
    """RK4 on the closed loop over the C-ordered array ``out`` from the
    array ``state``, into which the loop states at the end are copied
    back.  The loop runs on ``state.tolist()`` and records through a byte
    view of ``out``; the controller kind ``p[0]`` and the live states,
    taken once from the first state, select the range function that
    integrates them (:func:`_step`).  The rows are filled ``_BLOCK_ROWS``
    at a time and each range reported, as :func:`_in_blocks` does.
    Observed, ``ys`` is the (rows, 3) array of stage flows.

    Returns (status, row, stage) as the range function does.
    """
    s = state.tolist()
    rec = memoryview(out).cast("B")
    stages = None if ys is None else flat(ys)
    run = _step(p[0], live_states(p, s), stages is not None)
    last = len(out) - 1
    try:
        return _in_blocks(
            lambda start, stop: run(rec, s, dt, p, start, stop, last, stages),
            0, len(out), report)
    finally:
        state[:] = s
