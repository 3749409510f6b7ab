"""Hot fixed-step integration loops, JIT-compiled with numba when available.

Both kernels exist in two flavours built from the same source: a plain
Python version (``*_py``) and a compiled version (``*_jit``).  The public
names (``greitzer_loop``, ``closed_loop_loop``) point at the compiled
flavour unless numba is missing or ``SURGEKIT_NO_NUMBA=1`` is set, in
which case they fall back to the pure-Python flavour.  ``perfbench/run.py``
times whichever flavour is active, end to end through the CLI.

The flavours differ only in the storage the loops compute on.  The
pure-Python flavour computes on Python floats, several times faster in
the interpreter than numpy scalars: the open-loop kernel starts from
``float`` scalars, and :func:`closed_loop_loop_py` runs the shared loop
on ``state.tolist()``, whose copies are the RK scratch vectors, and
records rows through a flat ``memoryview`` of ``out``.  The jit flavour
computes on numpy arrays and records through ``out.reshape(-1)``.  Both
fill the preallocated ``out`` array, with bit-identical results, in ranges
of rows: after each, a caller's ``on_block`` can act on the rows filled
so far (``csvio.TrajectoryFormatter`` formats them).

The closed loop integrates only its live states, :func:`live_states`:
those whose rate :func:`closed_loop_rhs` can make nonzero for the run's
controller kind and ``observe`` flag, less the reference model and the
set-point filter when they start at rest.  The gains k1..k3 move only
under the adaptive kind, ``e_int`` only under the fixed PID, and (phi,
psi) only when observed; the rhs sets every other rate to exactly 0.0,
so those states keep their initial values, as a full RK4 step would
leave them.  The one exception is a zero written as ``-0.0`` (a fixed
controller's gain, say), which stays ``-0.0`` where a full step's
``-0.0 + 0.0`` would make it ``0.0``.  The live indices are a tuple
computed outside the loop, so under jit each run has one type for them.

Each model equation is defined once, as a jitable helper (compiled into
the kernels that call it): the compressor map in :func:`pressure_rise`,
the surge model's rates in :func:`surge_rhs` (called by the open-loop
kernel at each RK4 stage and by the observe branch of the closed loop),
and the closed-loop equations in :func:`closed_loop_rhs`.

Kernels never raise: they return ``(status, row)`` so the wrappers in
``odesim``/``loop`` can map failures onto the package exceptions.
"""

import math
import os

try:
    import numba
    from numba.extending import register_jitable as _jitable
    _HAVE_NUMBA = True
except ImportError:  # numba is the optional ``jit`` extra
    numba = None
    _HAVE_NUMBA = False

    def _jitable(fn):
        return fn

NUMBA_ENABLED = _HAVE_NUMBA and os.environ.get(
    "SURGEKIT_NO_NUMBA", "").lower() not in ("1", "true", "yes")

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


@_jitable
def pressure_rise(phi, psi0, h, slope, offset, c0, c1, c2, c3):
    """The compressor map psi_c(phi) = psi0 + h * P(slope*phi + offset),
    ``P`` the cubic with ascending coefficients c0..c3."""
    w = slope * phi + offset
    return psi0 + h * (c0 + w * (c1 + w * (c2 + w * c3)))


@_jitable
def surge_rhs(phi, psi, g, psi0, h, slope, offset, c0, c1, c2, c3, a, b):
    """Rates (d phi/dt, d psi/dt) of the surge model at throttle g.

    Needs psi > 0; callers check it, since sqrt(psi) is undefined below.
    """
    pc = pressure_rise(phi, psi0, h, slope, offset, c0, c1, c2, c3)
    return a * (pc - psi), b * (phi - g * math.sqrt(psi))


def _greitzer_loop(out, dt, m_psi0, m_h, m_sl, m_off, c0, c1, c2, c3,
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


@_jitable
def closed_loop_rhs(q, dq, sig, p):
    """The closed-loop equations: rates of the state ``q`` (in ``CL_STATE``
    order) into ``dq`` and the signals (u, co, y, e) into ``sig``.

    ``p`` is the tuple of the loop constants (``loop._kernel_args``).
    Returns a status code.
    """
    (kind, kp, ki, kd, gamma, r, vtau, vlo, vhi, ftau, dtarget, dtau, rm_w2,
     rm_2zw, observe, m_psi0, m_h, m_sl, m_off, c0, c1, c2, c3, a, b) = p
    x = q[0]
    d = q[1]
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
        prop = q[7] * r - q[8] * y
        dgain = q[9]
    elif kind == KIND_FIXED_PID:
        prop = kp * (r - y) + ki * q[10]
        dgain = kd
    else:
        prop = kp * (r - y)
        dgain = kd
    if linear:
        den = 1.0 + dgain / vtau
        if den == 0.0:  # an RK stage can carry a negative gain k3 = -vtau
            return NONFINITE
        u = (prop - dgain * d_dot + dgain * x / vtau) / den
    else:
        u = prop - dgain * d_dot
    x_dot = (u - x) / vtau
    if linear:
        y_dot = d_dot + x_dot
    else:
        y_dot = d_dot
    e = y - q[2]
    dq[0] = x_dot
    dq[1] = d_dot
    dq[2] = q[3]
    dq[3] = rm_w2 * r - rm_w2 * q[2] - rm_2zw * q[3]
    dq[4] = (r - q[4]) / ftau
    dq[5] = (-y - q[5]) / ftau
    dq[6] = (-y_dot - q[6]) / ftau
    if kind == KIND_ADAPTIVE and linear:
        dq[7] = -gamma * e * q[4]
        dq[8] = -gamma * e * q[5]
        dq[9] = -gamma * e * q[6]
    else:
        dq[7] = 0.0
        dq[8] = 0.0
        dq[9] = 0.0
    if kind == KIND_FIXED_PID:
        dq[10] = r - y
    else:
        dq[10] = 0.0
    if observe:
        phi = q[11]
        psi = q[12]
        if psi <= 0.0:
            return PSI_NONPOSITIVE
        pcy = pressure_rise(y, m_psi0, m_h, m_sl, m_off, c0, c1, c2, c3)
        if pcy <= 0.0:
            return PSI_NONPOSITIVE
        dq[11], dq[12] = surge_rhs(phi, psi, y / math.sqrt(pcy), m_psi0, m_h,
                                   m_sl, m_off, c0, c1, c2, c3, a, b)
    else:
        dq[11] = 0.0
        dq[12] = 0.0
    sig[0] = u
    sig[1] = co
    sig[2] = y
    sig[3] = e
    return OK


def live_states(p, state):
    """Indices of the states the loop integrates from ``state`` under the
    constants ``p``.

    The gains k1..k3 move only under the adaptive kind, ``e_int`` only
    under the fixed PID, and (phi, psi) only when ``observe`` is set;
    :func:`closed_loop_rhs` sets every other such rate to exactly 0.0.
    The reference model (ym1, ym2) and the set-point filter v1 are closed
    subsystems: their rates read only themselves and the constants.  Each
    is left out when its rates at ``state`` are exactly zero and none of
    its values is ``-0.0``.  By induction it then never moves, and a full
    RK4 step leaves it bit for bit as it is (``-0.0 + 0.0`` would be
    ``0.0``, hence the sign check).  A rate the rhs leaves unwritten,
    failing first, counts as nonzero.
    """
    kind = p[0]
    observe = p[14]
    dq = [math.nan] * CL_DIM
    closed_loop_rhs(state, dq, [0.0] * 4, p)
    live = (0, 1)
    for sub in ((2, 3), (4,)):
        if not all(dq[j] == 0.0 and (state[j] != 0.0
                                     or math.copysign(1.0, state[j]) > 0.0)
                   for j in sub):
            live += sub
    live += (5, 6)
    if kind == KIND_ADAPTIVE:
        live += (7, 8, 9)
    elif kind == KIND_FIXED_PID:
        live += (10,)
    if observe:
        live += (11, 12)
    return live


def _closed_loop_loop(out, state, live, dt, p, start, stop):
    """RK4 on the joint anti-surge loop state, over rows start..stop-1.

    ``state`` is the ``CL_DIM``-element vector in ``CL_STATE`` order, at
    t = start*dt.  Only the indices in ``live`` (:func:`live_states` of
    ``p`` and the run's first state) are integrated; the others keep their
    initial values, as a full step would.  ``out`` is the flat buffer of a
    C-ordered (rows, w) array, w 11 or 13 (13 when observed): row i holds
    t, d, u, x, co, y, ym, e, k1, k2, k3 [, phi, psi] at ``w*i`` to
    ``w*i + w - 1``, recorded from the state at t = i*dt before stepping.
    Unless ``stop`` is the buffer's last row, ``state`` ends at
    t = stop*dt, where the next range starts.  ``p`` is the constants
    tuple of :func:`closed_loop_rhs`.  Returns (status, row): on failure
    ``row`` is the first unfilled row, else the last one filled.
    """
    kind = p[0]
    observe = p[14]
    w = 13 if observe else 11
    n = len(out) // w
    h2 = 0.5 * dt
    h6 = dt / 6.0
    s = state
    # scratch vectors in the storage of ``state``
    st = state.copy()
    g1 = state.copy()
    g2 = state.copy()
    g3 = state.copy()
    g4 = state.copy()
    sig = state[:4].copy()
    for i in range(start, stop):
        rc = closed_loop_rhs(s, g1, sig, p)
        if rc != OK:
            return rc, i
        b = w * i
        out[b] = i * dt
        out[b + 1] = s[1]
        out[b + 2] = sig[0]
        out[b + 3] = s[0]
        out[b + 4] = sig[1]
        out[b + 5] = sig[2]
        out[b + 6] = s[2]
        out[b + 7] = sig[3]
        out[b + 8] = s[7]
        out[b + 9] = s[8]
        out[b + 10] = s[9]
        if observe:
            out[b + 11] = s[11]
            out[b + 12] = s[12]
        if i == n - 1:
            break
        for j in live:
            st[j] = s[j] + h2 * g1[j]
        rc = closed_loop_rhs(st, g2, sig, p)
        if rc != OK:
            return rc, i + 1
        for j in live:
            st[j] = s[j] + h2 * g2[j]
        rc = closed_loop_rhs(st, g3, sig, p)
        if rc != OK:
            return rc, i + 1
        for j in live:
            st[j] = s[j] + dt * g3[j]
        rc = closed_loop_rhs(st, g4, sig, p)
        if rc != OK:
            return rc, i + 1
        ok = True
        for j in live:
            v = s[j] + h6 * (g1[j] + 2.0 * g2[j] + 2.0 * g3[j] + g4[j])
            s[j] = v
            if not math.isfinite(v):
                ok = False
        # adaptive gains are kept nonnegative by projection
        if kind == KIND_ADAPTIVE:
            for j in range(7, 10):
                if s[j] < 0.0:
                    s[j] = 0.0
        if not ok:
            return NONFINITE, i + 1
    return OK, stop - 1


def _closed_loop_blocks(loop, flat, s, dt, p, block, on_block):
    """``loop`` over the whole record ``flat`` in ranges of ``block``
    rows, calling ``on_block(rows)`` with the rows filled after each
    range; the live states are taken once, from the first state."""
    live = live_states(p, s)
    n = len(flat) // (13 if p[14] else 11)
    rc = OK, n - 1
    for start in range(0, n, block):
        stop = min(start + block, n)
        rc = loop(flat, s, live, dt, p, start, stop)
        if rc[0] != OK:
            break
        if on_block is not None:
            on_block(stop)
    return rc


def closed_loop_loop_py(out, state, dt, p, block=None, on_block=None):
    """:func:`_closed_loop_loop` over the C-ordered ``out`` on
    ``state.tolist()``, recording through a flat ``memoryview``; the final
    state is copied back into the array ``state``.  With ``block`` the
    rows are filled ``block`` at a time, and ``on_block(rows)`` is called
    after each such range with the rows filled so far."""
    s = state.tolist()
    try:
        return _closed_loop_blocks(
            _closed_loop_loop, memoryview(out).cast("B").cast("d"), s, dt, p,
            block or len(out), on_block)
    finally:
        state[:] = s


greitzer_loop_py = _greitzer_loop

if NUMBA_ENABLED:
    greitzer_loop_jit = numba.njit(cache=True)(_greitzer_loop)
    _closed_loop_loop_jit = numba.njit(cache=True)(_closed_loop_loop)

    def closed_loop_loop_jit(out, state, dt, p, block=None, on_block=None):
        """The compiled :func:`_closed_loop_loop` on the arrays, in the
        ranges of :func:`closed_loop_loop_py`."""
        return _closed_loop_blocks(_closed_loop_loop_jit, out.reshape(-1),
                                   state, dt, p, block or len(out), on_block)

    greitzer_loop = greitzer_loop_jit
    closed_loop_loop = closed_loop_loop_jit
else:
    greitzer_loop_jit = None
    closed_loop_loop_jit = None
    greitzer_loop = greitzer_loop_py
    closed_loop_loop = closed_loop_loop_py
