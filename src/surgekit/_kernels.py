"""Hot fixed-step integration loops, in pure Python.

The loops compute on Python floats, several times faster in the
interpreter than numpy scalars: the open-loop kernel
:func:`greitzer_loop` starts from ``float`` scalars, and
:func:`closed_loop_loop` runs on ``state.tolist()``, whose copies are the
RK scratch vectors, and records rows through a flat ``memoryview`` of
``out``.  Each fills a preallocated ``out`` array; the closed loop fills
it in ranges of rows, and after each a caller's ``follow`` can act on the
rows filled so far (``csvio.RunHelper`` formats them in another process).

The closed loop integrates only its live states, :func:`live_states`:
those whose rate :func:`closed_loop_rhs` can make nonzero for the run's
controller kind, less the reference model and the set-point filter when
they start at rest.  The gains k1..k3 move only under the adaptive kind
and ``e_int`` only under the fixed PID; the rhs sets every other rate to
exactly 0.0, so those states keep their initial values, as a full RK4
step would leave them.  The one exception is a zero written as ``-0.0``
(a fixed controller's gain, say), which stays ``-0.0`` where a full
step's ``-0.0 + 0.0`` would make it ``0.0``.

The observed compressor (phi, psi) of ``closedloop --observe`` is
one-way coupled: the measured flow y drives it and no loop rate reads it.
So it has its own kernel, :func:`observed_compressor`, which integrates it
over a range of rows from the flows the loop recorded: y at RK stage 1 in
the record, and at stages 2-4 in a stage buffer.  It may run in another
process while the loop goes on (``csvio.RunHelper``), or in this one
after each range; its columns are bit for bit those of the coupled
13-state RK4, and its failures are merged with the loop's by step and RK
stage.

Each model equation is defined once: the compressor map in
:func:`pressure_rise`, the surge model's rates in :func:`surge_rhs`
(called by the open-loop kernel at each RK4 stage, and through
:func:`observed_rhs` by the observer), and the closed-loop equations in
:func:`closed_loop_rhs`.

Kernels never raise: they return ``(status, row)`` (the closed loop and
the observer ``(status, row, stage)``) so the wrappers in
``odesim``/``loop`` can map failures onto the package exceptions.
"""

import math

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


def closed_loop_rhs(q, dq, sig, p):
    """The closed-loop equations: rates of the loop states ``q[0..10]``
    (``CL_STATE`` order) into ``dq[0..10]`` and the signals (u, co, y, e)
    into ``sig``.

    ``p`` is the tuple of the loop constants (``loop._kernel_args``).  The
    observed compressor (phi, psi) feeds nothing back; its rates are
    :func:`observed_rhs`'s.  Returns a status code.
    """
    (kind, kp, ki, kd, gamma, r, vtau, vlo, vhi, ftau, dtarget, dtau, rm_w2,
     rm_2zw) = p
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
    sig[0] = u
    sig[1] = co
    sig[2] = y
    sig[3] = e
    return OK


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
    (``-0.0 + 0.0`` would be ``0.0``, hence the sign check).  A rate the
    rhs leaves unwritten, failing first, counts as nonzero.  The observed
    (phi, psi) is never among them: :func:`observed_compressor` integrates
    it.
    """
    kind = p[0]
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
    return live


def _closed_loop_loop(out, s, live, dt, p, start, stop, ys=None):
    """RK4 on the joint anti-surge loop state, over rows start..stop-1.

    ``s`` is the list of the ``CL_DIM`` states in ``CL_STATE`` order, at
    t = start*dt.  Only the indices in ``live`` (:func:`live_states` of
    ``p`` and the run's first state) are integrated; the others keep their
    initial values, as a full step would.  ``out`` is the flat view of a
    C-ordered (rows, w) array: row i holds t, d, u, x, co, y, ym, e, k1,
    k2, k3 at ``w*i`` to ``w*i + 10``, recorded from the state at t = i*dt
    before stepping.  w is 11, or 13 when observed: then ``ys`` is the flat
    view of a (rows, 3) array, and row i of it gets the measured flow y at
    RK stages 2, 3 and 4 of step i (stage 1's is column 5 of the record).
    Unless ``stop`` is the buffer's last row, ``s`` ends at t = stop*dt,
    where the next range starts.  ``p`` is the constants tuple of
    :func:`closed_loop_rhs`.  Returns (status, row, stage): on failure
    ``row`` is the first unfilled row and ``stage`` the RK stage 1-4 whose
    rates failed, or None when the step's result is not finite; else
    ``row`` is the last row filled.
    """
    kind = p[0]
    observed = ys is not None
    w = 13 if observed else 11
    n = len(out) // w
    h2 = 0.5 * dt
    h6 = dt / 6.0
    # RK scratch vectors
    st = s.copy()
    g1 = s.copy()
    g2 = s.copy()
    g3 = s.copy()
    g4 = s.copy()
    sig = s[:4]
    for i in range(start, stop):
        rc = closed_loop_rhs(s, g1, sig, p)
        if rc != OK:
            return rc, i, 1
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
        if i == n - 1:
            break
        sb = 3 * i   # the step's row of the stage flows
        for j in live:
            st[j] = s[j] + h2 * g1[j]
        rc = closed_loop_rhs(st, g2, sig, p)
        if rc != OK:
            return rc, i + 1, 2
        if observed:
            ys[sb] = sig[2]
        for j in live:
            st[j] = s[j] + h2 * g2[j]
        rc = closed_loop_rhs(st, g3, sig, p)
        if rc != OK:
            return rc, i + 1, 3
        if observed:
            ys[sb + 1] = sig[2]
        for j in live:
            st[j] = s[j] + dt * g3[j]
        rc = closed_loop_rhs(st, g4, sig, p)
        if rc != OK:
            return rc, i + 1, 4
        if observed:
            ys[sb + 2] = sig[2]
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
            return NONFINITE, i + 1, None
    return OK, stop - 1, None


def observed_compressor(out, ys, dt, m, start, stop):
    """RK4 on the observed compressor (phi, psi) over rows start..stop-1
    of an observed closed-loop record, driven by the flows the loop kernel
    recorded there.

    ``out`` and ``ys`` are the flat views of :func:`_closed_loop_loop`'s
    (rows, 13) record and (rows, 3) stage flows, ``m`` the map constants
    (psi0, h, slope, offset, c0..c3, a, b).  (phi, psi) at t = start*dt is
    read from columns 11-12 of row ``start``, and each step writes its
    result into those of the next row.  The rates, checks and stages are
    those the coupled 13-state RK4 would take: :func:`observed_rhs` at each
    stage, and a finite result.  Returns (status, row, stage) as
    :func:`_closed_loop_loop` does.
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


def _step_stage(row, stage):
    """(step, stage) of a failure reported at ``row``, ordered as the
    coupled RK4 meets it: the finite check after stage 4."""
    return (row, 1) if stage == 1 else (row - 1, stage or 5)


def closed_loop_loop(out, state, dt, p, block=None, follow=None, ys=None):
    """:func:`_closed_loop_loop` over the C-ordered array ``out`` from the
    array ``state``, into which the state at the end is copied back.  The
    loop runs on ``state.tolist()`` and records through a flat view of
    ``out``; the live states are taken once, from the first state.

    With ``block`` the rows are filled ``block`` at a time, and after each
    such range ``follow(rows, False)`` is called with the rows filled so
    far; at the end, ``follow(rows, True)`` with the rows the loop filled
    (all of them, or those before its failure).

    Observed, ``ys`` is the (rows, 3) array of stage flows, and ``follow``
    integrates the observed compressor (:func:`observed_compressor`) over
    the rows it is given.  It returns the observer's failure, which stops
    the run, or None; at the end, its result.  (phi, psi) at the start is
    ``state[11:13]``.  The earlier failure by (step, RK stage) is returned,
    the loop's on a tie (its rates come first in the coupled rhs), and
    ``state`` is the 13-state vector at that failure: when it is the
    observer's, the loop's part is rebuilt by replaying its range from
    the state kept at the range's start.  When the loop fails at stage 2-4
    of a step, the observer is given that step's row, whose flows from the
    failing stage on were never recorded: whatever it meets there comes at
    or after the loop's failure, and loses to it.

    Returns (status, row, stage) as :func:`_closed_loop_loop` does.
    """
    s = state.tolist()
    rec = flat(out)
    stages = None if ys is None else flat(ys)
    live = live_states(p, s)
    n = len(out)
    block = block or n
    kept = []
    if stages is not None:
        rec[11] = s[11]
        rec[12] = s[12]
    rc = OK, n - 1, None
    seen = None   # the observer's failure, or its result at the end
    try:
        for start in range(0, n, block):
            if stages is not None:
                kept.append(s.copy())
            stop = min(start + block, n)
            rc = _closed_loop_loop(rec, s, live, dt, p, start, stop, stages)
            if rc[0] != OK:
                break
            if follow is not None and stop < n:
                seen = follow(stop, False)
                if seen is not None:
                    break
        if follow is not None and seen is None:
            seen = follow(n if rc[0] == OK else rc[1], True)
        if stages is None:
            return rc
        replay = seen[0] != OK and (
            rc[0] == OK or _step_stage(*seen[1:]) < _step_stage(*rc[1:]))
        if replay:
            rc = seen
        # the step whose state the failure reports: after the step for the
        # finite check, before it for a stage
        at = rc[1] - 1 if rc[2] in (2, 3, 4) else rc[1]
        if replay:
            k = min(at // block, len(kept) - 1)
            s[:] = kept[k]
            _closed_loop_loop(rec, s, live, dt, p, k * block, at, stages)
        s[11] = rec[13 * at + 11]
        s[12] = rec[13 * at + 12]
        return rc
    finally:
        state[:] = s
