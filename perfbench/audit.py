"""Exact SINR audit of served slots, independent of the scheduler.

Every affectance is recomputed from the decay space through its public
``decay_pairs`` accessor with the paper's formula (Sec. 2.4)::

    a_w(v) = c_v * (P_w / P_v) * (f(s_v, r_v) / f(s_w, r_v)),
    c_v = beta / (1 - beta * N * f(s_v, r_v) / P_v)

so a sparse pattern's dropped tail is counted too.  A link is feasible
in its slot exactly when its in-slot affectance sum is at most 1.
"""

from __future__ import annotations

import numpy as np

#: Interferer rows per block: bounds the working set at ``BLOCK * |slot|``.
#: Kept small so that the audit's temporaries stay well below the
#: program's own footprint and never set the run's peak memory.
BLOCK = 64


def in_slot_affectance(space, senders, receivers, powers, noise, beta, slot):
    """``a_S(v)`` for every member ``v`` of ``slot`` (aligned to it).

    ``senders``/``receivers``/``powers`` are indexed by the link ids in
    ``slot``.
    """
    idx = np.asarray(slot, dtype=np.int64)
    s = np.asarray(senders)[idx]
    r = np.asarray(receivers)[idx]
    p = np.asarray(powers, dtype=float)[idx]
    f_vv = space.decay_pairs(s, r)
    c = beta / (1.0 - beta * noise * f_vv / p)
    gain = c * f_vv / p  # per affected link v
    total = np.zeros(idx.size)
    for lo in range(0, idx.size, BLOCK):
        hi = min(lo + BLOCK, idx.size)
        sw = np.broadcast_to(s[lo:hi, None], (hi - lo, idx.size))
        rv = np.broadcast_to(r[None, :], (hi - lo, idx.size))
        with np.errstate(divide="ignore"):
            a = p[lo:hi, None] * gain[None, :] / space.decay_pairs(sw, rv)
        a[np.arange(hi - lo), np.arange(lo, hi)] = 0.0  # a_v(v) = 0
        total += a.sum(axis=0)
    return total


def audit(space, senders, receivers, powers, noise, beta, slots):
    """``(worst in-slot affectance, links above 1, links audited)``."""
    worst = 0.0
    bad = 0
    count = 0
    for slot in slots:
        if len(slot) == 0:
            continue
        a = in_slot_affectance(
            space, senders, receivers, powers, noise, beta, slot
        )
        worst = max(worst, float(a.max()))
        bad += int(np.count_nonzero(a > 1.0))
        count += a.size
    return worst, bad, count
