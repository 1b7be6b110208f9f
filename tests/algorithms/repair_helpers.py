"""Shared oracles for the online-repair test suites.

Both repair suites (`test_repair.py`, `test_repair_capacity.py`) rest on
the same load-bearing cross-check: rebuild a :class:`SchedulingContext`
**from scratch** over the dynamic context's surviving links and verify
every maintained slot against it.  The oracle lives here once so a
future change (e.g. threading noise/beta/zeta through the rebuild)
cannot silently leave the two suites checking different invariants —
and so does the randomized churn-replay loop they both drive.  The
every-member reference repairers pin the support-restricted probes of
:mod:`repro.algorithms.repair` against the sweep over all members.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
)
from repro.core.affectance import in_affectances_within
from repro.core.links import LinkSet


def fresh_context(dyn: DynamicContext) -> tuple[SchedulingContext, dict]:
    """A from-scratch context over the active links + slot remapping."""
    act = dyn.active_slots
    pairs = [(int(dyn.senders[s]), int(dyn.receivers[s])) for s in act]
    remap = {int(s): i for i, s in enumerate(act)}
    ctx = SchedulingContext(
        LinkSet(dyn.space, pairs),
        dyn.powers[act].copy(),
        noise=dyn.noise,
        beta=dyn.beta,
    )
    return ctx, remap


def assert_feasible_from_scratch(rs, dyn: DynamicContext) -> None:
    """Every maintained slot passes the exact check on a fresh context."""
    ctx, remap = fresh_context(dyn)
    a = ctx.raw_affectance
    for slot in rs.schedule.slots:
        idx = [remap[v] for v in slot]
        assert np.all(in_affectances_within(a, idx) <= 1.0)


def replay_random_churn(
    dyn: DynamicContext,
    rs,
    pairs: Sequence[tuple[int, int]],
    seed: int,
    events: int,
    *,
    initial: int = 8,
    on_event: Callable | None = None,
) -> list[int]:
    """Drive ``events`` random arrival/departure batches through ``rs``.

    The shared trace shape of the repair property suites: batches of 1-3
    arrivals drawn cyclically from ``pairs`` (the context assigns
    slots), or 1-2 departures of uniformly random live links, never
    draining below four.  ``on_event(rs, dyn, alive)`` runs after each
    applied batch; returns the live slot list.
    """
    rng = np.random.default_rng(seed)
    alive = list(range(initial))
    nxt = initial
    for _ in range(events):
        if rng.random() < 0.5 or len(alive) <= 3:
            batch = [
                pairs[(nxt + j) % len(pairs)]
                for j in range(int(rng.integers(1, 4)))
            ]
            nxt += len(batch)
            slots = dyn.add_links(batch)
            alive.extend(slots)
            rs.apply(slots, [])
        else:
            count = min(int(rng.integers(1, 3)), len(alive) - 1)
            gone = [
                alive.pop(int(rng.integers(len(alive))))
                for _ in range(count)
            ]
            dyn.remove_links(gone)
            rs.apply([], gone)
        if on_event is not None:
            on_event(rs, dyn, alive)
    return alive


class _EveryMemberTerms:
    """Reference probes: every slot member's term, zero-padded.

    Overrides the support lookup of the repairers so that probes,
    admission sums and the eviction scan gather over *all* members of
    the slot, as the repairers did before their probes read only a
    link's stored support: ``a[members, v]`` and ``a[v, members]`` with
    zeros at unstored positions, summed in member order, and a
    full-membership (candidates x hot) block in the eviction scan.
    """

    def _slot_terms(self, a, v, t):
        mem = self._member_array(t)
        return mem, a.gather_col(mem, v), mem, a.gather_row(v, mem)


class ReferenceRepair(_EveryMemberTerms, OnlineRepairScheduler):
    """First-fit repair with the every-member probe and eviction scan."""


class ReferenceCapacityRepair(_EveryMemberTerms, CapacityRepairScheduler):
    """Capacity repair with the every-member probe and eviction scan."""
