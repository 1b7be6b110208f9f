"""Sparse repair reads only a link's support: oracles for that shortcut.

The repairers find a slot's members through one label array and read
only the members inside a link's stored row/column support — in probes,
admission sums, departures and the eviction scan.  Two oracles pin it
on thresholded sparse patterns under daemon-style batched churn (merged
events, so a departed link's context slot is reused by an arrival of
the same batch):

* **exact ledgers** — after every event each slot's ledger equals a
  from-scratch row sum at every member position, departures being
  repaired in place;
* **every-member reference** — the repairers make the same placements,
  evictions and slots, event by event, as the reference repairers of
  ``repair_helpers`` that gather over every member, with eviction
  cascades and a ``max_slots`` bound that keeps the eviction scan busy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
)
from repro.core.decay import DecaySpace
from repro.core.links import LinkSet
from repro.dynamics import ChurnDriver, ChurnEvent, chunk_events
from repro.scenarios import build_dynamic_scenario
from tests.algorithms.repair_helpers import (
    ReferenceCapacityRepair,
    ReferenceRepair,
)
from tests.conftest import CHURN_EXAMPLES

PAIRS = {
    "first_fit": (OnlineRepairScheduler, ReferenceRepair),
    "capacity": (CapacityRepairScheduler, ReferenceCapacityRepair),
}


def _batched(scn, driver, batch):
    """The trace merged into daemon chunks of ``batch`` events."""
    return [
        ChurnEvent.merged(c)
        for c in chunk_events(scn.events, batch, driver.next_id)
    ]


def _assert_ledgers_exact(rep, dyn):
    state = rep.export_state()
    offsets = state["repair_offsets"]
    members = state["repair_members"]
    fresh = iter(state["repair_ledgers"])
    for t, stale in enumerate(state["repair_ledger_stale"]):
        if stale:
            continue
        ledger = next(fresh)
        mem = members[offsets[t] : offsets[t + 1]]
        exact = dyn.raw_affectance.rows_sum(mem)
        np.testing.assert_allclose(
            ledger[mem], exact[mem], rtol=1e-12, atol=1e-12
        )


def test_batched_departures_keep_ledgers_exact():
    """A departed link's slot reused inside the batch must not leak the
    new link's row into the ledger repaired in place."""
    scn = build_dynamic_scenario(
        "poisson_churn",
        n_links=60,
        seed=1,
        substrate="planar_uniform",
        horizon=120,
        churn_rate=1.0,
    )
    dyn = DynamicContext(
        scn.space, scn.initial_links(), backend="sparse", eps=0.2,
        radius=6.0,
    )
    driver = ChurnDriver(dyn, scn)
    rep = OnlineRepairScheduler(dyn)
    reused = 0
    for ev in _batched(scn, driver, 2):
        gone, fresh = driver.feed(ev)
        reused += len(set(gone) & set(fresh))
        rep.apply(fresh, gone)
        _assert_ledgers_exact(rep, dyn)
    assert reused > 0  # vacuous otherwise
    assert rep.check()


#: Line instances at radius 2 whose cheapest eviction shares only one
#: direction of stored pair with the arrival, or none: (points, initial
#: links, arrival, schedule after the arrival).
#:
#: * ``hot_member`` — u = 0 and w = 1 share a slot and u loads w's
#:   receiver with 0.70.  The arrival v = 2 adds 0.50 there, so w is hot
#:   while v's in-affectance stays 0.50.  No pair between u and v is
#:   stored, yet evicting u (shorter than w) admits v: the scan must
#:   reach u through the hot member's column support.
#: * ``column_only`` — u = 0 puts 1.37 on the arrival v = 1, but v's
#:   sender is beyond the radius of u's receiver: u sits in v's column
#:   support only.
SUPPORT_CASES = {
    "hot_member": (
        [[2.126, 0], [2.626, 0], [0, 0], [1, 0], [-0.26, 0], [-1.26, 0]],
        [(0, 1), (2, 3)],
        (4, 5),
        ((1, 2), (0,)),
    ),
    "column_only": (
        [[11.9, 0], [12.4, 0], [10, 0], [11, 0]],
        [(0, 1)],
        (2, 3),
        ((1,), (0,)),
    ),
}


@pytest.mark.parametrize("case", sorted(SUPPORT_CASES))
def test_eviction_reaches_members_outside_row_support(case):
    pts, initial, arrival, expected = SUPPORT_CASES[case]
    space = DecaySpace.from_points(pts, alpha=3.0)
    for cls in PAIRS["first_fit"]:
        ctx = SchedulingContext(
            LinkSet(space, initial), backend="sparse", eps=0.5, radius=2.0
        )
        dyn = ctx.dynamic()
        rep = cls(dyn)
        assert rep.slot_count == 1
        [v] = dyn.add_links([arrival])
        assert 0 not in dyn.raw_affectance.row(v)[0]
        rep.apply([v], [])
        assert rep.stats.evictions == 1
        assert rep.schedule.slots == expected


@pytest.mark.parametrize("kind", sorted(PAIRS))
@given(
    seed=st.integers(0, 2**16),
    batch=st.integers(2, 4),
    cascade=st.integers(1, 2),
)
@settings(max_examples=CHURN_EXAMPLES, deadline=None)
def test_matches_every_member_reference(kind, seed, batch, cascade):
    scn = build_dynamic_scenario(
        "poisson_churn",
        n_links=48,
        seed=seed,
        substrate="clustered",
        horizon=100,
        churn_rate=1.0,
    )
    fast_cls, ref_cls = PAIRS[kind]
    runs = []
    for cls in (fast_cls, ref_cls):
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=0.5
        )
        assert not ctx.sparse_affectance.complete
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        # Two slots cannot hold the clustered links, so arrivals keep
        # falling through to the eviction scan and the deferred queue.
        rep = cls(dyn, cascade=cascade, max_slots=2)
        # Random eviction costs: the cheapest candidate is then any
        # member that passes the mask, not just the shortest link.
        rep.set_priorities(np.random.default_rng(seed).random(4096))
        trace = []
        for ev in _batched(scn, driver, batch):
            gone, fresh = driver.feed(ev)
            rep.apply(fresh, gone)
            state = rep.export_state()
            trace.append((
                state["repair_members"].tolist(),
                state["repair_offsets"].tolist(),
                state["repair_stats"].tolist(),
                state["repair_deferred"].tolist(),
            ))
        assert rep.check()
        runs.append(trace)
    fast, ref = runs
    assert fast == ref
