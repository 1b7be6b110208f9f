"""Capacity-guaranteed online repair: the peeled-slot invariant under churn.

The load-bearing acceptance property of the capacity-repair layer: after
*any* sequence of arrival/departure batches — checked after **every**
event, not just at the end — each slot maintained by
:class:`CapacityRepairScheduler` passes the exact ``feasible_within``
check evaluated on a **from-scratch** :class:`SchedulingContext` over
the surviving links, and the schedule partitions exactly the active
links.  ``rebuild_every=1`` is pinned slot-identical to a fresh
``repeated_capacity`` peel, and opportunistic compaction can never break
feasibility nor increase the slot count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.repair import CapacityRepairScheduler
from repro.errors import LinkError
from repro.scenarios import build_scenario
from tests.algorithms.repair_helpers import (
    assert_feasible_from_scratch as _assert_feasible_from_scratch,
    fresh_context as _fresh_context,
    replay_random_churn,
)
from tests.conftest import CHURN_EXAMPLES

#: Scenario sweep: a moderate-zeta geometric space (multi-link capacity
#: slots), a hotspot-dense one, and a high-zeta walled space where the
#: bounded-growth separation degenerates and the adaptive fallback (and
#: compaction) must carry the schedule.
CAPACITY_SCENARIOS = ("planar_uniform", "clustered", "corridor")


def _churn_with_capacity_repair(
    scenario: str,
    seed: int,
    events: int,
    *,
    check_every_event: bool = False,
    **kwargs,
) -> tuple[DynamicContext, CapacityRepairScheduler, list[int]]:
    """Replay a random churn trace, repairing after every batch."""
    links = build_scenario(scenario, n_links=16, seed=4)
    pairs = [(l.sender, l.receiver) for l in links]
    dyn = DynamicContext(links.space, pairs[:8])
    rs = CapacityRepairScheduler(dyn, **kwargs)

    def check(rs, dyn, alive):
        assert rs.check()
        assert rs.schedule.all_links() == tuple(sorted(alive))
        _assert_feasible_from_scratch(rs, dyn)

    alive = replay_random_churn(
        dyn, rs, pairs, seed, events,
        on_event=check if check_every_event else None,
    )
    return dyn, rs, alive


class TestCapacityRepairInvariant:
    @pytest.mark.parametrize("scenario", CAPACITY_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_feasible_after_every_event(self, scenario, seed):
        """The acceptance property, checked after *every* churn batch."""
        dyn, rs, alive = _churn_with_capacity_repair(
            scenario, seed, events=12, check_every_event=True
        )
        assert rs.check()
        assert rs.schedule.all_links() == tuple(sorted(alive))

    @pytest.mark.parametrize("admission", ("adaptive", "general"))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_rebuild_every_event_matches_fresh_repeated_capacity(
        self, admission, seed
    ):
        """rebuild_every=1 is the per-event re-peel baseline: after the
        trace its schedule equals a from-scratch ``repeated_capacity``
        slot for slot."""
        dyn, rs, _ = _churn_with_capacity_repair(
            "clustered", seed, events=10, admission=admission,
            rebuild_every=1,
        )
        ctx, remap = _fresh_context(dyn)
        fresh = ctx.repeated_capacity(admission=admission)
        inverse = {i: s for s, i in remap.items()}
        expected = tuple(
            tuple(sorted(inverse[i] for i in slot)) for slot in fresh
        )
        assert rs.schedule.slots == expected
        assert rs.stats.rebuilds == rs.stats.events
        assert rs.competitive_ratio() == 1.0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_compaction_preserves_feasibility_and_slot_count(self, seed):
        """An explicit compact() pass after any trace: the slot count is
        non-increasing, the partition is untouched, and every slot still
        passes the exact from-scratch check."""
        dyn, rs, alive = _churn_with_capacity_repair(
            "corridor", seed, events=15
        )
        before_slots = rs.slot_count
        before_links = rs.schedule.all_links()
        merged = rs.compact()
        assert rs.slot_count == before_slots - merged
        assert rs.slot_count <= before_slots
        assert rs.schedule.all_links() == before_links
        assert rs.check()
        _assert_feasible_from_scratch(rs, dyn)
        assert rs.stats.merged == merged

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_compaction_every_knob_fires_in_apply(self, seed):
        """compaction_every=1 compacts inside apply() after each event;
        feasibility and the partition survive throughout."""
        dyn, rs, alive = _churn_with_capacity_repair(
            "corridor", seed, events=12, compaction_every=1,
            check_every_event=True,
        )
        assert rs.check()


class TestCapacityRepairMechanics:
    def _dyn(self, n_links=12, scenario="planar_uniform", seed=7):
        links = build_scenario(scenario, n_links=n_links, seed=seed)
        pairs = [(l.sender, l.receiver) for l in links]
        return DynamicContext(links.space, pairs), links

    def test_anchor_equals_static_repeated_capacity(self):
        dyn, links = self._dyn()
        for admission in ("bounded_growth", "general", "adaptive"):
            rs = CapacityRepairScheduler(dyn, admission=admission)
            assert rs.schedule.slots == SchedulingContext(
                links
            ).repeated_capacity(admission=admission)

    def test_compaction_merges_underfull_slots(self):
        """Departures shred capacity slots; a compact() pass repacks
        them without ever increasing the slot count.  The corridor's
        high zeta makes the from-scratch peel singleton-heavy, so churn
        plus compaction is where the slot-count story is won."""
        fired = False
        for seed in range(30):
            dyn, rs, _ = _churn_with_capacity_repair(
                "corridor", seed, events=20
            )
            before = rs.slot_count
            merged = rs.compact()
            assert rs.slot_count == before - merged
            assert rs.check()
            if merged:
                fired = True
                break
        assert fired, "no trace gave compaction a merge opportunity"

    def test_local_placement_respects_admission_threshold(self):
        """A link locally placed into an existing slot clears the
        Algorithm-1 threshold against that slot at placement time."""
        dyn, links = self._dyn()
        rs = CapacityRepairScheduler(dyn)
        pairs = [(l.sender, l.receiver) for l in links]
        slot_before = {
            t: set(s) for t, s in enumerate(rs.schedule.slots)
        }
        new = dyn.add_links([pairs[0]])
        rs.apply(new, [])
        v = new[0]
        t = rs.schedule.slot_of(v)
        placed_with = set(rs.schedule.slots[t]) - {v}
        if placed_with and tuple(sorted(placed_with)) in {
            tuple(sorted(s)) for s in slot_before.values()
        }:
            # Joined an existing slot: the threshold must have held
            # against exactly the members it joined.
            a = np.minimum(dyn.raw_affectance, 1.0)
            members = np.asarray(sorted(placed_with), dtype=int)
            combined = float(
                a[members, v].sum() + a[v, members].sum()
            )
            assert combined <= rs.ADMISSION_THRESHOLD + 1e-12
        assert rs.check()

    def test_slot_trajectory_records_every_event(self):
        dyn, links = self._dyn(n_links=8)
        rs = CapacityRepairScheduler(dyn)
        assert rs.slot_trajectory == [rs.slot_count]
        dyn.remove_links([0])
        rs.apply([], [0])
        dyn.remove_links([1])
        rs.apply([], [1])
        assert len(rs.slot_trajectory) == 3
        assert rs.slot_trajectory[-1] == rs.slot_count

    def test_empty_context_anchor(self):
        dyn, links = self._dyn(n_links=4)
        rs = CapacityRepairScheduler(dyn)
        dyn.remove_links([0, 1, 2, 3])
        rs.apply([], [0, 1, 2, 3])
        assert rs.slot_count == 0
        assert rs.schedule.slots == ()

    def test_validation(self):
        dyn, _ = self._dyn(n_links=6)
        with pytest.raises(LinkError):
            CapacityRepairScheduler(dyn, admission="bogus")
        with pytest.raises(LinkError):
            CapacityRepairScheduler(dyn, compaction_every=0)
        with pytest.raises(LinkError):
            CapacityRepairScheduler(dyn, compaction_probes=0)
        with pytest.raises(LinkError):
            CapacityRepairScheduler(dyn, max_slots=0)
        with pytest.raises(LinkError):
            CapacityRepairScheduler(dyn, max_evictions=-1)
        for name in ("compaction_every", "compaction_probes", "cascade"):
            for value in (1.5, float("nan"), True):
                with pytest.raises(LinkError, match="must be an integer"):
                    CapacityRepairScheduler(dyn, **{name: value})

    def test_stability_wiring_end_to_end(self):
        """run_queue_simulation(scheduler="capacity_repair") serves a
        churn trace with zero re-anchors; capacity_rebuild re-anchors
        every event."""
        from repro.distributed.stability import run_queue_simulation
        from repro.scenarios import build_dynamic_scenario

        scn = build_dynamic_scenario(
            "poisson_churn", n_links=10, seed=3, horizon=120,
            churn_rate=0.1, substrate="planar_uniform",
        )
        links = scn.initial_links()
        res = run_queue_simulation(
            links, 0.2, scn.horizon, seed=1, churn=scn,
            scheduler="capacity_repair", compaction_every=5,
        )
        assert res.delivered > 0
        assert res.scheduler_rebuilds == 0
        assert res.schedule_slots >= 1
        rebuilt = run_queue_simulation(
            links, 0.2, scn.horizon, seed=1, churn=scn,
            scheduler="capacity_rebuild",
        )
        assert rebuilt.scheduler_rebuilds == rebuilt.churn_events
        assert rebuilt.repair_ratio == 1.0


class TestClipOnRead:
    """The context stores raw affectance; the capacity rule reads the
    clipped form ``min(1, a)`` (Algorithm 1's accounting)."""

    @staticmethod
    def _huge_blocker():
        """Links v, u, w with ``a[u, v]`` ~ 1e21: u's sender sits 1e-7
        from v's receiver, while w alone puts ~0.6 on v."""
        from repro.core.decay import DecaySpace

        pts = np.array(
            [
                [0.0, 0.0], [1.0, 0.0],  # v
                [1.0 + 1e-7, 0.0], [2.0, 0.0],  # u
                [1.0, 1.186], [1.0, 2.186],  # w
            ]
        )
        space = DecaySpace.from_points(pts, 3.0)
        dyn = DynamicContext(space, [(0, 1), (2, 3), (4, 5)])
        return dyn, 0, 1, 2

    def test_eviction_threshold_reads_clipped_terms(self):
        """Evicting u leaves w's 0.6 on v: the threshold refuses.  An
        unclipped subtraction ``(1e21 + 0.6) - 1e21`` reads 0 and would
        admit v over the threshold."""
        dyn, v, u, w = self._huge_blocker()
        a = dyn.raw_affectance
        assert a[u, v] > 1e20 and 0.5 < a[w, v] < 0.7
        rs = CapacityRepairScheduler(dyn, anchor=False)
        rs._install([[u, w]])
        cand = np.array([u, w])
        col = a[cand, v]
        mask = rs._eviction_mask(v, 0, cand, col, float(col.sum()))
        clip = np.minimum(a, 1.0)
        rest = clip[w, v] + clip[v, w]
        assert rest > rs.ADMISSION_THRESHOLD
        assert not mask[0]

    def test_slot_admission_sums_clip_raw_entries(self):
        from repro.algorithms.context import slot_admission_sums

        dyn, v, u, w = self._huge_blocker()
        members = np.array([v, u, w])
        clip = np.minimum(dyn.raw_affectance, 1.0)[np.ix_(members, members)]
        want = clip.sum(axis=0) + clip.sum(axis=1)
        got = slot_admission_sums(dyn.raw_affectance, members)
        assert np.array_equal(got, want)
        sparse = DynamicContext(
            dyn.space, [(0, 1), (2, 3), (4, 5)], backend="sparse",
            radius=10.0,
        )
        got = slot_admission_sums(sparse.raw_affectance, members)
        assert np.array_equal(got, want)
