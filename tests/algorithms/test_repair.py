"""Online repair scheduler: feasibility is preserved under any churn.

The load-bearing acceptance property of the repair layer: after *any*
sequence of arrival/departure batches, every slot of the repaired
schedule satisfies the exact feasibility rule (``feasible_within``)
evaluated on a **from-scratch** :class:`SchedulingContext` over the
surviving links, and the schedule partitions exactly the active links.
Hypothesis drives random churn traces over registry scenarios; unit
tests cover the anchor identity with static first-fit, the
rebuild-every-event baseline, the eviction cascade, and validation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.repair import OnlineRepairScheduler
from repro.core.decay import DecaySpace
from repro.dynamics import ChurnDriver, ChurnEvent, DynamicScenario
from repro.errors import LinkError
from repro.scenarios import build_dynamic_scenario, build_scenario
from tests.algorithms.repair_helpers import (
    assert_feasible_from_scratch as _assert_feasible_from_scratch,
    fresh_context as _fresh_context,
    replay_random_churn,
)
from tests.conftest import CHURN_EXAMPLES

#: Scenarios the repair property sweeps: geometric, hotspot-dense, and
#: an asymmetric space (distinct in/out affectance rows).
REPAIR_SCENARIOS = ("planar_uniform", "clustered", "asymmetric_measured")


def _conflict_instance() -> DynamicContext:
    """Two co-slotted links L0 (short) and L1 (longer) plus a pending
    arrival L2 = (4, 5) that conflicts with both together but fits with
    either alone — evicting exactly one of them admits it.

    Decays are hand-built so the affectance is controlled: cross decays
    of 1000 make everything negligible except L0/L1's interference onto
    L2's receiver (0.625 each, so 1.25 > 1 jointly, feasible singly).
    """
    f = np.full((6, 6), 1000.0)
    np.fill_diagonal(f, 0.0)
    f[0, 1] = f[1, 0] = 1.0  # L0 = (0, 1), the shortest link
    f[2, 3] = f[3, 2] = 1.1  # L1 = (2, 3)
    f[4, 5] = f[5, 4] = 1.0  # L2 = (4, 5), the conflicting arrival
    f[0, 5] = f[5, 0] = 1.6  # a_L0(L2) = 1.0 / 1.6 = 0.625
    f[2, 5] = f[5, 2] = 1.6  # a_L1(L2) = 0.625
    return DynamicContext(DecaySpace(f), [(0, 1), (2, 3)])


def _churn_with_repair(
    scenario: str, seed: int, events: int, cascade: int,
    rebuild_every: int | None = None,
) -> tuple[DynamicContext, OnlineRepairScheduler, list[int]]:
    """Replay a random churn trace, repairing after every batch."""
    links = build_scenario(scenario, n_links=16, seed=4)
    pairs = [(l.sender, l.receiver) for l in links]
    dyn = DynamicContext(links.space, pairs[:8])
    rs = OnlineRepairScheduler(
        dyn, cascade=cascade, rebuild_every=rebuild_every
    )
    alive = replay_random_churn(dyn, rs, pairs, seed, events)
    return dyn, rs, alive


class TestRepairInvariant:
    @pytest.mark.parametrize("scenario", REPAIR_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_feasible_after_any_trace(self, scenario, seed):
        dyn, rs, alive = _churn_with_repair(
            scenario, seed, events=25, cascade=1
        )
        assert rs.check()
        assert rs.schedule.all_links() == tuple(sorted(alive))
        _assert_feasible_from_scratch(rs, dyn)

    @pytest.mark.parametrize("cascade", (0, 2))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_cascade_depths_preserve_feasibility(self, cascade, seed):
        dyn, rs, alive = _churn_with_repair(
            "clustered", seed, events=25, cascade=cascade
        )
        assert rs.check()
        assert rs.schedule.all_links() == tuple(sorted(alive))
        _assert_feasible_from_scratch(rs, dyn)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_rebuild_every_event_matches_fresh_first_fit(self, seed):
        """rebuild_every=1 is the per-event-rebuild baseline: after the
        trace its schedule equals a from-scratch first-fit exactly."""
        dyn, rs, _ = _churn_with_repair(
            "clustered", seed, events=15, cascade=0, rebuild_every=1
        )
        ctx, remap = _fresh_context(dyn)
        fresh = ctx.first_fit()
        inverse = {i: s for s, i in remap.items()}
        expected = tuple(
            tuple(sorted(inverse[i] for i in slot)) for slot in fresh
        )
        assert rs.schedule.slots == expected
        assert rs.stats.rebuilds == rs.stats.events
        assert rs.competitive_ratio() == 1.0


class TestRepairMechanics:
    def _dyn(self, n_links=12, scenario="planar_uniform"):
        links = build_scenario(scenario, n_links=n_links, seed=7)
        pairs = [(l.sender, l.receiver) for l in links]
        return DynamicContext(links.space, pairs), links

    def test_anchor_equals_static_first_fit(self):
        dyn, links = self._dyn()
        rs = OnlineRepairScheduler(dyn)
        assert rs.schedule.slots == SchedulingContext(links).first_fit()

    @pytest.mark.parametrize(
        "scenario,n_links,radius",
        [("clustered", 60, 2.0), ("planar_uniform", 200, 4.0)],
    )
    def test_sparse_anchor_equals_static_first_fit(
        self, scenario, n_links, radius
    ):
        """Same on an incomplete sparse pattern at a pinned radius."""
        links = build_scenario(scenario, n_links=n_links, seed=7)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(
            links.space, pairs, backend="sparse", radius=radius
        )
        static = SchedulingContext(links, backend="sparse", radius=radius)
        assert not static.sparse_affectance.complete
        slots = static.first_fit()
        assert len(slots) > 1
        assert OnlineRepairScheduler(dyn).schedule.slots == slots

    def test_departure_is_pure_bookkeeping(self):
        """Departures never open or reshuffle slots — members only leave."""
        dyn, _ = self._dyn(scenario="clustered")
        rs = OnlineRepairScheduler(dyn)
        before = rs.schedule.slots
        dyn.remove_links([3, 7])
        rs.apply([], [3, 7])
        after = rs.schedule.slots
        stripped = tuple(
            tuple(v for v in slot if v not in (3, 7)) for slot in before
        )
        assert after == tuple(s for s in stripped if s)
        assert rs.stats.opened == 0
        assert rs.check()

    def test_emptied_slot_is_reused_not_leaked(self):
        dyn, links = self._dyn(n_links=6)
        rs = OnlineRepairScheduler(dyn)
        all_links = list(range(6))
        dyn.remove_links(all_links[1:])
        rs.apply([], all_links[1:])
        assert rs.slot_count == 1
        slots = dyn.add_links([(l.sender, l.receiver) for l in links][1:])
        rs.apply(slots, [])
        # planar_uniform at this density packs into the original slots.
        assert rs.slot_count <= len(SchedulingContext(links).first_fit())
        assert rs.check()

    def test_eviction_cascade_fires_and_stays_feasible(self):
        """A seed/density where direct placement fails but one eviction
        succeeds; pinned so the cascade path is actually exercised."""
        fired = False
        for seed in range(40):
            dyn, rs, alive = _churn_with_repair(
                "clustered", seed, events=30, cascade=2
            )
            assert rs.check()
            if rs.stats.evictions > 0:
                fired = True
                _assert_feasible_from_scratch(rs, dyn)
                break
        assert fired, "no trace exercised the eviction cascade"

    def test_apply_reconciles_arrive_then_depart_in_one_batch(self):
        """A ChurnDriver step can batch several events, so a link may
        arrive *and* depart (and a slot be freed and reused) within one
        apply() call; the net effect must be reconciled, not replayed."""
        dyn, links = self._dyn(n_links=10)
        rs = OnlineRepairScheduler(dyn)
        pairs = [(l.sender, l.receiver) for l in links]
        # Batch: slot 2's link departs, a new link reuses slot 2, that
        # new link departs again, and a second new link reuses slot 2 —
        # flattened lists as step_state returns them.
        dyn.remove_links([2])
        assert dyn.add_links([pairs[2]]) == [2]
        dyn.remove_links([2])
        assert dyn.add_links([pairs[3]]) == [2]
        rs.apply(arrived=[2, 2], departed=[2, 2])
        assert rs.check()
        assert rs.schedule.all_links() == tuple(range(10))
        # And a link that arrived then departed inside the batch (slot
        # was never active at reconciliation time) is simply ignored.
        slot = dyn.add_links([pairs[4]])[0]
        dyn.remove_links([slot])
        rs.apply(arrived=[slot], departed=[slot])
        assert rs.schedule.all_links() == tuple(range(10))

    def test_waypoint_trace_with_colliding_epochs_repairs_cleanly(self):
        """Regression: clamped waypoint epochs can share a slot, so one
        step batches several move events — repair mode must survive."""
        from repro.distributed.stability import run_queue_simulation

        scn = build_dynamic_scenario(
            "random_waypoint", n_links=8, seed=0, horizon=4, steps=4,
            move_fraction=0.9,
        )
        res = run_queue_simulation(
            scn.initial_links(), 0.3, scn.horizon, seed=1, churn=scn,
            scheduler="repair",
        )
        assert res.delivered >= 0
        assert res.schedule_slots >= 1

    def test_apply_empty_event_is_noop(self):
        dyn, _ = self._dyn()
        rs = OnlineRepairScheduler(dyn)
        before = rs.schedule.slots
        rs.apply([], [])
        assert rs.schedule.slots == before
        assert rs.stats.events == 0

    def test_validation(self):
        dyn, links = self._dyn()
        with pytest.raises(LinkError):
            OnlineRepairScheduler(dyn, cascade=-1)
        with pytest.raises(LinkError):
            OnlineRepairScheduler(dyn, rebuild_every=0)
        rs = OnlineRepairScheduler(dyn)
        with pytest.raises(LinkError):
            rs.on_departures([99])  # never scheduled
        with pytest.raises(LinkError):
            rs.on_arrivals([0])  # already scheduled

    @pytest.mark.parametrize(
        "name", ["cascade", "rebuild_every", "max_slots", "max_evictions"]
    )
    @pytest.mark.parametrize("value", [2.5, float("nan"), True, "2"])
    def test_non_integer_settings_refused(self, name, value):
        """Counts are never truncated: ``rebuild_every=2.5`` used to fire
        at ``events % 2.5 == 0``."""
        dyn, _ = self._dyn()
        with pytest.raises(LinkError, match=f"{name} must be an integer"):
            OnlineRepairScheduler(dyn, **{name: value})
        # Numpy integers are integers.
        OnlineRepairScheduler(dyn, **{name: np.int64(2)})

    def test_priority_eviction_prefers_low_queue_mass(self):
        """With priorities wired, the cascade evicts the candidate with
        the smallest queue mass instead of the shortest link."""
        dyn = _conflict_instance()
        rs = OnlineRepairScheduler(dyn, cascade=1)
        assert rs.schedule.slots == ((0, 1),)
        slot = dyn.add_link(4, 5)
        rs.apply([slot], [])
        # Default (no priorities): the shorter link L0 is evicted.
        assert rs.stats.evictions == 1
        assert rs.schedule.slot_of(0) != rs.schedule.slot_of(slot)
        assert rs.schedule.slot_of(1) == rs.schedule.slot_of(slot)
        assert rs.check()

        # Replay with queue masses making L0 expensive: L1 is evicted.
        dyn2 = _conflict_instance()
        rs2 = OnlineRepairScheduler(dyn2, cascade=1)
        weights = np.zeros(dyn2.capacity)
        weights[0] = 5.0  # L0 carries backlog
        weights[1] = 0.1
        rs2.set_priorities(weights)
        slot2 = dyn2.add_link(4, 5)
        rs2.apply([slot2], [])
        assert rs2.stats.evictions == 1
        assert rs2.schedule.slot_of(0) == rs2.schedule.slot_of(slot2)
        assert rs2.schedule.slot_of(1) != rs2.schedule.slot_of(slot2)
        assert rs2.check()

    def test_max_slots_overflow_defers_instead_of_overallocating(self):
        """Regression: a link that fails placement everywhere under the
        ``max_slots`` bound is queued for the next event and recorded —
        never silently given a fresh over-budget singleton slot."""
        dyn = _conflict_instance()
        rs = OnlineRepairScheduler(dyn, cascade=0, max_slots=1)
        slot = dyn.add_link(4, 5)
        rs.apply([slot], [])
        assert rs.slot_count == 1  # no over-allocation
        assert rs.deferred == (slot,)
        assert rs.stats.deferred == 1
        assert rs.stats.opened == 0
        assert slot not in rs.schedule.all_links()
        assert rs.check()
        # A departure makes room; the deferred link is retried first.
        dyn.remove_links([0])
        rs.apply([], [0])
        assert rs.deferred == ()
        assert rs.schedule.all_links() == (1, slot)
        assert rs.slot_count == 1
        assert rs.check()

    def test_max_slots_not_bypassed_through_emptied_slot_entry(self):
        """Regression: reusing an *emptied* slot entry grows the
        non-empty count exactly like opening a new slot, so at the
        ``max_slots`` bound a conflicting arrival must be deferred —
        not slipped into the first slot that happened to drain."""
        f = np.full((6, 6), 1000.0)
        np.fill_diagonal(f, 0.0)
        f[0, 1] = f[1, 0] = 1.0  # L0 = (0, 1)
        f[2, 3] = f[3, 2] = 1.1  # L1 = (2, 3), conflicts with L0
        f[4, 5] = f[5, 4] = 1.0  # L2 = (4, 5), conflicts with L0
        f[0, 3] = f[3, 0] = 0.9  # a_L0(L1) = 1.1 / 0.9 > 1
        f[0, 5] = f[5, 0] = 0.8  # a_L0(L2) = 1.0 / 0.8 > 1
        dyn = DynamicContext(DecaySpace(f), [(0, 1), (2, 3)])
        rs = OnlineRepairScheduler(dyn, cascade=0, max_slots=1)
        assert len(rs.schedule.slots) == 2  # the anchor is not gated
        # Drain slot 1, leaving an empty reusable entry behind.
        dyn.remove_links([1])
        rs.apply([], [1])
        assert rs.slot_count == 1
        # The conflicting arrival must not resurrect the empty entry.
        slot = dyn.add_link(4, 5)
        rs.apply([slot], [])
        assert rs.slot_count == 1
        assert rs.deferred == (slot,)
        assert rs.stats.deferred == 1
        assert rs.check()

    def test_max_slots_deferred_evictee_rejoins_after_rebuild(self):
        """An eviction cascade that cannot re-place the evictee under
        ``max_slots`` defers it; a rebuild anchor schedules everything
        again (the bound gates only local growth)."""
        dyn = _conflict_instance()
        rs = OnlineRepairScheduler(
            dyn, cascade=1, max_slots=1, rebuild_every=2
        )
        slot = dyn.add_link(4, 5)
        rs.apply([slot], [])
        # The arrival displaced L0, which fits nowhere within the bound.
        assert rs.stats.evictions == 1
        assert rs.deferred == (0,)
        assert sorted(rs.schedule.all_links()) == [1, slot]
        # The second event triggers the re-anchor: all three links are
        # scheduled from scratch and the deferred queue is cleared.
        extra = dyn.add_link(0, 1)
        rs.apply([extra], [])
        assert rs.stats.rebuilds == 1
        assert rs.deferred == ()
        assert rs.schedule.all_links() == tuple(
            sorted([0, 1, slot, extra])
        )

    def test_max_evictions_caps_cascades_per_event(self):
        """No event spends more than ``max_evictions`` evictions, no
        matter how many arrivals it batches or how deep the per-arrival
        cascade budget is."""
        links = build_scenario("clustered", n_links=16, seed=4)
        pairs = [(l.sender, l.receiver) for l in links]
        for seed in range(8):
            dyn = DynamicContext(links.space, pairs[:8])
            rs = OnlineRepairScheduler(dyn, cascade=3, max_evictions=1)
            prev = [0]

            def bounded(rs, dyn, alive):
                assert rs.stats.evictions - prev[0] <= 1
                prev[0] = rs.stats.evictions
                assert rs.check()

            alive = replay_random_churn(
                dyn, rs, pairs, seed, 25, on_event=bounded
            )
            assert rs.schedule.all_links() == tuple(sorted(alive))

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_competitive_ratio_exact_vs_replayed_baseline(self, seed):
        """competitive_ratio() equals maintained slots over a replayed
        from-scratch first-fit on a freshly built context, exactly."""
        dyn, rs, _ = _churn_with_repair(
            "planar_uniform", seed, events=20, cascade=1
        )
        ctx, _ = _fresh_context(dyn)
        expected = rs.slot_count / len(ctx.first_fit())
        assert rs.competitive_ratio() == expected

    def test_duplicate_slot_ids_in_one_driver_batch_roundtrip(self):
        """A ChurnDriver step batching several events can reuse a slot
        repeatedly (add/remove/move with duplicate slot ids in the
        flattened lists); apply() must reconcile the net effect."""
        links = build_scenario("planar_uniform", n_links=10, seed=7)
        pairs = [(l.sender, l.receiver) for l in links]
        scenario = DynamicScenario(
            name="dup-batch",
            space=links.space,
            initial=tuple(pairs[:6]),
            events=(
                # id 2 departs, pairs[6] arrives (id 6, reuses slot 2)
                ChurnEvent(0, arrivals=(pairs[6],), departures=(2,)),
                # id 6 departs again (same slot), two arrivals: id 7
                # reuses slot 2, id 8 opens a new slot
                ChurnEvent(
                    0, arrivals=(pairs[7], pairs[8]), departures=(6,)
                ),
                # a move: id 0 departs and pairs[9] arrives in its slot
                ChurnEvent(0, arrivals=(pairs[9],), departures=(0,)),
            ),
            horizon=1,
        )
        dyn = DynamicContext(links.space, pairs[:6])
        rs = OnlineRepairScheduler(dyn)
        driver = ChurnDriver(dyn, scenario)
        arrived, departed = driver.step(0)
        # The flattened batch carries slot 2 twice on both sides.
        assert sorted(departed).count(2) == 2
        assert sorted(arrived).count(2) == 2
        rs.apply(arrived, departed)
        assert rs.check()
        assert rs.schedule.all_links() == tuple(dyn.active_slots)
        assert dyn.m == 7  # 6 initial - 3 departed + 4 arrived

    def test_active_schedule_cached_and_refreshed(self):
        dyn, links = self._dyn()
        rs = OnlineRepairScheduler(dyn)
        first = rs.active_schedule
        assert rs.active_schedule is first  # cached between events
        dyn.remove_links([0])
        rs.apply([], [0])
        assert rs.active_schedule is not first
        assert all(0 not in s for s in rs.active_schedule)

    def test_deferred_retry_counts_one_episode(self):
        """Regression: a deferred link retried and re-deferred on every
        subsequent event used to bump ``stats.deferred`` once per retry,
        so the counter measured event count, not deferral episodes."""
        # The conflict instance plus two independent filler links
        # L3 = (6, 7), L4 = (8, 9) that fit anywhere (cross decay 1000).
        f = np.full((10, 10), 1000.0)
        np.fill_diagonal(f, 0.0)
        f[0, 1] = f[1, 0] = 1.0  # L0 = (0, 1)
        f[2, 3] = f[3, 2] = 1.1  # L1 = (2, 3)
        f[4, 5] = f[5, 4] = 1.0  # L2 = (4, 5), conflicts with L0+L1
        f[6, 7] = f[7, 6] = 1.0  # L3: filler
        f[8, 9] = f[9, 8] = 1.0  # L4: filler
        f[0, 5] = f[5, 0] = 1.6  # a_L0(L2) = 0.625
        f[2, 5] = f[5, 2] = 1.6  # a_L1(L2) = 0.625
        dyn = DynamicContext(DecaySpace(f), [(0, 1), (2, 3)])
        rs = OnlineRepairScheduler(dyn, cascade=0, max_slots=1)
        slot = dyn.add_link(4, 5)
        rs.apply([slot], [])
        assert rs.deferred == (slot,)
        assert rs.stats.deferred == 1
        # Two more events that change nothing for the deferred link: the
        # retry fails again each time but the episode already counted.
        for pair in ((6, 7), (8, 9)):
            extra = dyn.add_link(*pair)
            rs.apply([extra], [])
            assert rs.deferred == (slot,)
            assert rs.stats.deferred == 1
        # A departure makes room: the episode ends with the counter
        # still reading one deferral.
        dyn.remove_links([0])
        rs.apply([], [0])
        assert rs.deferred == ()
        assert rs.stats.deferred == 1
        assert rs.check()

    def test_state_roundtrip_resumes_identically(self):
        """export_state/restore_state: a scheduler restored mid-trace
        continues with placements and counters identical to the
        uninterrupted twin run."""
        links = build_scenario("clustered", n_links=16, seed=4)
        pairs = [(l.sender, l.receiver) for l in links]
        # Run A: uninterrupted 15 + 10 events.
        dyn_a, rs_a, _ = _churn_with_repair("clustered", 5, 15, cascade=1)
        replay_random_churn(dyn_a, rs_a, pairs, 6, 10)
        # Run B: identical first 15 events, checkpoint, restore into a
        # fresh scheduler over the same context, continue.
        dyn_b, rs_b, _ = _churn_with_repair("clustered", 5, 15, cascade=1)
        twin = OnlineRepairScheduler(dyn_b, cascade=1, anchor=False)
        twin.restore_state(rs_b.export_state())
        assert twin.schedule.slots == rs_b.schedule.slots
        assert twin.stats == rs_b.stats
        replay_random_churn(dyn_b, twin, pairs, 6, 10)
        assert twin.schedule.slots == rs_a.schedule.slots
        assert twin.stats == rs_a.stats
        assert twin.slot_trajectory == rs_a.slot_trajectory
        assert twin.check()

    def test_deferred_queue_survives_state_roundtrip(self):
        """Regression companion: the deferred queue (and its retry
        order) must ride through a checkpoint, or a restored ``max_slots``
        daemon would silently drop links the live one still owed."""
        dyn = _conflict_instance()
        rs = OnlineRepairScheduler(dyn, cascade=0, max_slots=1)
        slot = dyn.add_link(4, 5)
        rs.apply([slot], [])
        assert rs.deferred == (slot,)
        twin = OnlineRepairScheduler(
            dyn, cascade=0, max_slots=1, anchor=False
        )
        twin.restore_state(rs.export_state())
        assert twin.deferred == (slot,)
        assert twin.stats.deferred == 1
        # The restored queue behaves live: a departure makes room and
        # the deferred link is retried first, without re-counting.
        dyn.remove_links([0])
        twin.apply([], [0])
        assert twin.deferred == ()
        assert slot in twin.schedule.all_links()
        assert twin.stats.deferred == 1
        assert twin.check()
