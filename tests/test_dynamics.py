"""Tests for the churn-trace vocabulary (repro.dynamics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.context import DynamicContext
from repro.dynamics import (
    ChurnDriver,
    ChurnEvent,
    DynamicScenario,
    chunk_events,
)
from repro.errors import SimulationError
from repro.scenarios import build_scenario


def _substrate(n_links=6, seed=1):
    links = build_scenario("planar_uniform", n_links=n_links, seed=seed)
    pairs = [(l.sender, l.receiver) for l in links]
    return links.space, pairs


class TestDynamicScenario:
    def test_requires_initial_links(self):
        space, _ = _substrate()
        with pytest.raises(SimulationError):
            DynamicScenario(name="x", space=space, initial=())

    def test_requires_sorted_events(self):
        space, pairs = _substrate()
        with pytest.raises(SimulationError):
            DynamicScenario(
                name="x",
                space=space,
                initial=tuple(pairs[:2]),
                events=(
                    ChurnEvent(slot=5, departures=(0,)),
                    ChurnEvent(slot=3, departures=(1,)),
                ),
            )

    def test_rejects_out_of_horizon_events(self):
        """An event at slot >= horizon would silently never fire."""
        space, pairs = _substrate()
        with pytest.raises(SimulationError, match="horizon"):
            DynamicScenario(
                name="x",
                space=space,
                initial=tuple(pairs[:2]),
                events=(ChurnEvent(slot=10, departures=(0,)),),
                horizon=10,
            )
        with pytest.raises(SimulationError, match="horizon"):
            # The default horizon (0) covers no event at all.
            DynamicScenario(
                name="x",
                space=space,
                initial=tuple(pairs[:2]),
                events=(ChurnEvent(slot=0, departures=(0,)),),
            )

    def test_rejects_negative_event_slots(self):
        space, pairs = _substrate()
        with pytest.raises(SimulationError, match="negative"):
            DynamicScenario(
                name="x",
                space=space,
                initial=tuple(pairs[:2]),
                events=(ChurnEvent(slot=-1, arrivals=(pairs[2],)),),
                horizon=5,
            )

    def test_counters_and_initial_links(self):
        space, pairs = _substrate()
        scn = DynamicScenario(
            name="x",
            space=space,
            initial=tuple(pairs[:3]),
            events=(
                ChurnEvent(slot=1, arrivals=(pairs[3],), departures=(0,)),
                ChurnEvent(slot=4, arrivals=(pairs[4], pairs[5])),
            ),
            horizon=10,
        )
        assert scn.m0 == 3
        assert scn.total_arrivals() == 3
        assert scn.total_departures() == 1
        assert scn.initial_links().m == 3


class TestChurnDriver:
    def test_ids_follow_birth_order_and_slots_reused(self):
        space, pairs = _substrate()
        dyn = DynamicContext(space, pairs[:3])
        events = (
            # id 1 departs; the arrival (id 3) reuses its slot 1.
            ChurnEvent(slot=2, arrivals=(pairs[3],), departures=(1,)),
            # id 3 (slot 1) departs again, id 4 arrives.
            ChurnEvent(slot=5, arrivals=(pairs[4],), departures=(3,)),
        )
        driver = ChurnDriver(dyn, events)
        assert driver.step(0) == ([], [])
        arrived, departed = driver.step(2)
        assert departed == [1]
        assert arrived == [1]  # lowest free slot reused
        arrived, departed = driver.step(5)
        assert departed == [1]
        assert arrived == [1]
        assert driver.exhausted

    def test_mismatched_substrate_rejected(self):
        """A trace replayed against the wrong space/population must fail
        loudly at construction, not run with garbage affectance."""
        space_a, pairs_a = _substrate(seed=1)
        space_b, _ = _substrate(seed=2)
        scn = DynamicScenario(
            name="x",
            space=space_a,
            initial=tuple(pairs_a[:3]),
            events=(ChurnEvent(slot=1, departures=(0,)),),
            horizon=5,
        )
        wrong_space = DynamicContext(space_b, pairs_a[:3])
        with pytest.raises(SimulationError, match="substrate"):
            ChurnDriver(wrong_space, scn)
        wrong_population = DynamicContext(space_a, pairs_a[:5])
        with pytest.raises(SimulationError, match="initial links"):
            ChurnDriver(wrong_population, scn)
        # Bare event sequences carry no substrate metadata; they are
        # accepted as-is (the documented expert escape hatch).
        ChurnDriver(wrong_population, scn.events)

    def test_step_state_grows_resets_and_reclaims(self):
        space, pairs = _substrate(n_links=8)
        dyn = DynamicContext(space, pairs[:2], capacity=2)
        events = (
            ChurnEvent(slot=1, arrivals=(pairs[2], pairs[3])),
            ChurnEvent(slot=3, departures=(0,)),
        )
        driver = ChurnDriver(dyn, events)
        state = np.array([5.0, 7.0])
        state, arrived, departed, reclaimed = driver.step_state(1, state)
        assert state.shape[0] == dyn.capacity >= 4
        assert arrived == [2, 3]
        assert reclaimed == 0.0
        assert state[2] == state[3] == 0.0
        assert state[0] == 5.0 and state[1] == 7.0
        state[2] = 9.0
        state, arrived, departed, reclaimed = driver.step_state(3, state)
        assert departed == [0]
        assert reclaimed == 5.0
        assert state[0] == 0.0 and state[2] == 9.0

    def test_step_state_reclaims_exact_queue_mass_across_batches(self):
        """Across a multi-event batch with slot reuse, ``reclaimed`` must
        equal exactly the queue mass of the links that departed — no
        double counting when an arrival reuses a freed slot mid-batch."""
        space, pairs = _substrate(n_links=10)
        dyn = DynamicContext(space, pairs[:4])
        events = (
            # Applied in one step_state(6) call: id 1 (slot 1, queue 7)
            # leaves, a new link (id 4) reuses slot 1, then id 4 itself
            # departs with an *empty* queue, and id 0 (queue 2) leaves.
            ChurnEvent(slot=3, departures=(1,), arrivals=(pairs[4],)),
            ChurnEvent(slot=5, departures=(4,), arrivals=(pairs[5],)),
            ChurnEvent(slot=6, departures=(0,)),
        )
        driver = ChurnDriver(dyn, events)
        state = np.array([2.0, 7.0, 11.0, 3.0])
        state, arrived, departed, reclaimed = driver.step_state(6, state)
        # Slot 1 appears twice in the departure list (id 1, then id 4
        # reusing it).  Only id 1 carried backlog: a batched
        # state[departed].sum() would count its 7 packets twice.
        assert departed == [1, 1, 0]
        assert arrived == [1, 1]  # freed slot reused lowest-first, twice
        assert reclaimed == 7.0 + 0.0 + 2.0
        assert np.all(state[[0, 1]] == 0.0)
        assert state[2] == 11.0 and state[3] == 3.0
        assert dyn.m == 3

    def test_unknown_departure_raises(self):
        space, pairs = _substrate()
        dyn = DynamicContext(space, pairs[:2])
        driver = ChurnDriver(
            dyn, (ChurnEvent(slot=0, departures=(7,)),)
        )
        with pytest.raises(SimulationError):
            driver.step(0)

    def test_accepts_scenario_object(self):
        space, pairs = _substrate()
        scn = DynamicScenario(
            name="x",
            space=space,
            initial=tuple(pairs[:2]),
            events=(ChurnEvent(slot=1, arrivals=(pairs[2],)),),
            horizon=5,
        )
        dyn = DynamicContext(space, list(scn.initial))
        driver = ChurnDriver(dyn, scn)
        arrived, _ = driver.step(1)
        assert arrived == [2]
        assert dyn.m == 3

    def test_catch_up_applies_skipped_slots(self):
        """Events at or before t are applied even if t jumps past them."""
        space, pairs = _substrate()
        dyn = DynamicContext(space, pairs[:2])
        driver = ChurnDriver(
            dyn,
            (
                ChurnEvent(slot=1, arrivals=(pairs[2],)),
                ChurnEvent(slot=3, arrivals=(pairs[3],)),
            ),
        )
        arrived, _ = driver.step(10)
        assert arrived == [2, 3]
        assert dyn.m == 4

    def test_chunks_close_before_departing_a_chunk_born_link(self):
        """The batched daemon's chunk boundaries: at most ``batch``
        events, and a new chunk before an event that departs a link
        born inside the open one (merged departures apply first)."""
        space, pairs = _substrate()
        dyn = DynamicContext(space, pairs[:3])
        events = (
            ChurnEvent(slot=1, arrivals=(pairs[3],), departures=(0,)),
            ChurnEvent(slot=2, arrivals=(pairs[4],), departures=(1,)),
            ChurnEvent(slot=3, departures=(3,)),  # id 3 born in event 0
            ChurnEvent(slot=4, arrivals=(pairs[5],)),
            ChurnEvent(slot=5, departures=(2,)),
        )
        driver = ChurnDriver(dyn, events)
        chunks = chunk_events(events, 3, driver.next_id)
        assert [len(c) for c in chunks] == [2, 3]
        assert [len(c) for c in chunk_events(events, 2, 3)] == [2, 2, 1]
        merged = ChurnEvent.merged(chunks[0])
        assert merged.departures == (0, 1)
        assert merged.arrivals == (pairs[3], pairs[4])
        for chunk in chunks:
            driver.feed(ChurnEvent.merged(chunk))
        assert sorted(driver.ids_of(dyn.active_slots)) == [4, 5]
