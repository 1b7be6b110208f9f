"""Serial scheduling on thresholded sparse patterns: exactness oracles.

On a *thresholded* pattern (loose ``eps``, so the CSR drops pairs) the
sparse sums are no longer the dense floats, and first fit's row-support
probes skip every member outside a link's stored row.  Three oracles pin
that regime:

* **two-part exactness** — every slot passes the exact feasibility rule
  on the stored entries, and dense feasibility within the certified
  per-link tails (the dense in-sum exceeds the stored one by at most the
  dropped in-mass);
* **every-member reference** — first fit equals the plain loop that
  probes every member of every slot with the zero-padded dense row;
* **from-scratch churn** — after every churn event the repaired slots
  pass the same two-part rule on a sparse context built from scratch
  over the surviving links at the pinned radius, and cover exactly the
  undeferred active links.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import SchedulingContext
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
)
from repro.core.affectance import in_affectances_within
from repro.dynamics import ChurnDriver
from repro.scenarios import build_dynamic_scenario, build_scenario
from tests.algorithms.repair_helpers import fresh_context
from tests.algorithms.test_context import reference_first_fit_every_member
from tests.conftest import CHURN_EXAMPLES

#: Substrates swept: geometric and hotspot-dense (both carry the node
#: positions the sparse backend needs).
SCENARIOS = ("planar_uniform", "clustered")

#: (scenario, links, eps) whose patterns are genuinely thresholded.
INSTANCES = (
    ("planar_uniform", 48, 0.4),
    ("planar_uniform", 96, 0.5),
    ("clustered", 48, 0.4),
    ("clustered", 64, 0.5),
)

REPAIRERS = {
    "first_fit": OnlineRepairScheduler,
    "capacity": CapacityRepairScheduler,
}


def _sparse_ctx(scenario, n_links, eps, seed=4):
    links = build_scenario(scenario, n_links=n_links, seed=seed)
    ctx = SchedulingContext(links, backend="sparse", eps=eps)
    assert not ctx.sparse_affectance.complete  # vacuous otherwise
    return ctx


def _assert_partition_of(slots, m):
    assert sorted(int(v) for s in slots for v in s) == list(range(m))


def _assert_two_part(sparse, dense_a, slots):
    """Stored-entry exactness plus dense feasibility within the tails."""
    for slot in slots:
        idx = [int(v) for v in slot]
        assert np.all(in_affectances_within(sparse.raw, idx) <= 1.0)
        bound = 1.0 + sparse.tail_in[idx] + 1e-9
        assert np.all(in_affectances_within(dense_a, idx) <= bound)


class TestStaticThresholded:
    @pytest.mark.parametrize("scenario,n,eps", INSTANCES)
    def test_first_fit_slots_exactly_feasible(self, scenario, n, eps):
        ctx = _sparse_ctx(scenario, n, eps)
        slots = ctx.first_fit()
        _assert_partition_of(slots, ctx.m)
        dense = SchedulingContext(ctx.links).raw_affectance
        _assert_two_part(ctx.sparse_affectance, dense, slots)

    @pytest.mark.parametrize("scenario,n,eps", INSTANCES)
    def test_capacity_slots_exactly_feasible(self, scenario, n, eps):
        ctx = _sparse_ctx(scenario, n, eps)
        slots = ctx.repeated_capacity(admission="adaptive")
        _assert_partition_of(slots, ctx.m)
        dense = SchedulingContext(ctx.links).raw_affectance
        _assert_two_part(ctx.sparse_affectance, dense, slots)

    @pytest.mark.parametrize("scenario,n,eps", INSTANCES)
    def test_first_fit_matches_every_member_reference(
        self, scenario, n, eps
    ):
        """Default order and a permutation."""
        ctx = _sparse_ctx(scenario, n, eps)
        a = ctx.sparse_affectance.raw

        def reference(order):
            slots = reference_first_fit_every_member(a, order)
            return tuple(tuple(sorted(s)) for s in slots)

        default = [int(v) for v in ctx.order]
        assert ctx.first_fit() == reference(default)
        rng = np.random.default_rng(n)
        order = [int(v) for v in rng.permutation(n)]
        assert ctx.first_fit(order) == reference(order)


class TestChurnThresholded:
    @staticmethod
    def _trace(seed, scenario="planar_uniform", n_links=48):
        return build_dynamic_scenario(
            "poisson_churn",
            n_links=n_links,
            seed=seed,
            substrate=scenario,
            horizon=30,
            churn_rate=0.25,
        )

    @staticmethod
    def _fresh_sparse(dyn, eps):
        """A from-scratch sparse context over the active links at the
        dynamic context's pinned radius, its dense matrix, and the
        slot remapping."""
        fresh, remap = fresh_context(dyn)
        sparse = SchedulingContext(
            fresh.links,
            fresh.powers,
            noise=fresh.noise,
            beta=fresh.beta,
            backend="sparse",
            eps=eps,
            radius=dyn.radius,
        ).sparse_affectance
        return sparse, fresh.raw_affectance, remap

    @pytest.mark.parametrize("kind", sorted(REPAIRERS))
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_repair_exact_after_every_event(self, scenario, kind, seed):
        scn = self._trace(seed, scenario)
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=0.5
        )
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        rep = REPAIRERS[kind](dyn)
        for ev in scn.events:
            rep.apply(*driver.step(ev.slot))
            sparse, dense_a, remap = self._fresh_sparse(dyn, 0.5)
            slots = [[remap[int(v)] for v in s] for s in rep.active_schedule]
            _assert_two_part(sparse, dense_a, slots)
            covered = {
                int(v) for s in rep.active_schedule for v in s
            } | set(rep.deferred)
            assert covered == set(map(int, dyn.active_slots))

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_rebuild_every_event_matches_fresh_first_fit(
        self, scenario, seed
    ):
        """rebuild_every=1 re-anchors after every event on the live
        view (holes included); the result equals static first fit on a
        from-scratch sparse context at the pinned radius."""
        scn = self._trace(seed, scenario, n_links=32)
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=0.5
        )
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        rep = OnlineRepairScheduler(dyn, cascade=0, rebuild_every=1)
        for ev in scn.events:
            rep.apply(*driver.step(ev.slot))
        fresh, remap = fresh_context(dyn)
        static = SchedulingContext(
            fresh.links,
            fresh.powers,
            noise=fresh.noise,
            beta=fresh.beta,
            backend="sparse",
            eps=0.5,
            radius=dyn.radius,
        )
        inverse = {i: s for s, i in remap.items()}
        expected = tuple(
            tuple(sorted(inverse[i] for i in slot))
            for slot in static.first_fit()
        )
        assert rep.schedule.slots == expected
        assert rep.competitive_ratio() == 1.0

    @pytest.mark.parametrize("kind", sorted(REPAIRERS))
    def test_freed_slot_reused_by_arrival(self, kind):
        """A departed link's context slot goes to the next arrival; the
        repairer places it there and every slot stays exact."""
        ctx = _sparse_ctx("planar_uniform", 32, 0.3)
        dyn = ctx.dynamic()
        rep = REPAIRERS[kind](dyn)
        victim, other = 0, ctx.m - 1
        pair = (int(ctx.links.senders[other]), int(ctx.links.receivers[1]))
        dyn.remove_links([victim])
        rep.apply([], [victim])
        [slot] = dyn.add_links([pair])
        rep.apply([slot], [])
        assert slot == victim
        assert slot in {int(v) for s in rep.active_schedule for v in s}
        assert rep.check()
        sparse, dense_a, remap = self._fresh_sparse(dyn, 0.3)
        slots = [[remap[int(v)] for v in s] for s in rep.active_schedule]
        _assert_two_part(sparse, dense_a, slots)

    @pytest.mark.parametrize("kind", sorted(REPAIRERS))
    def test_stats_and_trajectory(self, kind):
        scn = self._trace(9, n_links=32)
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=0.5
        )
        assert not ctx.sparse_affectance.complete
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        rep = REPAIRERS[kind](dyn)
        events = 0
        for ev in scn.events:
            rep.apply(*driver.step(ev.slot))
            events += 1
        assert events > 0
        assert rep.stats.events == events
        assert len(rep.slot_trajectory) == events + 1
        assert rep.slot_trajectory[-1] == rep.slot_count
        assert rep.competitive_ratio() >= 0.5
