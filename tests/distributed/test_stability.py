"""Tests for the queueing/stability simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.context import SchedulingContext
from repro.algorithms.scheduling import schedule_first_fit
from repro.distributed.stability import (
    lqf_policy,
    random_policy,
    run_queue_simulation,
)
from repro.errors import LinkError, SimulationError
from repro.scenarios import build_dynamic_scenario
from tests.conftest import make_planar_links


def _lqf_reference(
    queues: np.ndarray, a: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Verbatim copy of the historical one-candidate-at-a-time LQF loop."""
    order = np.argsort(-queues, kind="stable")
    chosen: list[int] = []
    in_aff = np.zeros(queues.shape[0])
    for v in order:
        v = int(v)
        if queues[v] <= 0:
            break
        if in_aff[v] > 1.0:
            continue
        if chosen and np.any(in_aff[chosen] + a[v, chosen] > 1.0):
            continue
        chosen.append(v)
        in_aff += a[v]
    return np.asarray(sorted(chosen), dtype=int)


class TestPolicies:
    def test_lqf_prefers_long_queues(self):
        links = make_planar_links(6, alpha=3.0, seed=1)
        from repro.core.affectance import affectance_matrix
        from repro.core.power import uniform_power

        a = affectance_matrix(links, uniform_power(links), clip=False)
        queues = np.array([0.0, 5.0, 0.0, 1.0, 0.0, 0.0])
        chosen = lqf_policy(queues, a, np.random.default_rng(1))
        assert 1 in chosen
        assert all(queues[v] > 0 for v in chosen)

    def test_lqf_returns_feasible_sets(self):
        links = make_planar_links(10, alpha=3.0, seed=2)
        from repro.core.affectance import affectance_matrix
        from repro.core.feasibility import is_feasible
        from repro.core.power import uniform_power

        powers = uniform_power(links)
        a = affectance_matrix(links, powers, clip=False)
        queues = np.ones(10) * 3.0
        chosen = lqf_policy(queues, a, np.random.default_rng(2))
        assert is_feasible(links, list(chosen), powers)

    def test_lqf_vectorized_matches_historical_loop(self):
        """The per-admission batching must not change a single decision."""
        from repro.core.affectance import affectance_matrix
        from repro.core.power import uniform_power

        rng = np.random.default_rng(17)
        for _ in range(60):
            m = int(rng.integers(2, 25))
            links = make_planar_links(
                m, alpha=3.0, seed=int(rng.integers(1 << 30)), extent=8.0
            )
            a = affectance_matrix(links, uniform_power(links), clip=False)
            queues = np.floor(rng.random(m) * 4)
            got = lqf_policy(queues, a, rng)
            want = _lqf_reference(queues, a, rng)
            assert np.array_equal(got, want)

    def test_random_policy_subset_of_backlogged(self):
        links = make_planar_links(8, alpha=3.0, seed=3)
        from repro.core.affectance import affectance_matrix
        from repro.core.power import uniform_power

        a = affectance_matrix(links, uniform_power(links), clip=False)
        queues = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        chosen = random_policy(queues, a, np.random.default_rng(3))
        assert all(queues[v] > 0 for v in chosen)


class TestSimulation:
    def test_no_arrivals_empty_queues(self):
        links = make_planar_links(5, alpha=3.0, seed=4)
        result = run_queue_simulation(links, 0.0, 200, seed=5)
        assert result.delivered == 0
        assert np.all(result.final_queues == 0)
        assert result.drift == pytest.approx(0.0, abs=1e-9)

    def test_low_load_stable(self):
        links = make_planar_links(8, alpha=3.0, seed=6)
        rate = 0.4 / schedule_first_fit(links).length
        result = run_queue_simulation(links, rate, 3000, seed=7)
        assert result.drift < 0.05
        assert result.final_queues.mean() < 5.0

    def test_overload_unstable(self):
        links = make_planar_links(8, alpha=3.0, seed=6)
        result = run_queue_simulation(links, 1.0, 3000, seed=8)
        assert result.drift > 0.1
        assert result.final_queues.mean() > 10.0

    def test_lqf_beats_random_backoff(self):
        links = make_planar_links(8, alpha=3.0, seed=9)
        rate = 0.8 / schedule_first_fit(links).length
        lqf = run_queue_simulation(links, rate, 2500, policy=lqf_policy, seed=10)
        rnd = run_queue_simulation(
            links, rate, 2500, policy=random_policy, seed=10
        )
        assert lqf.final_queues.mean() <= rnd.final_queues.mean()

    def test_throughput_matches_arrivals_when_stable(self):
        links = make_planar_links(6, alpha=3.0, seed=11)
        rate = 0.3 / schedule_first_fit(links).length
        result = run_queue_simulation(links, rate, 4000, seed=12)
        # Delivered ~ arrived (queues stay bounded).
        arrived = rate * 6 * 4000
        assert result.delivered >= 0.9 * (arrived - result.final_queues.sum())

    def test_deterministic(self):
        links = make_planar_links(5, alpha=3.0, seed=13)
        a = run_queue_simulation(links, 0.2, 500, seed=14)
        b = run_queue_simulation(links, 0.2, 500, seed=14)
        assert a.delivered == b.delivered
        assert np.array_equal(a.final_queues, b.final_queues)

    def test_validation(self):
        links = make_planar_links(4, alpha=3.0, seed=15)
        with pytest.raises(SimulationError):
            run_queue_simulation(links, 1.5, 100)
        with pytest.raises(SimulationError):
            run_queue_simulation(links, 0.5, 0)
        with pytest.raises(SimulationError):
            run_queue_simulation(links, 0.5, 100, sample_every=0)

    def test_shared_context_is_equivalent_and_checked(self):
        links = make_planar_links(6, alpha=3.0, seed=16)
        ctx = SchedulingContext(links)
        plain = run_queue_simulation(links, 0.2, 400, seed=17)
        shared = run_queue_simulation(links, 0.2, 400, seed=17, context=ctx)
        assert plain.delivered == shared.delivered
        assert np.array_equal(plain.final_queues, shared.final_queues)
        other = make_planar_links(6, alpha=3.0, seed=99)
        with pytest.raises(LinkError):
            run_queue_simulation(
                links, 0.2, 50, seed=17, context=SchedulingContext(other)
            )


class TestChurnMode:
    def _scenario(self, seed=21, n_links=10, horizon=600):
        return build_dynamic_scenario(
            "poisson_churn",
            n_links=n_links,
            seed=seed,
            horizon=horizon,
            churn_rate=0.1,
            substrate="planar_uniform",
        )

    def test_churn_run_is_deterministic(self):
        scn = self._scenario()
        links = scn.initial_links()
        a = run_queue_simulation(links, 0.1, scn.horizon, churn=scn, seed=22)
        b = run_queue_simulation(links, 0.1, scn.horizon, churn=scn, seed=22)
        assert a.delivered == b.delivered
        assert a.dropped == b.dropped
        assert np.array_equal(a.final_queues, b.final_queues)
        assert np.array_equal(
            a.mean_queue_trajectory, b.mean_queue_trajectory
        )

    def test_churn_applies_events_and_reports(self):
        scn = self._scenario()
        assert len(scn.events) > 0
        links = scn.initial_links()
        res = run_queue_simulation(links, 0.3, scn.horizon, churn=scn, seed=23)
        assert res.churn_events > 0
        assert res.final_queues.shape == (scn.m0,)  # population preserved
        assert res.delivered > 0

    def test_churn_stable_at_low_load(self):
        scn = self._scenario()
        links = scn.initial_links()
        rate = 0.4 / schedule_first_fit(links).length
        res = run_queue_simulation(
            links, rate, scn.horizon, churn=scn, seed=24
        )
        assert res.drift < 0.1

    def test_mobility_trace_runs(self):
        scn = build_dynamic_scenario(
            "random_waypoint", n_links=8, seed=25, horizon=400
        )
        links = scn.initial_links()
        res = run_queue_simulation(links, 0.1, scn.horizon, churn=scn, seed=26)
        assert res.churn_events == len(scn.events)
        assert res.final_queues.shape == (8,)  # moves preserve population

    def test_event_list_accepted_directly(self):
        scn = self._scenario()
        links = scn.initial_links()
        via_scenario = run_queue_simulation(
            links, 0.2, scn.horizon, churn=scn, seed=27
        )
        via_events = run_queue_simulation(
            links, 0.2, scn.horizon, churn=scn.events, seed=27
        )
        assert via_scenario.delivered == via_events.delivered
        assert np.array_equal(
            via_scenario.final_queues, via_events.final_queues
        )


class TestRepairSchedulerMode:
    def _scenario(self, seed=31, n_links=10, horizon=600):
        return build_dynamic_scenario(
            "poisson_churn",
            n_links=n_links,
            seed=seed,
            horizon=horizon,
            churn_rate=0.1,
            substrate="planar_uniform",
        )

    def test_repair_mode_serves_and_reports(self):
        scn = self._scenario()
        links = scn.initial_links()
        res = run_queue_simulation(
            links, 0.2, scn.horizon, churn=scn, seed=32, scheduler="repair"
        )
        assert res.delivered > 0
        assert res.churn_events > 0
        assert res.schedule_slots >= 1
        assert np.isfinite(res.repair_ratio) and res.repair_ratio >= 1.0
        assert res.scheduler_rebuilds == 0  # repair never re-anchors

    def test_rebuild_mode_reanchors_every_event(self):
        scn = self._scenario()
        links = scn.initial_links()
        res = run_queue_simulation(
            links, 0.2, scn.horizon, churn=scn, seed=33, scheduler="rebuild"
        )
        assert res.scheduler_rebuilds == res.churn_events
        assert res.repair_ratio == 1.0  # fresh first-fit by definition

    def test_repair_mode_stable_at_low_load(self):
        scn = self._scenario()
        links = scn.initial_links()
        rate = 0.4 / schedule_first_fit(links).length
        res = run_queue_simulation(
            links, rate, scn.horizon, churn=scn, seed=34, scheduler="repair"
        )
        assert res.drift < 0.1

    def test_repair_mode_deterministic(self):
        scn = self._scenario()
        links = scn.initial_links()
        a = run_queue_simulation(
            links, 0.2, scn.horizon, churn=scn, seed=35, scheduler="repair"
        )
        b = run_queue_simulation(
            links, 0.2, scn.horizon, churn=scn, seed=35, scheduler="repair"
        )
        assert a.delivered == b.delivered
        assert np.array_equal(a.final_queues, b.final_queues)

    def test_repair_mode_without_churn_is_static_tdma(self):
        """A churn-free repair run is a fixed first-fit TDMA rotation."""
        links = make_planar_links(8, alpha=3.0, seed=36)
        slots = schedule_first_fit(links).length
        rate = 0.5 / slots
        res = run_queue_simulation(
            links, rate, 2000, seed=37, scheduler="repair"
        )
        assert res.schedule_slots == slots
        assert res.churn_events == 0
        assert res.drift < 0.1
        assert res.delivered > 0

    def test_unknown_scheduler_rejected(self):
        links = make_planar_links(4, alpha=3.0, seed=38)
        with pytest.raises(SimulationError, match="scheduler"):
            run_queue_simulation(links, 0.2, 50, scheduler="bogus")

    def test_policy_runs_report_nan_ratio(self):
        links = make_planar_links(4, alpha=3.0, seed=39)
        res = run_queue_simulation(links, 0.2, 50, seed=40)
        assert np.isnan(res.repair_ratio)
        assert res.schedule_slots == 0

    def test_custom_policy_with_scheduler_rejected(self):
        links = make_planar_links(4, alpha=3.0, seed=41)
        with pytest.raises(SimulationError, match="custom policy"):
            run_queue_simulation(
                links, 0.2, 50, policy=random_policy, scheduler="repair"
            )

    def test_cascade_with_policy_mode_rejected(self):
        """Regression: cascade= used to be silently dropped in policy mode."""
        links = make_planar_links(4, alpha=3.0, seed=42)
        with pytest.raises(SimulationError, match="scheduler='policy'"):
            run_queue_simulation(links, 0.2, 50, cascade=3)


class TestSparseContextRuns:
    """Scheduler-maintained runs over a caller-supplied sparse context."""

    SCHEDULERS = ("repair", "capacity_repair", "rebuild", "capacity_rebuild")

    @staticmethod
    def _scenario():
        return build_dynamic_scenario(
            "poisson_churn",
            n_links=24,
            seed=5,
            substrate="planar_uniform",
            horizon=40,
            churn_rate=0.2,
        )

    @pytest.mark.parametrize("scheduler", ("repair", "capacity_repair"))
    def test_complete_pattern_run_matches_dense(self, scheduler):
        """A complete pattern stores every pair, so its sums are the
        dense floats and the whole run must match the dense one."""
        scn = self._scenario()
        links = scn.initial_links()
        ctx = SchedulingContext(links, backend="sparse", eps=1e-3)
        assert ctx.sparse_affectance.complete
        kw = dict(churn=scn, scheduler=scheduler, seed=11)
        sparse = run_queue_simulation(links, 0.1, 80, context=ctx, **kw)
        dense = run_queue_simulation(links, 0.1, 80, **kw)
        assert sparse.churn_events > 0
        assert sparse.delivered == dense.delivered
        assert sparse.schedule_slots == dense.schedule_slots
        assert np.array_equal(sparse.final_queues, dense.final_queues)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_thresholded_pattern_run_delivers(self, scheduler):
        scn = self._scenario()
        links = scn.initial_links()
        ctx = SchedulingContext(links, backend="sparse", eps=0.5)
        assert not ctx.sparse_affectance.complete
        res = run_queue_simulation(
            links, 0.1, 80, context=ctx, churn=scn,
            scheduler=scheduler, seed=11,
        )
        assert res.delivered > 0
        assert res.churn_events > 0
        assert res.schedule_slots >= 1
        if scheduler.endswith("rebuild"):
            assert res.scheduler_rebuilds == res.churn_events
            assert res.repair_ratio == 1.0
        else:
            assert res.repair_ratio >= 0.5
