"""Performance smoke tests: the vectorized kernels must stay fast.

These guard the headline speedups of the metricity/scheduling kernels.
Budgets are generous — several times the observed times on a single
laptop-class core — so CI noise does not flake them, while a regression to
the pre-vectorized O(n^3)-per-pass behaviour fails loudly.

Two tiers of budgets:

* the PR-1 floors (n=300 metricity, m=150 scheduling; seed implementation
  took ~4 s each) are kept as non-regression guards;
* the scaled tier (n=2000 metricity via the pruned scan, whose
  geometric middle nodes all take the dense float32-screen fallback,
  m=500 end-to-end scheduling on the ``dense_urban`` scenario — 500
  peel rounds through the incremental ledger) pins the order-of-magnitude
  jump of the tiered/incremental kernels.  Every fast path exercised here
  is cross-validated against its slow reference in
  ``tests/core/test_metricity_crossval.py`` and
  ``tests/algorithms/test_scheduling_incremental.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.algorithms.context import SchedulingContext
from repro.algorithms.scheduling import schedule_first_fit, schedule_repeated_capacity
from repro.core.decay import DecaySpace
from repro.core.metricity import metricity
from repro.distributed.regret_capacity import run_regret_capacity
from repro.distributed.stability import run_queue_simulation
from repro.dynamics import ChurnDriver
from repro.scenarios import build_dynamic_scenario, build_scenario
from tests.conftest import make_planar_links

#: Wall-clock budgets (seconds).  Seed implementation: ~4 s each.
METRICITY_BUDGET = 2.0
SCHEDULE_BUDGET = 2.0

#: Scaled-tier budgets.  Observed on a single busy-VM core: ~14 s for
#: n=2000 metricity, ~4 s for the m=500 end-to-end schedule (zeta
#: resolution on the 1000-node space included).  Pre-tiered kernels took
#: minutes at these sizes.
METRICITY_N2000_BUDGET = 75.0
SCHEDULE_M500_BUDGET = 45.0
FIRST_FIT_M500_BUDGET = 5.0

#: Distributed-simulation tier (PR-3): m=500 dense_urban runs over a
#: shared context.  Observed on a busy-VM core: ~1.7 s for an 800-slot
#: LQF stability run, ~0.8 s for 800 MWU rounds, ~3.5 s for the churn
#: run including the dynamic-scenario build.  The budgets catch a
#: regression to per-slot Python admission loops or per-call matrix
#: rebuilds (which alone would add ~2 ms x slots).
STABILITY_M500_BUDGET = 30.0
REGRET_M500_BUDGET = 20.0
CHURN_M500_BUDGET = 35.0

#: Dynamic-repair tier (PR-4): m=2000 poisson churn over a 6000-node
#: dense_urban pool.  Observed on a busy-VM core: ~0.2 s for the batched
#: replay of ~26 churn events through the incremental context (one
#: vectorized block update per event), ~0.5 s for the repair-mode TDMA
#: stability run (local repair per event; a single per-event *rebuild*
#: already costs ~0.14 s, so a regression to rescheduling-from-scratch
#: blows the budget).  The scenario build itself (~20 s, dominated by
#: the 6000-node substrate matrices) is paid once in a module fixture
#: and excluded from the timed sections.
CHURN_REPLAY_M2000_BUDGET = 20.0
REPAIR_STABILITY_M2000_BUDGET = 45.0

#: Capacity-repair tier (PR-5): the same m=2000 churn workload served by
#: the capacity-guaranteed scheduler (repeated-capacity anchors over a
#: freeze-copied raw affectance, Algorithm-1 threshold probes per placement,
#: compaction every 16 events).  Observed on a busy-VM core: ~1.3 s
#: end-to-end for the TDMA stability run — the budget catches a
#: regression to per-event re-peeling (~0.3 s/event x ~20 events alone)
#: or to affectance rebuilds.  zeta is pinned to the substrate's
#: path-loss exponent: resolving the metricity of the 6000-node pool
#: space is a minutes-scale computation the online layer never needs.
CAPACITY_REPAIR_M2000_BUDGET = 45.0


def test_metricity_n300_under_budget():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 20, size=(300, 2))
    space = DecaySpace.from_points(pts, 3.0)
    start = time.perf_counter()
    zeta = metricity(space)
    elapsed = time.perf_counter() - start
    assert zeta == 3.0 or abs(zeta - 3.0) < 5e-3
    assert elapsed < METRICITY_BUDGET, f"metricity n=300 took {elapsed:.2f}s"


def test_metricity_n2000_under_budget():
    """The scaled tier: a 2000-node geometric space through the pruned scan
    (every middle node takes its dense float32 fallback)."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 40, size=(2000, 2))
    space = DecaySpace.from_points(pts, 3.0)
    start = time.perf_counter()
    zeta = metricity(space)
    elapsed = time.perf_counter() - start
    assert abs(zeta - 3.0) < 5e-3
    assert elapsed < METRICITY_N2000_BUDGET, (
        f"metricity n=2000 took {elapsed:.2f}s"
    )


def test_schedule_repeated_capacity_m150_under_budget():
    links = make_planar_links(150, alpha=3.0, seed=7, extent=40.0)
    start = time.perf_counter()
    schedule = schedule_repeated_capacity(links)
    elapsed = time.perf_counter() - start
    assert schedule.all_links() == tuple(range(150))
    assert elapsed < SCHEDULE_BUDGET, f"repeated capacity m=150 took {elapsed:.2f}s"


def test_schedule_repeated_capacity_m500_under_budget():
    """The scaled tier, end to end: zeta of the 1000-node dense_urban space
    plus 500 peel rounds through the incremental ledger (the scenario's
    high metricity degenerates Algorithm 1's separation, so every round
    schedules one link — the maximum round count at this size)."""
    links = build_scenario("dense_urban", n_links=500, seed=2)
    start = time.perf_counter()
    schedule = schedule_repeated_capacity(links)
    elapsed = time.perf_counter() - start
    assert schedule.all_links() == tuple(range(500))
    assert elapsed < SCHEDULE_M500_BUDGET, (
        f"repeated capacity m=500 took {elapsed:.2f}s"
    )


def test_first_fit_m150_stays_fast():
    links = make_planar_links(150, alpha=3.0, seed=7, extent=40.0)
    start = time.perf_counter()
    schedule = schedule_first_fit(links)
    elapsed = time.perf_counter() - start
    assert schedule.all_links() == tuple(range(150))
    assert elapsed < 1.0, f"first fit m=150 took {elapsed:.2f}s"


def test_first_fit_m500_stays_fast():
    """First-fit needs no metricity: m=500 must stay well under a second
    of kernel time even on the dense_urban space (budget covers matrix
    construction)."""
    links = build_scenario("dense_urban", n_links=500, seed=2)
    ctx = SchedulingContext(links)
    start = time.perf_counter()
    schedule = schedule_first_fit(links, context=ctx)
    elapsed = time.perf_counter() - start
    assert schedule.all_links() == tuple(range(500))
    assert elapsed < FIRST_FIT_M500_BUDGET, f"first fit m=500 took {elapsed:.2f}s"


def test_stability_m500_under_budget():
    """800 LQF slots at m=500 on a shared context (no loop rebuilds)."""
    links = build_scenario("dense_urban", n_links=500, seed=2)
    ctx = SchedulingContext(links)
    rate = 0.5 / schedule_first_fit(links, context=ctx).length
    start = time.perf_counter()
    result = run_queue_simulation(links, rate, 800, seed=3, context=ctx)
    elapsed = time.perf_counter() - start
    assert result.delivered > 0
    assert elapsed < STABILITY_M500_BUDGET, (
        f"stability m=500 took {elapsed:.2f}s"
    )


def test_regret_m500_under_budget():
    """800 MWU rounds at m=500 on a shared context."""
    links = build_scenario("dense_urban", n_links=500, seed=2)
    ctx = SchedulingContext(links)
    start = time.perf_counter()
    result = run_regret_capacity(links, rounds=800, seed=4, context=ctx)
    elapsed = time.perf_counter() - start
    assert result.best_size >= 1
    assert elapsed < REGRET_M500_BUDGET, f"regret m=500 took {elapsed:.2f}s"


def test_churn_m500_under_budget():
    """m=500 churn run: scenario build + O(m)-per-event incremental sim."""
    start = time.perf_counter()
    scenario = build_dynamic_scenario(
        "poisson_churn", n_links=500, seed=5, horizon=800
    )
    links = scenario.initial_links()
    result = run_queue_simulation(
        links, 0.1, 800, seed=6, churn=scenario
    )
    elapsed = time.perf_counter() - start
    assert result.churn_events > 0
    assert elapsed < CHURN_M500_BUDGET, f"churn m=500 took {elapsed:.2f}s"


@pytest.fixture(scope="module")
def churn_m2000():
    """The m=2000 churn workload shared by the dynamic-repair tier."""
    return build_dynamic_scenario(
        "poisson_churn", n_links=2000, seed=11, horizon=400,
        churn_rate=0.05, pool_factor=1.5,
    )


def test_batched_churn_replay_m2000_under_budget(churn_m2000):
    """Replaying the whole m=2000 trace (batched add_links per event)
    must stay within budget — one affectance build at adoption, then
    O(m) row/column block work per event."""
    links = churn_m2000.initial_links()
    ctx = SchedulingContext(links)
    start = time.perf_counter()
    dyn = ctx.dynamic()
    driver = ChurnDriver(dyn, churn_m2000)
    driver.step(churn_m2000.horizon)
    elapsed = time.perf_counter() - start
    assert driver.exhausted
    assert dyn.m == 2000  # poisson churn preserves the population
    assert elapsed < CHURN_REPLAY_M2000_BUDGET, (
        f"m=2000 batched churn replay took {elapsed:.2f}s"
    )


def test_repair_mode_stability_m2000_under_budget(churn_m2000):
    """The repair-mode TDMA run at m=2000: local repair per churn event,
    zero re-anchors, zero matrix rebuilds inside the loop."""
    links = churn_m2000.initial_links()
    start = time.perf_counter()
    result = run_queue_simulation(
        links, 0.05, churn_m2000.horizon, seed=12, churn=churn_m2000,
        scheduler="repair",
    )
    elapsed = time.perf_counter() - start
    assert result.churn_events == len(churn_m2000.events)
    assert result.scheduler_rebuilds == 0
    assert result.delivered > 0
    assert result.schedule_slots >= 1
    assert elapsed < REPAIR_STABILITY_M2000_BUDGET, (
        f"m=2000 repair-mode stability took {elapsed:.2f}s"
    )


def test_capacity_repair_stability_m2000_under_budget(churn_m2000):
    """The capacity-repair TDMA run at m=2000: peeled-slot anchors over
    a freeze-copied raw affectance (never an affectance rebuild),
    threshold-guarded local repair per event, opportunistic compaction —
    zero re-anchors, zero rebuilds."""
    links = churn_m2000.initial_links()
    ctx = SchedulingContext(links, zeta=3.2)
    start = time.perf_counter()
    result = run_queue_simulation(
        links, 0.05, churn_m2000.horizon, seed=13, churn=churn_m2000,
        context=ctx, scheduler="capacity_repair", compaction_every=16,
    )
    elapsed = time.perf_counter() - start
    assert result.churn_events == len(churn_m2000.events)
    assert result.scheduler_rebuilds == 0
    assert result.delivered > 0
    assert result.schedule_slots >= 1
    assert elapsed < CAPACITY_REPAIR_M2000_BUDGET, (
        f"m=2000 capacity-repair stability took {elapsed:.2f}s"
    )


#: Sparse-backend scale tier (PR-8): m=10^4 planar_uniform through the
#: thresholded CSR backend at eps=0.2 (certified dropped tail <= 0.2 of
#: the feasibility budget; certified radius ~45 on the ~400-unit extent,
#: ~3.7M stored entries vs 10^8 dense).  Observed on a busy-VM core:
#: ~3 s CSR build, ~3 s first-fit, ~4 s scheduler adoption, ~8 s for 20
#: mixed churn-repair events — ~20 s end to end, with a ~0.4 GiB peak
#: (tracemalloc).  The acceptance criterion pins the peak under 1 GiB:
#: the dense matrix alone would need ~0.8 GiB at this size, so a
#: regression that materializes any O(m^2) array fails the memory
#: assert before it fails the clock.
SPARSE_M10K_BUDGET = 120.0
SPARSE_M10K_MEMORY_CAP = 1 << 30  # 1 GiB peak, tracemalloc-traced


def test_sparse_scale_m10k_first_fit_and_churn_repair():
    """m=10^4 first-fit + online churn repair, sparse backend, < 1 GiB."""
    import tracemalloc

    from repro.algorithms.repair import OnlineRepairScheduler

    tracemalloc.start()
    start = time.perf_counter()
    links = build_scenario("planar_uniform", n_links=10_000, seed=0)
    ctx = SchedulingContext(
        links, noise=0.0, beta=1.0, backend="sparse", eps=0.2
    )
    sparse = ctx.sparse_affectance
    assert sparse.nnz < 10_000 ** 2 // 10  # genuinely sparse pattern
    schedule = ctx.first_fit()
    assert sorted(v for slot in schedule for v in slot) == list(range(10_000))
    dyn = ctx.dynamic()
    scheduler = OnlineRepairScheduler(dyn)
    rng = np.random.default_rng(7)
    n_nodes = links.space.n
    for event in range(20):
        if event % 2 == 0:
            gone = [
                int(s)
                for s in rng.choice(dyn.active_slots, size=10, replace=False)
            ]
            dyn.remove_links(gone)
            scheduler.apply([], gone)
        else:
            pairs = []
            while len(pairs) < 5:
                a, b = rng.integers(0, n_nodes, size=2)
                if a != b:
                    pairs.append((int(a), int(b)))
            scheduler.apply(dyn.add_links(pairs), [])
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert scheduler.slot_count >= 1
    assert peak < SPARSE_M10K_MEMORY_CAP, (
        f"m=10^4 sparse run peaked at {peak / 2**30:.2f} GiB"
    )
    assert elapsed < SPARSE_M10K_BUDGET, (
        f"m=10^4 sparse first-fit + churn repair took {elapsed:.2f}s"
    )


#: Far-field certificate tier: the two ``CellIndex.far_field_sums`` calls
#: of one m=10^4 ``planar_uniform`` sparse build at the pinned radius 12
#: (receivers against the sender cells, senders against the receiver
#: cells).  Observed on a busy-VM core: ~0.05 s for both through the
#: offset table; the direct per-pair evaluation took ~1.2-1.5 s, so a
#: regression to it fails the budget.
FAR_FIELD_M10K_BUDGET = 0.5


def test_far_field_certificate_m10k_under_budget():
    from repro.geometry.cells import CellIndex

    links = build_scenario("planar_uniform", n_links=10_000, seed=0)
    geo = links.space.geometry
    spts = np.ascontiguousarray(geo.points[links.senders])
    rpts = np.ascontiguousarray(geo.points[links.receivers])
    origin = np.concatenate([spts, rpts]).min(axis=0)
    senders = CellIndex(spts, 12.0, origin=origin)
    receivers = CellIndex(rpts, 12.0, origin=origin)
    start = time.perf_counter()
    ws = senders.far_field_sums(senders.cell_of(rpts), 12.0, geo.alpha)
    wr = receivers.far_field_sums(receivers.cell_of(spts), 12.0, geo.alpha)
    elapsed = time.perf_counter() - start
    assert ws.shape == wr.shape == (10_000,)
    assert (ws > 0).all() and (wr > 0).all()
    assert elapsed < FAR_FIELD_M10K_BUDGET, (
        f"m=10^4 far-field certificate took {elapsed:.2f}s"
    )
