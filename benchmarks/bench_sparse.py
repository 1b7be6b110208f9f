"""Scale benchmarks for the sparse thresholded affectance backend.

The ``scale`` tier pins the PR-6 acceptance envelope: m=10^4 scheduling
runs end-to-end through the sparse CSR backend inside a 1 GiB peak-memory
cap (the dense matrix alone would be ``m^2 * 8`` = 800 MB per layer, and
the seed pipeline held several).  Timed sections run under ``tracemalloc``
so the recorded peak is the asserted quantity — tracing adds bookkeeping
overhead to the wall times, which is fine: these rows track feasibility
and memory at scale, not microseconds.

The nightly tier (``NIGHTLY_SCALE=1``, the scheduled CI job) carries the
rows too heavy for the per-PR job: the m=10^5 planar first-fit, the m=10^5
serial churn-repair row and the m=10^4 ``dense_urban`` stress row, whose
tiny shadowing floor certifies only a near-complete pattern.
"""

from __future__ import annotations

import os
import resource
import time
import tracemalloc

import pytest

from benchmarks.conftest import once
from repro.algorithms.context import SchedulingContext
from repro.algorithms.repair import OnlineRepairScheduler
from repro.dynamics import ChurnDriver
from repro.scenarios import build_dynamic_scenario, build_scenario

SCALE_M = 10_000
NIGHTLY_M = 100_000

#: Tail tolerance for the scale tier.  eps=0.2 certifies every scheduled
#: slot at dense in-sums <= 1 + 0.2 while keeping the planar interaction
#: radius (and with it nnz, ~4e6 at m=10^4) small enough for the memory
#: cap; eps=0.1 roughly quadruples nnz and blows the 1 GiB budget.
SCALE_EPS = 0.2

#: Peak traced allocation cap for every m=10^4 row (bytes).
MEMORY_CAP = 1 << 30

nightly = pytest.mark.skipif(
    os.environ.get("NIGHTLY_SCALE") != "1",
    reason="m=10^5 tier is nightly-only (set NIGHTLY_SCALE=1)",
)


def _traced(fn):
    """Run ``fn`` under tracemalloc; return (result, peak_bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _first_fit_run(scenario: str, m: int, benchmark) -> None:
    """Shared body of the static first-fit rows: build + CSR + schedule."""
    links = build_scenario(scenario, n_links=m, seed=0)

    def run():
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=SCALE_EPS
        )
        sparse = ctx.sparse_affectance
        return ctx.first_fit(), sparse

    (schedule, sparse), peak = once(benchmark, _traced, run)
    assert sum(len(s) for s in schedule) == m
    assert sparse.nnz < m * (m - 1), "pattern did not sparsify"
    assert peak < MEMORY_CAP, f"peak {peak / 2**20:.0f} MiB over cap"
    benchmark.extra_info["m, nnz, radius"] = [m, sparse.nnz, round(sparse.radius, 2)]
    benchmark.extra_info["slots"] = len(schedule)
    benchmark.extra_info["max tail"] = float(
        max(sparse.tail_in.max(), sparse.tail_out.max())
    )
    benchmark.extra_info["peak MiB (vs dense layer MiB)"] = [
        round(peak / 2**20, 1),
        round(m * m * 8 / 2**20, 1),
    ]


def test_scale_sparse_first_fit_m10k_planar(benchmark):
    """m=10^4 planar first-fit through the sparse backend, <1 GiB peak."""
    _first_fit_run("planar_uniform", SCALE_M, benchmark)


@nightly
def test_scale_sparse_first_fit_m10k_dense_urban_nightly(benchmark):
    """m=10^4 shadowed-urban first-fit: the anti-sparse stress row.

    ``dense_urban``'s shadowing floor is tiny, so the certified
    interaction radius at eps=0.2 is ~490 — the pattern keeps ~40% of
    all pairs (4.1e7 nnz) and the build runs minutes, not seconds.
    That is exactly the regime worth tracking nightly (the backend must
    stay correct and bounded when the envelope certifies almost
    nothing), and exactly why it has no place in the per-PR job and no
    1 GiB cap: the four sparse layers alone hold ~1.3 GB here.
    """
    links = build_scenario("dense_urban", n_links=SCALE_M, seed=0)

    def run():
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=SCALE_EPS
        )
        sparse = ctx.sparse_affectance
        return ctx.first_fit(), sparse

    (schedule, sparse), peak = once(benchmark, _traced, run)
    assert sum(len(s) for s in schedule) == SCALE_M
    benchmark.extra_info["m, nnz, radius"] = [
        SCALE_M,
        sparse.nnz,
        round(sparse.radius, 2),
    ]
    benchmark.extra_info["slots"] = len(schedule)
    benchmark.extra_info["peak MiB"] = round(peak / 2**20, 1)


def test_scale_sparse_churn_repair_m10k(benchmark):
    """m=10^4 poisson churn: O(degree) events + online repair, <1 GiB.

    The trace replays through ``ChurnDriver`` against a sparse
    ``DynamicContext`` — every event is an incremental per-slot adjacency
    update and an :class:`OnlineRepairScheduler` repair, never a rebuild.
    """
    scn = build_dynamic_scenario(
        "poisson_churn",
        n_links=SCALE_M,
        seed=3,
        substrate="planar_uniform",
        horizon=200,
        churn_rate=0.1,
    )
    links = scn.initial_links()

    def run():
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=SCALE_EPS
        )
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        scheduler = OnlineRepairScheduler(dyn)
        applied = 0
        for ev in scn.events:
            arrived, departed = driver.step(ev.slot)
            scheduler.apply(arrived, departed)
            applied += 1
        return dyn, scheduler, applied

    (dyn, scheduler, applied), peak = once(benchmark, _traced, run)
    assert applied == len(scn.events) > 0
    assert dyn.m == SCALE_M
    placed = sum(len(s) for s in scheduler.schedule.slots)
    assert placed + len(scheduler.deferred) == SCALE_M
    assert peak < MEMORY_CAP, f"peak {peak / 2**20:.0f} MiB over cap"
    benchmark.extra_info["events applied"] = applied
    benchmark.extra_info["final slots"] = scheduler.slot_count
    benchmark.extra_info["peak MiB"] = round(peak / 2**20, 1)


@nightly
def test_scale_sparse_first_fit_m100k_planar_nightly(benchmark):
    """m=10^5 planar first-fit: the headline unlock, nightly-only.

    No memory cap here — the point of the row is the recorded peak and
    wall time at a size where the dense matrix (80 GB/layer) cannot be
    built at all.
    """
    links = build_scenario("planar_uniform", n_links=NIGHTLY_M, seed=0)

    def run():
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=SCALE_EPS
        )
        sparse = ctx.sparse_affectance
        return ctx.first_fit(), sparse

    (schedule, sparse), peak = once(benchmark, _traced, run)
    assert sum(len(s) for s in schedule) == NIGHTLY_M
    benchmark.extra_info["m, nnz, radius"] = [
        NIGHTLY_M,
        sparse.nnz,
        round(sparse.radius, 2),
    ]
    benchmark.extra_info["slots"] = len(schedule)
    benchmark.extra_info["peak MiB"] = round(peak / 2**20, 1)


#: Events/sec floor of the serial m=10^5 churn row: the best rate the
#: removed per-cell partitioned repairer reached on this trace and clock
#: scope (30.7-33.1 s for 1005 events, 30.4-32.8 events/s, on a shared
#: 2-core VM), so serial repair may never fall below what partitioning
#: once bought.  Serial measured 67-79 events/s on the same VM.
SERIAL_M100K_MIN_EPS = 33.0

#: Ceiling on the m=10^5 anchor first fit (seconds): ~2 s with the
#: O(degree) probes, 41-48 s with the O(slot size) probes they replaced.
ANCHOR_M100K_BUDGET = 5.0


@nightly
def test_scale_serial_churn_repair_m100k_nightly(benchmark):
    """m=10^5 serial churn repair: adoption, anchor and a ~10^3-event trace.

    The certified pattern is built before the clock starts; the clock
    covers context adoption, the anchor first fit, the churn replay and
    the final schedule materialization.  Asserts the events/sec floor
    and the anchor budget.
    """
    scn = build_dynamic_scenario(
        "poisson_churn",
        n_links=NIGHTLY_M,
        seed=3,
        substrate="planar_uniform",
        horizon=2000,
        churn_rate=0.5,
    )
    links = scn.initial_links()

    def run():
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=SCALE_EPS
        )
        ctx.sparse_affectance
        start = time.perf_counter()
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        anchor_start = time.perf_counter()
        rep = OnlineRepairScheduler(dyn)
        anchor_s = time.perf_counter() - anchor_start
        for ev in scn.events:
            rep.apply(*driver.step(ev.slot))
        rep.active_schedule
        return rep, anchor_s, time.perf_counter() - start

    rep, anchor_s, total_s = once(benchmark, run)
    events = len(scn.events)
    assert events > 0
    assert rep.check()
    placed = sum(len(s) for s in rep.active_schedule)
    assert placed + len(rep.deferred) == rep.dyn.m
    eps = events / total_s
    benchmark.extra_info["anchor s, total s"] = [
        round(anchor_s, 2),
        round(total_s, 1),
    ]
    benchmark.extra_info["events/sec"] = round(eps, 2)
    benchmark.extra_info["final slots"] = rep.slot_count
    benchmark.extra_info["peak RSS MiB"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
    )
    assert anchor_s <= ANCHOR_M100K_BUDGET, (
        f"m=10^5 anchor first fit took {anchor_s:.2f}s"
    )
    assert eps >= SERIAL_M100K_MIN_EPS, (
        f"m=10^5 serial churn repair sustained only {eps:.1f} events/s"
    )
