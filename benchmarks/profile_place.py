"""Profile the serial m=10^4 churn-repair baseline: where do probes go?

Not a pytest benchmark — a standalone ``cProfile`` driver for the
Python-level `_place`/ledger probe loop that dominates sparse-backend
scheduling once the pattern build stops being the bottleneck.  Run it
directly:

    PYTHONPATH=src python benchmarks/profile_place.py [m] [horizon]
    PYTHONPATH=src python benchmarks/profile_place.py --events [m] [n_events] [--batch k]

The second form profiles the *event path* instead (see
:func:`run_event_path`): the served substrate of the ``serve_open_m10k``
benchmark workload without the daemon, one departure plus one arrival
per event, fed through the driver and the repairer.  ``--batch k``
merges the events into the chunks ``SchedulerDaemon(batch=k)`` applies
(the ``replay_batch_m10k`` workload runs ``k=64``); the default is
batch 1.  The anchor schedule is built before profiling starts, so only
the per-event work is measured; the script prints the median ms/event,
split into context mutation (``ChurnDriver.feed``) and repair
(``OnlineRepairScheduler.apply``), and the Python-level calls per event
next to the leaderboards.

It replays the exact workload of
``benchmarks/bench_sparse.py::test_scale_sparse_churn_repair_m10k``
(poisson churn over the planar substrate, online first-fit repair)
under ``cProfile`` and prints the top entries by cumulative and by
internal time, restricted to the repair/context/sparse modules so the
scheduler's own overhead is legible next to the numpy kernels.

The finding this file pins (and the fixes that landed with it): the
worst Python-overhead entry was the repairer's first-fit anchor —
the from-scratch anchor held slot members as growing Python *lists*, so
every probe's ledger gather (``in_aff[slot] + av[slot]``) re-converted
a list of up to thousands of ints into a fresh index array.  At m=10^4
that one frame cost 3.1 s of a 5.5 s run (~60% of wall time, ~100x
that at m=10^5 where the anchor is the whole story).  The loop is now
the package's only first-fit loop
(``repro.algorithms.context._first_fit_slots``), serving static first
fit on both backends and the anchor, and a probe no longer gathers over
the slot at all: a slot-label array picks the members inside the
link's row support, so a sparse probe is O(degree) (the m=10^5 anchor
went 41-48 s → ~2 s).  The repairer's own probes, departures and
eviction scans read the same kind of label array, so on the batched
path (``--batch 64``) repair costs less per event than the context
mutation it follows.  Re-run this script to verify neither the anchor
nor a per-slot member conversion is back on the ``tottime``
leaderboard.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import sys
import time

from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.repair import OnlineRepairScheduler
from repro.dynamics import ChurnDriver, ChurnEvent, chunk_events
from repro.scenarios import build_dynamic_scenario

#: Modules whose frames we want on the leaderboards.
_INTERESTING = ("repair.py", "context.py", "affectance_sparse.py", "cells.py")


def run_baseline(m: int = 10_000, horizon: int = 200, eps: float = 0.2):
    """The bench_sparse churn-repair body, returned for profiling."""
    scn = build_dynamic_scenario(
        "poisson_churn",
        n_links=m,
        seed=3,
        substrate="planar_uniform",
        horizon=horizon,
        churn_rate=0.1,
    )
    links = scn.initial_links()
    ctx = SchedulingContext(
        links, noise=0.0, beta=1.0, backend="sparse", eps=eps
    )
    dyn = ctx.dynamic()
    driver = ChurnDriver(dyn, scn)
    scheduler = OnlineRepairScheduler(dyn)
    for ev in scn.events:
        arrived, departed = driver.step(ev.slot)
        scheduler.apply(arrived, departed)
    return scheduler


def run_event_path(
    m: int = 10_000,
    n_events: int = 1000,
    eps: float = 0.2,
    radius: float = 12.0,
    batch: int = 1,
    profiler: cProfile.Profile | None = None,
) -> tuple[list[float], list[float]]:
    """Replay ``n_events`` churn events; per-event seconds of each layer.

    The ``serve_open_m10k`` substrate: ``planar_uniform`` poisson churn
    at ``churn_rate=1.0`` (every event is one departure plus one
    arrival), a sparse context at tail tolerance ``eps`` with the
    interaction radius pinned, and the first-fit repairer the daemon
    wires by default.  Events are merged into daemon chunks of at most
    ``batch`` (:func:`repro.dynamics.chunk_events`); each chunk is fed
    to the driver and then repaired.  Returns, per chunk, the context
    mutation and the repair seconds divided by the chunk's event count.
    ``profiler``, if given, is enabled around the event loop only —
    never around the anchor build.
    """
    scn = build_dynamic_scenario(
        "poisson_churn",
        n_links=m,
        seed=1,
        substrate="planar_uniform",
        horizon=n_events,
        churn_rate=1.0,
    )
    dyn = DynamicContext(
        scn.space, scn.initial_links(), backend="sparse", eps=eps,
        radius=radius,
    )
    driver = ChurnDriver(dyn, scn)
    scheduler = OnlineRepairScheduler(dyn, anchor=True)
    chunks = chunk_events(scn.events, batch, driver.next_id)
    mutate, repair = [], []
    if profiler is not None:
        profiler.enable()
    for chunk in chunks:
        t0 = time.perf_counter()
        gone, fresh = driver.feed(ChurnEvent.merged(chunk))
        t1 = time.perf_counter()
        scheduler.apply(fresh, gone)
        t2 = time.perf_counter()
        mutate.append((t1 - t0) / len(chunk))
        repair.append((t2 - t1) / len(chunk))
    if profiler is not None:
        profiler.disable()
    return mutate, repair


def main() -> None:
    args = sys.argv[1:]
    batch = 1
    if "--batch" in args:
        at = args.index("--batch")
        batch = int(args[at + 1])
        del args[at : at + 2]
    events = bool(args) and args[0] == "--events"
    if events:
        args = args[1:]
    m = int(args[0]) if args else 10_000
    profiler = cProfile.Profile()
    if events:
        n_events = int(args[1]) if len(args) > 1 else 1000
        # Untimed by the profiler first: cProfile's per-call hook would
        # inflate the per-event wall time it is compared against.
        mutate, repair = run_event_path(m, n_events, batch=batch)
        run_event_path(m, n_events, batch=batch, profiler=profiler)
        stats = pstats.Stats(profiler)
        per_event = [a + b for a, b in zip(mutate, repair)]
        print(
            f"m={m} batch-{batch} event path: {n_events} events in "
            f"{len(per_event)} chunks, median "
            f"{1e3 * statistics.median(per_event):.3f} ms/event "
            f"(context mutation {1e3 * statistics.median(mutate):.3f}, "
            f"repair {1e3 * statistics.median(repair):.3f}), "
            f"{stats.total_calls / n_events:.0f} Python calls/event\n"
        )
    else:
        horizon = int(args[1]) if len(args) > 1 else 200
        profiler.enable()
        scheduler = run_baseline(m, horizon)
        profiler.disable()
        print(
            f"m={m} horizon={horizon}: {scheduler.stats.events} events, "
            f"{scheduler.slot_count} slots, "
            f"{scheduler.stats.placements} placements\n"
        )
        stats = pstats.Stats(profiler)
    for sort, title in (("cumulative", "cumulative time"), ("tottime", "internal time")):
        print(f"== top repair/context/sparse frames by {title} ==")
        stats.sort_stats(sort).print_stats("|".join(_INTERESTING), 15)


if __name__ == "__main__":
    main()
