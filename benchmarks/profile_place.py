"""Profile the serial m=10^4 churn-repair baseline: where do probes go?

Not a pytest benchmark — a standalone ``cProfile`` driver for the
Python-level `_place`/ledger probe loop that dominates sparse-backend
scheduling once the pattern build stops being the bottleneck (the
ROADMAP's pre-sharding step).  Run it directly:

    PYTHONPATH=src python benchmarks/profile_place.py [m] [horizon]

It replays the exact workload of
``benchmarks/bench_sparse.py::test_scale_sparse_churn_repair_m10k``
(poisson churn over the planar substrate, online first-fit repair)
under ``cProfile`` and prints the top entries by cumulative and by
internal time, restricted to the repair/context/sparse modules so the
scheduler's own overhead is legible next to the numpy kernels.

The finding this file pins (and the fix that landed with it): the worst
Python-overhead entry was ``OnlineRepairScheduler._first_fit`` — the
from-scratch anchor held slot members as growing Python *lists*, so
every probe's ledger gather (``in_aff[slot] + av[slot]``) re-converted
a list of up to thousands of ints into a fresh index array.  At m=10^4
that one frame cost 3.1 s of a 5.5 s run (~60% of wall time, ~100x
that at m=10^5 where the anchor is the whole story); the members now
live in amortized-doubling numpy buffers, making each probe a pure
array gather.  That loop is now the package's only first-fit loop
(``repro.algorithms.context._first_fit_slots``): static first fit on
both backends and the shard merge's leftover pass run it too, so the
buffer fix also covers the static sparse path, which used to rebuild
each slot's member array with ``np.insert`` per admission.  The
repeated ``np.sort(np.fromiter(set))`` conversion in ``_member_array``
(the per-probe allocation the incremental path pays) was caught by the
same profile and is now cached per slot.  Re-run this script to verify
both frames have left the ``tottime`` leaderboard.
"""

from __future__ import annotations

import cProfile
import pstats
import sys

from repro.algorithms.context import SchedulingContext
from repro.algorithms.repair import OnlineRepairScheduler
from repro.dynamics import ChurnDriver
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


def main() -> None:
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    horizon = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    profiler = cProfile.Profile()
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
