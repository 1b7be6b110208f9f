"""The benchmark's workloads.

Each workload generates its inputs from the seed, times its phases,
checks the outputs outside the timed regions, and returns a
:class:`Run`.  Phases are wrapped in ``phase.*`` spans so that a traced
run can attribute their wall time to the layers they cross.

``serve_open_m10k`` and ``replay_batch_m10k`` share one body: the same
m=10^4 sparse daemon over ``planar_uniform`` churn, driven per event by
an open loop or in batches of 64 by a closed loop.  ``plan_measured_m400``
runs the paper's pipeline on a measured, non-geometric decay space.

The machine may be shared, and other work on it slows a process down by
tens of percent for seconds at a time.  So every trace is replayed in
identical passes, each on a freshly started service, at different times
in the run: an event's latency is the smallest of its latencies,
throughput is that of the fastest pass, and every pass must end in the
same schedule.  A slowdown the program causes itself repeats in every
pass and is kept; one from outside rarely hits the same event in all of
them.  Repeated timings of one input report the fastest recovery and
plan and the median cold start; timings across the distinct
scenarios of ``plan_measured_m400`` report the median.  Garbage is
collected before every timed phase, so that none is charged to the next.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

import repro.service.daemon as daemon_mod
from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.repair import CapacityRepairScheduler
from repro.core.links import LinkSet
from repro.dynamics import ChurnDriver
from repro.scenarios import build_dynamic_scenario
from repro.service.daemon import DaemonConfig, SchedulerDaemon

from audit import audit
from loops import closed_loop, open_loop
from tracing import perf_counter

#: The documented m=10^4 service operating point: sparse tail tolerance
#: 0.2 with the interaction radius pinned to 12.
EPS = 0.2
RADIUS = 12.0
#: Exact feasibility tolerance for the dense backend: the audit sums in
#: another order than the scheduler, so a tight link may differ by ulps.
DENSE_SLACK = 1e-9
#: Identical replays of each trace.
PASSES = 2
#: The plan workload's replays are short, so it replays each scenario
#: once more: a per-event minimum over three passes drops more of the
#: machine's slow spells.  Its plan and restore are timed on the first two.
PLAN_PASSES = 3


@dataclass
class Run:
    """One workload run: metrics, deterministic values and checks."""

    metrics: dict = field(default_factory=dict)
    #: Values that must repeat exactly for the same seed.
    det: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Timed seconds outside open-loop replays (tracing overhead base).
    busy_s: float = 0.0
    #: Replay facts the per-layer report needs: the first pass's event
    #: latencies and its range of ``Tracer.feeds``, and every send lag.
    latencies_s: list = field(default_factory=list)
    #: Every event's latency, the smallest over its passes.
    admit_s: list = field(default_factory=list)
    flush_window: tuple = (0, 0)
    lags_s: list = field(default_factory=list)
    repair: dict = field(default_factory=dict)
    checkpoint_bytes: int = 0
    infeasible: int = 0
    slot_count: float = 0.0
    plan_slots: float = 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


@dataclass(frozen=True)
class DaemonLoad:
    """An m=10^4 daemon workload: batch depth and load shape."""

    m: int
    batch: int
    #: Open loop: fixed send rate (events/s).  Closed loop: ``None``.
    rate: float | None
    #: Events per measured second, over all passes.
    events_per_second: float
    window: int = 0

    def n_events(self, seconds: int) -> int:
        """Trace length of one pass."""
        return max(1, int(round(self.events_per_second * seconds / PASSES)))


@dataclass(frozen=True)
class PlanLoad:
    """The measured-space plan + dense replay workload."""

    m: int
    horizon: int
    #: Timed builds per scenario besides the ones each pass starts with.
    extra_setups: int = 3
    #: Measured seconds one scenario takes (sizes the scenario count).
    seconds_per_scenario: float = 5.0

    def n_scenarios(self, seconds: int) -> int:
        return max(1, math.ceil(seconds / self.seconds_per_scenario))


WORKLOADS = {
    "serve_open_m10k": {
        "full": DaemonLoad(m=10_000, batch=1, rate=200.0,
                           events_per_second=200.0),
        "small": DaemonLoad(m=500, batch=1, rate=200.0,
                            events_per_second=200.0),
    },
    "replay_batch_m10k": {
        "full": DaemonLoad(m=10_000, batch=64, rate=None,
                           events_per_second=1200.0, window=128),
        "small": DaemonLoad(m=500, batch=64, rate=None,
                            events_per_second=300.0, window=128),
    },
    "plan_measured_m400": {
        "full": PlanLoad(m=400, horizon=6000),
        "small": PlanLoad(m=60, horizon=300, extra_setups=1,
                          seconds_per_scenario=1.0),
    },
}


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=int)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (every sample kept, none interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _slots_of(snapshot: dict) -> list[list[int]]:
    """The snapshot's schedule as lists of context slots."""
    groups: dict[int, list[int]] = defaultdict(list)
    for s, t in zip(snapshot["slots"], snapshot["scheduled"]):
        if t is not None:
            groups[t].append(s)
    return [groups[t] for t in sorted(groups)]


def _check_partition(run: Run, slots, m: int, label: str) -> None:
    flat = sorted(v for slot in slots for v in slot)
    run.check(flat == list(range(m)), f"{label} does not partition {m} links")


def _check_served(run: Run, live: dict, m: int) -> list[list[int]]:
    """Placed plus deferred must be every live link; returns the slots."""
    slots = _slots_of(live)
    placed = sum(len(s) for s in slots)
    run.check(
        placed + len(live["deferred_slots"]) == m,
        "placed plus deferred links do not add up to m",
    )
    return slots


def _repair_counts(stats) -> dict:
    return {name: getattr(stats, name) for name in type(stats)._FIELDS}


def _best_of(passes: list[list[float]]) -> list[float]:
    """Per-event minimum over identical passes."""
    return [min(times) for times in zip(*passes)]


def _plan_served(run: Run, core, space, tracer) -> tuple[float, int]:
    """Time a from-scratch schedule of the population ``core`` serves.

    A fresh sparse context over ``space`` builds its affectance pattern
    and runs first fit: the plan that online repair saves.  (The
    repairer's own first fit over its maintained matrices, a small part
    of this, is memory bound and runs up to half again slower whenever
    the shared machine is busy: too noisy to time alone.)  Returns the
    seconds and the number of slots.
    """
    act = core.active_slots
    links = LinkSet(
        space, zip(core.senders[act].tolist(), core.receivers[act].tolist())
    )
    gc.collect()
    with tracer.span("phase.plan"):
        t0 = perf_counter()
        ctx = SchedulingContext(
            links, core.powers[act], noise=core.noise, beta=core.beta,
            backend="sparse", eps=EPS, radius=RADIUS,
        )
        slots = ctx.first_fit()
        seconds = perf_counter() - t0
    _check_partition(run, slots, links.m, "from-scratch plan")
    run.attempted += 1
    return seconds, len(slots)


async def _recover(run: Run, serving, live, space, path, tracer, times):
    """Checkpoint ``serving`` and restore it onto ``space``, timed."""
    gc.collect()
    with tracer.span("phase.recover"):
        t0 = perf_counter()
        serving.checkpoint(path)
        restored = SchedulerDaemon.restore(path, space)
        await restored.start()
        times.append(perf_counter() - t0)
    run.check(restored.snapshot() == live, "restored snapshot differs")
    run.checkpoint_bytes = path.stat().st_size
    path.unlink()
    run.attempted += 1
    await restored.stop()


# ----------------------------------------------------------------------
# serve_open_m10k / replay_batch_m10k
# ----------------------------------------------------------------------
async def daemon_workload(load: DaemonLoad, seed, seconds, tracer, tmp) -> Run:
    run = Run()
    n = load.n_events(seconds)

    def scenario():
        # churn_rate=1.0: one event per tick, each one departure plus one
        # arrival, so the horizon is the event count.
        return build_dynamic_scenario(
            "poisson_churn", n_links=load.m, seed=seed, horizon=n,
            churn_rate=1.0, substrate="planar_uniform",
        )

    config = DaemonConfig(batch=load.batch)
    setups, recovers, anchors = [], [], []

    async def cold_start():
        scn = scenario()
        gc.collect()
        with tracer.span("phase.setup"):
            t0 = perf_counter()
            daemon = daemon_mod.build_daemon(
                scn, config=config, backend="sparse", eps=EPS, radius=RADIUS
            )
            await daemon.start()
            setups.append(perf_counter() - t0)
        anchors.append(_digest(daemon.snapshot()))
        run.attempted += 1
        return scn, daemon

    latencies, walls, lives, stats = [], [], [], []
    for p in range(PASSES):
        scn, daemon = await cold_start()
        events = list(scn.events)
        run.check(len(events) == n, f"trace holds {len(events)} events, not {n}")
        run.check(
            all(len(e.arrivals) == 1 for e in events),
            "every event must carry exactly one arrival",
        )
        first_feed = len(getattr(tracer, "feeds", ()))
        gc.collect()
        with tracer.span("phase.replay"):
            if load.rate is not None:
                samples = await open_loop(daemon, events, load.rate, tracer)
            else:
                samples = await closed_loop(daemon, events, load.window)
        if p == 0:
            run.flush_window = (first_feed, len(getattr(tracer, "feeds", ())))
        run.attempted += n
        run.failed += samples.failed
        run.check(samples.failed == 0, f"{samples.failed} events failed")
        run.check(
            all(d > 0 for d in samples.done),
            "some submitted event never resolved",
        )
        latencies.append(samples.latencies_s())
        walls.append(samples.wall_s())
        if load.rate is not None:
            run.lags_s += samples.lags_s()
        live = daemon.snapshot()
        lives.append(live)
        stats.append(_repair_counts(daemon.repairer.stats))
        if p == 0:
            core = daemon.core
            slots = _check_served(run, live, core.m)
            worst, run.infeasible, _ = audit(
                scn.space, core.senders, core.receivers, core.powers,
                core.noise, core.beta, slots,
            )
            # The sparse guarantee: every served link within 1 + its
            # dropped tail, and the tail is bounded by the tolerance.
            run.check(
                worst <= 1.0 + EPS, f"served affectance {worst} above 1+eps"
            )
            # Plan the served population from scratch, once, between the
            # passes.  A regenerated space, here and for the restore
            # below: nothing cached on the live one may help.
            plan_s, plan_slots = _plan_served(
                run, core, scenario().space, tracer
            )
            del core  # hold no reference to this pass's context past it
        await _recover(
            run, daemon, live, scenario().space, tmp / f"checkpoint{p}.npz",
            tracer, recovers,
        )
        await daemon.stop()
        del daemon, scn
    run.check(lives[0] == lives[1], "the two passes served different schedules")
    run.check(stats[0] == stats[1], "the two passes repaired differently")
    run.check(len(set(anchors)) == 1, "cold starts built different anchors")

    run.latencies_s = latencies[0]
    run.repair = stats[0]
    run.failed += run.repair["deferred"]
    run.admit_s = best = _best_of(latencies)
    if load.rate is None:
        run.busy_s += sum(walls)
    run.busy_s += sum(setups) + sum(recovers) + plan_s
    run.slot_count = lives[0]["slot_count"]
    run.plan_slots = plan_slots
    run.det.update(
        anchor=anchors[0], live=_digest(lives[0]), repair=run.repair,
        slot_count=run.slot_count, plan_slots=run.plan_slots,
        infeasible_links=run.infeasible, worst_affectance=repr(worst),
    )
    run.metrics = {
        "setup_s": statistics.median(setups),
        "admit_p50_ms": 1e3 * _percentile(best, 50),
        "events_per_s": n / min(walls),
        "recover_s": min(recovers),
        "plan_s": plan_s,
        "worst_affectance": worst,
        "peak_rss_mib": _peak_rss_mib(),
    }
    return run


# ----------------------------------------------------------------------
# plan_measured_m400
# ----------------------------------------------------------------------
async def plan_workload(load: PlanLoad, seed, seconds, tracer, tmp) -> Run:
    run = Run()
    plans, setups, recovers, best = [], [], [], []
    replay_s = worst_all = timed_s = 0.0
    slot_counts, plan_slot_counts = [], []
    repair_totals: dict = defaultdict(int)
    for j in range(load.n_scenarios(seconds)):
        scn_seed = seed * 1000 + j

        def scenario():
            return build_dynamic_scenario(
                "poisson_churn", n_links=load.m, seed=scn_seed,
                horizon=load.horizon, churn_rate=0.5,
                substrate="asymmetric_measured",
            )

        def plan(scn):
            """The timed from-scratch plan on ``scn``'s (fresh) space."""
            links = scn.initial_links()
            gc.collect()
            with tracer.span("phase.plan"):
                t0 = perf_counter()
                zeta = scn.space.metricity()
                ctx = SchedulingContext(links, zeta=zeta)
                ctx.raw_affectance  # the dense affectance matrix
                ff = ctx.first_fit()
                rc = ctx.repeated_capacity(admission="adaptive")
                scn_plans.append(perf_counter() - t0)
            run.attempted += 1
            return links, zeta, ctx, ff, rc

        scn_plans, scn_recovers = [], []
        scn = scenario()
        space = scn.space
        links, zeta, ctx, ff, rc = plan(scn)
        for label, sched in (("first_fit", ff), ("repeated_capacity", rc)):
            _check_partition(run, sched, links.m, f"{label} plan")
            worst, _, _ = audit(
                space, links.senders, links.receivers, ctx.powers,
                ctx.noise, ctx.beta, sched,
            )
            run.check(
                worst <= 1.0 + DENSE_SLACK,
                f"{label} plan slot infeasible (a_S(v) = {worst})",
            )
            worst_all = max(worst_all, worst)
        plan_slot_counts.append(len(rc))

        def build():
            gc.collect()
            with tracer.span("phase.setup"):
                t0 = perf_counter()
                dyn = DynamicContext(space, scn.initial, zeta=zeta)
                repairer = CapacityRepairScheduler(dyn)
                setups.append(perf_counter() - t0)
            run.attempted += 1
            return dyn, repairer, _digest(repairer.schedule.slots)

        latencies, walls, lives, anchors = [], [], [], []
        for p in range(PLAN_PASSES):
            if p == 1:
                # Plan again on a regenerated space, between the passes.
                again = plan(scenario())
                run.check(
                    repr(again[1]) == repr(zeta)
                    and _digest(again[3:]) == _digest([ff, rc]),
                    "plans of one scenario differ",
                )
                del again
            dyn, repairer, anchor = build()
            anchors.append(anchor)
            driver = ChurnDriver(dyn, scn)
            lat = []
            gc.collect()
            with tracer.span("phase.replay"):
                start = perf_counter()
                for event in scn.events:
                    t0 = perf_counter()
                    gone, fresh = driver.feed(event)
                    repairer.apply(fresh, gone)
                    lat.append(perf_counter() - t0)
                walls.append(perf_counter() - start)
            run.attempted += len(scn.events)
            latencies.append(lat)
            # The daemon is the checkpointing shell over driver + repairer.
            serving = SchedulerDaemon(
                driver, repairer, DaemonConfig(kind="capacity")
            )
            live = serving.snapshot()
            lives.append(live)
            if p < 2:
                # The restore gets a regenerated space: the checkpoint
                # does not carry Z, so the restored capacity repairer
                # computes it afresh.
                await _recover(
                    run, serving, live, scenario().space,
                    tmp / "checkpoint.npz", tracer, scn_recovers,
                )
        for _ in range(load.extra_setups):
            anchors.append(build()[2])
        run.check(len(set(anchors)) == 1, "setups built different anchors")
        run.check(
            all(other == live for other in lives),
            "the passes served different schedules",
        )
        best += _best_of(latencies)
        replay_s += min(walls)
        plans.append(min(scn_plans))
        recovers.append(min(scn_recovers))
        timed_s += sum(scn_plans) + sum(scn_recovers)

        slots = _check_served(run, live, dyn.m)
        worst, bad, _ = audit(
            space, dyn.senders, dyn.receivers, dyn.powers,
            dyn.noise, dyn.beta, slots,
        )
        run.check(
            worst <= 1.0 + DENSE_SLACK, f"served slot infeasible ({worst})"
        )
        worst_all = max(worst_all, worst)
        run.infeasible += bad
        slot_counts.append(live["slot_count"])
        for name, value in _repair_counts(repairer.stats).items():
            repair_totals[name] += value
        run.det[f"scenario{j}"] = {
            "anchor": anchors[0], "live": _digest(live),
            "zeta": repr(zeta), "plan": _digest([ff, rc]),
            "repair": _repair_counts(repairer.stats),
            "worst_affectance": repr(worst),
        }
        del scn, space, ctx, dyn, repairer, driver, serving

    run.repair = dict(repair_totals)
    run.admit_s = best
    run.failed += run.repair["deferred"]
    run.busy_s = timed_s + sum(setups) + replay_s
    run.slot_count = statistics.mean(slot_counts)
    run.plan_slots = statistics.mean(plan_slot_counts)
    run.metrics = {
        "setup_s": statistics.median(setups),
        "admit_p50_ms": 1e3 * _percentile(best, 50),
        "events_per_s": len(best) / replay_s,
        "recover_s": statistics.median(recovers),
        "plan_s": statistics.median(plans),
        "worst_affectance": worst_all,
        "peak_rss_mib": _peak_rss_mib(),
    }
    return run


async def run_workload(name: str, size: str, seed: int, seconds: int,
                       tracer, tmp) -> Run:
    load = WORKLOADS[name][size]
    if isinstance(load, PlanLoad):
        return await plan_workload(load, seed, seconds, tracer, tmp)
    return await daemon_workload(load, seed, seconds, tracer, tmp)
