"""Load generator: replay churn traces through a scheduler daemon.

Drives a :class:`~repro.service.daemon.SchedulerDaemon` with a registry
churn trace (e.g. ``poisson_churn``) at a configurable event rate and
reports what the service side cares about: sustained events/sec over
the whole replay and p50/p99 admission latency (enqueue to applied,
measured inside the daemon).  The module doubles as a CLI so CI smoke
jobs and benchmark runs share one code path::

    python -m repro.service.loadgen --n-links 500 --horizon 120 \
        --out BENCH_service.json

Results append into a JSON document keyed by a run label, matching the
shape of the repo's other ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import time

from repro.dynamics import ChurnEvent, DynamicScenario
from repro.errors import SimulationError
from repro.scenarios import build_dynamic_scenario
from repro.service.daemon import DaemonConfig, SchedulerDaemon, build_daemon

__all__ = ["replay_trace", "run_loadgen", "main"]


def _id_events(scenario: DynamicScenario) -> list[ChurnEvent]:
    """The scenario's trace, unchanged: departures already use link ids.

    Kept as a hook (and a single point of truth) for the id convention:
    trace events are streamable verbatim because :meth:`ChurnDriver.feed`
    assigns arrival ids in the same birth order replay would.
    """
    return list(scenario.events)


async def replay_trace(
    daemon: SchedulerDaemon,
    events,
    *,
    rate: float | None = None,
    window: int = 64,
) -> dict:
    """Stream ``events`` through a running daemon; return the report.

    ``rate`` caps submission at that many events/sec (``None``: as fast
    as the daemon drains).  Submissions are pipelined ``window`` deep —
    the producer stays ahead of the single worker without buffering the
    whole trace as pending futures, which would turn the latency
    accounting into a measure of the producer's queue depth.
    """
    if not daemon.running:
        raise SimulationError("start the daemon before replaying a trace")
    events = list(events)
    # A batching daemon resolves futures one chunk at a time; the
    # pipeline must stay at least a chunk deep or the producer would
    # block on a future the worker is still collecting events for.
    window = max(window, 2 * daemon.config.batch)
    pending: list[asyncio.Future] = []
    interval = None if rate is None else 1.0 / float(rate)
    start = time.perf_counter()
    for i, ev in enumerate(events):
        if interval is not None:
            due = start + i * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        pending.append(daemon._enqueue(ev))
        if len(pending) >= window:
            await pending.pop(0)
    # Drain before awaiting the tail: a batching daemon resolves a
    # trailing partial chunk only when the drain sentinel flushes it.
    await daemon.drain()
    for fut in pending:
        await fut
    elapsed = time.perf_counter() - start
    stats = daemon.stats()
    return {
        "events": len(events),
        "elapsed_s": elapsed,
        "events_per_s": len(events) / elapsed if elapsed > 0 else float("inf"),
        "rate_cap": rate,
        "m": stats["m"],
        "slot_count": stats["slot_count"],
        "deferred": stats["deferred"],
        "admissions": stats["admissions"],
        "admit_p50_ms": (
            None
            if stats["admit_p50_s"] is None
            else 1e3 * stats["admit_p50_s"]
        ),
        "admit_p99_ms": (
            None
            if stats["admit_p99_s"] is None
            else 1e3 * stats["admit_p99_s"]
        ),
    }


def run_loadgen(
    *,
    scenario: str = "poisson_churn",
    n_links: int = 500,
    seed: int = 0,
    horizon: int = 120,
    backend: str = "dense",
    kind: str = "first_fit",
    batch: int = 1,
    rate: float | None = None,
    eps: float = 1e-2,
    radius: float | None = None,
    scenario_kwargs: dict | None = None,
) -> dict:
    """Build scenario + daemon, replay the full trace, report throughput."""
    scn = build_dynamic_scenario(
        scenario,
        n_links=n_links,
        seed=seed,
        horizon=horizon,
        **(scenario_kwargs or {}),
    )
    config = DaemonConfig(kind=kind, batch=batch)
    daemon = build_daemon(
        scn, config=config, backend=backend, eps=eps, radius=radius
    )

    async def _drive() -> dict:
        await daemon.start()
        try:
            report = await replay_trace(daemon, _id_events(scn), rate=rate)
        finally:
            await daemon.stop()
        return report

    report = asyncio.run(_drive())
    report.update(
        scenario=scenario,
        n_links=n_links,
        seed=seed,
        horizon=horizon,
        backend=backend,
        kind=kind,
        batch=batch,
        eps=eps,
        radius=radius,
    )
    return report


def _write_report(path: pathlib.Path, label: str, report: dict) -> None:
    """Merge one labelled run into a ``BENCH_*.json`` document."""
    doc: dict = {}
    if path.is_file():
        doc = json.loads(path.read_text())
    doc[label] = report
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay a churn trace through the scheduler daemon."
    )
    parser.add_argument("--scenario", default="poisson_churn")
    parser.add_argument("--n-links", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--horizon", type=int, default=120)
    parser.add_argument(
        "--backend", default="dense", choices=("dense", "sparse")
    )
    parser.add_argument(
        "--kind", default="first_fit", choices=("first_fit", "capacity")
    )
    parser.add_argument(
        "--batch", type=int, default=1,
        help="deterministic micro-batch depth (1: per-event)",
    )
    parser.add_argument("--eps", type=float, default=1e-2)
    parser.add_argument(
        "--radius", type=float, default=None,
        help="pin the sparse interaction radius (thresholded pattern); "
        "default: the certified radius at --eps",
    )
    parser.add_argument(
        "--churn-rate", type=float, default=None,
        help="per-tick churn intensity forwarded to the scenario builder",
    )
    parser.add_argument(
        "--rate", type=float, default=None, help="events/sec cap"
    )
    parser.add_argument("--label", default=None, help="report key in --out")
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, help="BENCH json path"
    )
    parser.add_argument(
        "--min-events", type=int, default=None,
        help="fail unless the trace holds at least this many events",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="fail if the replay takes longer than this wall-clock budget",
    )
    parser.add_argument(
        "--min-events-per-s", type=float, default=None,
        help="fail below this sustained throughput",
    )
    args = parser.parse_args(argv)
    report = run_loadgen(
        scenario=args.scenario,
        n_links=args.n_links,
        seed=args.seed,
        horizon=args.horizon,
        backend=args.backend,
        kind=args.kind,
        batch=args.batch,
        rate=args.rate,
        eps=args.eps,
        radius=args.radius,
        scenario_kwargs=(
            None
            if args.churn_rate is None
            else {"churn_rate": args.churn_rate}
        ),
    )
    label = args.label or (
        f"{args.scenario}_m{args.n_links}_h{args.horizon}_"
        f"{args.kind}"
        f"{'_b' + str(args.batch) if args.batch > 1 else ''}"
    )
    if args.out is not None:
        _write_report(args.out, label, report)
    print(json.dumps({label: report}, indent=2, sort_keys=True))
    if args.min_events is not None and report["events"] < args.min_events:
        print(
            f"FAIL: trace holds {report['events']} events "
            f"< required {args.min_events}"
        )
        return 1
    if args.budget_s is not None and report["elapsed_s"] > args.budget_s:
        print(
            f"FAIL: replay took {report['elapsed_s']:.2f}s "
            f"> budget {args.budget_s:.2f}s"
        )
        return 1
    if (
        args.min_events_per_s is not None
        and report["events_per_s"] < args.min_events_per_s
    ):
        print(
            f"FAIL: sustained {report['events_per_s']:.0f} events/s "
            f"< required {args.min_events_per_s:.0f}"
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
