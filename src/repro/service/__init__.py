"""Scheduler service: a resident daemon over the dynamic contexts.

The paper's dynamic-distributed setting is ultimately about links
arriving and departing against a *live* schedule; this package hosts
the repo's batch kernels as a long-running service.  The daemon
(:class:`~repro.service.daemon.SchedulerDaemon`) owns a
:class:`~repro.algorithms.context.DynamicContext` with a live serial
repair scheduler, ingests churn events
from an asyncio queue, and answers admission/placement/stats queries
against the maintained repair state — a thin shell over the importable
exact kernels, never a reimplementation.  The load generator
(:mod:`repro.service.loadgen`) replays registry churn traces through a
daemon at configurable rates and reports sustained throughput plus
admission-latency percentiles.
"""

from repro.service.daemon import DaemonConfig, SchedulerDaemon, build_daemon
from repro.service.loadgen import replay_trace, run_loadgen

__all__ = [
    "DaemonConfig",
    "SchedulerDaemon",
    "build_daemon",
    "replay_trace",
    "run_loadgen",
]
