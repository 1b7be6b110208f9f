"""Dynamic packet scheduling and queue stability ([44, 2, 3], transferred).

Kesselheim's dynamic packet scheduling and the Asgeirsson-Halldorsson-
Mitra stability line study SINR networks with stochastic arrivals: packets
arrive at links (Bernoulli, rate ``lambda_v``) and a scheduling policy
picks a transmission set each slot; the system is *stable* when queues do
not grow linearly.  The paper's Proposition 1 transfers these results to
decay spaces; this module provides the substrate to observe it:

* a queueing simulator over any :class:`~repro.core.links.LinkSet`,
* two policies — *longest-queue-first with exact feasibility* (the
  centralized reference) and *random backoff* (the distributed
  strawman [44] improves upon),
* a **churn mode**: links arrive and depart mid-run through the
  incremental :class:`~repro.algorithms.context.DynamicContext` — O(m)
  matrix work per event, never a rebuild,
* a **repair mode** (``scheduler="repair"``): an
  :class:`~repro.algorithms.repair.OnlineRepairScheduler` maintains a
  feasible TDMA schedule across churn events, repairing locally instead
  of rescheduling (``scheduler="rebuild"`` is the per-event-rebuild
  baseline).

The simulator never rebuilds the affectance matrix inside the slot loop:
pass ``context=`` to share one :class:`SchedulingContext` across a whole
arrival-rate sweep (one matrix build per sweep), and churn events update
rows/columns incrementally.  Policies receive the (possibly padded)
affectance matrix and the queue vector; inactive slots carry zero queues
and zero affectance rows, so the same policy callables work unchanged in
static and churn runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.context import SchedulingContext, check_context
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
)
from repro.core.affectance import as_view, feasible_within
from repro.core.links import LinkSet
from repro.core.power import uniform_power
from repro.dynamics import ChurnDriver
from repro.errors import SimulationError

__all__ = [
    "StabilityResult",
    "lqf_policy",
    "random_policy",
    "run_queue_simulation",
]

Policy = Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray]


def lqf_policy(
    queues: np.ndarray, a: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Longest-queue-first with exact feasibility checks.

    Greedily admits backlogged links in decreasing queue order while the
    chosen set stays feasible (in-affectance at most 1 for every member).

    The scan is vectorized per *admission* instead of per candidate:
    because the chosen set and its in-affectances only grow, a candidate
    rejected once stays rejected for the rest of the slot, so each pass
    evaluates every remaining candidate against the current set in one
    matrix expression, admits the first feasible one, and discards the
    prefix of rejected candidates.  The admissions — and hence the
    returned set — are identical to the historical one-candidate-at-a-time
    loop; the test suite pins this equivalence.
    """
    backlogged = np.flatnonzero(queues > 0.0)
    if backlogged.size == 0:
        return backlogged
    # Stable sort by decreasing queue, index tie-break: restricting the
    # historical full argsort to the backlogged links yields the same
    # visiting order (stable sorts commute with subsetting).
    cand = backlogged[np.argsort(-queues[backlogged], kind="stable")]
    a = as_view(a)
    chosen = np.empty(cand.size, dtype=int)
    count = 0
    in_aff = np.zeros(queues.shape[0])
    while cand.size:
        if count == 0:
            hit = 0  # empty set: the longest backlogged queue is feasible
        else:
            members = chosen[:count]
            # Member-side worst case: max over chosen of a_X(w) + a_v(w).
            worst = (
                a.block(cand, members) + in_aff[members][None, :]
            ).max(axis=1)
            ok = (in_aff[cand] <= 1.0) & (worst <= 1.0)
            hits = np.flatnonzero(ok)
            if hits.size == 0:
                break
            hit = int(hits[0])
        v = int(cand[hit])
        chosen[count] = v
        count += 1
        a.add_row_to(in_aff, v)
        cand = cand[hit + 1 :]
    return np.sort(chosen[:count])


def random_policy(
    queues: np.ndarray, a: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random backoff: every backlogged link transmits w.p. 1/4.

    Transmissions that fail the SINR test deliver nothing, so the policy
    wastes the slots the structured policies exploit.
    """
    backlogged = np.flatnonzero(queues > 0)
    if backlogged.size == 0:
        return backlogged
    active = backlogged[rng.random(backlogged.size) < 0.25]
    if active.size == 0:
        return active
    return active[feasible_within(a, active)]


@dataclass(frozen=True)
class StabilityResult:
    """Outcome of a queue simulation.

    ``mean_queue_trajectory`` samples the average queue length over time
    (one entry per ``sample_every`` slots, over the links active at the
    sample instant); ``drift`` is the least-squares slope of that
    trajectory's second half — positive drift at rate ``lambda`` marks
    instability.  In churn runs ``final_queues`` is aligned with the
    links active at the end of the run, ``dropped`` counts packets lost
    to departures, and ``churn_events`` the applied arrival/departure
    batches.
    """

    arrival_rate: float
    slots: int
    delivered: int
    final_queues: np.ndarray
    mean_queue_trajectory: np.ndarray
    dropped: int = 0
    churn_events: int = 0
    #: Final slot count of the maintained schedule (``scheduler=`` runs).
    schedule_slots: int = 0
    #: Final repair-vs-rebuild slot-count competitive ratio (NaN for
    #: policy runs): maintained slots over a from-scratch first-fit's.
    repair_ratio: float = float("nan")
    #: Full re-anchors performed by the scheduler (``scheduler="rebuild"``
    #: re-anchors every event; ``"repair"`` never does).
    scheduler_rebuilds: int = 0
    #: Slots merged away by opportunistic compaction
    #: (``scheduler="capacity_repair"`` with ``compaction_every=``).
    scheduler_merges: int = 0

    @property
    def drift(self) -> float:
        """Queue-growth slope over the second half of the run."""
        traj = self.mean_queue_trajectory
        half = traj[len(traj) // 2 :]
        if half.size < 2:
            return 0.0
        x = np.arange(half.size, dtype=float)
        slope, _ = np.polyfit(x, half, 1)
        return float(slope)

    @property
    def throughput(self) -> float:
        """Delivered packets per slot."""
        return self.delivered / max(self.slots, 1)


def run_queue_simulation(
    links: LinkSet,
    arrival_rate: float,
    slots: int,
    policy: Policy = lqf_policy,
    *,
    noise: float = 0.0,
    beta: float = 1.0,
    power: float = 1.0,
    sample_every: int = 20,
    seed: int | np.random.Generator | None = None,
    context: SchedulingContext | None = None,
    churn: Sequence | None = None,
    scheduler: str = "policy",
    cascade: int = 1,
    compaction_every: int | None = None,
) -> StabilityResult:
    """Simulate Bernoulli arrivals against a scheduling policy.

    Each slot: one packet arrives at each active link independently with
    probability ``arrival_rate``; the policy selects a transmission set
    from the queue state; members whose set-internal SINR constraint holds
    deliver one packet.  (Policies returning infeasible sets simply
    deliver nothing on the violated links.)

    ``context`` shares precomputed matrices across calls (e.g. a rate
    sweep): the affectance matrix is built once for the sweep, not once
    per rate.  ``churn`` switches on the dynamic mode: a
    :class:`~repro.dynamics.DynamicScenario` or sequence of
    :class:`~repro.dynamics.ChurnEvent`, applied at the start of their
    slots through a :class:`DynamicContext` (links start with empty
    queues; departures drop their backlog, counted in ``dropped``).
    ``links`` is then the initial link set over the substrate space.

    ``scheduler`` selects who picks the transmission sets:

    ``"policy"``
        The default: ``policy`` is called every slot on the queue state.
    ``"repair"``
        An :class:`~repro.algorithms.repair.OnlineRepairScheduler`
        maintains a feasible slot assignment (eviction-cascade depth
        ``cascade``) and the simulation runs TDMA over it — slot ``t``
        transmits the backlogged members of schedule slot ``t mod T``.
        Churn events are repaired locally, never rescheduled.
    ``"rebuild"``
        The same TDMA consumer, but the schedule is rebuilt from scratch
        (first-fit over the maintained matrices) after *every* churn
        event — the baseline repair is benchmarked against.
    ``"capacity_repair"``
        A :class:`~repro.algorithms.repair.CapacityRepairScheduler`
        maintains *capacity-guaranteed* peeled slots
        (``repeated_capacity`` anchors with the zeta-adaptive admission,
        Algorithm-1 threshold probes per local placement) and repairs
        locally; ``compaction_every=`` merges underfull slots
        opportunistically.  Eviction costs are queue masses: the current
        queue state is wired into the scheduler before every repaired
        event, so cascades displace the links with the least backlog.
    ``"capacity_rebuild"``
        The capacity scheduler re-anchored (freeze + ``repeated_capacity``
        over the maintained matrices — never an affectance rebuild)
        after every event: the from-scratch baseline for
        ``"capacity_repair"``.

    Scheduler runs report the final ``schedule_slots``, the
    ``repair_ratio`` against a from-scratch schedule of the same family,
    and the number of ``scheduler_rebuilds`` (plus ``scheduler_merges``
    for compaction) in the result.
    """
    if not 0.0 <= arrival_rate <= 1.0:
        raise SimulationError("arrival rate must be in [0, 1]")
    if slots < 1:
        raise SimulationError("need at least one slot")
    if sample_every < 1:
        raise SimulationError("sample_every must be >= 1")
    schedulers = (
        "policy", "repair", "rebuild", "capacity_repair",
        "capacity_rebuild",
    )
    if scheduler not in schedulers:
        raise SimulationError(
            f"unknown scheduler {scheduler!r}; expected one of "
            f"{', '.join(repr(s) for s in schedulers)}"
        )
    if compaction_every is not None and scheduler != "capacity_repair":
        # In particular not "capacity_rebuild": compacting right after
        # every re-anchor would silently turn the documented
        # from-scratch baseline into a merged schedule.
        raise SimulationError(
            "compaction_every only applies to scheduler='capacity_repair'"
        )
    if scheduler == "policy" and cascade != 1:
        raise SimulationError(
            "cascade= only applies to the scheduler-maintained modes "
            "(scheduler='repair'/'rebuild'/'capacity_*'); "
            "scheduler='policy' would silently ignore it"
        )
    if scheduler != "policy" and policy is not lqf_policy:
        raise SimulationError(
            f"a custom policy cannot be combined with scheduler="
            f"{scheduler!r}: the maintained TDMA schedule picks the "
            "transmission sets"
        )
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    powers = uniform_power(links, power)
    if context is not None:
        check_context(context, links, noise, beta, powers)
    base = (
        context
        if context is not None
        else SchedulingContext(links, powers, noise=noise, beta=beta)
    )
    if churn is None and scheduler == "policy":
        dyn = None
        driver = None
        a = base.raw_affectance
        act = np.arange(links.m)  # the active set never changes
        queues = np.zeros(links.m)
    else:
        # Churn mode (and every scheduler-maintained run): the
        # incremental context absorbs arrivals and departures in O(m)
        # per event; the loop never rebuilds a matrix.
        dyn = base.dynamic()
        driver = (
            ChurnDriver(dyn, churn, power=power)
            if churn is not None
            else None
        )
        a = dyn.raw_affectance  # padded; grows only if capacity doubles
        act = dyn.active_slots
        queues = np.zeros(dyn.capacity)
    if scheduler in ("capacity_repair", "capacity_rebuild"):
        repairer = CapacityRepairScheduler(
            dyn,
            cascade=cascade,
            rebuild_every=1 if scheduler == "capacity_rebuild" else None,
            compaction_every=compaction_every,
        )
    elif scheduler in ("repair", "rebuild"):
        repairer = OnlineRepairScheduler(
            dyn,
            cascade=cascade,
            rebuild_every=1 if scheduler == "rebuild" else None,
        )
    else:
        repairer = None
    delivered = 0
    dropped = 0
    applied = 0
    trajectory: list[float] = []
    for t in range(slots):
        if driver is not None:
            queues, arrived, departed, freed = driver.step_state(t, queues)
            if arrived or departed:
                applied += 1
                dropped += int(freed)
                a = dyn.raw_affectance  # capacity growth reallocates it
                if repairer is not None:
                    # Priority-aware eviction: the queue masses are the
                    # eviction costs, re-wired per event because
                    # capacity growth reallocates the state vector.
                    repairer.set_priorities(queues)
                    repairer.apply(arrived, departed)
            act = dyn.active_slots
        queues[act] += rng.random(act.size) < arrival_rate
        if repairer is not None:
            # TDMA over the maintained schedule: every member of the
            # slot's turn is feasible by construction (backlogged
            # members form a subset of a feasible set).
            schedule = repairer.active_schedule
            if schedule:
                members = schedule[t % len(schedule)]
                winners = members[queues[members] > 0]
                queues[winners] -= 1.0
                delivered += int(winners.size)
        else:
            active = np.asarray(policy(queues, a, rng), dtype=int)
            if active.size:
                winners = active[
                    feasible_within(a, active) & (queues[active] > 0)
                ]
                queues[winners] -= 1.0
                delivered += int(winners.size)
        if t % sample_every == 0:
            trajectory.append(float(queues[act].mean()) if act.size else 0.0)
    if dyn is not None:
        act = dyn.active_slots
    return StabilityResult(
        arrival_rate=float(arrival_rate),
        slots=slots,
        delivered=delivered,
        final_queues=queues[act] if dyn is not None else queues,
        mean_queue_trajectory=np.asarray(trajectory),
        dropped=dropped,
        churn_events=applied,
        schedule_slots=repairer.slot_count if repairer is not None else 0,
        repair_ratio=(
            repairer.competitive_ratio()
            if repairer is not None
            else float("nan")
        ),
        scheduler_rebuilds=(
            repairer.stats.rebuilds if repairer is not None else 0
        ),
        scheduler_merges=(
            repairer.stats.merged if repairer is not None else 0
        ),
    )
