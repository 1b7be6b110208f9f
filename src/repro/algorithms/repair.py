"""Online schedule repair under churn: keep a feasible slot assignment alive.

The ROADMAP's online-scheduler north star: every consumer of the
incremental :class:`~repro.algorithms.context.DynamicContext` so far
still *rescheduled from scratch* after each churn event — an O(m)
matrix update followed by an O(m * slots) rebuild.  The schedulers here
close that gap.  :class:`OnlineRepairScheduler` maintains a partition of
the context's active links into affectance-feasible slots (the same
exact feasibility rule as
:meth:`~repro.algorithms.context.SchedulingContext.first_fit`) and
repairs it *locally* per event:

* **departures** are O(1) bookkeeping per link — the departed link is
  dropped from its slot's member set, and the slot's ledger (its running
  in-affectance sums) is simply marked stale.  Removing a link can never
  break feasibility, and the context has already zeroed the departed
  rows, so the ledger is recomputed exactly — one vectorized row sum —
  the next time the slot is probed.
* **arrivals** are greedily placed into the first existing slot that
  stays feasible with them added.  Each probe is two vectorized
  comparisons against the slot's ledger sums (the arrival's in-affectance
  from the slot, and every member's load with the arrival's row added);
  a new slot is opened only when every existing slot rejects the link.
* an optional **bounded cascade** (``cascade=``): when no slot admits an
  arrival directly, evict the *cheapest* single conflicting link whose
  removal makes some existing slot feasible for the arrival, place the
  arrival there, and re-place the evicted link with the remaining
  cascade budget.  An evicted link can never cycle back into the slot it
  left (that slot now provably rejects it), so the cascade terminates
  within its budget.  Cost is priority-aware: with
  :meth:`~OnlineRepairScheduler.set_priorities` wired (the queue
  simulator passes its per-slot queue masses), the cheapest eviction is
  the one carrying the least backlog; without priorities it is the
  shortest link, exactly as before.  ``max_evictions=`` additionally
  caps the total evictions a single churn event may spend across all of
  its arrivals.
* ``max_slots=`` bounds *local* slot growth: an arrival (or an evicted
  link) that no existing slot admits when the schedule already holds
  ``max_slots`` non-empty slots is **deferred** — queued for the next
  event and recorded in ``stats.deferred`` — instead of silently
  over-allocating a fresh singleton slot.  Deferred links are retried
  first at the next event (departures may have made room), and a
  ``rebuild_every`` re-anchor clears the queue by scheduling everything.

``rebuild_every=k`` re-anchors the schedule with a from-scratch build
over the current active set every ``k``-th event (rebuilds run off the
maintained padded matrices — no affectance rebuild ever happens).
``rebuild_every=1`` therefore *is* the per-event-rebuild baseline that
repair is benchmarked against, and :meth:`competitive_ratio` reports how
many more slots the repaired schedule uses than a fresh rebuild would.

:class:`CapacityRepairScheduler` upgrades the maintained invariant from
first-fit feasibility to the paper's **capacity-guaranteed** slots: its
anchors are :meth:`~repro.algorithms.context.SchedulingContext.repeated_capacity`
peels (including the ``admission="adaptive"`` degenerate-round
fallback), every local placement must additionally clear the Algorithm-1
admission threshold (clipped in+out affectance at most 1/2 against the
target slot — the exact quantity the greedy admission scan checks for a
late arrival), and idle periods can opportunistically **compact** the
schedule: underfull slots are merged whenever the merged ledger sums
still clear the admission threshold for every member, which provably
preserves feasibility and can only reduce the slot count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.algorithms.context import (
    DynamicContext,
    Schedule,
    _first_fit_slots,
    combined_affectance_within,
    slot_admission_sums,
)
from repro.core.affectance import in_affectances_within
from repro.core.affectance_sparse import (
    _DENSE_BLOCK_LIMIT,
    add_row_to,
    dense_row,
    gather_col,
    gather_row,
    member_block,
    rows_sum,
)
from repro.errors import LinkError

__all__ = [
    "CapacityRepairScheduler",
    "OnlineRepairScheduler",
    "RepairStats",
]


@dataclass
class RepairStats:
    """Cumulative repair-activity counters since construction.

    ``events`` counts applied churn batches, ``placements`` arrivals
    placed by local repair, ``departures`` scheduled links dropped (net
    of batch-internal arrive-then-depart churn), ``opened`` new slots
    opened because no existing slot could take an arrival, ``evictions``
    cascade evictions, ``rebuilds`` full re-anchors triggered by
    ``rebuild_every`` (the initial anchor is not counted), ``deferred``
    *deferral episodes* under the ``max_slots`` bound — a link entering
    the deferred queue counts once, and a retry that fails again at the
    next event keeps the same episode open instead of re-counting it,
    ``compactions`` compaction passes that merged at least one slot, and
    ``merged`` slots emptied by compaction merges.  Counters are never
    reset — a rebuild re-anchors the schedule, not the history.
    """

    events: int = 0
    placements: int = 0
    departures: int = 0
    opened: int = 0
    evictions: int = 0
    rebuilds: int = 0
    deferred: int = 0
    compactions: int = 0
    merged: int = 0

    _FIELDS = (
        "events", "placements", "departures", "opened", "evictions",
        "rebuilds", "deferred", "compactions", "merged",
    )

    def as_array(self) -> np.ndarray:
        """The counters as one int64 vector (checkpoint payload)."""
        return np.array(
            [getattr(self, f) for f in self._FIELDS], dtype=np.int64
        )

    @classmethod
    def from_array(cls, values: np.ndarray) -> "RepairStats":
        """Rebuild counters saved by :meth:`as_array`."""
        if np.asarray(values).shape != (len(cls._FIELDS),):
            raise LinkError(
                f"repair stats vector must have {len(cls._FIELDS)} "
                f"entries, got shape {np.asarray(values).shape}"
            )
        return cls(**{
            f: int(v) for f, v in zip(cls._FIELDS, np.asarray(values))
        })


class OnlineRepairScheduler:
    """Maintain a feasible schedule over a :class:`DynamicContext`.

    Parameters
    ----------
    dyn:
        The dynamic context whose active links are scheduled.  The
        scheduler reads the padded raw-affectance matrix and never
        mutates the context; churn must be applied to the context first
        (``dyn.add_links`` / ``dyn.remove_links`` or a
        :class:`~repro.dynamics.ChurnDriver`) and then reported here via
        :meth:`apply`.
    cascade:
        Maximum eviction-cascade depth per arrival (0 disables
        evictions; each eviction spends one unit of the arrival's
        budget).
    rebuild_every:
        Re-anchor with a from-scratch schedule every this many events
        (``None``: never — pure repair).
    max_slots:
        Upper bound on locally opened slots (``None``: unbounded).  A
        placement that would grow the schedule beyond the bound is
        deferred to the next event instead of over-allocating; anchors
        and rebuilds are not gated (a from-scratch schedule is the
        ground truth the bound is measured against).
    max_evictions:
        Per-*event* ceiling on cascade evictions across all arrivals of
        the event (``None``: only the per-arrival ``cascade`` budget
        applies).
    universe:
        Optional link-subset view: an iterable of context slots this
        scheduler is responsible for (``None``: the full link universe,
        the historical behaviour).  With a universe installed, anchors
        and rebuilds schedule only universe links and ``apply`` ignores
        arrivals outside it — the restriction that lets one scheduler
        instance per shard run unmodified over a shared context (see
        :mod:`repro.algorithms.sharding`).  Membership is maintained via
        :meth:`universe_add` / :meth:`universe_discard` as churn reuses
        context slots.
    anchor:
        ``False`` skips the construction-time from-scratch anchor and
        installs an *empty* schedule — the checkpoint-restore path: the
        caller must immediately install an exported schedule via
        :meth:`restore_state`.  Every other use keeps the default.

    The maintained invariant, pinned by the test suite: after any churn
    sequence, every slot satisfies the exact feasibility rule
    ``a_S(v) <= 1`` for all members ``v`` — the same check a
    from-scratch :class:`~repro.algorithms.context.SchedulingContext`
    applies (:func:`repro.core.affectance.feasible_within`).
    """

    def __init__(
        self,
        dyn: DynamicContext,
        *,
        cascade: int = 1,
        rebuild_every: int | None = None,
        max_slots: int | None = None,
        max_evictions: int | None = None,
        universe: Sequence[int] | None = None,
        anchor: bool = True,
    ) -> None:
        if cascade < 0:
            raise LinkError(f"cascade depth must be >= 0, got {cascade}")
        if rebuild_every is not None and rebuild_every < 1:
            raise LinkError(
                f"rebuild_every must be >= 1 or None, got {rebuild_every}"
            )
        if max_slots is not None and max_slots < 1:
            raise LinkError(
                f"max_slots must be >= 1 or None, got {max_slots}"
            )
        if max_evictions is not None and max_evictions < 0:
            raise LinkError(
                f"max_evictions must be >= 0 or None, got {max_evictions}"
            )
        self.dyn = dyn
        self.cascade = int(cascade)
        self.rebuild_every = rebuild_every
        self.max_slots = max_slots
        self.max_evictions = max_evictions
        self.stats = RepairStats()
        #: Slot-count after construction and after every applied event —
        #: the measured trajectory benchmarks plot against rebuilds.
        self.slot_trajectory: list[int] = []
        #: Schedule slots as sets of context slot indices (may be empty —
        #: an emptied slot is reused by the next arrival that fits it).
        self._members: list[set[int]] = []
        #: Per schedule slot, the running in-affectance sums a_slot(v)
        #: over all context slots, or None when stale (departure since
        #: last probe) — recomputed exactly from the padded matrix on
        #: the next probe, because departed rows are already zeroed.
        self._in_sum: list[np.ndarray | None] = []
        self._slot_of: dict[int, int] = {}
        self._deferred: list[int] = []
        self._compiled: tuple[np.ndarray, ...] | None = None
        self._priorities: np.ndarray | None = None
        self._event_evictions = 0
        #: Links being retried from the deferred queue in the current
        #: placement batch: a retry that fails again re-enters the queue
        #: it never really left, so it must not re-count the deferral
        #: episode in ``stats.deferred``.
        self._requeued: frozenset[int] = frozenset()
        #: Per schedule slot, the sorted member array (None when the
        #: membership changed since last build) — probes and eviction
        #: scans gather against it, so rebuilding it per probe would pay
        #: a set conversion per slot visited (profiled hotspot).
        self._member_cache: list[np.ndarray | None] = []
        self._universe: set[int] | None = (
            None if universe is None else {int(s) for s in universe}
        )
        if anchor:
            self._install(self._from_scratch())
            self.slot_trajectory.append(self.slot_count)
        else:
            # Checkpoint-restore path: the caller installs a previously
            # exported schedule via :meth:`restore_state` instead of
            # paying (and recording) a from-scratch anchor.
            self._install([])

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Number of non-empty slots in the maintained schedule."""
        return sum(1 for s in self._members if s)

    @property
    def schedule(self) -> Schedule:
        """The maintained schedule (non-empty slots, members sorted)."""
        return Schedule(
            tuple(tuple(sorted(s)) for s in self._members if s)
        )

    @property
    def deferred(self) -> tuple[int, ...]:
        """Context slots awaiting placement (``max_slots`` overflow)."""
        return tuple(self._deferred)

    @property
    def active_schedule(self) -> tuple[np.ndarray, ...]:
        """Non-empty slots as sorted index arrays (cached between events).

        The TDMA consumer's view: ``active_schedule[t % len]`` is the
        transmission set of simulation slot ``t``.
        """
        if self._compiled is None:
            self._compiled = tuple(
                np.sort(np.fromiter(s, dtype=int))
                for s in self._members
                if s
            )
        return self._compiled

    def competitive_ratio(self) -> float:
        """Current slots over a from-scratch schedule's slots (>= 1.0
        up to the greedy anchor's own order sensitivity; 1.0 means
        repair has lost nothing to a full rebuild).  Read-only: the
        maintained schedule is not touched."""
        rebuilt = len(self._from_scratch())
        return self.slot_count / max(rebuilt, 1)

    def check(self) -> bool:
        """Exact feasibility of every slot against the current matrix."""
        a = self.dyn.raw_affectance
        return all(
            bool(np.all(in_affectances_within(a, slot) <= 1.0))
            for slot in self.active_schedule
        )

    def set_priorities(self, weights: np.ndarray | None) -> None:
        """Wire per-context-slot eviction costs (e.g. queue masses).

        ``weights`` is a padded array indexed by context slot (the queue
        simulator passes its queue-state vector directly); eviction then
        prefers the candidate with the *smallest* weight — the link
        whose displacement loses the least backlogged service — with the
        link length and index as deterministic tie-breaks.  ``None``
        restores the pure length ordering.  The array is read at
        eviction time, so callers should re-wire after any event that
        reallocated it (capacity growth).
        """
        self._priorities = weights

    # ------------------------------------------------------------------
    # Universe restriction (per-shard link-subset view)
    # ------------------------------------------------------------------
    @property
    def universe(self) -> frozenset[int] | None:
        """The installed link-subset view (None: all links)."""
        return None if self._universe is None else frozenset(self._universe)

    def universe_add(self, s: int) -> None:
        """Admit context slot ``s`` into this scheduler's universe."""
        if self._universe is not None:
            self._universe.add(int(s))

    def universe_discard(self, s: int) -> None:
        """Drop context slot ``s`` from this scheduler's universe."""
        if self._universe is not None:
            self._universe.discard(int(s))

    def _universe_filter(self, slots: np.ndarray) -> np.ndarray:
        """``slots`` restricted to the universe (identity when None)."""
        if self._universe is None or not slots.size:
            return slots
        keep = np.fromiter(
            (int(s) in self._universe for s in slots),
            dtype=bool,
            count=slots.size,
        )
        return slots[keep]

    # ------------------------------------------------------------------
    # Checkpoint state (the repro.io scheduler-state format's payload)
    # ------------------------------------------------------------------
    #: Tag stored with exported state so a checkpoint written by one
    #: scheduler family cannot be silently restored into the other.
    _STATE_KIND = "first_fit"

    def slot_of(self, s: int) -> int | None:
        """Maintained schedule slot holding context slot ``s`` (``None``
        when the link is unscheduled — deferred, inactive or unknown).
        Indexes the raw slot list including empty entries, matching
        :attr:`schedule` only while no slot has drained."""
        return self._slot_of.get(int(s))

    def export_state(self) -> dict[str, np.ndarray]:
        """The maintained schedule as flat arrays (checkpoint payload).

        Everything a byte-identical resume depends on rides along: the
        slot membership *including empty slots* (arrivals probe schedule
        slots in list order, so dropping a drained slot would change
        future placements), the per-slot ledger sums exactly as
        maintained (a recompute could differ by ulps from the
        incrementally accumulated values and flip a borderline
        admission), the deferred queue in retry order, the stats
        counters (rebuild and compaction anchors fire on
        ``stats.events % k``), the slot trajectory, and the universe
        restriction when installed.  Member caches are derived data and
        are rebuilt on demand.
        """
        members = [self._member_array(t) for t in range(len(self._members))]
        offsets = np.zeros(len(members) + 1, dtype=np.int64)
        if members:
            np.cumsum([a.size for a in members], out=offsets[1:])
        flat = (
            np.concatenate(members).astype(np.int64)
            if members
            else np.empty(0, dtype=np.int64)
        )
        cap = self.dyn.capacity
        # A ledger held at a stale capacity is recomputed on the next
        # probe anyway; exporting it as stale keeps the stack rectangular.
        stale = np.array(
            [v is None or v.shape[0] != cap for v in self._in_sum],
            dtype=bool,
        )
        sums = [
            v
            for v, is_stale in zip(self._in_sum, stale)
            if not is_stale
        ]
        state = {
            "repair_kind": np.array([self._STATE_KIND], dtype=np.str_),
            "repair_members": flat,
            "repair_offsets": offsets,
            "repair_ledger_stale": stale,
            "repair_ledgers": (
                np.stack(sums) if sums else np.empty((0, 0))
            ),
            "repair_deferred": np.array(self._deferred, dtype=np.int64),
            "repair_stats": self.stats.as_array(),
            "repair_trajectory": np.array(
                self.slot_trajectory, dtype=np.int64
            ),
            "repair_has_universe": np.array(
                [self._universe is not None], dtype=bool
            ),
            "repair_universe": np.array(
                sorted(self._universe) if self._universe else [],
                dtype=np.int64,
            ),
        }
        return state

    def restore_state(self, state: dict[str, np.ndarray]) -> None:
        """Install a schedule exported by :meth:`export_state`.

        The restored scheduler continues exactly where the exporter
        stopped: identical slot membership (empty slots preserved in
        place), identical ledger floats, identical deferred queue and
        stats, so every future placement decision matches an
        uninterrupted run byte for byte.  Membership is cross-checked
        against the context's activity mask — restoring against a
        context in a different churn state fails loudly instead of
        silently desynchronising.
        """
        kind = str(np.asarray(state["repair_kind"])[0])
        if kind != self._STATE_KIND:
            raise LinkError(
                f"checkpoint holds a {kind!r} scheduler state; this is "
                f"a {self._STATE_KIND!r} scheduler"
            )
        had_universe = bool(np.asarray(state["repair_has_universe"])[0])
        if had_universe != (self._universe is not None):
            raise LinkError(
                "checkpoint universe restriction does not match this "
                "scheduler's wiring (one side is a link-subset view, "
                "the other is not)"
            )
        if had_universe:
            # Universe membership migrates as churn reuses context
            # slots, so the exported view — not the constructor's
            # initial interior — is the live one.
            self._universe = {int(v) for v in state["repair_universe"]}
        offsets = np.asarray(state["repair_offsets"], dtype=np.int64)
        flat = np.asarray(state["repair_members"], dtype=np.int64)
        deferred = [int(v) for v in state["repair_deferred"]]
        active = self.dyn.active_mask
        touched = np.concatenate([flat, np.asarray(deferred, dtype=np.int64)])
        if touched.size and (
            touched.min() < 0
            or touched.max() >= self.dyn.capacity
            or not bool(np.all(active[touched]))
        ):
            raise LinkError(
                "checkpointed schedule references context slots that "
                "are not active in this context — the checkpoint does "
                "not match the context's churn state"
            )
        slots = [
            {int(v) for v in flat[offsets[t] : offsets[t + 1]]}
            for t in range(offsets.size - 1)
        ]
        slot_of = {v: t for t, s in enumerate(slots) for v in s}
        if len(slot_of) != flat.size or flat.size != int(offsets[-1]):
            raise LinkError(
                "checkpointed schedule assigns some link to two slots"
            )
        if self._universe is not None:
            missing = [v for v in slot_of if v not in self._universe]
            missing += [v for v in deferred if v not in self._universe]
            if missing:
                raise LinkError(
                    "checkpointed schedule holds links outside this "
                    f"scheduler's universe: {sorted(missing)[:8]}"
                )
        stale = np.asarray(state["repair_ledger_stale"], dtype=bool)
        ledgers = np.asarray(state["repair_ledgers"], dtype=float)
        if stale.shape != (len(slots),):
            raise LinkError(
                "checkpointed ledger mask does not cover the schedule"
            )
        cap = self.dyn.capacity
        in_sum: list[np.ndarray | None] = []
        fresh = iter(ledgers)
        for t in range(len(slots)):
            if stale[t]:
                in_sum.append(None)
                continue
            v = next(fresh, None)
            # A ledger saved at a different capacity is merely stale:
            # the next probe recomputes it exactly from the matrices.
            in_sum.append(
                v.copy() if v is not None and v.shape == (cap,) else None
            )
        self._members = slots
        self._slot_of = slot_of
        self._in_sum = in_sum
        self._member_cache = [None] * len(slots)
        self._deferred = deferred
        self.stats = RepairStats.from_array(state["repair_stats"])
        self.slot_trajectory = [
            int(v) for v in state["repair_trajectory"]
        ]
        self._compiled = None

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(
        self, arrived: Sequence[int], departed: Sequence[int]
    ) -> None:
        """Repair after one churn batch already applied to the context.

        ``arrived``/``departed`` are the context slot lists a
        :class:`~repro.dynamics.ChurnDriver` step returns.  A step can
        batch *several* events, so the lists describe an interleaved
        history, not a net change: a slot may be freed and reused (it
        appears in both lists — the old link leaves the schedule and the
        new link is placed fresh), and a link that arrived and departed
        within the same batch was never scheduled at all.  ``apply``
        reconciles the net effect against the context's activity mask:
        scheduled slots that departed are dropped first, then previously
        deferred links are retried, then every still-active unscheduled
        slot is placed.  Every ``rebuild_every``-th call re-anchors with
        a full from-scratch schedule instead.
        """
        if not arrived and not departed:
            return
        self.stats.events += 1
        gone = [
            s
            for s in dict.fromkeys(int(x) for x in departed)
            if s in self._slot_of
        ]
        if (
            self.rebuild_every is not None
            and self.stats.events % self.rebuild_every == 0
        ):
            self.stats.departures += len(gone)
            self.stats.rebuilds += 1
            self._install(self._from_scratch())
            self._post_event()
            return
        self.on_departures(gone)
        active = self.dyn.active_mask
        retry = [
            s
            for s in self._deferred
            if active[s] and s not in self._slot_of
        ]
        self._deferred = []
        seen = set(retry)
        fresh = [
            s
            for s in dict.fromkeys(int(x) for x in arrived)
            if active[s]
            and s not in self._slot_of
            and s not in seen
            and (self._universe is None or s in self._universe)
        ]
        # Retries re-enter the queue on failure without re-counting the
        # deferral episode (see ``stats.deferred``); the marker set only
        # lives for this batch, so a link deferred, later placed, and
        # deferred again in a *new* episode counts again.
        self._requeued = frozenset(retry)
        try:
            self.on_arrivals(retry + fresh)
        finally:
            self._requeued = frozenset()
        self._post_event()

    def on_departures(self, departed: Sequence[int]) -> None:
        """Drop departed links: O(degree) bookkeeping per link.

        When the context recorded the departed row's pattern (sparse
        backend; see :attr:`DynamicContext.last_removed_rows`), the
        slot's ledger is *repaired in place*: only the entries the
        departed row touched are recomputed — exactly, in ascending
        member order, from the already-zeroed matrix — so the slot never
        goes stale and the next probe pays O(degree) instead of an
        O(nnz) whole-slot recompute.  Without the pattern (dense
        backend, or departures applied outside a context removal) the
        slot is marked stale and the next probe recomputes it in full,
        as before.
        """
        removed = getattr(self.dyn, "last_removed_rows", None) or {}
        for s in departed:
            s = int(s)
            t = self._slot_of.pop(s, None)
            if t is None:
                raise LinkError(
                    f"context slot {s} is not in the maintained schedule"
                )
            self._members[t].discard(s)
            self._member_drop(t, s)
            pattern = removed.get(s)
            if pattern is None or not self._eager_repair_ok(t):
                self._in_sum[t] = None  # stale; recompute on next probe
            else:
                self._repair_ledger(t, pattern)
        if departed:
            self.stats.departures += len(departed)
            self._compiled = None

    def on_arrivals(self, arrived: Sequence[int]) -> None:
        """Place each arrival (first fit, then cascade, then a new slot).

        The ``max_evictions`` budget is reset here, so it spans exactly
        one placement batch — the per-event semantics under
        :meth:`apply` (which calls this once per event), and a fresh
        budget per call when driven directly.
        """
        self._event_evictions = 0
        for s in arrived:
            s = int(s)
            if s in self._slot_of:
                raise LinkError(
                    f"context slot {s} is already scheduled; apply "
                    "departures before arrivals"
                )
            if self._place(s, self.cascade):
                self.stats.placements += 1
        if arrived:
            self._compiled = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _post_event(self) -> None:
        """Per-event epilogue hook (subclasses add compaction here)."""
        self.slot_trajectory.append(self.slot_count)

    def _ledger(self, t: int) -> np.ndarray:
        """Slot ``t``'s in-affectance sums, recomputed when stale.

        Ledger entries are exact at member positions (additions maintain
        them; a departure marks the slot stale and the recompute below
        reads the already-zeroed matrix).  Entries at non-member
        positions may be stale — probes never read them: a candidate's
        own in-affectance is always gathered fresh from the matrix.
        """
        v = self._in_sum[t]
        cap = self.dyn.capacity
        if v is None or v.shape[0] != cap:
            members = self._member_array(t)
            a = self.dyn.raw_affectance
            v = rows_sum(a, members) if members.size else np.zeros(cap)
            self._in_sum[t] = v
        return v

    def _member_array(self, t: int) -> np.ndarray:
        """Slot ``t``'s sorted member array, cached between mutations."""
        mem = self._member_cache[t]
        if mem is None:
            mem = np.sort(np.fromiter(self._members[t], dtype=int))
            self._member_cache[t] = mem
        return mem

    def _member_add(self, t: int, s: int) -> None:
        """Keep slot ``t``'s sorted cache current as ``s`` joins.

        A sorted insert of a value known absent reproduces the rebuilt
        cache exactly, at O(size) instead of O(size log size).
        """
        mem = self._member_cache[t]
        if mem is not None:
            pos = int(np.searchsorted(mem, s))
            self._member_cache[t] = np.insert(mem, pos, s)

    def _member_drop(self, t: int, s: int) -> None:
        """Counterpart of :meth:`_member_add` for a departing ``s``."""
        mem = self._member_cache[t]
        if mem is not None:
            pos = int(np.searchsorted(mem, s))
            self._member_cache[t] = np.delete(mem, pos)

    def _eager_repair_ok(self, t: int) -> bool:
        """May slot ``t``'s ledger be repaired in place (vs marked stale)?

        In-place repair reproduces the *scatter* accumulation order, so
        it is only taken in the beyond-dense-block regime where that is
        the recompute's own order; within the block budget the recompute
        uses the dense-twin pairwise reduction and staleness keeps the
        historical floats bit for bit.  A ledger already stale (or held
        at an outgrown capacity) stays on the recompute path.
        """
        led = self._in_sum[t]
        cap = self.dyn.capacity
        return (
            led is not None
            and led.shape[0] == cap
            and len(self._members[t]) * cap > _DENSE_BLOCK_LIMIT
        )

    def _repair_ledger(self, t: int, positions: np.ndarray) -> None:
        """Re-exact slot ``t``'s ledger at ``positions`` only.

        Each position is summed from scratch over the slot's current
        members in ascending order — the exact accumulation order of the
        whole-slot recompute in :meth:`_ledger` — reading the maintained
        column adjacency.  Entries outside ``positions`` keep their
        maintained values: the departed row contributed nothing there,
        so they carry the same additive history they would hold had the
        departure never overlapped them.
        """
        led = self._in_sum[t]
        if positions.size == 0:
            return
        members = self._member_array(t)
        if members.size == 0:
            led[positions] = 0.0
            return
        a = self.dyn.raw_affectance
        parts_i: list[np.ndarray] = []
        parts_v: list[np.ndarray] = []
        lens = []
        for p in positions.tolist():
            ci, cv = a.col(p)
            parts_i.append(ci)
            parts_v.append(cv)
            lens.append(ci.size)
        cat_i = np.concatenate(parts_i)
        led[positions] = 0.0
        if cat_i.size:
            cat_v = np.concatenate(parts_v)
            ranks = np.repeat(
                np.arange(len(lens), dtype=np.int64), lens
            )
            pos = np.searchsorted(members, cat_i)
            hit = (
                members[np.minimum(pos, members.size - 1)] == cat_i
            )
            # Column indices ascend, so each position's surviving
            # values sit in ascending member order; bincount's C loop
            # accumulates weights sequentially in input order, so the
            # per-position sums match the recompute's scatter order
            # float for float.
            led[positions] = np.bincount(
                ranks[hit],
                weights=cat_v[hit],
                minlength=len(lens),
            )

    def _admits(self, v: int, members: np.ndarray) -> bool:
        """Extra admission rule hook beyond exact feasibility.

        The base scheduler maintains first-fit slots, so feasibility is
        the whole rule; :class:`CapacityRepairScheduler` overrides this
        with the Algorithm-1 admission threshold.
        """
        return True

    def _try_place(self, v: int, t: int) -> bool:
        """Admit ``v`` into slot ``t`` when the slot stays feasible.

        Two vectorized comparisons against the slot's ledger sums — the
        exact rule of :meth:`SchedulingContext.first_fit`: the slot's
        in-affectance on ``v`` stays at most 1, and every member's load
        with ``v``'s row added stays at most 1 — plus the subclass
        admission hook.
        """
        a = self.dyn.raw_affectance
        members = self._member_array(t)
        iv = float(gather_col(a, members, v).sum())
        if iv > 1.0:
            return False
        ledger = self._ledger(t)
        if members.size and np.any(
            ledger[members] + gather_row(a, v, members) > 1.0
        ):
            return False
        if not self._admits(v, members):
            return False
        ledger[v] = iv  # fresh value; the row add below leaves it intact
        add_row_to(ledger, a, v)
        self._members[t].add(v)
        self._member_add(t, v)
        self._slot_of[v] = t
        return True

    def _place(self, v: int, budget: int) -> bool:
        """Place ``v``; returns False when deferred by ``max_slots``."""
        # Reusing an *emptied* slot entry raises the non-empty count
        # exactly like opening a fresh slot, so at the bound empty
        # entries are no longer probes — otherwise a conflicting
        # arrival would slip past ``max_slots`` through the first slot
        # that happened to drain.
        at_cap = (
            self.max_slots is not None
            and self.slot_count >= self.max_slots
        )
        for t in range(len(self._members)):
            if at_cap and not self._members[t]:
                continue
            if self._try_place(v, t):
                return True
        if budget > 0 and (
            self.max_evictions is None
            or self._event_evictions < self.max_evictions
        ):
            hit = self._find_eviction(v)
            if hit is not None:
                t, u = hit
                self._evict(u, t)
                self.stats.evictions += 1
                self._event_evictions += 1
                if not self._try_place(v, t):  # pragma: no cover
                    raise LinkError(
                        f"eviction of {u} did not make slot {t} feasible "
                        f"for {v} (internal invariant violated)"
                    )
                self._place(u, budget - 1)
                return True
        if self.max_slots is not None and self.slot_count >= self.max_slots:
            # Over-allocating past the bound would silently degrade the
            # schedule; queue the link for the next event instead (a
            # departure may make room, a rebuild schedules everything).
            self._deferred.append(v)
            if v not in self._requeued:
                self.stats.deferred += 1
            return False
        self._members.append({v})
        self._in_sum.append(dense_row(self.dyn.raw_affectance, v))
        self._member_cache.append(None)
        self._slot_of[v] = len(self._members) - 1
        self.stats.opened += 1
        return True

    def _eviction_mask(
        self, v: int, members: np.ndarray, col: np.ndarray, iv: float
    ) -> np.ndarray:
        """Per-member mask: may ``v`` join if this member leaves?

        ``col`` is ``a[members, v]`` and ``iv`` its sum; the base rule
        is the candidate side of exact feasibility without the leaver.
        An infinite blocker (raw affectance is ``inf`` when a member's
        sender sits on ``v``'s receiver) makes the subtraction NaN; the
        comparison is then False — a conservative refusal to evict,
        since removing one of several infinite blockers cannot help and
        the subtraction shortcut cannot tell that case from the last
        one.
        """
        with np.errstate(invalid="ignore"):
            return iv - col <= 1.0

    def _eviction_key(self, u: int, t: int) -> tuple:
        """Total order on eviction candidates; smallest wins.

        Priority (queue mass) first when wired, then link length, then
        context slot and schedule slot as deterministic tie-breaks.
        Without priorities every first component ties at 0.0, which
        degenerates to the historical shortest-link rule.
        """
        prio = (
            float(self._priorities[u])
            if self._priorities is not None
            else 0.0
        )
        return (prio, float(self.dyn.lengths[u]), u, t)

    def _find_eviction(self, v: int) -> tuple[int, int] | None:
        """The cheapest single eviction that lets some slot admit ``v``.

        For each slot, a member ``u`` is a candidate when the slot minus
        ``u`` plus ``v`` passes the exact feasibility rule (and any
        subclass admission rule).  Only *hot* members — those whose load
        with ``v`` added exceeds 1 — can veto anyone (``base[w] <= 1``
        stays ``<= 1`` after subtracting a nonnegative affectance), so
        the check materializes just the (members x hot) comparison per
        slot; the booleans match the full (members x members) sweep
        exactly.  Cheapest: smallest :meth:`_eviction_key`.
        """
        a = self.dyn.raw_affectance
        best: tuple | None = None  # (key, t, u)
        for t, member_set in enumerate(self._members):
            if not member_set:
                continue
            members = self._member_array(t)
            col = gather_col(a, members, v)
            iv = col.sum()
            ledger = self._ledger(t)
            base = ledger[members] + gather_row(a, v, members)
            hot = np.flatnonzero(base > 1.0)
            feasible = self._eviction_mask(v, members, col, float(iv))
            if hot.size:
                block = member_block(a, members, members[hot])
                with np.errstate(invalid="ignore"):
                    # inf - inf -> NaN -> False: conservative refusal,
                    # same contract as the base _eviction_mask.
                    ok = base[hot][None, :] - block <= 1.0  # [u, w-hot]
                ok[hot, np.arange(hot.size)] = True  # u itself is leaving
                feasible &= ok.all(axis=1)
            for i in np.flatnonzero(feasible):
                u = int(members[i])
                key = self._eviction_key(u, t)
                if best is None or key < best[0]:
                    best = (key, t, u)
        return None if best is None else (best[1], best[2])

    def _evict(self, u: int, t: int) -> None:
        """Remove ``u`` from slot ``t`` (schedule-level only: ``u`` stays
        active in the context).  The slot's ledger is repaired in place
        at the positions ``u``'s live row touches — same exact
        ascending-member recompute as a departure — never a subtractive
        update, so the sums stay drift-free."""
        self._members[t].discard(u)
        del self._slot_of[u]
        self._member_drop(t, u)
        a = self.dyn.raw_affectance
        if isinstance(a, np.ndarray) or not self._eager_repair_ok(t):
            self._in_sum[t] = None  # dense/stale: full recompute on probe
        else:
            self._repair_ledger(t, a.row(u)[0])

    def _from_scratch(self) -> list[list[int]]:
        """The anchor schedule over the current active set.

        The base scheduler anchors with first-fit;
        :class:`CapacityRepairScheduler` overrides with capacity
        peeling.  Both run entirely off the maintained padded matrices —
        no affectance rebuild ever happens.
        """
        return self._first_fit()

    def _first_fit(self) -> list[list[int]]:
        """From-scratch first-fit over the active links, shortest first.

        Runs entirely off the maintained padded matrices (no affectance
        build) through the same loop and order (length, then slot index)
        as :meth:`SchedulingContext.first_fit`, so on a quiescent context
        the result matches the static scheduler slot for slot.  When a
        universe restriction is installed (per-shard repair, the
        ``universe=`` argument) only universe links are scheduled.
        """
        dyn = self.dyn
        act = self._universe_filter(dyn.active_slots)
        order = act[np.lexsort((act, dyn.lengths[act]))]
        return [s.tolist() for s in _first_fit_slots(dyn.raw_affectance, order)]

    def _install(self, slots: list[list[int]]) -> None:
        self._members = [set(s) for s in slots]
        self._in_sum = [None] * len(slots)
        self._member_cache = [None] * len(slots)
        self._slot_of = {
            v: t for t, slot in enumerate(slots) for v in slot
        }
        self._deferred = []
        self._compiled = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(m={self.dyn.m}, "
            f"slots={self.slot_count}, cascade={self.cascade}, "
            f"rebuild_every={self.rebuild_every})"
        )


class CapacityRepairScheduler(OnlineRepairScheduler):
    """Maintain a capacity-guaranteed peeled-slot schedule under churn.

    The online counterpart of
    :meth:`~repro.algorithms.context.SchedulingContext.repeated_capacity`:
    anchors (construction and every ``rebuild_every``-th event) peel the
    active set with the chosen ``admission`` kernel — including the
    ``"adaptive"`` degenerate-round fallback — via a cache-injected
    :meth:`DynamicContext.freeze` (a matrix *copy*, never a rebuild),
    and local repair preserves the per-slot capacity invariant: a link
    joins a slot only when the slot stays ``feasible_within``-exact
    *and* the link's combined clipped in+out affectance against the slot
    clears the Algorithm-1 admission threshold (1/2) — exactly the
    quantity :meth:`SchedulingContext._greedy_admission` would check for
    a late arrival against the fully built round.

    ``compaction_every=k`` runs an opportunistic :meth:`compact` pass
    every ``k``-th event: underfull slots (smallest first) are merged
    into other slots whenever *every* member of the merged set keeps its
    combined clipped in+out sums at or below the admission threshold —
    a condition strictly stronger than the anchor's own, so compaction
    can never break feasibility and can only reduce the slot count.

    Separation-based structure (the bounded-growth kernel's
    ``(zeta/2)``-separation) is enforced at anchors; local placements
    use the affectance-threshold rule alone — the same relaxation the
    ``"adaptive"`` kernel falls back to on degenerate rounds, and the
    reason churned slots stay within a small factor of a from-scratch
    peel (benchmarked at m=2000 in ``benchmarks/bench_distributed.py``).
    """

    #: Algorithm 1's admission threshold: combined in+out clipped
    #: affectance a link may carry against the slot it joins.
    ADMISSION_THRESHOLD = 0.5

    _STATE_KIND = "capacity"

    def __init__(
        self,
        dyn: DynamicContext,
        *,
        admission: str = "adaptive",
        cascade: int = 1,
        rebuild_every: int | None = None,
        compaction_every: int | None = None,
        compaction_probes: int | None = None,
        max_slots: int | None = None,
        max_evictions: int | None = None,
        universe: Sequence[int] | None = None,
        anchor: bool = True,
    ) -> None:
        if admission not in ("bounded_growth", "general", "adaptive"):
            raise LinkError(
                f"unknown admission kernel {admission!r}; "
                "expected 'bounded_growth', 'general' or 'adaptive'"
            )
        if compaction_every is not None and compaction_every < 1:
            raise LinkError(
                f"compaction_every must be >= 1 or None, got "
                f"{compaction_every}"
            )
        if compaction_probes is not None and compaction_probes < 1:
            raise LinkError(
                f"compaction_probes must be >= 1 or None, got "
                f"{compaction_probes}"
            )
        self.admission = admission
        self.compaction_every = compaction_every
        self.compaction_probes = compaction_probes
        if admission != "general" and dyn.m and not dyn.is_sparse:
            # Materialize the padded distance matrix once: the context
            # then maintains it incrementally per event, and freeze()
            # injects it, so anchors never recompute distances either.
            # (The sparse backend has no padded distance matrix; its
            # anchors build sparse link distances inside freeze().)
            dyn.link_distances
        super().__init__(
            dyn,
            cascade=cascade,
            rebuild_every=rebuild_every,
            max_slots=max_slots,
            max_evictions=max_evictions,
            universe=universe,
            anchor=anchor,
        )

    # ------------------------------------------------------------------
    # Capacity hooks
    # ------------------------------------------------------------------
    def _from_scratch(self) -> list[list[int]]:
        """Capacity peeling over the active set, via a frozen context.

        ``freeze`` injects the maintained padded matrices into the
        static context (byte-identical, zero recomputation), so the
        schedule equals a fresh
        ``SchedulingContext(active_links).repeated_capacity`` slot for
        slot — the test suite pins this at every rebuild anchor.
        """
        dyn = self.dyn
        act = dyn.active_slots
        if act.size == 0:
            return []
        ctx = dyn.freeze()
        if self._universe is None:
            slots = ctx.repeated_capacity(admission=self.admission)
        else:
            # The frozen context indexes the active links in ``act``
            # order; restrict the peel to the universe's positions.
            own = np.flatnonzero(
                np.fromiter(
                    (int(s) in self._universe for s in act),
                    dtype=bool,
                    count=act.size,
                )
            )
            if not own.size:
                return []
            slots = ctx.repeated_capacity(
                admission=self.admission, active=own
            )
        return [[int(act[i]) for i in slot] for slot in slots]

    def _admits(self, v: int, members: np.ndarray) -> bool:
        """The Algorithm-1 admission threshold for a late arrival."""
        if not members.size:
            return True
        combined = combined_affectance_within(
            self.dyn.affectance, members, v
        )
        return combined <= self.ADMISSION_THRESHOLD

    def _eviction_mask(
        self, v: int, members: np.ndarray, col: np.ndarray, iv: float
    ) -> np.ndarray:
        """Feasibility *and* threshold for ``v`` if the member leaves."""
        mask = super()._eviction_mask(v, members, col, iv)
        if not members.size:
            return mask
        ac = self.dyn.affectance
        col_c = gather_col(ac, members, v)
        row_c = gather_row(ac, v, members)
        combined_without = (
            (col_c.sum() - col_c) + (row_c.sum() - row_c)
        )
        return mask & (combined_without <= self.ADMISSION_THRESHOLD)

    def _post_event(self) -> None:
        if (
            self.compaction_every is not None
            and self.stats.events % self.compaction_every == 0
        ):
            self.compact()
        super()._post_event()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """One opportunistic merge pass; returns slots merged away.

        Non-empty slots are visited smallest-first; each is merged into
        the first other slot (again smallest-first — small slots are the
        cheapest probes and the likeliest fits) for which **every**
        member of the merged set keeps combined clipped in+out
        affectance at most :attr:`ADMISSION_THRESHOLD`.  The rule
        implies every merged member's in-affectance is at most 1/2, so
        feasibility is preserved outright, and merging only ever empties
        slots — the slot count is non-increasing, pinned by the tests.

        ``compaction_probes`` bounds the *failed* merge probes per pass
        (default: four per non-empty slot), keeping a pass cheap on
        degenerate schedules with hundreds of singleton slots; the pass
        is opportunistic, not exhaustive.
        """
        sizes = [
            (len(s), t) for t, s in enumerate(self._members) if s
        ]
        if len(sizes) < 2:
            return 0
        sizes.sort()
        order = [t for _, t in sizes]
        budget = (
            self.compaction_probes
            if self.compaction_probes is not None
            else 4 * len(order)
        )
        merged = 0
        a = self.dyn.affectance
        for src in order:
            if not self._members[src]:
                continue  # already merged away this pass
            src_members = self._member_array(src)
            for dst in order:
                if dst == src or not self._members[dst]:
                    continue
                if budget <= 0:
                    break
                dst_members = self._member_array(dst)
                union = np.concatenate([src_members, dst_members])
                combined = slot_admission_sums(a, union)
                if bool(np.all(combined <= self.ADMISSION_THRESHOLD)):
                    self._members[dst] |= self._members[src]
                    self._members[src] = set()
                    for u in src_members:
                        self._slot_of[int(u)] = dst
                    self._in_sum[src] = None
                    self._in_sum[dst] = None
                    self._member_cache[src] = None
                    self._member_cache[dst] = None
                    self._compiled = None
                    merged += 1
                    self.stats.merged += 1
                    break
                budget -= 1
            if budget <= 0:
                break
        if merged:
            self.stats.compactions += 1
        return merged
