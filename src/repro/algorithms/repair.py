"""Online schedule repair under churn: keep a feasible slot assignment alive.

:class:`OnlineRepairScheduler` maintains a partition of the active
links of a :class:`~repro.algorithms.context.DynamicContext` into
affectance-feasible slots (the exact feasibility rule of
:meth:`~repro.algorithms.context.SchedulingContext.first_fit`) and
repairs it *locally* per event instead of rescheduling from scratch
(an O(m * slots) rebuild).  Membership is one capacity-sized
``label`` array (the schedule slot of each scheduled context slot, -1
otherwise) plus per-slot sizes, so on the sparse backend every
per-event path reads only a link's stored row/column support:

* **departures** drop the whole batch from the labels first, then bring
  each touched slot's ledger (its running in-affectance sums) back to
  exact: in place at the departed row's support when the context
  recorded it (sparse backend), otherwise by marking the ledger stale
  for a full recompute on the next probe.  Both re-sum the members in
  ascending order with one member-order scatter — numpy's axis-0
  reduction of the dense member rows, bit for bit — so a position
  repaired in place holds the float a recompute would give it, at
  every slot size.  Removing a link can never break feasibility.
* **arrivals** are greedily placed into the first existing slot that
  stays feasible with them added.  A probe sums the arrival's
  in-affectance over the slot members in its column support and checks
  the load of the members in its row support with the arrival's row
  added — O(degree); a dense probe gathers over every member.  A new
  slot is opened only when every existing slot rejects the link.
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
maintained raw affectance — no affectance rebuild ever happens).
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
    slot_admission_sums,
)
from repro.core.affectance import as_view, in_affectances_within
from repro.core.affectance_sparse import _scatter
from repro.errors import LinkError

__all__ = [
    "CapacityRepairScheduler",
    "OnlineRepairScheduler",
    "RepairStats",
]


def _checked_count(
    name: str,
    value: object,
    least: int,
    *,
    optional: bool = False,
    error: type[Exception] = LinkError,
) -> None:
    """Refuse a count setting that is not an integer >= ``least``.

    Bools and non-integral numbers (``2.5``, NaN) are refused rather
    than truncated: a truncated value would run a different schedule
    than the one asked for.  ``optional`` admits ``None`` (no limit).
    """
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = f">= {least} or None" if optional else f">= {least}"
        raise error(f"{name} must be {bound}, got {value}")


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
        anchor: bool = True,
    ) -> None:
        _checked_count("cascade", cascade, 0)
        _checked_count("rebuild_every", rebuild_every, 1, optional=True)
        _checked_count("max_slots", max_slots, 1, optional=True)
        _checked_count("max_evictions", max_evictions, 0, optional=True)
        self.dyn = dyn
        self.cascade = int(cascade)
        self.rebuild_every = rebuild_every
        self.max_slots = max_slots
        self.max_evictions = max_evictions
        self.stats = RepairStats()
        #: Slot-count after construction and after every applied event —
        #: the measured trajectory benchmarks plot against rebuilds.
        self.slot_trajectory: list[int] = []
        self._priorities: np.ndarray | None = None
        self._event_evictions = 0
        #: Links being retried from the deferred queue in the current
        #: placement batch: a retry that fails again re-enters the queue
        #: it never really left, so it must not re-count the deferral
        #: episode in ``stats.deferred``.
        self._requeued: frozenset[int] = frozenset()
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
        return sum(1 for n in self._sizes if n)

    @property
    def schedule(self) -> Schedule:
        """The maintained schedule (non-empty slots, members sorted)."""
        return Schedule(
            tuple(tuple(mem.tolist()) for mem in self.active_schedule)
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
                self._member_array(t)
                for t, n in enumerate(self._sizes)
                if n
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
        s = int(s)
        t = int(self._label[s]) if 0 <= s < self._label.size else -1
        return None if t < 0 else t

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
        ``stats.events % k``) and the slot trajectory.
        """
        label = self._labels()
        placed = np.flatnonzero(label >= 0)
        # Slot by slot, each slot's members ascending.
        flat = placed[np.argsort(label[placed], kind="stable")]
        offsets = np.zeros(len(self._sizes) + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=offsets[1:])
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
        # Archives before format 4 carry a link-subset flag; only the
        # removed per-cell partitioned repairers ever set it.
        if bool(np.asarray(state.get("repair_has_universe", [False]))[0]):
            raise LinkError(
                "checkpoint holds a link-subset repairer state; per-cell "
                "partitioned repair has been removed"
            )
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
        sizes = np.diff(offsets)
        if (
            np.unique(flat).size != flat.size
            or flat.size != int(offsets[-1])
            or np.any(sizes < 0)
        ):
            raise LinkError(
                "checkpointed schedule assigns some link to two slots"
            )
        stale = np.asarray(state["repair_ledger_stale"], dtype=bool)
        ledgers = np.asarray(state["repair_ledgers"], dtype=float)
        if stale.shape != (sizes.size,):
            raise LinkError(
                "checkpointed ledger mask does not cover the schedule"
            )
        self._install(
            [flat[offsets[t] : offsets[t + 1]] for t in range(sizes.size)]
        )
        fresh = iter(ledgers)
        saved = [None if is_stale else next(fresh, None) for is_stale in stale]
        # A ledger saved at a different capacity is merely stale: the
        # next probe recomputes it exactly from the matrices.
        cap = self.dyn.capacity
        self._in_sum = [
            v.copy() if v is not None and v.shape == (cap,) else None
            for v in saved
        ]
        self._deferred = deferred
        self.stats = RepairStats.from_array(state["repair_stats"])
        self.slot_trajectory = [
            int(v) for v in state["repair_trajectory"]
        ]

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
        label = self._labels()
        gone = [
            s
            for s in dict.fromkeys(int(x) for x in departed)
            if label[s] >= 0
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
            s for s in self._deferred if active[s] and label[s] < 0
        ]
        self._deferred = []
        seen = set(retry)
        fresh = [
            s
            for s in dict.fromkeys(int(x) for x in arrived)
            if active[s] and label[s] < 0 and s not in seen
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

        The whole batch leaves the labels before any ledger is touched:
        a departed link's context slot may already hold a new arrival
        (the driver removes the batch, then adds), and a ledger repaired
        while that slot still counted as a member would sum the new
        link's row into it.

        When the context recorded the departed rows' patterns (sparse
        backend; :attr:`DynamicContext.last_removed_rows`), each touched
        ledger is then *repaired in place* at those entries — exactly,
        in ascending member order, from the already-zeroed matrix: there
        the floats of a whole-slot recompute, at O(degree).  Otherwise
        (dense backend, or departures applied outside a context removal)
        the slot is marked stale and recomputed in full on the next
        probe.
        """
        dropped = []
        for s in map(int, departed):
            t = self.slot_of(s)
            if t is None:
                raise LinkError(
                    f"context slot {s} is not in the maintained schedule"
                )
            self._drop(s, t)
            dropped.append((s, t))
        removed = getattr(self.dyn, "last_removed_rows", None) or {}
        touched: dict[int, list[np.ndarray]] = {}
        for s, t in dropped:
            pattern = removed.get(s)
            if pattern is None:
                self._in_sum[t] = None  # stale; recompute on next probe
            else:
                touched.setdefault(t, []).append(pattern)
        # One repair per slot over the union of its departed patterns:
        # each position is recomputed from scratch, so the floats do not
        # depend on the grouping.
        for t, patterns in touched.items():
            self._repair_ledger(t, np.unique(np.concatenate(patterns)))
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
        label = self._labels()
        for s in arrived:
            s = int(s)
            if label[s] >= 0:
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

    @property
    def _view(self):
        """The context's raw affectance under the view protocol (fetched
        per use: capacity growth replaces a dense matrix)."""
        return as_view(self.dyn.raw_affectance)

    def _ledger(self, t: int) -> np.ndarray:
        """Slot ``t``'s in-affectance sums, recomputed when stale.

        Ledger entries are exact at member positions (additions maintain
        them; a departure repairs them in place or marks the slot stale,
        and the recompute below reads the already-zeroed matrix).
        Entries at non-member positions may be stale — probes never read
        them: a candidate's own in-affectance is always summed fresh
        from the matrix.
        """
        v = self._in_sum[t]
        cap = self.dyn.capacity
        if v is None or v.shape[0] != cap:
            v = self._view.rows_sum(self._member_array(t))
            self._in_sum[t] = v
        return v

    def _labels(self) -> np.ndarray:
        """The label array, grown to the context's current capacity."""
        grow = self.dyn.capacity - self._label.size
        if grow > 0:
            self._label = np.pad(self._label, (0, grow), constant_values=-1)
        return self._label

    def _member_array(self, t: int) -> np.ndarray:
        """Slot ``t``'s ascending member array, cached between changes."""
        mem = self._member_cache[t]
        if mem is None:
            mem = np.flatnonzero(self._labels() == t)
            self._member_cache[t] = mem
        return mem

    def _join(self, s: int, t: int) -> None:
        """Label context slot ``s`` as a member of schedule slot ``t``."""
        self._label[s] = t
        self._sizes[t] += 1
        self._member_cache[t] = None

    def _drop(self, s: int, t: int) -> None:
        """Counterpart of :meth:`_join` for ``s`` leaving slot ``t``."""
        self._label[s] = -1
        self._sizes[t] -= 1
        self._member_cache[t] = None

    def _slot_terms(
        self, a, v: int, t: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``v``'s affectance terms within slot ``t`` of matrix ``a``.

        Returns ``(rows, a[rows, v], cols, a[v, cols])``.  On a sparse
        view ``rows``/``cols`` are the members inside ``v``'s stored
        column/row support, picked through the label array — O(degree);
        every other member's term is an unstored zero.  A dense row's
        support is the whole row, so both are every member, ascending,
        gathered from the member array.
        """
        if a.dense:
            mem = self._member_array(t)
            return mem, a.gather_col(mem, v), mem, a.gather_row(v, mem)
        label = self._labels()
        ci, cv = a.col(v)
        ri, rv = a.row(v)
        hc = label[ci] == t
        hr = label[ri] == t
        return ci[hc], cv[hc], ri[hr], rv[hr]

    def _repair_ledger(self, t: int, positions: np.ndarray) -> None:
        """Re-exact slot ``t``'s ledger at ``positions`` only.

        Each position is summed from scratch over the slot's current
        members in ascending order — the exact accumulation order of the
        whole-slot recompute in :meth:`_ledger` — reading the maintained
        column adjacency and keeping the entries whose row is labelled
        ``t``.  Entries outside ``positions`` keep their maintained
        values: the departed row contributed nothing there, so they carry
        the same additive history they would hold had the departure
        never overlapped them.  A stale ledger, or one held at an
        outgrown capacity, is left for the next probe's recompute.
        """
        led = self._in_sum[t]
        if led is None or led.shape[0] != self.dyn.capacity:
            return
        cat_i, cat_v, lens = self._view.gather(positions, cols=True)
        ranks = np.repeat(np.arange(lens.size), lens)
        hit = self._labels()[cat_i] == t
        # Column indices ascend, so each position's surviving values sit
        # in ascending member order, the order the recompute scatters in.
        led[positions] = _scatter(ranks[hit], cat_v[hit], lens.size)

    def _admits(self, v: int, t: int) -> bool:
        """Extra admission rule hook beyond exact feasibility.

        The base scheduler maintains first-fit slots, so feasibility is
        the whole rule; :class:`CapacityRepairScheduler` overrides this
        with the Algorithm-1 admission threshold.
        """
        return True

    def _try_place(self, v: int, t: int) -> bool:
        """Admit ``v`` into slot ``t`` when the slot stays feasible.

        The exact rule of :meth:`SchedulingContext.first_fit`: the
        slot's in-affectance on ``v`` stays at most 1, and every
        member's load with ``v``'s row added stays at most 1 — plus the
        subclass admission hook.  Both sums read only the members inside
        ``v``'s column/row support (:meth:`_slot_terms`): a member
        outside the row support gains an exact ``+0.0`` and already
        carries load at most 1, so skipping it changes no comparison.
        """
        a = self._view
        _, col, cols, row = self._slot_terms(a, v, t)
        iv = float(col.sum())
        if iv > 1.0:
            return False
        ledger = self._ledger(t)
        if cols.size and np.any(ledger[cols] + row > 1.0):
            return False
        if not self._admits(v, t):
            return False
        ledger[v] = iv  # fresh value; the row add below leaves it intact
        a.add_row_to(ledger, v)
        self._join(v, t)
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
        for t in range(len(self._sizes)):
            if at_cap and not self._sizes[t]:
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
        self._sizes.append(0)
        self._in_sum.append(self._view.dense_row(v))
        self._member_cache.append(None)
        self._join(v, len(self._sizes) - 1)
        self.stats.opened += 1
        return True

    def _eviction_mask(
        self, v: int, t: int, cand: np.ndarray, col: np.ndarray, iv: float
    ) -> np.ndarray:
        """Per-candidate mask: may ``v`` join slot ``t`` if it leaves?

        ``col`` is ``a[cand, v]`` and ``iv`` the slot's whole sum; the
        base rule is the candidate side of exact feasibility without the
        leaver.  An infinite blocker (raw affectance is ``inf`` when a
        member's sender sits on ``v``'s receiver) makes the subtraction
        NaN; the comparison is then False — a conservative refusal to
        evict, since removing one of several infinite blockers cannot
        help and the subtraction shortcut cannot tell that case from the
        last one.
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
        prio = 0.0 if self._priorities is None else float(self._priorities[u])
        return (prio, float(self.dyn.lengths[u]), u, t)

    def _find_eviction(self, v: int) -> tuple[int, int] | None:
        """The cheapest single eviction that lets some slot admit ``v``.

        For each slot, a member ``u`` is a candidate when the slot minus
        ``u`` plus ``v`` passes the exact feasibility rule (and any
        subclass admission rule).  Only *hot* members — those whose load
        with ``v`` added exceeds 1 — can veto anyone (``base[w] <= 1``
        stays ``<= 1`` after subtracting a nonnegative affectance), so
        the check materializes just the (candidates x hot) comparison
        per slot.  Cheapest: smallest :meth:`_eviction_key`.

        Every slot already rejected ``v`` (:meth:`_place` probes first),
        so some term must drop for ``u`` to pass: ``v``'s in-affectance
        needs ``a[u, v] > 0``, a hot member ``w`` needs ``a[u, w] > 0``,
        and the capacity threshold needs ``a[u, v]`` or ``a[v, u]``.  On
        a sparse view the mask is therefore evaluated only on members in
        the stored support of ``v`` or of a hot member — O(degree) — and
        passes exactly the members the full sweep would; a dense view
        evaluates it on every member.
        """
        a = self._view
        best: tuple | None = None  # (key, t, u)
        for t, size in enumerate(self._sizes):
            if not size:
                continue
            rows, col, cols, row = self._slot_terms(a, v, t)
            iv = float(col.sum())
            ledger = self._ledger(t)
            base = ledger[cols] + row
            is_hot = base > 1.0
            hot = cols[is_hot]
            if a.dense:
                cand = cols  # every member
            else:
                label = self._labels()
                parts = [rows, cols]
                for w in hot.tolist():
                    wi = a.col(w)[0]
                    parts.append(wi[label[wi] == t])
                cand = np.unique(np.concatenate(parts))
            feasible = self._eviction_mask(
                v, t, cand, a.gather_col(cand, v), iv
            )
            if hot.size:
                block = a.block(cand, hot)
                with np.errstate(invalid="ignore"):
                    # inf - inf -> NaN -> False: conservative refusal,
                    # same contract as the base _eviction_mask.
                    ok = base[is_hot][None, :] - block <= 1.0  # [u, w-hot]
                # u itself is leaving
                ok[np.searchsorted(cand, hot), np.arange(hot.size)] = True
                feasible &= ok.all(axis=1)
            for u in cand[feasible].tolist():
                key = self._eviction_key(u, t)
                if best is None or key < best[0]:
                    best = (key, t, u)
        return None if best is None else (best[1], best[2])

    def _evict(self, u: int, t: int) -> None:
        """Remove ``u`` from slot ``t`` (schedule-level only: ``u`` stays
        active in the context).  On a sparse view the slot's ledger is
        repaired in place at the positions ``u``'s live row touches — the
        same exact ascending-member recompute as a departure — never a
        subtractive update, so the sums stay drift-free.  A dense row
        touches every position: the ledger is marked stale instead."""
        self._drop(u, t)
        a = self._view
        if a.dense:
            self._in_sum[t] = None  # full recompute on the next probe
        else:
            self._repair_ledger(t, a.row(u)[0])

    def _from_scratch(self) -> list[list[int]]:
        """The anchor: first fit over the active links, shortest first.

        Runs entirely off the maintained padded matrices (no affectance
        build) through the same loop and order (length, then slot index)
        as :meth:`SchedulingContext.first_fit`, so on a quiescent context
        the result matches the static scheduler slot for slot.
        :class:`CapacityRepairScheduler` overrides with capacity peeling.
        """
        dyn = self.dyn
        act = dyn.active_slots
        order = act[np.lexsort((act, dyn.lengths[act]))]
        return _first_fit_slots(dyn.raw_affectance, order)

    def _install(self, slots: list[list[int]]) -> None:
        """Replace the schedule with ``slots`` (ledgers start stale)."""
        sizes = [len(s) for s in slots]
        #: The schedule slot of every context slot (-1: unscheduled),
        #: grown with the context's capacity, and each slot's member
        #: count (a slot may be empty — an emptied slot is reused by the
        #: next arrival that fits it).
        self._label = np.full(self.dyn.capacity, -1, dtype=np.int64)
        if slots:
            self._label[np.concatenate(slots).astype(np.int64)] = np.repeat(
                np.arange(len(slots)), sizes
            )
        self._sizes = sizes
        #: Per schedule slot, the running in-affectance sums a_slot(v)
        #: over all context slots, or None when stale — recomputed
        #: exactly from the padded matrix on the next probe, because
        #: departed rows are already zeroed.
        self._in_sum: list[np.ndarray | None] = [None] * len(slots)
        #: Per schedule slot, the ascending member array, built from the
        #: labels on first use after a membership change (None until
        #: then) — dense probes and full recomputes gather against it.
        self._member_cache: list[np.ndarray | None] = [None] * len(slots)
        self._deferred: list[int] = []
        self._compiled: tuple[np.ndarray, ...] | None = None

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
    ``"adaptive"`` degenerate-round fallback — via
    :meth:`DynamicContext.freeze` (a copy of the raw affectance, never an
    affectance rebuild; the frozen context derives the clipped layer and
    link distances as a fresh one does), and local repair preserves the
    per-slot capacity invariant: a link
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

    The context stores only raw affectance; the threshold probes, the
    eviction mask and compaction clip the terms they gather
    (``min(1, a)`` of a gathered entry is the gathered clipped entry,
    bit for bit).
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
        anchor: bool = True,
    ) -> None:
        if admission not in ("bounded_growth", "general", "adaptive"):
            raise LinkError(
                f"unknown admission kernel {admission!r}; "
                "expected 'bounded_growth', 'general' or 'adaptive'"
            )
        _checked_count("compaction_every", compaction_every, 1, optional=True)
        _checked_count(
            "compaction_probes", compaction_probes, 1, optional=True
        )
        self.admission = admission
        self.compaction_every = compaction_every
        self.compaction_probes = compaction_probes
        if admission != "general" and dyn.m:
            # Resolve zeta once: freeze() hands it to every anchor, whose
            # separation test needs it, and checkpoints carry it.
            dyn.zeta
        super().__init__(
            dyn,
            cascade=cascade,
            rebuild_every=rebuild_every,
            max_slots=max_slots,
            max_evictions=max_evictions,
            anchor=anchor,
        )

    # ------------------------------------------------------------------
    # Capacity hooks
    # ------------------------------------------------------------------
    def _from_scratch(self) -> list[list[int]]:
        """Capacity peeling over the active set, via a frozen context.

        ``freeze`` injects the maintained raw affectance into the static
        context (byte-identical, no affectance rebuild), so the schedule
        equals a fresh
        ``SchedulingContext(active_links).repeated_capacity`` slot for
        slot — the test suite pins this at every rebuild anchor.
        """
        dyn = self.dyn
        act = dyn.active_slots
        if act.size == 0:
            return []
        slots = dyn.freeze().repeated_capacity(admission=self.admission)
        return [[int(act[i]) for i in slot] for slot in slots]

    def _admits(self, v: int, t: int) -> bool:
        """The Algorithm-1 admission threshold for a late arrival: the
        clipped ``a_M(v) + a_v(M)`` against slot ``t``'s members ``M``,
        summed over ``v``'s stored support like the feasibility terms."""
        if not self._sizes[t]:
            return True
        _, col, _, row = self._slot_terms(self._view, v, t)
        clipped = np.minimum(col, 1.0).sum() + np.minimum(row, 1.0).sum()
        return float(clipped) <= self.ADMISSION_THRESHOLD

    def _eviction_mask(
        self, v: int, t: int, cand: np.ndarray, col: np.ndarray, iv: float
    ) -> np.ndarray:
        """Feasibility *and* threshold for ``v`` if the candidate leaves."""
        mask = super()._eviction_mask(v, t, cand, col, iv)
        a = self._view
        _, col_s, _, row_s = self._slot_terms(a, v, t)
        col_c = np.minimum(a.gather_col(cand, v), 1.0)
        row_c = np.minimum(a.gather_row(v, cand), 1.0)
        combined_without = (np.minimum(col_s, 1.0).sum() - col_c) + (
            np.minimum(row_s, 1.0).sum() - row_c
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
        sizes = [(n, t) for t, n in enumerate(self._sizes) if n]
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
        a = self.dyn.raw_affectance
        for src in order:
            if not self._sizes[src]:
                continue  # already merged away this pass
            src_members = self._member_array(src)
            for dst in order:
                if dst == src or not self._sizes[dst]:
                    continue
                if budget <= 0:
                    break
                dst_members = self._member_array(dst)
                union = np.concatenate([src_members, dst_members])
                combined = slot_admission_sums(a, union)
                if bool(np.all(combined <= self.ADMISSION_THRESHOLD)):
                    self._label[src_members] = dst
                    self._sizes[dst] += self._sizes[src]
                    self._sizes[src] = 0
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
