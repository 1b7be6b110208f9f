"""The scheduler daemon: live admission queries over a repair scheduler.

The daemon is deliberately a *shell*: every scheduling decision is made
by the existing repair schedulers over the existing dynamic contexts,
so a daemon-served schedule is byte-identical to the batch replay of
the same event sequence.  What the daemon adds is the service plumbing
the batch path has no place for:

* **Serialised mutation.**  All state-changing requests (``admit``,
  ``depart``, ``submit``) flow through one :class:`asyncio.Queue`
  drained by a single worker task, so concurrent producers can never
  interleave half-applied churn.  Read queries (``place``, ``stats``,
  ``snapshot``) run inline on the event loop — the worker never yields
  mid-event, so reads always observe a consistent post-event state.
* **Per-request latency accounting.**  Every admission is timed from
  enqueue to applied; :meth:`SchedulerDaemon.stats` reports p50/p99
  over a sliding window.
* **Graceful drain and checkpoint/restore.**  :meth:`drain` waits for
  the queue to empty; a drained daemon checkpoints its *entire* state —
  context slot layout, repair schedule, deferred queue, stats, driver
  id mapping — through the :mod:`repro.io` scheduler-state format, and
  :meth:`SchedulerDaemon.restore` resumes byte-identically.

Checkpoint exactness rests on one reconstruction trick: a restored
context must reproduce the live context's *slot layout* (free-slot
probes and eviction tie-breaks read slot indices), including holes left
by departures.  The constructor only packs links densely, so the
restorer builds the context with **filler links** occupying the hole
slots and removes them immediately — the free-slot heap always hands
out the lowest free slot, so equal free *sets* allocate identically
from then on.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.algorithms.context import DynamicContext
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
    _checked_count,
)
from repro.dynamics import ChurnDriver, ChurnEvent, DynamicScenario
from repro.errors import SimulationError
from repro.io import load_scheduler_state, save_scheduler_state

__all__ = ["DaemonConfig", "SchedulerDaemon", "build_daemon"]

#: Sentinel for "no limit" integers in the serialised config vector.
_NONE = -1


@dataclass(frozen=True)
class DaemonConfig:
    """How a daemon wires its repair scheduler.

    ``batch`` > 1 turns on deterministic micro-batching: the worker
    merges exactly that many consecutive events into one context update
    + repair pass, which amortises the per-call overhead of the
    vectorised kernels (the main throughput lever at large ``m``).  Chunk boundaries depend
    only on the event stream — every ``batch``-th event, or earlier
    when a departure references an id that arrived within the open
    chunk — so a replay is reproducible and a checkpoint taken at a
    chunk boundary resumes byte-identically.  The remaining knobs
    forward to the repairer constructors unchanged; the config
    round-trips through the checkpoint archive so a restored daemon
    rebuilds the same scheduler shape without the caller re-stating
    it.
    """

    kind: str = "first_fit"
    cascade: int = 1
    rebuild_every: int | None = None
    max_slots: int | None = None
    max_evictions: int | None = None
    admission: str = "adaptive"
    compaction_every: int | None = None
    batch: int = 1

    def __post_init__(self) -> None:
        # Every count round-trips through the checkpoint's int64 vector,
        # so a non-integer would come back truncated as another config.
        for name, least, optional in (
            ("batch", 1, False),
            ("cascade", 0, False),
            ("rebuild_every", 1, True),
            ("max_slots", 1, True),
            ("max_evictions", 0, True),
            ("compaction_every", 1, True),
        ):
            _checked_count(
                name, getattr(self, name), least,
                optional=optional, error=SimulationError,
            )
        if self.kind not in ("first_fit", "capacity"):
            raise SimulationError(
                f"unknown repair kind {self.kind!r}; "
                "expected 'first_fit' or 'capacity'"
            )
        if self.kind != "capacity":
            if self.compaction_every is not None:
                raise SimulationError(
                    "compaction_every only applies to kind='capacity'"
                )
            if self.admission != "adaptive":
                raise SimulationError(
                    "admission= only applies to kind='capacity'; "
                    "first-fit admission is the a_S(v) <= 1 rule"
                )

    def as_arrays(self) -> dict[str, np.ndarray]:
        """The config as checkpoint payload arrays.

        The first integer is reserved and always 0: it held a scheduler
        fan-out that no longer exists, and keeping the slot keeps older
        archives readable with the same indices.
        """
        ints = [
            0,
            self.cascade,
            _NONE if self.rebuild_every is None else self.rebuild_every,
            _NONE if self.max_slots is None else self.max_slots,
            _NONE if self.max_evictions is None else self.max_evictions,
            _NONE if self.compaction_every is None else self.compaction_every,
            self.batch,
        ]
        return {
            "cfg_ints": np.array(ints, dtype=np.int64),
            "cfg_strs": np.array([self.kind, self.admission], dtype=np.str_),
        }

    @classmethod
    def from_arrays(cls, state: dict[str, np.ndarray]) -> "DaemonConfig":
        """Rebuild the config a checkpoint was taken under."""
        ints = [int(x) for x in state["cfg_ints"]]
        kind, admission = (str(x) for x in state["cfg_strs"])
        opt = [None if x == _NONE else x for x in ints[2:6]]
        return cls(
            kind=kind,
            cascade=ints[1],
            rebuild_every=opt[0],
            max_slots=opt[1],
            max_evictions=opt[2],
            admission=admission,
            compaction_every=opt[3],
            # Archives written before the batch knob carry six ints.
            batch=ints[6] if len(ints) > 6 else 1,
        )


def _make_repairer(dyn, config: DaemonConfig, *, anchor: bool):
    """Construct the repairer shape a config describes over ``dyn``."""
    if config.kind == "capacity":
        return CapacityRepairScheduler(
            dyn,
            admission=config.admission,
            cascade=config.cascade,
            rebuild_every=config.rebuild_every,
            compaction_every=config.compaction_every,
            max_slots=config.max_slots,
            max_evictions=config.max_evictions,
            anchor=anchor,
        )
    return OnlineRepairScheduler(
        dyn,
        cascade=config.cascade,
        rebuild_every=config.rebuild_every,
        max_slots=config.max_slots,
        max_evictions=config.max_evictions,
        anchor=anchor,
    )


def build_daemon(
    scenario: DynamicScenario,
    *,
    config: DaemonConfig | None = None,
    backend: str = "dense",
    eps: float = 1e-2,
    radius: float | None = None,
    power: float = 1.0,
    latency_window: int = 4096,
) -> "SchedulerDaemon":
    """Wire a daemon over a dynamic scenario's initial population.

    The scenario's trace is *bound* (the driver can still replay it) but
    the daemon is stream-first: events fed through :meth:`SchedulerDaemon
    .submit`/``admit``/``depart`` advance the same id vocabulary.
    """
    config = config or DaemonConfig()
    dyn = DynamicContext(
        scenario.space,
        scenario.initial_links(),
        backend=backend,
        eps=eps,
        radius=radius,
    )
    driver = ChurnDriver(dyn, scenario, power=power)
    repairer = _make_repairer(dyn, config, anchor=True)
    return SchedulerDaemon(
        driver, repairer, config, latency_window=latency_window
    )


class SchedulerDaemon:
    """An asyncio daemon serving one live repair scheduler.

    Construct via :func:`build_daemon` (fresh) or :meth:`restore`
    (from a checkpoint), then ``await start()``.  Mutations return
    result dicts carrying the enqueue-to-applied latency in seconds;
    reads are plain synchronous methods.
    """

    def __init__(
        self,
        driver: ChurnDriver,
        repairer,
        config: DaemonConfig,
        *,
        latency_window: int = 4096,
    ) -> None:
        self.driver = driver
        self.repairer = repairer
        self.config = config
        #: The :class:`DynamicContext` the driver mutates.
        self.core: DynamicContext = driver.dyn
        self._admit_lat: deque[float] = deque(maxlen=latency_window)
        self._event_lat: deque[float] = deque(maxlen=latency_window)
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._closed = False
        self._processed = 0
        #: Events the worker holds in its open (unapplied) chunk.
        self._held = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the worker task is accepting and draining events."""
        return self._worker is not None and not self._worker.done()

    async def start(self) -> None:
        """Start the single mutation worker (idempotent)."""
        if self.running:
            return
        self._closed = False
        self._queue = asyncio.Queue()
        self._worker = asyncio.get_running_loop().create_task(self._run())

    async def _run(self) -> None:
        queue = self._queue
        assert queue is not None
        batch = self.config.batch
        chunk: list[tuple[ChurnEvent, float, asyncio.Future]] = []
        while True:
            event, t0, future = await queue.get()
            try:
                if event is None:  # drain sentinel: flush the open chunk
                    self._flush_chunk(chunk)
                    if not future.done():
                        future.set_result(None)
                    continue
                if batch <= 1:
                    try:
                        result = self._apply(event, t0)
                        if not future.done():
                            future.set_result(result)
                    except Exception as exc:  # surface; keep serving
                        if not future.done():
                            future.set_exception(exc)
                    continue
                # A departure of an id that arrived inside the open chunk
                # cannot ride in the same merged event (merged departures
                # apply before merged arrivals), so it closes the chunk.
                # ``next_id`` is frozen while the chunk is open, making
                # the boundary a function of the event stream alone.
                if chunk and any(
                    int(d) >= self.driver.next_id for d in event.departures
                ):
                    self._flush_chunk(chunk)
                chunk.append((event, t0, future))
                self._held = len(chunk)
                if len(chunk) >= batch:
                    self._flush_chunk(chunk)
            finally:
                queue.task_done()

    def _flush_chunk(
        self, chunk: list[tuple[ChurnEvent, float, asyncio.Future]]
    ) -> None:
        """Apply the open chunk as one merged event; resolve its futures.

        Departures across the chunk apply first, then arrivals, exactly
        like a single :class:`ChurnEvent` — an arrival may reuse a slot
        freed by *any* departure in the chunk.  Results are sliced back
        per source event; a failed merge fails every future in the
        chunk without applying anything (the driver is pre-validated, so
        the context is never left half-mutated).
        """
        if not chunk:
            return
        try:
            if len(chunk) == 1:
                event, t0, future = chunk[0]
                result = self._apply(event, t0)
                if not future.done():
                    future.set_result(result)
                return
            merged = ChurnEvent.merged([event for event, _, _ in chunk])
            for link_id in merged.departures:
                if self.driver.slot_of(link_id) is None:
                    raise SimulationError(
                        f"chunk departs unknown or already-departed "
                        f"link id {link_id}"
                    )
            first_id = self.driver.next_id
            gone, fresh = self.driver.feed(merged)
            self.repairer.apply(fresh, gone)
            now = time.perf_counter()
            gi = ai = 0
            for event, t0, future in chunk:
                nd = len(event.departures)
                na = len(event.arrivals)
                latency = now - t0
                self._event_lat.append(latency)
                if na:
                    self._admit_lat.append(latency)
                self._processed += 1
                result = {
                    "arrived_ids": list(
                        range(first_id + ai, first_id + ai + na)
                    ),
                    "arrived_slots": fresh[ai : ai + na],
                    "departed_slots": gone[gi : gi + nd],
                    "latency_s": latency,
                }
                gi += nd
                ai += na
                if not future.done():
                    future.set_result(result)
        except Exception as exc:  # fail the whole chunk; keep serving
            for _, _, future in chunk:
                if not future.done():
                    future.set_exception(exc)
        finally:
            chunk.clear()
            self._held = 0

    def _apply(self, event: ChurnEvent, t0: float) -> dict:
        """Apply one event through driver + repairer (worker-only)."""
        gone, fresh = self.driver.feed(event)
        self.repairer.apply(fresh, gone)
        latency = time.perf_counter() - t0
        self._event_lat.append(latency)
        if event.arrivals:
            self._admit_lat.append(latency)
        self._processed += 1
        first_id = self.driver.next_id - len(fresh)
        return {
            "arrived_ids": list(range(first_id, self.driver.next_id)),
            "arrived_slots": fresh,
            "departed_slots": gone,
            "latency_s": latency,
        }

    async def drain(self) -> None:
        """Wait until every queued mutation has been applied.

        A batching daemon flushes its open chunk as part of the drain
        (the sentinel queues behind every pending event, so earlier
        chunks close at their natural boundaries first).
        """
        if self._queue is None:
            return
        await self._queue.join()
        if self._held and self.running:
            future = asyncio.get_running_loop().create_future()
            self._queue.put_nowait((None, 0.0, future))
            await future

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain, stop the worker."""
        self._closed = True
        await self.drain()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None

    # ------------------------------------------------------------------
    # Mutations (queued, serialised)
    # ------------------------------------------------------------------
    def _enqueue(self, event: ChurnEvent) -> asyncio.Future:
        if self._closed or not self.running:
            raise SimulationError(
                "the scheduler daemon is not running; await start() first"
            )
        future = asyncio.get_running_loop().create_future()
        assert self._queue is not None
        self._queue.put_nowait((event, time.perf_counter(), future))
        return future

    async def submit(self, event: ChurnEvent) -> dict:
        """Ingest one churn event (departures by link id, then arrivals).

        The streaming twin of a trace event: applied in enqueue order by
        the worker, repaired in the same call, result resolved with the
        arrived ids/slots and the request latency.
        """
        return await self._enqueue(event)

    async def admit(
        self, sender: int, receiver: int, *, power: float | None = None
    ) -> dict:
        """Admit one link; returns its id, context slot, schedule slot.

        ``scheduled_slot`` is ``None`` when the repairer deferred the
        link (a ``max_slots`` daemon under pressure) — the link stays
        queued and is retried on later events, exactly like the batch
        path.
        """
        if power is not None and power != self.driver.power:
            raise SimulationError(
                "per-admit powers are not supported: the driver applies "
                f"its configured power {self.driver.power} to arrivals"
            )
        event = ChurnEvent(slot=0, arrivals=((int(sender), int(receiver)),))
        result = await self._enqueue(event)
        (link_id,) = result["arrived_ids"]
        (slot,) = result["arrived_slots"]
        return {
            "id": link_id,
            "slot": slot,
            "scheduled_slot": self.repairer.slot_of(slot),
            "latency_s": result["latency_s"],
        }

    async def depart(self, link_id: int) -> dict:
        """Remove one live link by id (unknown ids raise)."""
        event = ChurnEvent(slot=0, departures=(int(link_id),))
        return await self._enqueue(event)

    # ------------------------------------------------------------------
    # Reads (inline; always observe a consistent post-event state)
    # ------------------------------------------------------------------
    def place(self, link_id: int) -> int | None:
        """Schedule slot of a live link id (``None``: deferred/unknown)."""
        slot = self.driver.slot_of(link_id)
        return None if slot is None else self.repairer.slot_of(slot)

    def stats(self) -> dict:
        """Service counters plus the repairer's repair statistics."""
        repair = self.repairer.stats
        admit = np.array(self._admit_lat) if self._admit_lat else None
        return {
            "m": int(self.core.m),
            "slot_count": int(self.repairer.slot_count),
            "deferred": len(self.repairer.deferred),
            "processed": self._processed,
            "queue_depth": 0 if self._queue is None else self._queue.qsize(),
            "repair": {
                name: getattr(repair, name) for name in type(repair)._FIELDS
            },
            "admissions": 0 if admit is None else int(admit.size),
            "admit_p50_s": (
                float(np.percentile(admit, 50)) if admit is not None else None
            ),
            "admit_p99_s": (
                float(np.percentile(admit, 99)) if admit is not None else None
            ),
        }

    def snapshot(self) -> dict:
        """The live schedule in the stable link-id vocabulary."""
        slots = self.core.active_slots
        ids = self.driver.ids_of(slots)
        placed = [self.repairer.slot_of(int(s)) for s in slots]
        return {
            "ids": ids,
            "slots": [int(s) for s in slots],
            "scheduled": placed,
            "slot_count": int(self.repairer.slot_count),
            "deferred_slots": [int(s) for s in self.repairer.deferred],
        }

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def _context_payload(self) -> dict[str, np.ndarray]:
        core = self.core
        active = core.active_slots
        hi = int(active.max()) + 1 if active.size else 0
        mask = core.active_mask[:hi]
        holes = np.flatnonzero(~mask)
        senders = core.senders[:hi].copy()
        receivers = core.receivers[:hi].copy()
        powers = core.powers[:hi].copy()
        if holes.size:
            # Filler links occupy the holes during reconstruction (the
            # constructor packs densely); any valid pair works because
            # they are removed before the context is handed out.
            if active.size:
                fs, fr = int(core.senders[active[0]]), int(
                    core.receivers[active[0]]
                )
            else:  # pragma: no cover - hi == 0 leaves no holes
                fs, fr = 0, 1
            senders[holes] = fs
            receivers[holes] = fr
            powers[holes] = 1.0
        # The metricity the context schedules under, as it stands: the
        # resolved value, else the pinned argument, else NaN (resolved
        # from the space on first use after restore, as it would have
        # been live).  Never computed here.
        zeta = core._zeta if core._zeta is not None else core._zeta_arg
        return {
            "ctx_senders": senders.astype(np.int64),
            "ctx_receivers": receivers.astype(np.int64),
            "ctx_powers": powers,
            "ctx_holes": holes.astype(np.int64),
            "ctx_caps": np.array([core.capacity, hi], dtype=np.int64),
            "ctx_params": np.array(
                [
                    core.noise,
                    core.beta,
                    core.eps,
                    np.nan if core.radius is None else core.radius,
                ]
            ),
            "ctx_backend": np.array([core.backend], dtype=np.str_),
            "ctx_zeta": np.array([np.nan if zeta is None else zeta]),
        }

    def checkpoint(self, path: str | pathlib.Path) -> None:
        """Write the full scheduler state to a :mod:`repro.io` archive.

        Requires a quiesced daemon — ``await drain()`` (or ``stop()``)
        first; checkpointing with mutations still queued would persist a
        state no uninterrupted run ever passes through.
        """
        if self._queue is not None and (
            self._queue.qsize() or self._held
        ):
            raise SimulationError(
                "cannot checkpoint with mutations still queued or held "
                "in an open batch chunk; await drain() first"
            )
        state = dict(self.config.as_arrays())
        state.update(self._context_payload())
        state.update(self.driver.export_state())
        state.update(self.repairer.export_state())
        save_scheduler_state(path, state, kind=self.config.kind)

    @classmethod
    def restore(
        cls,
        path: str | pathlib.Path,
        space,
        *,
        events=(),
        power: float = 1.0,
        latency_window: int = 4096,
    ) -> "SchedulerDaemon":
        """Rebuild a daemon from a checkpoint, byte-identically.

        ``space`` is the substrate the checkpointed contexts were built
        over (spaces are interchange artefacts with their own archives;
        the scheduler state stays a sidecar-sized payload).  ``events``
        optionally rebinds the original trace — the driver's cursor is
        restored, so replay resumes exactly where the checkpoint was
        taken.  The restored daemon is stopped; ``await start()`` to
        resume serving.
        """
        kind, state = load_scheduler_state(path)
        if ":" in kind or "ctx_owner" in state:
            # Only the removed per-cell partitioned scheduler wrote
            # prefixed kind tags and link-owner arrays.
            raise SimulationError(
                f"{path}: checkpoint kind {kind!r} comes from per-cell "
                "partitioned scheduling, which has been removed; its "
                "state cannot be restored — rebuild the daemon from its "
                "scenario"
            )
        config = DaemonConfig.from_arrays(state)
        if config.kind != kind:
            raise SimulationError(
                f"checkpoint kind tag {kind!r} disagrees with its stored "
                f"config ({config.kind!r})"
            )
        capacity, hi = (int(x) for x in state["ctx_caps"])
        noise, beta, eps, radius = (float(x) for x in state["ctx_params"])
        backend = str(state["ctx_backend"][0])
        # Archives before format 4 carry no metricity: resolve from the
        # space, as those restores always did.
        zeta = float(state["ctx_zeta"][0]) if "ctx_zeta" in state else np.nan
        pairs = list(
            zip(
                state["ctx_senders"][:hi].tolist(),
                state["ctx_receivers"][:hi].tolist(),
            )
        )
        dyn = DynamicContext(
            space,
            pairs,
            state["ctx_powers"][:hi] if pairs else None,
            noise=noise,
            beta=beta,
            zeta=None if np.isnan(zeta) else zeta,
            capacity=capacity,
            backend=backend,
            eps=eps,
            radius=None if np.isnan(radius) else radius,
        )
        holes = state["ctx_holes"]
        if holes.size:
            dyn.remove_links([int(s) for s in holes])
        driver = ChurnDriver(dyn, events, power=power)
        driver.restore_state(state)
        repairer = _make_repairer(dyn, config, anchor=False)
        repairer.restore_state(state)
        return cls(
            driver, repairer, config, latency_window=latency_window
        )
