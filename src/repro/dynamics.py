"""Dynamic-network primitives: churn traces over a fixed decay space.

Realistic wireless workloads are not static — links arrive, depart, and
move (cf. the stochastic urban-environment line of PAPERS.md).  This
module defines the *trace* vocabulary shared by the dynamic scenario
builders in :mod:`repro.scenarios` and the churn-capable simulators in
:mod:`repro.distributed`:

* :class:`ChurnEvent` — a batch of arrivals/departures at a slot;
* :class:`DynamicScenario` — a substrate space, an initial link set, and
  a seeded event trace over a horizon;
* :class:`ChurnDriver` — replays a trace onto a
  :class:`~repro.algorithms.context.DynamicContext`, translating stable
  *link ids* (birth order) into the context's reusable *slot* indices.

Mobility fits the same vocabulary: every position a node will ever visit
is a node of the substrate space, and a move is a departure of the link's
old ``(sender, receiver)`` node pair followed by an arrival of the new
one.  The decay space therefore never changes mid-run — only the set of
active links does, which is exactly what the incremental context updates
in O(m) per event.

Link-id convention: the initial links carry ids ``0 .. m0-1`` (in order);
every arrival is assigned the next id in event order.  Departures
reference ids, so a trace is meaningful independent of the slot-reuse
policy of the consuming context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.algorithms.context import DynamicContext
from repro.core.decay import DecaySpace
from repro.core.links import LinkSet
from repro.errors import SimulationError

__all__ = ["ChurnEvent", "ChurnDriver", "DynamicScenario", "chunk_events"]


@dataclass(frozen=True)
class ChurnEvent:
    """Arrivals and departures applied at the start of slot ``slot``.

    ``arrivals`` are ``(sender, receiver)`` node pairs of the substrate
    space; ``departures`` are link ids under the birth-order convention
    of the module docstring.
    """

    slot: int
    arrivals: tuple[tuple[int, int], ...] = ()
    departures: tuple[int, ...] = ()

    @classmethod
    def merged(cls, events: Sequence["ChurnEvent"]) -> "ChurnEvent":
        """One event carrying every departure, then every arrival, of
        ``events`` in order (the slot field is the first event's)."""
        return cls(
            slot=events[0].slot,
            arrivals=tuple(a for ev in events for a in ev.arrivals),
            departures=tuple(d for ev in events for d in ev.departures),
        )


def chunk_events(
    events: Iterable[ChurnEvent], batch: int, next_id: int
) -> list[tuple[ChurnEvent, ...]]:
    """Split a stream into the chunks a batching consumer merges.

    The boundaries of ``SchedulerDaemon(batch=k)``: a chunk holds at
    most ``batch`` consecutive events and applies as
    :meth:`ChurnEvent.merged` — departures before arrivals — so it also
    closes before an event that departs a link born inside it.
    ``next_id`` is the id the stream's first arrival will be assigned.
    """
    chunks: list[list[ChurnEvent]] = []
    first = next_id  # first id born inside the open chunk
    for ev in events:
        if (
            chunks
            and len(chunks[-1]) < batch
            and not any(d >= first for d in ev.departures)
        ):
            chunks[-1].append(ev)
        else:
            chunks.append([ev])
            first = next_id
        next_id += len(ev.arrivals)
    return [tuple(c) for c in chunks]


@dataclass(frozen=True)
class DynamicScenario:
    """A seeded dynamic workload: substrate, initial links, event trace."""

    name: str
    space: DecaySpace
    initial: tuple[tuple[int, int], ...]
    events: tuple[ChurnEvent, ...] = field(default_factory=tuple)
    horizon: int = 0

    def __post_init__(self) -> None:
        if not self.initial:
            raise SimulationError(
                f"dynamic scenario {self.name!r} needs at least one "
                "initial link"
            )
        last = -1
        for ev in self.events:
            if ev.slot < 0:
                raise SimulationError(
                    f"dynamic scenario {self.name!r} has an event at "
                    f"negative slot {ev.slot}"
                )
            if ev.slot < last:
                raise SimulationError(
                    f"dynamic scenario {self.name!r} events must be "
                    "sorted by slot"
                )
            last = ev.slot
        # An event at slot >= horizon would silently never fire in a
        # horizon-bounded run; a trace that carries one is malformed.
        if self.events and last >= self.horizon:
            raise SimulationError(
                f"dynamic scenario {self.name!r} has an event at slot "
                f"{last} outside its horizon {self.horizon}; events must "
                "satisfy slot < horizon or they would never be applied"
            )

    @property
    def m0(self) -> int:
        """Number of initial links."""
        return len(self.initial)

    def initial_links(self) -> LinkSet:
        """The initial links as a :class:`LinkSet` over the substrate."""
        return LinkSet(self.space, list(self.initial))

    def total_arrivals(self) -> int:
        """Arrivals across the whole trace (excludes initial links)."""
        return sum(len(ev.arrivals) for ev in self.events)

    def total_departures(self) -> int:
        """Departures across the whole trace."""
        return sum(len(ev.departures) for ev in self.events)


class ChurnDriver:
    """Replays a churn trace onto a :class:`DynamicContext`.

    The driver owns the id -> slot mapping: initial links occupy slots
    ``0 .. m0-1`` (the context's adoption guarantee), and each arrival's
    id maps to whatever slot the context hands out.  Departures of
    unknown or already-departed ids raise — a trace that does so is
    malformed, and silently skipping it would desynchronise every
    consumer after the bad event.
    """

    def __init__(
        self,
        dyn: DynamicContext,
        events,
        *,
        power: float = 1.0,
    ) -> None:
        scenario = events if hasattr(events, "events") else None
        if scenario is not None:
            # A trace is only meaningful against its own substrate and
            # initial population: arrivals are node indices of
            # ``scenario.space`` and departures reference the initial
            # ids.  Running it against anything else would silently
            # produce garbage affectance.
            if scenario.space is not dyn.space and scenario.space != dyn.space:
                raise SimulationError(
                    f"churn trace {scenario.name!r} was built over a "
                    "different substrate decay space than the dynamic "
                    "context"
                )
            if dyn.m != scenario.m0:
                raise SimulationError(
                    f"churn trace {scenario.name!r} expects "
                    f"{scenario.m0} initial links, the dynamic context "
                    f"holds {dyn.m}"
                )
        events = tuple(getattr(events, "events", events))
        self.dyn = dyn
        self.events = events
        self.power = float(power)
        self._pos = 0
        self._id_to_slot: dict[int, int] = {i: i for i in range(dyn.m)}
        self._next_id = dyn.m

    @property
    def exhausted(self) -> bool:
        """Whether every event has been applied."""
        return self._pos >= len(self.events)

    @property
    def next_id(self) -> int:
        """The id the next arrival will be assigned (birth order)."""
        return self._next_id

    def slot_of(self, link_id: int) -> int | None:
        """Context slot of a live link id (``None``: departed/unknown)."""
        return self._id_to_slot.get(int(link_id))

    def ids_of(self, slots) -> list[int]:
        """Live link ids occupying the given context slots, per slot.

        The inverse lookup consumers need to report schedules in the
        stable id vocabulary; raises for a slot no live id maps to
        (the caller is holding a stale slot list).
        """
        inverse = {s: i for i, s in self._id_to_slot.items()}
        out = []
        for s in slots:
            s = int(s)
            if s not in inverse:
                raise SimulationError(
                    f"context slot {s} holds no live link id"
                )
            out.append(inverse[s])
        return out

    def step(self, t: int) -> tuple[list[int], list[int]]:
        """Apply every event scheduled at or before slot ``t``.

        Returns ``(arrived_slots, departed_slots)`` so the caller can
        reset per-link simulation state (queues, learning weights) for
        exactly the links that changed.  Departures within an event are
        applied before its arrivals, so an arrival may reuse a slot freed
        in the same event.
        """
        arrived: list[int] = []
        departed: list[int] = []
        for gone, fresh in self._pending(t):
            departed.extend(gone)
            arrived.extend(fresh)
        return arrived, departed

    def _pending(self, t: int):
        """Apply pending events due at or before ``t``, one at a time.

        The single drain loop both :meth:`step` and :meth:`step_state`
        consume; yields ``(departed_slots, arrived_slots)`` per event.
        """
        while self._pos < len(self.events) and self.events[self._pos].slot <= t:
            yield self._apply_next()

    def _apply_next(self) -> tuple[list[int], list[int]]:
        """Apply exactly the next pending event; ``(departed, arrived)``."""
        ev = self.events[self._pos]
        self._pos += 1
        return self._apply_event(ev)

    def feed(self, event: ChurnEvent) -> tuple[list[int], list[int]]:
        """Apply one *live* event outside the replayed trace.

        The streaming entry point the scheduler service daemon ingests
        from: the event is applied immediately — departures first, then
        arrivals, exactly like a replayed event — and the driver's
        id -> slot mapping advances, so live events and trace replay
        share one id vocabulary.  Returns ``(departed_slots,
        arrived_slots)``.  The event's ``slot`` field is ignored (a
        stream has no lookahead to order against).
        """
        return self._apply_event(event)

    def export_state(self) -> dict[str, np.ndarray]:
        """The id -> slot mapping and trace cursor as flat arrays.

        The checkpoint payload a resumed driver needs: live ids with
        their context slots (sorted by id for a canonical layout), the
        next id to assign, and how far into the bound trace the replay
        had progressed.
        """
        ids = np.array(sorted(self._id_to_slot), dtype=np.int64)
        slots = np.array(
            [self._id_to_slot[int(i)] for i in ids], dtype=np.int64
        )
        return {
            "driver_ids": ids,
            "driver_slots": slots,
            "driver_cursor": np.array(
                [self._next_id, self._pos], dtype=np.int64
            ),
        }

    def restore_state(self, state: dict[str, np.ndarray]) -> None:
        """Install a mapping exported by :meth:`export_state`.

        The mapping is cross-checked against the context: every stored
        slot must be active and every active slot must carry exactly one
        live id, so a checkpoint restored against the wrong context (or
        a tampered archive) fails loudly instead of silently misrouting
        every later departure.
        """
        ids = np.asarray(state["driver_ids"], dtype=np.int64)
        slots = np.asarray(state["driver_slots"], dtype=np.int64)
        if ids.shape != slots.shape:
            raise SimulationError(
                "driver checkpoint id/slot arrays disagree in shape"
            )
        active = self.dyn.active_slots
        if ids.size != active.size or (
            ids.size and not np.array_equal(np.sort(slots), active)
        ):
            raise SimulationError(
                "driver checkpoint does not cover exactly the context's "
                "active slots — the checkpoint does not match this "
                "context's churn state"
            )
        next_id, pos = (int(x) for x in state["driver_cursor"])
        if ids.size and next_id <= int(ids.max()):
            raise SimulationError(
                "driver checkpoint next_id is not past its live ids"
            )
        if not 0 <= pos <= len(self.events):
            raise SimulationError(
                f"driver checkpoint trace cursor {pos} outside the "
                f"bound trace of {len(self.events)} events"
            )
        self._id_to_slot = {
            int(i): int(s) for i, s in zip(ids, slots)
        }
        self._next_id = next_id
        self._pos = pos

    def _apply_event(self, ev: ChurnEvent) -> tuple[list[int], list[int]]:
        """Apply one event to the context; ``(departed, arrived)``."""
        gone: list[int] = []
        for link_id in ev.departures:
            slot = self._id_to_slot.pop(int(link_id), None)
            if slot is None:
                raise SimulationError(
                    f"churn event at slot {ev.slot} departs unknown "
                    f"or already-departed link id {link_id}"
                )
            gone.append(slot)
        if gone:
            self.dyn.remove_links(gone)
        fresh: list[int] = []
        if ev.arrivals:
            # One vectorized block update per event instead of a
            # row/column pass per link (byte-identical matrices).
            fresh = self.dyn.add_links(ev.arrivals, powers=self.power)
            for slot in fresh:
                self._id_to_slot[self._next_id] = slot
                self._next_id += 1
        return gone, fresh

    def step_state(
        self, t: int, state: np.ndarray
    ) -> tuple[np.ndarray, list[int], list[int], float]:
        """:meth:`step` plus per-slot simulation-state maintenance.

        The bookkeeping every churn-capable simulator needs, kept in one
        place: departed slots' entries are summed (returned as
        ``reclaimed`` — e.g. packets dropped with a departing queue) and
        zeroed, ``state`` is re-allocated to the context's capacity when
        an arrival grew it, and arrived slots start from zero.  Returns
        ``(state, arrived, departed, reclaimed)``.  After a step that
        applied events, re-read any padded matrix references from the
        context — capacity growth reallocates them.

        State maintenance runs *per event*, not once after the batch: a
        slot freed by one event and reused by a later event in the same
        call is zeroed in between, so ``reclaimed`` counts exactly each
        departing link's own backlog (a batched sum over the combined
        departure list would double-count reused slots).
        """
        arrived: list[int] = []
        departed: list[int] = []
        reclaimed = 0.0
        for gone, fresh in self._pending(t):
            if gone:
                idx = np.asarray(gone, dtype=int)
                reclaimed += float(state[idx].sum())
                state[idx] = 0.0
                departed.extend(gone)
            if self.dyn.capacity != state.shape[0]:
                grown = np.zeros(self.dyn.capacity)
                grown[: state.shape[0]] = state
                state = grown
            if fresh:
                state[np.asarray(fresh, dtype=int)] = 0.0
                arrived.extend(fresh)
        return state, arrived, departed, reclaimed
