"""Scheduler daemon: lifecycle, live queries, checkpoint byte-identity.

The acceptance property of the service layer: a daemon is a *shell* —
every placement is made by the repair scheduler it wraps, so feeding a
churn trace through :meth:`SchedulerDaemon.submit` and killing the
daemon mid-trace (drain → checkpoint → discard → restore → resume)
must land on a final scheduler state **byte-identical** to the
uninterrupted run's.  Hypothesis drives the kill point; the comparison
covers every checkpointable array down to the float bit pattern.
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.algorithms.repair import CapacityRepairScheduler
from repro.core.decay import DecaySpace
from repro.dynamics import ChurnDriver, ChurnEvent
from repro.errors import LinkError, SimulationError
from repro.io import load_scheduler_state
from repro.scenarios import build_dynamic_scenario
from repro.service.daemon import DaemonConfig, SchedulerDaemon, build_daemon
from tests.conftest import CHURN_EXAMPLES

pytestmark = pytest.mark.service


def _scn(seed=0, n_links=24, horizon=40, churn_rate=0.5):
    """A small planar churn scenario (vectorised substrate: fast)."""
    return build_dynamic_scenario(
        "poisson_churn",
        n_links=n_links,
        seed=seed,
        horizon=horizon,
        churn_rate=churn_rate,
        substrate="planar_uniform",
    )


def _state_bytes(daemon: SchedulerDaemon) -> dict[str, tuple]:
    """Every checkpointable array, down to the bit pattern."""
    state = dict(daemon.config.as_arrays())
    state.update(daemon._context_payload())
    state.update(daemon.driver.export_state())
    state.update(daemon.repairer.export_state())
    return {
        k: (v.dtype.str, v.shape, v.tobytes()) for k, v in state.items()
    }


def _drive(coro):
    return asyncio.run(coro)


async def _replay(daemon: SchedulerDaemon, events) -> list[dict]:
    """Enqueue the whole stream, drain, then collect every result.

    Awaiting each submission before the next would deadlock a batching
    daemon: a chunk's futures only resolve when the chunk flushes.
    """
    futures = [daemon._enqueue(ev) for ev in events]
    await daemon.drain()
    return [await f for f in futures]


class TestLifecycle:
    def test_start_ingest_query_drain_stop(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            assert not daemon.running
            await daemon.start()
            await daemon.start()  # idempotent
            assert daemon.running
            # Live admission: the result carries id, slot and placement.
            res = await daemon.admit(0, scn.space.n // 2)
            assert res["id"] == daemon.driver.next_id - 1
            assert daemon.place(res["id"]) == res["scheduled_slot"]
            assert res["scheduled_slot"] is not None
            # Concurrent admissions serialise through the worker queue.
            got = await asyncio.gather(
                *(daemon.admit(i, scn.space.n - 1 - i) for i in range(4))
            )
            assert len({r["id"] for r in got}) == 4
            assert all(r["latency_s"] >= 0.0 for r in got)
            # Departures by id; the slot disappears from reads.
            await daemon.depart(res["id"])
            assert daemon.place(res["id"]) is None
            # Trace events stream through the same path.
            await _replay(daemon, scn.events)
            await daemon.drain()
            stats = daemon.stats()
            assert stats["queue_depth"] == 0
            assert stats["processed"] == 6 + len(scn.events)
            assert stats["admissions"] > 0
            assert stats["admit_p99_s"] >= stats["admit_p50_s"] >= 0.0
            snap = daemon.snapshot()
            assert len(snap["ids"]) == stats["m"]
            assert sorted(snap["ids"]) == sorted(
                daemon.driver.ids_of(snap["slots"])
            )
            placed = [s for s in snap["scheduled"] if s is not None]
            assert placed and max(placed) < snap["slot_count"]
            await daemon.stop()
            assert not daemon.running

        _drive(run())

    def test_submit_refused_unless_running(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            with pytest.raises(SimulationError, match="not running"):
                await daemon.admit(0, 1)
            await daemon.start()
            await daemon.stop()
            with pytest.raises(SimulationError, match="not running"):
                await daemon.depart(0)

        _drive(run())

    def test_per_admit_power_rejected(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            await daemon.start()
            try:
                with pytest.raises(SimulationError, match="power"):
                    await daemon.admit(0, 1, power=2.0)
            finally:
                await daemon.stop()

        _drive(run())

    def test_unknown_departure_surfaces_but_daemon_keeps_serving(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            await daemon.start()
            try:
                with pytest.raises(SimulationError, match="departs unknown"):
                    await daemon.depart(10_000)
                # The worker survived the failed event.
                res = await daemon.admit(0, 1)
                assert res["slot"] is not None
            finally:
                await daemon.stop()

        _drive(run())


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError, match="batch must be >= 1"):
            DaemonConfig(batch=0)
        with pytest.raises(SimulationError, match="unknown repair kind"):
            DaemonConfig(kind="bogus")
        with pytest.raises(SimulationError, match="compaction_every"):
            DaemonConfig(kind="first_fit", compaction_every=4)

    @pytest.mark.parametrize(
        "name",
        [
            "cascade", "rebuild_every", "max_slots", "max_evictions",
            "compaction_every", "batch",
        ],
    )
    @pytest.mark.parametrize("value", [2.5, 1.5, float("nan"), True])
    def test_non_integer_counts_refused(self, name, value):
        """A checkpoint stores counts as int64: ``rebuild_every=2.5``
        used to come back as 2, ``batch=1.5`` as 1, and a NaN broke
        ``as_arrays`` with a bare ValueError."""
        match = f"{name} must be an integer"
        with pytest.raises(SimulationError, match=match):
            DaemonConfig(kind="capacity", **{name: value})

    def test_array_roundtrip(self):
        config = DaemonConfig(
            kind="capacity",
            cascade=2,
            max_slots=9,
            admission="general",
            compaction_every=5,
            batch=16,
        )
        assert DaemonConfig.from_arrays(config.as_arrays()) == config

    def test_legacy_six_int_archives_default_to_batch_one(self):
        config = DaemonConfig(kind="first_fit", cascade=3)
        state = config.as_arrays()
        state["cfg_ints"] = state["cfg_ints"][:6]  # pre-batch layout
        assert DaemonConfig.from_arrays(state) == config


class TestCheckpointByteIdentity:
    @given(seed=st.integers(0, 2**10), cut_pct=st.integers(1, 99))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_kill_mid_trace_resumes_byte_identical(self, seed, cut_pct):
        """The acceptance property: checkpoint at a hypothesis-chosen
        kill point, restore into a fresh daemon, finish the trace —
        every scheduler-state array matches the uninterrupted run bit
        for bit (per-event daemons flush at every event, so any kill
        point is a chunk boundary)."""
        scn = _scn(seed=seed)
        events = list(scn.events)
        k = max(1, (len(events) * cut_pct) // 100)

        async def uninterrupted():
            daemon = build_daemon(scn)
            await daemon.start()
            await _replay(daemon, events)
            await daemon.stop()
            return _state_bytes(daemon)

        async def killed():
            daemon = build_daemon(scn)
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()  # the "kill": this daemon is gone
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            await resumed.start()
            await _replay(resumed, events[k:])
            await resumed.stop()
            return resumed

        want = _drive(uninterrupted())
        resumed = _drive(killed())
        got = _state_bytes(resumed)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key

    def test_restore_rebuilds_config_and_serves(self):
        scn = _scn(seed=3)

        async def run():
            config = DaemonConfig(kind="capacity", batch=2)
            daemon = build_daemon(scn, config=config)
            await daemon.start()
            await _replay(daemon, scn.events[:6])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            assert resumed.config == config
            await resumed.start()
            # One admission fills only half a batch=2 chunk; the drain
            # sentinel flushes it (awaiting it directly would deadlock).
            admit = asyncio.ensure_future(resumed.admit(0, 1))
            for _ in range(10):
                await asyncio.sleep(0)
            await resumed.drain()
            res = await admit
            assert res["id"] == resumed.driver.next_id - 1
            await resumed.stop()

        _drive(run())

    def test_checkpoint_refuses_open_chunk(self):
        scn = _scn(seed=4)

        async def run():
            daemon = build_daemon(scn, config=DaemonConfig(batch=8))
            await daemon.start()
            future = daemon.submit(scn.events[0])
            task = asyncio.ensure_future(future)
            # Let the worker collect the event into its open chunk.
            for _ in range(10):
                await asyncio.sleep(0)
            assert daemon._held == 1
            with pytest.raises(SimulationError, match="open batch chunk"):
                daemon.checkpoint("unused")
            # Drain flushes the partial chunk; checkpointing is legal now.
            await daemon.drain()
            await task
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
            await daemon.stop()

        _drive(run())


class TestBatching:
    def test_batched_replay_is_reproducible(self):
        """Chunk boundaries are a pure function of the event stream, so
        two batched replays land on identical state."""
        scn = _scn(seed=5)

        async def run():
            daemon = build_daemon(scn, config=DaemonConfig(batch=4))
            await daemon.start()
            await _replay(daemon, scn.events)
            await daemon.stop()
            return _state_bytes(daemon)

        assert _drive(run()) == _drive(run())

    def test_batched_checkpoint_at_drain_resumes_identically(self):
        """Under batching a drain is a chunk boundary; a checkpoint
        taken there resumes byte-identically to the run that drained at
        the same point without the checkpoint/restore detour."""
        scn = _scn(seed=6)
        events = list(scn.events)
        k = len(events) // 2

        async def reference():
            daemon = build_daemon(scn, config=DaemonConfig(batch=3))
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()  # same boundary as the checkpoint run
            await _replay(daemon, events[k:])
            await daemon.stop()
            return _state_bytes(daemon)

        async def detour():
            daemon = build_daemon(scn, config=DaemonConfig(batch=3))
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            await resumed.start()
            await _replay(resumed, events[k:])
            await resumed.stop()
            return _state_bytes(resumed)

        assert _drive(reference()) == _drive(detour())

    def test_in_chunk_departure_closes_the_chunk(self):
        """A departure of an id that arrived inside the open chunk
        flushes first — the merged event would otherwise depart a link
        its own departures-first ordering has not admitted yet."""
        scn = _scn(seed=7)

        async def run():
            daemon = build_daemon(scn, config=DaemonConfig(batch=16))
            await daemon.start()
            first = daemon.driver.next_id
            admit = asyncio.ensure_future(daemon.admit(0, 1))
            for _ in range(10):
                await asyncio.sleep(0)
            # The arrival is held in the open chunk, unresolved.
            assert not admit.done()
            assert daemon._held == 1
            # A departure referencing the held id forces the flush...
            depart = asyncio.ensure_future(daemon.depart(first))
            for _ in range(10):
                await asyncio.sleep(0)
            res = await admit
            assert res["id"] == first
            # ...and itself starts a fresh open chunk behind it.
            assert daemon._held == 1
            await daemon.drain()
            await depart
            assert daemon.place(first) is None
            await daemon.stop()

        _drive(run())


def _rewrite(path, out, mutate):
    """Copy the archive at ``path`` to ``out`` with ``mutate`` applied."""
    with np.load(path) as archive:
        payload = {k: archive[k] for k in archive.files}
    mutate(payload)
    np.savez(out, **payload)
    return out


class TestCheckpointZeta:
    """The archive carries the metricity the live context schedules under
    (Definition 2.2).  Regression: a restore used to resolve the space's
    own Z instead, so a daemon over a pinned ``zeta`` resumed under a
    different one."""

    @staticmethod
    def _pinned(scn, zeta):
        dyn = DynamicContext(scn.space, scn.initial_links(), zeta=zeta)
        repairer = CapacityRepairScheduler(dyn)
        return SchedulerDaemon(
            ChurnDriver(dyn, scn), repairer, DaemonConfig(kind="capacity")
        )

    def test_pinned_zeta_restore_equals_live(self):
        scn = _scn(seed=5, n_links=30, horizon=40)
        zeta = 2.0
        assert scn.space.metricity() != zeta
        events = list(scn.events)
        k = len(events) // 2

        async def uninterrupted():
            daemon = self._pinned(scn, zeta)
            await daemon.start()
            await _replay(daemon, events)
            await daemon.stop()
            return _state_bytes(daemon)

        async def killed():
            daemon = self._pinned(scn, zeta)
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            assert resumed.core.zeta == zeta
            await resumed.start()
            await _replay(resumed, events[k:])
            await resumed.stop()
            return _state_bytes(resumed)

        want = _drive(uninterrupted())
        got = _drive(killed())
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key

    def test_checkpoint_never_computes_zeta(self, monkeypatch):
        scn = _scn(seed=6)

        async def run(tmp):
            daemon = build_daemon(scn)
            assert daemon.core._zeta is None  # first fit never needs it
            await daemon.start()
            await daemon.drain()

            def refuse(self, *args, **kwargs):
                raise AssertionError("checkpoint computed the metricity")

            with monkeypatch.context() as patch:
                patch.setattr(DecaySpace, "metricity", refuse)
                daemon.checkpoint(f"{tmp}/ckpt")
            await daemon.stop()
            _, state = load_scheduler_state(f"{tmp}/ckpt")
            assert np.isnan(state["ctx_zeta"]).all()
            resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            assert resumed.core.zeta == scn.space.metricity()

        with tempfile.TemporaryDirectory() as tmp:
            _drive(run(tmp))


    def test_capacity_checkpoint_carries_resolved_zeta(self, monkeypatch):
        """An unpinned dense capacity daemon resolves the metricity when
        its repairer is built; the archive carries it, so a restore
        computes no metricity."""
        scn = _scn(seed=11)

        async def run(tmp):
            daemon = build_daemon(scn, config=DaemonConfig(kind="capacity"))
            assert daemon.core._zeta_arg is None
            await daemon.start()
            await _replay(daemon, list(scn.events)[:10])
            await daemon.drain()
            daemon.checkpoint(f"{tmp}/ckpt")
            await daemon.stop()
            _, state = load_scheduler_state(f"{tmp}/ckpt")
            assert np.isfinite(state["ctx_zeta"]).all()
            assert state["ctx_zeta"][0] == scn.space.metricity()

            def refuse(self, *args, **kwargs):
                raise AssertionError("restore computed the metricity")

            with monkeypatch.context() as patch:
                patch.setattr(DecaySpace, "metricity", refuse)
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            assert _state_bytes(resumed) == _state_bytes(daemon)

        with tempfile.TemporaryDirectory() as tmp:
            _drive(run(tmp))


class TestCheckpointCompatibility:
    """Archives written before format 4 keep restoring; archives of the
    removed per-cell partitioned scheduler fail clearly."""

    @staticmethod
    async def _checkpointed(scn, config, path):
        daemon = build_daemon(scn, config=config)
        await daemon.start()
        await _replay(daemon, list(scn.events)[:10])
        await daemon.drain()
        daemon.checkpoint(path)
        await daemon.stop()
        return daemon

    @pytest.mark.parametrize("kind", ["first_fit", "capacity"])
    def test_format3_archive_restores_byte_identically(self, kind):
        """The format-3 layout: no ``ctx_zeta``, plus the repairer's
        link-subset flag (always ``False`` outside partitioned repair)
        and its empty member list."""
        scn = _scn(seed=7)
        events = list(scn.events)

        def as_format3(payload):
            payload["format_version"] = np.array([3])
            del payload["ctx_zeta"]
            payload["repair_has_universe"] = np.array([False])
            payload["repair_universe"] = np.array([], dtype=np.int64)

        async def run(tmp):
            config = DaemonConfig(kind=kind)
            live = await self._checkpointed(scn, config, f"{tmp}/new.npz")
            old = _rewrite(f"{tmp}/new.npz", f"{tmp}/old.npz", as_format3)
            resumed = SchedulerDaemon.restore(old, scn.space)
            assert _state_bytes(resumed) == _state_bytes(live)
            await live.start()
            await resumed.start()
            await _replay(live, events[10:])
            await _replay(resumed, events[10:])
            await live.stop()
            await resumed.stop()
            assert _state_bytes(resumed) == _state_bytes(live)

        with tempfile.TemporaryDirectory() as tmp:
            _drive(run(tmp))

    @pytest.mark.parametrize("mark", ["kind_tag", "owner_array"])
    def test_partitioned_archive_names_the_removal(self, mark):
        scn = _scn(seed=8)

        def as_partitioned(payload):
            if mark == "kind_tag":
                payload["scheduler_kind"] = np.array(["sharded:first_fit"])
            else:
                payload["ctx_owner"] = np.zeros(4, dtype=np.int64)

        async def run(tmp):
            await self._checkpointed(scn, DaemonConfig(), f"{tmp}/new.npz")
            bad = _rewrite(f"{tmp}/new.npz", f"{tmp}/bad.npz", as_partitioned)
            with pytest.raises(
                SimulationError, match="partitioned scheduling.*removed"
            ):
                SchedulerDaemon.restore(bad, scn.space)

        with tempfile.TemporaryDirectory() as tmp:
            _drive(run(tmp))

    def test_link_subset_repairer_state_rejected(self):
        scn = _scn(seed=9)

        def with_subset(payload):
            payload["repair_has_universe"] = np.array([True])
            payload["repair_universe"] = np.arange(3, dtype=np.int64)

        async def run(tmp):
            await self._checkpointed(scn, DaemonConfig(), f"{tmp}/new.npz")
            bad = _rewrite(f"{tmp}/new.npz", f"{tmp}/bad.npz", with_subset)
            with pytest.raises(LinkError, match="partitioned repair"):
                SchedulerDaemon.restore(bad, scn.space)

        with tempfile.TemporaryDirectory() as tmp:
            _drive(run(tmp))



class TestSparseDaemon:
    """The sparse backend on a thresholded pattern: the checkpoint
    carries the pinned interaction radius, so a restore rebuilds the
    same stored pattern and resumes byte-identically."""

    @pytest.mark.parametrize("kind", ["first_fit", "capacity"])
    @given(cut_pct=st.integers(1, 99))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_kill_mid_trace_resumes_byte_identical(self, kind, cut_pct):
        scn = _scn(seed=8, n_links=48, horizon=20)
        static = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=0.5
        )
        assert not static.sparse_affectance.complete
        events = list(scn.events)
        k = max(1, (len(events) * cut_pct) // 100)
        config = DaemonConfig(kind=kind)

        def build():
            return build_daemon(scn, config=config, backend="sparse", eps=0.5)

        async def uninterrupted():
            daemon = build()
            await daemon.start()
            await _replay(daemon, events)
            await daemon.stop()
            return daemon

        async def killed():
            daemon = build()
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            assert resumed.core.backend == "sparse"
            assert resumed.core.radius == daemon.core.radius
            await resumed.start()
            await _replay(resumed, events[k:])
            await resumed.stop()
            return resumed

        live = _drive(uninterrupted())
        resumed = _drive(killed())
        assert _state_bytes(resumed) == _state_bytes(live)

    def test_complete_pattern_daemon_places_like_dense(self):
        """On a complete pattern the sparse daemon places every event
        exactly as the dense one does."""
        scn = _scn(seed=8)
        static = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=1e-3
        )
        assert static.sparse_affectance.complete

        async def run(backend):
            daemon = build_daemon(scn, backend=backend, eps=1e-3)
            await daemon.start()
            results = await _replay(daemon, scn.events)
            await daemon.stop()
            for res in results:
                del res["latency_s"]
            return results, daemon.repairer.schedule.slots

        assert _drive(run("sparse")) == _drive(run("dense"))
