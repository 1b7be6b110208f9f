"""Churn-identity tests: the incremental DynamicContext is exact.

The load-bearing property of the dynamic layer: after *any* sequence of
arrivals and departures, the one maintained matrix — the raw affectance —
and everything a frozen context derives from it (clipped affectance, link
quasi-distances, repeated-capacity schedules, first-fit slots, capacity
sets) is **byte-identical** to a :class:`SchedulingContext` built from
scratch over the surviving links.

Property tests drive random churn traces over three registry scenarios
(geometric, hotspot-clustered, and asymmetric-measured spaces — the last
exercises asymmetric affectance rows and columns); unit tests cover slot
reuse, capacity growth, validation, and the zeta-adaptive admission rule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import DynamicContext, SchedulingContext
from repro.core.decay import DecaySpace
from repro.core.links import LinkSet
from repro.errors import InfeasibleLinkError, LinkError, PowerError
from repro.scenarios import build_scenario
from tests.conftest import CHURN_EXAMPLES

#: Registry scenarios the churn-identity property sweeps (>= 3, including
#: an asymmetric space).
IDENTITY_SCENARIOS = ("planar_uniform", "clustered", "asymmetric_measured")

def _fresh_like(dyn: DynamicContext) -> SchedulingContext:
    """A from-scratch context over the dynamic context's current links."""
    act = dyn.active_slots
    pairs = [(int(dyn.senders[s]), int(dyn.receivers[s])) for s in act]
    return SchedulingContext(
        LinkSet(dyn.space, pairs),
        dyn.powers[act].copy(),
        noise=dyn.noise,
        beta=dyn.beta,
    )


def _pinned_radius(space: DecaySpace) -> float:
    """An interaction radius that keeps some node pairs and drops others."""
    pts = space.geometry.points
    return 0.3 * float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))


def _raw_snapshot(dyn: DynamicContext) -> np.ndarray:
    """The padded raw affectance as a fresh dense array (both backends)."""
    a = dyn.raw_affectance
    if isinstance(a, np.ndarray):
        return a.copy()
    return np.array([a.dense_row(s) for s in range(dyn.capacity)])


def _run_churn(links: LinkSet, seed: int, events: int) -> DynamicContext:
    """Replay a random churn trace; re-adds old pairs as fresh arrivals."""
    pairs = [(l.sender, l.receiver) for l in links]
    m0 = max(3, links.m // 2)
    dyn = DynamicContext(links.space, pairs[:m0])
    rng = np.random.default_rng(seed)
    alive = list(range(m0))
    next_pair = m0
    for _ in range(events):
        if rng.random() < 0.5 or len(alive) <= 2:
            s, r = pairs[next_pair % len(pairs)]
            next_pair += 1
            alive.append(dyn.add_link(s, r))
        else:
            dyn.remove_links(alive.pop(int(rng.integers(len(alive)))))
    return dyn


class TestChurnIdentity:
    @pytest.mark.parametrize("scenario", IDENTITY_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_matrices_byte_identical_after_churn(self, scenario, seed):
        links = build_scenario(scenario, n_links=12, seed=3)
        dyn = _run_churn(links, seed, events=25)
        fresh = _fresh_like(dyn)
        frozen = dyn.freeze()
        assert np.array_equal(frozen.raw_affectance, fresh.raw_affectance)
        assert np.array_equal(frozen.affectance, fresh.affectance)
        assert np.array_equal(frozen.link_distances, fresh.link_distances)
        assert frozen.zeta == fresh.zeta
        assert np.array_equal(frozen.order, fresh.order)

    @pytest.mark.parametrize("scenario", IDENTITY_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_schedules_byte_identical_after_churn(self, scenario, seed):
        links = build_scenario(scenario, n_links=12, seed=3)
        dyn = _run_churn(links, seed, events=20)
        fresh = _fresh_like(dyn)
        frozen = dyn.freeze()
        for admission in ("bounded_growth", "general", "adaptive"):
            assert frozen.repeated_capacity(
                admission=admission
            ) == fresh.repeated_capacity(admission=admission)
        assert frozen.first_fit() == fresh.first_fit()
        assert frozen.capacity_bounded_growth() == fresh.capacity_bounded_growth()
        assert frozen.capacity_general() == fresh.capacity_general()

    @pytest.mark.parametrize("scenario", IDENTITY_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_free_slots_carry_no_residue(self, scenario, seed):
        links = build_scenario(scenario, n_links=12, seed=3)
        dyn = _run_churn(links, seed, events=25)
        act = dyn.active_slots
        # Free slots carry no residue that could leak into a later reuse.
        free = np.setdiff1d(np.arange(dyn.capacity), act)
        assert np.all(dyn.raw_affectance[free] == 0.0)
        assert np.all(dyn.raw_affectance[:, free] == 0.0)

    def test_sub_metric_space_uses_capacity_exponent(self):
        """zeta < 1 regression: the frozen context's distances clamp the
        exponent at 1, exactly as a fresh context's do, after churn."""
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, size=(16, 2))
        space = DecaySpace.from_points(pts, 0.5)
        assert space.metricity() < 1.0
        pairs = [(2 * i, 2 * i + 1) for i in range(8)]
        dyn = DynamicContext(space, pairs[:5])
        for s, r in pairs[5:]:
            dyn.add_link(s, r)
        dyn.remove_links([1])
        fresh = _fresh_like(dyn)
        frozen = dyn.freeze()
        assert frozen.zeta_capacity == 1.0
        assert np.array_equal(frozen.link_distances, fresh.link_distances)
        assert frozen.repeated_capacity() == fresh.repeated_capacity()


class TestBatchedArrivals:
    """add_links must be byte-identical to sequential add_link calls."""

    @pytest.mark.parametrize("scenario", IDENTITY_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_batch_identical_to_sequential(self, scenario, seed):
        links = build_scenario(scenario, n_links=14, seed=3)
        pairs = [(l.sender, l.receiver) for l in links]
        rng = np.random.default_rng(seed)
        m0 = int(rng.integers(0, 6))
        batches = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 7))
            batch = [
                pairs[int(rng.integers(len(pairs)))] for _ in range(k)
            ]
            batches.append((batch, rng.uniform(0.5, 2.0, size=k)))

        def replay(**backend):
            seq, bat = (
                DynamicContext(links.space, pairs[:m0], capacity=4, **backend)
                for _ in range(2)
            )
            if m0 >= 3:  # fragment the free list so slot reuse is exercised
                seq.remove_links([1])
                bat.remove_links([1])
            for batch, powers in batches:
                got = [
                    seq.add_link(s, r, power=p)
                    for (s, r), p in zip(batch, powers)
                ]
                want = bat.add_links(batch, powers=powers)
                assert got == want
            assert seq.capacity == bat.capacity
            assert np.array_equal(seq.lengths, bat.lengths)
            assert np.array_equal(seq.powers, bat.powers)
            return seq, bat

        seq, bat = replay()
        assert np.array_equal(seq.raw_affectance, bat.raw_affectance)
        # Sparse, at a pinned radius that drops pairs: the adjacency is
        # identical entry for entry.
        seq, bat = replay(backend="sparse", radius=_pinned_radius(links.space))
        for s in range(seq.capacity):
            want = seq._row[s] + seq._col[s]
            for a, b in zip(want, bat._row[s] + bat._col[s]):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_batch_into_empty_context(self):
        links = build_scenario("planar_uniform", n_links=6, seed=1)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space)
        assert dyn.add_links(pairs) == list(range(6))
        fresh = _fresh_like(dyn)
        assert np.array_equal(
            dyn.freeze().raw_affectance, fresh.raw_affectance
        )

    def test_empty_batch_is_noop(self):
        links = build_scenario("planar_uniform", n_links=4, seed=2)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs)
        before = dyn.raw_affectance.copy()
        assert dyn.add_links([]) == []
        assert dyn.m == 4
        assert np.array_equal(dyn.raw_affectance, before)

    def test_scalar_power_broadcasts(self):
        links = build_scenario("planar_uniform", n_links=6, seed=3)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs[:2])
        slots = dyn.add_links(pairs[2:5], powers=2.5)
        assert np.all(dyn.powers[slots] == 2.5)

    def test_batch_validation_is_atomic(self):
        """A bad entry anywhere in the batch leaves the context untouched."""
        links = build_scenario("planar_uniform", n_links=6, seed=4)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs[:3])
        before = dyn.raw_affectance.copy()
        with pytest.raises(LinkError):
            dyn.add_links([pairs[3], (0, links.space.n + 2)])
        with pytest.raises(PowerError):
            dyn.add_links(pairs[3:5], powers=[1.0, -1.0])
        with pytest.raises(PowerError):
            dyn.add_links(pairs[3:5], powers=[1.0, 2.0, 3.0])
        noisy = DynamicContext(
            links.space, pairs[:2], noise=1e6, beta=1.0,
            powers=1e12 * np.ones(2),
        )
        with pytest.raises(InfeasibleLinkError):
            noisy.add_links([pairs[2], pairs[3]], powers=[1e12, 1.0])
        assert dyn.m == 3
        assert np.array_equal(dyn.raw_affectance, before)


class TestDynamicContextMechanics:
    def test_initial_links_occupy_slots_in_order(self):
        links = build_scenario("planar_uniform", n_links=6, seed=1)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs)
        assert dyn.m == 6
        assert list(dyn.active_slots) == list(range(6))
        assert np.array_equal(dyn.senders[:6], links.senders)

    def test_slot_reuse_lowest_first(self):
        links = build_scenario("planar_uniform", n_links=6, seed=1)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs)
        dyn.remove_links([1, 4])
        assert dyn.add_link(*pairs[1]) == 1
        assert dyn.add_link(*pairs[4]) == 4
        assert dyn.add_link(*pairs[0]) == 6

    def test_capacity_grows_and_preserves_state(self):
        links = build_scenario("planar_uniform", n_links=4, seed=2)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs, capacity=4)
        before = dyn.raw_affectance[np.ix_(range(4), range(4))].copy()
        for k in range(20):
            dyn.add_link(*pairs[k % 4])
        assert dyn.m == 24
        assert dyn.capacity >= 24
        assert np.array_equal(
            dyn.raw_affectance[np.ix_(range(4), range(4))], before
        )
        fresh = _fresh_like(dyn)
        assert np.array_equal(
            dyn.freeze().raw_affectance, fresh.raw_affectance
        )

    def test_dynamic_view_adopts_cached_matrices(self):
        links = build_scenario("planar_uniform", n_links=8, seed=3)
        ctx = SchedulingContext(links)
        ctx.raw_affectance
        ctx.link_distances
        dyn = ctx.dynamic()
        act = dyn.active_slots
        assert np.array_equal(
            dyn.raw_affectance[np.ix_(act, act)], ctx.raw_affectance
        )
        assert np.array_equal(
            dyn.freeze().link_distances, ctx.link_distances
        )
        # Mutating the view must not disturb the source context.
        dyn.remove_links([0])
        assert ctx.m == 8
        assert np.all(ctx.raw_affectance[0] == ctx.raw_affectance[0])

    def test_validation_errors(self):
        links = build_scenario("planar_uniform", n_links=4, seed=4)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs)
        with pytest.raises(LinkError):
            dyn.add_link(0, links.space.n + 3)
        with pytest.raises(LinkError):
            dyn.add_link(2, 2)
        with pytest.raises(PowerError):
            dyn.add_link(*pairs[0], power=-1.0)
        with pytest.raises(LinkError):
            dyn.remove_links([99])
        dyn.remove_links([0])
        with pytest.raises(LinkError):
            dyn.remove_links([0])  # already departed
        # Slot ids are integers: a float, bool or float array is refused
        # before anything changes, on both backends.
        bad_ids = (
            [2.7], [True], np.float64(4.0), 2.0, [np.float64(1.0)],
            np.array([1.5]), np.array([True]), [1, True],
        )
        for backend in ("dense", "sparse"):
            dyn = DynamicContext(links.space, pairs, backend=backend)
            m, act = dyn.m, dyn.active_slots.copy()
            raw = _raw_snapshot(dyn)
            for ids in bad_ids:
                with pytest.raises(LinkError, match="integers"):
                    dyn.remove_links(ids)
            assert dyn.m == m
            assert np.array_equal(dyn.active_slots, act)
            assert np.array_equal(_raw_snapshot(dyn), raw)
            # Python ints, numpy integer scalars and integer arrays work.
            dyn.remove_links(np.int64(1))
            dyn.remove_links(np.array([2], dtype=np.int32))
            dyn.remove_links([3])
            dyn.remove_links(np.array([], dtype=float))  # empty: a no-op
            assert dyn.active_slots.tolist() == [0]

    def test_non_integer_endpoints_rejected(self):
        """Arrival endpoints follow the slot-id rule: Python and numpy
        integers pass, floats and bools raise ``LinkError`` before
        anything changes (a batch is atomic), on both backends."""
        links = build_scenario("planar_uniform", n_links=4, seed=4)
        pairs = [(l.sender, l.receiver) for l in links]
        good = (pairs[0][0], pairs[1][1])
        for backend in ("dense", "sparse"):
            dyn = DynamicContext(links.space, pairs, backend=backend)
            m, act = dyn.m, dyn.active_slots.copy()
            raw = _raw_snapshot(dyn)
            for batch in ([(0.9, 5.7)], [(True, 2)], [good, (1.0, 2)]):
                with pytest.raises(LinkError, match="integers"):
                    dyn.add_links(batch)
            with pytest.raises(LinkError, match="integers"):
                DynamicContext(links.space, [(0.9, 5.7)], backend=backend)
            assert dyn.m == m
            assert np.array_equal(dyn.active_slots, act)
            assert np.array_equal(_raw_snapshot(dyn), raw)
            slots = dyn.add_links([(np.int64(good[0]), np.int32(good[1]))])
            assert (dyn.senders[slots[0]], dyn.receivers[slots[0]]) == good

    def test_noise_infeasible_arrival_rejected(self):
        links = build_scenario("planar_uniform", n_links=4, seed=5)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(
            links.space, pairs, noise=1e6, beta=1.0,
            powers=1e12 * np.ones(4),
        )
        with pytest.raises(InfeasibleLinkError):
            dyn.add_link(*pairs[0], power=1.0)

    def test_freeze_empty_raises(self):
        links = build_scenario("planar_uniform", n_links=3, seed=6)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs)
        dyn.remove_links([0, 1, 2])
        assert dyn.m == 0
        with pytest.raises(LinkError):
            dyn.freeze()

    def test_empty_start_then_arrivals(self):
        links = build_scenario("planar_uniform", n_links=5, seed=7)
        dyn = DynamicContext(links.space)
        assert dyn.m == 0
        for l in links:
            dyn.add_link(l.sender, l.receiver)
        fresh = _fresh_like(dyn)
        assert np.array_equal(dyn.freeze().raw_affectance, fresh.raw_affectance)


class TestAdaptiveAdmission:
    @pytest.mark.parametrize(
        "scenario", ("corridor", "rayleigh_fading", "dense_urban")
    )
    def test_high_zeta_schedules_shorten(self, scenario):
        """The ROADMAP degeneration: singleton slots become real slots."""
        links = build_scenario(scenario, n_links=24, seed=5)
        ctx = SchedulingContext(links)
        bounded = ctx.repeated_capacity(admission="bounded_growth")
        adaptive = ctx.repeated_capacity(admission="adaptive")
        assert len(adaptive) < len(bounded)
        # Still a partition into affectance-feasible slots.
        assert sorted(v for s in adaptive for v in s) == list(range(24))
        a = ctx.affectance
        for slot in adaptive:
            idx = np.asarray(slot, dtype=int)
            assert np.all(a[np.ix_(idx, idx)].sum(axis=0) <= 1.0)

    def test_matches_bounded_growth_on_geometric_spaces(self):
        """Where separation works, adaptive must not change the output."""
        links = build_scenario("planar_uniform", n_links=24, seed=5)
        ctx = SchedulingContext(links)
        assert ctx.repeated_capacity(
            admission="adaptive"
        ) == ctx.repeated_capacity(admission="bounded_growth")

    def test_unknown_admission_rejected(self):
        links = build_scenario("planar_uniform", n_links=6, seed=5)
        with pytest.raises(LinkError):
            SchedulingContext(links).repeated_capacity(admission="bogus")

    def test_schedule_wrapper_admission_kwarg(self):
        from repro.algorithms.capacity import capacity_bounded_growth
        from repro.algorithms.scheduling import schedule_repeated_capacity

        links = build_scenario("corridor", n_links=16, seed=6)
        ctx = SchedulingContext(links)
        via_wrapper = schedule_repeated_capacity(
            links, admission="adaptive", context=ctx
        )
        assert via_wrapper.slots == ctx.repeated_capacity(admission="adaptive")
        with pytest.raises(LinkError):
            schedule_repeated_capacity(
                links, capacity_bounded_growth, admission="adaptive"
            )


def test_sparse_contexts_share_the_geometry_node_index():
    """Two sparse dynamic contexts over one geometry (a live one and a
    restore, say) reuse the geometry's cached node index instead of each
    building their own."""
    links = build_scenario("planar_uniform", n_links=20, seed=3)
    ctx = SchedulingContext(links, backend="sparse", eps=1e-2)
    radius = ctx.sparse_affectance.radius
    pair = (int(links.senders[0]), int(links.receivers[1]))
    first, second = ctx.dynamic(), ctx.dynamic()
    first.add_links([pair])  # each arrival batch queries the index
    second.add_links([pair])
    index = links.space.geometry.node_index(radius)
    assert first._node_index is index
    assert second._node_index is index
