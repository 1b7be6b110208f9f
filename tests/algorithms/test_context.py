"""Tests for the shared SchedulingContext (matrices computed once).

The load-bearing property is *exact* equivalence: every context-based
algorithm must produce byte-identical output to the historical
implementation that rebuilt ``LinkSet`` subsets and their matrices from
scratch — subsetting a precomputed matrix and recomputing the matrix of a
subset are the same floats.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.capacity import capacity_bounded_growth
from repro.algorithms.capacity_general import capacity_general_metric
from repro.algorithms.context import SchedulingContext
from repro.algorithms.scheduling import (
    schedule_first_fit,
    schedule_repeated_capacity,
)
from repro.core.affectance import affectance_matrix, as_view
from repro.core.feasibility import is_feasible
from repro.core.power import uniform_power
from repro.core.separation import link_distance_matrix
from repro.errors import LinkError
from tests.conftest import make_planar_links


def legacy_repeated_capacity(links, algo, noise=0.0, beta=1.0):
    """The pre-refactor scheduling loop: rebuild a LinkSet every round."""
    remaining = list(range(links.m))
    slots = []
    while remaining:
        sub = links.subset(remaining)
        result = algo(sub, noise=noise, beta=beta)
        chosen = [remaining[i] for i in result.selected]
        if not chosen:
            chosen = [min(remaining, key=lambda v: (links.length(v), v))]
        slots.append(tuple(sorted(chosen)))
        removed = set(chosen)
        remaining = [v for v in remaining if v not in removed]
    return tuple(slots)


class TestMatrices:
    def test_matrices_match_direct_computation(self):
        links = make_planar_links(10, alpha=3.0, seed=0)
        ctx = SchedulingContext(links)
        p = uniform_power(links)
        assert np.array_equal(
            ctx.raw_affectance, affectance_matrix(links, p, clip=False)
        )
        assert np.array_equal(
            ctx.affectance, affectance_matrix(links, p, clip=True)
        )
        assert np.array_equal(
            ctx.link_distances, link_distance_matrix(links, ctx.zeta_capacity)
        )
        assert np.array_equal(ctx.order, links.order_by_length())

    def test_lazy_zeta_not_resolved_by_first_fit(self):
        links = make_planar_links(8, alpha=3.0, seed=1)
        ctx = SchedulingContext(links)
        ctx.first_fit()
        # First-fit needs no metricity; the space's cache must stay cold.
        assert "zeta" not in ctx._cache

    def test_context_feasibility_matches_core(self):
        links = make_planar_links(12, alpha=3.0, seed=2)
        ctx = SchedulingContext(links)
        powers = uniform_power(links)
        rng = np.random.default_rng(5)
        for _ in range(10):
            size = int(rng.integers(1, 12))
            subset = sorted(rng.choice(12, size=size, replace=False).tolist())
            assert ctx.is_feasible(subset) == is_feasible(links, subset, powers)


class TestZetaValidation:
    """Regression: a NaN ``zeta`` used to be accepted and passed every
    separation test (each comparison with NaN is false), so Algorithm 1
    on ``planar_uniform`` m=30 admitted 21 links instead of 19; an
    infinite one was accepted too.  Both contexts and
    ``LinkSet._resolve_zeta`` now refuse them before building state."""

    BAD = [float("nan"), float("inf"), -float("inf"), 0.0, -2.0]

    @pytest.mark.parametrize("zeta", BAD)
    def test_scheduling_context_rejects(self, zeta):
        links = make_planar_links(6, alpha=3.0, seed=1)
        with pytest.raises(LinkError, match="zeta must be positive"):
            SchedulingContext(links, zeta=zeta)

    @pytest.mark.parametrize("zeta", BAD)
    def test_dynamic_context_rejects(self, zeta):
        from repro.algorithms.context import DynamicContext

        links = make_planar_links(6, alpha=3.0, seed=1)
        pairs = list(zip(links.senders.tolist(), links.receivers.tolist()))
        with pytest.raises(LinkError, match="zeta must be positive"):
            DynamicContext(links.space, pairs, zeta=zeta)

    @pytest.mark.parametrize("zeta", BAD)
    def test_link_set_resolution_rejects(self, zeta):
        links = make_planar_links(6, alpha=3.0, seed=1)
        with pytest.raises(LinkError, match="zeta must be positive"):
            links.quasi_lengths(zeta=zeta)
        with pytest.raises(LinkError, match="zeta must be positive"):
            capacity_bounded_growth(links, zeta=zeta)

    def test_finite_zeta_still_accepted(self):
        links = make_planar_links(6, alpha=3.0, seed=1)
        assert SchedulingContext(links, zeta=np.float64(2.5)).zeta == 2.5


class TestCapacityEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_set_matches_wrapper(self, seed):
        links = make_planar_links(15, alpha=3.0, seed=seed)
        ctx = SchedulingContext(links)
        selected, candidate = ctx.capacity_bounded_growth()
        result = capacity_bounded_growth(links)
        assert selected == result.selected
        assert candidate == result.candidate

    @staticmethod
    def _subset_context(links, active):
        """A context over ``active`` reached by departures: every other
        link leaves a dynamic context over all links, which then freezes
        (it lists the remaining links in slot order, the order of
        ``links.subset(active)``)."""
        from repro.algorithms.context import DynamicContext

        pairs = list(zip(links.senders.tolist(), links.receivers.tolist()))
        dyn = DynamicContext(links.space, pairs)
        dyn.remove_links(sorted(set(range(links.m)) - set(active)))
        assert dyn.active_slots.tolist() == active
        return dyn.freeze()

    @pytest.mark.parametrize("seed", range(5))
    def test_subset_matches_rebuilt_linkset(self, seed):
        links = make_planar_links(16, alpha=3.0, seed=seed)
        rng = np.random.default_rng(seed)
        active = sorted(rng.choice(16, size=9, replace=False).tolist())
        ctx = self._subset_context(links, active)
        selected, candidate = ctx.capacity_bounded_growth()
        sub_result = capacity_bounded_growth(links.subset(active))
        assert selected == sub_result.selected
        assert candidate == sub_result.candidate

    @pytest.mark.parametrize("seed", range(3))
    def test_general_greedy_subset_matches(self, seed):
        links = make_planar_links(14, alpha=3.0, seed=seed)
        rng = np.random.default_rng(seed + 7)
        active = sorted(rng.choice(14, size=8, replace=False).tolist())
        ctx = self._subset_context(links, active)
        selected, candidate = ctx.capacity_general()
        sub_result = capacity_general_metric(links.subset(active))
        assert selected == sub_result.selected
        assert candidate == sub_result.candidate

    def test_unknown_admission_kernel_rejected(self):
        links = make_planar_links(4, alpha=3.0, seed=0)
        with pytest.raises(LinkError, match="admission"):
            SchedulingContext(links).repeated_capacity(admission="nope")

    def test_max_slots_overflow_leaves_context_state_intact(self):
        """A max_slots overflow must raise without corrupting the context.

        The incremental loop keeps all round state (remaining mask,
        affectance ledger) local to the call; an overflow mid-schedule must
        not leave partial deltas behind in the cached matrices, and the
        same context must still produce the full correct schedule
        afterwards.
        """
        links = make_planar_links(24, alpha=3.0, seed=5, extent=6.0)
        ctx = SchedulingContext(links)
        baseline = ctx.repeated_capacity()
        assert len(baseline) > 2  # dense instance: needs several slots
        cached_keys = set(ctx._cache)
        cached_arrays = {
            k: v for k, v in ctx._cache.items() if isinstance(v, np.ndarray)
        }
        snapshots = {k: v.copy() for k, v in cached_arrays.items()}
        with pytest.raises(LinkError, match="exceeded"):
            ctx.repeated_capacity(max_slots=1)
        assert set(ctx._cache) == cached_keys
        for k, arr in cached_arrays.items():
            assert ctx._cache[k] is arr  # same objects, not rebuilt
            assert np.array_equal(arr, snapshots[k])  # and unmutated
        assert ctx.repeated_capacity() == baseline
        with pytest.raises(LinkError, match="exceeded"):
            ctx.repeated_capacity(admission="general", max_slots=1)
        assert ctx.repeated_capacity(admission="general") == (
            SchedulingContext(links).repeated_capacity(admission="general")
        )


class TestSchedulingEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_capacity_slots_byte_identical(self, seed):
        links = make_planar_links(18, alpha=3.0, seed=seed)
        fast = schedule_repeated_capacity(links)
        legacy = legacy_repeated_capacity(links, capacity_bounded_growth)
        assert fast.slots == legacy

    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_general_slots_byte_identical(self, seed):
        links = make_planar_links(15, alpha=3.0, seed=seed)
        fast = schedule_repeated_capacity(
            links, capacity_algorithm=capacity_general_metric
        )
        legacy = legacy_repeated_capacity(links, capacity_general_metric)
        assert fast.slots == legacy

    @pytest.mark.parametrize("seed", range(4))
    def test_first_fit_matches_context(self, seed):
        links = make_planar_links(14, alpha=3.0, seed=seed)
        ctx = SchedulingContext(links)
        assert schedule_first_fit(links).slots == ctx.first_fit()

    def test_shared_context_across_calls(self):
        links = make_planar_links(12, alpha=3.0, seed=9)
        ctx = SchedulingContext(links)
        by_ctx = schedule_repeated_capacity(links, context=ctx)
        fresh = schedule_repeated_capacity(links)
        assert by_ctx.slots == fresh.slots
        assert schedule_first_fit(links, context=ctx).slots == (
            schedule_first_fit(links).slots
        )

    def test_mismatched_context_rejected(self):
        links = make_planar_links(6, alpha=3.0, seed=3)
        other = make_planar_links(6, alpha=3.0, seed=4)
        ctx = SchedulingContext(other)
        with pytest.raises(LinkError, match="different links"):
            schedule_repeated_capacity(links, context=ctx)
        ctx_noise = SchedulingContext(links, noise=0.1)
        with pytest.raises(LinkError, match="different links"):
            schedule_first_fit(links, context=ctx_noise)

    def test_capacity_validates_context(self):
        links = make_planar_links(6, alpha=3.0, seed=3)
        other = make_planar_links(6, alpha=3.0, seed=4)
        ctx = SchedulingContext(links)
        assert capacity_bounded_growth(links, context=ctx).selected == (
            capacity_bounded_growth(links).selected
        )
        with pytest.raises(LinkError, match="different links"):
            capacity_bounded_growth(other, context=ctx)
        with pytest.raises(LinkError, match="different links"):
            capacity_bounded_growth(links, noise=0.5, context=ctx)
        with pytest.raises(LinkError, match="power"):
            capacity_bounded_growth(links, power=2.0, context=ctx)
        with pytest.raises(LinkError, match="zeta"):
            capacity_bounded_growth(links, zeta=8.0, context=ctx)


@given(
    st.integers(min_value=2, max_value=14),
    st.integers(min_value=0, max_value=30),
)
def test_context_scheduling_always_matches_legacy(n_links, seed):
    links = make_planar_links(n_links, alpha=3.0, seed=seed)
    fast = schedule_repeated_capacity(links)
    assert fast.slots == legacy_repeated_capacity(links, capacity_bounded_growth)


def reference_first_fit_every_member(a, order) -> list[list[int]]:
    """First fit that probes every member of every slot (reference).

    The plain rule, no support shortcut: a link joins the earliest slot
    where its own in-affectance and every member's, with the link's
    (zero-padded) row added, stay at most 1.  Either backend is read one
    dense row at a time through its view.
    """
    n = a.shape[0]
    row = as_view(a).dense_row
    slots: list[list[int]] = []
    sums: list[np.ndarray] = []
    for v in order:
        v = int(v)
        av = row(v)
        for t, mem in enumerate(slots):
            if sums[t][v] <= 1.0 and np.all(sums[t][mem] + av[mem] <= 1.0):
                mem.append(v)
                sums[t] += av
                break
        else:
            slots.append([v])
            sums.append(np.zeros(n) + av)
    return slots


class TestFirstFitKernel:
    """The sparse kernel compares only the members in a link's row
    support and the dense one gathers them from per-slot buffers; the
    every-member reference must give the same slots, in admission order,
    on both backends and under any processing order."""

    @given(
        name=st.sampled_from(
            ["planar_uniform", "dense_urban", "asymmetric_measured", "corridor"]
        ),
        seed=st.integers(0, 50),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    def test_matches_every_member_reference(self, name, seed, backend):
        from repro.algorithms.context import _first_fit_slots
        from repro.scenarios import build_scenario

        links = build_scenario(name, n_links=60, seed=seed)
        ctx = SchedulingContext(links, backend=backend, eps=0.3)
        a = ctx.raw_affectance if backend == "dense" else ctx.sparse_affectance.raw
        order = np.random.default_rng(seed).permutation(links.m)
        got = _first_fit_slots(a, order)
        assert got == reference_first_fit_every_member(a, order)
