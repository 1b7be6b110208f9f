"""Equivalence pins for the incremental scheduling kernels.

The incremental ``SchedulingContext.repeated_capacity`` (remaining-set
affectance ledger, mask updates, auto-admission fast paths, O(1)
min-separation) and the ledger-based ``first_fit`` must produce slots
*byte-identical* to the from-scratch PR-1 implementations, which are
reproduced verbatim below: a fresh ``LinkSet`` rebuild with fresh matrices
every round, the O(|X|) separation row scan, and the per-slot accumulation
loop.  Any float-level deviation — a re-associated sum, a reordered
update, drifted ledger arithmetic — shows up as a differing slot tuple.

Pinned across at least three registry scenarios, multiple seeds, and both
admission kernels, as dense instances (many rounds) and sparse ones (few
rounds).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.context import SchedulingContext
from repro.algorithms.scheduling import (
    schedule_first_fit,
    schedule_repeated_capacity,
)
from repro.core.affectance import affectance_matrix, in_affectances_within
from repro.core.links import LinkSet
from repro.core.power import uniform_power
from repro.core.separation import link_distance_matrix
from repro.scenarios import build_scenario
from tests.conftest import make_planar_links

#: Scenario sweep: mixes moderate-zeta geometric spaces (multi-link slots,
#: few rounds) with high-zeta measured/urban spaces (degenerate separation,
#: one round per link — the maximum round count the ledger must survive).
SCENARIOS = ["planar_uniform", "clustered", "corridor", "dense_urban"]
SEEDS = [0, 1, 2]


# ----------------------------------------------------------------------
# From-scratch PR-1 reference implementations (kept verbatim, on purpose)
# ----------------------------------------------------------------------
def _pr1_capacity_candidate(
    links: LinkSet, zeta_cap: float, *, separation: bool, threshold: float = 0.5
) -> list[int]:
    """The PR-1 admission loop on a freshly built link set."""
    powers = uniform_power(links)
    a = affectance_matrix(links, powers, clip=True)
    dist = link_distance_matrix(links, zeta_cap)
    qlen = np.diagonal(dist)
    eta = zeta_cap / 2.0
    x: list[int] = []
    in_aff = np.zeros(links.m)
    out_aff = np.zeros(links.m)
    for v in links.order_by_length():
        v = int(v)
        if separation:
            separated = bool(np.all(dist[v, x] >= eta * qlen[v])) if x else True
        else:
            separated = True
        if separated and out_aff[v] + in_aff[v] <= threshold:
            x.append(v)
            in_aff += a[v]
            out_aff += a[:, v]
    return x


def _pr1_selected(links: LinkSet, x: list[int]) -> tuple[int, ...]:
    """The PR-1 closing filter on a freshly built affectance matrix."""
    if not x:
        return ()
    a = affectance_matrix(links, uniform_power(links), clip=True)
    x_arr = np.asarray(x, dtype=int)
    final_in = in_affectances_within(a, x_arr)
    return tuple(sorted(int(v) for v, load in zip(x_arr, final_in) if load <= 1.0))


def pr1_repeated_capacity(
    links: LinkSet, *, separation: bool
) -> tuple[tuple[int, ...], ...]:
    """From-scratch SCHEDULING: rebuild the LinkSet and matrices per round."""
    zeta = links.space.metricity()
    zeta_cap = max(zeta if zeta > 0 else 1.0, 1.0)
    remaining = list(range(links.m))
    slots: list[tuple[int, ...]] = []
    while remaining:
        sub = links.subset(remaining)
        x = _pr1_capacity_candidate(sub, zeta_cap, separation=separation)
        chosen = [remaining[i] for i in _pr1_selected(sub, x)]
        if not chosen:
            chosen = [min(remaining, key=lambda v: (links.length(v), v))]
        slots.append(tuple(sorted(chosen)))
        removed = set(chosen)
        remaining = [v for v in remaining if v not in removed]
    return tuple(slots)


def pr1_first_fit(links: LinkSet) -> tuple[tuple[int, ...], ...]:
    """The PR-1 first-fit loop on a freshly computed raw affectance matrix."""
    a = affectance_matrix(links, uniform_power(links), clip=False)
    slots: list[list[int]] = []
    in_aff: list[np.ndarray] = []
    for v in links.order_by_length():
        v = int(v)
        placed = False
        for t, slot in enumerate(slots):
            if in_aff[t][v] > 1.0:
                continue
            if np.all(in_aff[t][slot] + a[v, slot] <= 1.0):
                slot.append(v)
                in_aff[t] += a[v]
                placed = True
                break
        if not placed:
            slots.append([v])
            in_aff.append(a[v].copy())
    return tuple(tuple(sorted(s)) for s in slots)


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------
class TestRepeatedCapacityIncremental:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bounded_growth_byte_identical(self, scenario, seed):
        links = build_scenario(scenario, n_links=24, seed=seed)
        fast = SchedulingContext(links).repeated_capacity()
        assert fast == pr1_repeated_capacity(links, separation=True)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_general_byte_identical(self, scenario, seed):
        links = build_scenario(scenario, n_links=24, seed=seed)
        fast = SchedulingContext(links).repeated_capacity(admission="general")
        assert fast == pr1_repeated_capacity(links, separation=False)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense_many_rounds(self, seed):
        """Dense planar instances: multi-link slots over many rounds."""
        links = make_planar_links(60, alpha=3.0, seed=seed, extent=8.0)
        ctx = SchedulingContext(links)
        assert ctx.repeated_capacity() == pr1_repeated_capacity(
            links, separation=True
        )
        assert ctx.repeated_capacity(
            admission="general"
        ) == pr1_repeated_capacity(links, separation=False)

    def test_wrapper_path_unchanged(self):
        """The public wrapper rides the same incremental kernels."""
        links = build_scenario("clustered", n_links=30, seed=4)
        schedule = schedule_repeated_capacity(links)
        assert schedule.slots == pr1_repeated_capacity(links, separation=True)


class TestAdaptiveAnchorsUnderChurn:
    """Cross-validation of the capacity-repair anchors: under churn,
    ``admission="adaptive"`` re-anchors (a freeze-copied raw affectance,
    never an affectance rebuild) must equal the *static* adaptive schedule computed on a
    freshly built :class:`SchedulingContext` over the surviving links —
    at every ``rebuild_every`` anchor, on both a high-zeta walled space
    and the dense urban workload."""

    @pytest.mark.parametrize("scenario", ["corridor", "dense_urban"])
    @pytest.mark.parametrize("rebuild_every", [1, 3])
    def test_adaptive_anchor_matches_static_schedule(
        self, scenario, rebuild_every
    ):
        from repro.algorithms.context import DynamicContext
        from repro.algorithms.repair import CapacityRepairScheduler

        links = build_scenario(scenario, n_links=16, seed=2)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(links.space, pairs[:10])
        rs = CapacityRepairScheduler(
            dyn, admission="adaptive", rebuild_every=rebuild_every
        )
        rng = np.random.default_rng(11)
        alive = list(range(10))
        nxt = 10
        for _ in range(9):
            if rng.random() < 0.5 or len(alive) <= 4:
                batch = [pairs[nxt % len(pairs)]]
                nxt += 1
                slots = dyn.add_links(batch)
                alive.extend(slots)
                rs.apply(slots, [])
            else:
                gone = [alive.pop(int(rng.integers(len(alive))))]
                dyn.remove_links(gone)
                rs.apply([], gone)
            if rs.stats.events % rebuild_every != 0:
                continue
            # This event re-anchored: the maintained schedule must be
            # the static adaptive schedule of the surviving links.
            act = [int(s) for s in dyn.active_slots]
            fresh_links = LinkSet(
                links.space,
                [
                    (int(dyn.senders[s]), int(dyn.receivers[s]))
                    for s in act
                ],
            )
            fresh = SchedulingContext(fresh_links).repeated_capacity(
                admission="adaptive"
            )
            expected = tuple(
                tuple(sorted(act[i] for i in slot)) for slot in fresh
            )
            assert rs.schedule.slots == expected


class TestFirstFitLedger:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_identical(self, scenario, seed):
        links = build_scenario(scenario, n_links=24, seed=seed)
        assert SchedulingContext(links).first_fit() == pr1_first_fit(links)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_explicit_order(self, seed):
        links = make_planar_links(20, alpha=3.0, seed=seed)
        rng = np.random.default_rng(seed + 100)
        order = rng.permutation(20).tolist()
        ctx_slots = SchedulingContext(links).first_fit(order=order)
        # PR-1 with the same explicit order.
        a = affectance_matrix(links, uniform_power(links), clip=False)
        slots: list[list[int]] = []
        in_aff: list[np.ndarray] = []
        for v in order:
            placed = False
            for t, slot in enumerate(slots):
                if in_aff[t][v] > 1.0:
                    continue
                if np.all(in_aff[t][slot] + a[v, slot] <= 1.0):
                    slot.append(v)
                    in_aff[t] += a[v]
                    placed = True
                    break
            if not placed:
                slots.append([v])
                in_aff.append(a[v].copy())
        assert ctx_slots == tuple(tuple(sorted(s)) for s in slots)
        assert schedule_first_fit(links, order=order).slots == ctx_slots
