"""Sparse-backend identity suite: thresholded CSR vs the dense reference.

The load-bearing contract of the sparse affectance backend
(:mod:`repro.core.affectance_sparse`): in the complete-pattern regime (a
tail tolerance so tight the certified radius covers the instance) every
schedule — first-fit, repeated capacity under all three admissions, the
one-shot capacity kernels — is **byte-identical** to the dense backend,
and a sparse :class:`DynamicContext` stays byte-identical to a dense one
through arbitrary churn, including the repair schedulers running on top.
At a *moderate* tolerance the pattern is genuinely sparse and the
certificate is the guarantee: every dropped entry is dominated by the
per-link tail bounds, so any schedule the sparse backend emits is
feasible under the dense matrix within ``1 + eps``.

Property tests sweep the registry scenarios (geometric, shadowed-urban,
and measured asymmetric spaces) plus random planar instances; unit tests
pin the tail certificate against brute-force dropped mass and the
backend-invariant validation added to ``check_context`` /
``SchedulingContext.__init__``.  On incomplete patterns at pinned radii,
sparse first fit is pinned to :func:`reference_first_fit_sparse`, the
sparse loop the package ran before all first-fit callers shared one loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import (
    DynamicContext,
    SchedulingContext,
    check_context,
)
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
)
from repro.core.affectance_sparse import (
    build_sparse_affectance,
    build_sparse_link_distances,
)
from repro.core.decay import DecaySpace
from repro.core.links import LinkSet
from repro.errors import LinkError
from repro.geometry.cells import CellIndex
from repro.scenarios import build_scenario, scenario_names
from tests.conftest import CHURN_EXAMPLES, make_planar_links

#: A tolerance so tight the certified radius always reaches the instance
#: diameter: the pattern is complete, nothing is dropped, and the sparse
#: kernels must reproduce the dense floats bit for bit.
TINY_EPS = 1e-300

#: Scenarios whose churn traces the dense-vs-sparse dynamic identity
#: sweeps (includes an asymmetric space: the per-orientation distance
#: storage is exactly what it exercises).
CHURN_SCENARIOS = ("planar_uniform", "dense_urban", "asymmetric_measured")


def reference_first_fit_sparse(
    a, m: int, sequence: list[int]
) -> tuple[tuple[int, ...], ...]:
    """Sparse first fit probing only slot-support overlaps (reference).

    The member-side check exploits the slot invariant — every member's
    in-affectance within its slot is at most 1 at all times — so members
    outside the candidate's row support (who would gain an exact 0.0)
    pass unconditionally, and only the overlap of the slot with the
    row's support is compared.  Each slot keeps a sorted member array
    (rebuilt by ``np.insert`` per admission) and its own ledger.
    """
    slots: list[list[int]] = []
    members: list[np.ndarray] = []  # sorted member arrays per slot
    sums: list[np.ndarray] = []  # per-slot a_slot(v) ledgers
    for v in sequence:
        idx, val = a.row(v)
        placed = False
        for t in range(len(slots)):
            in_aff = sums[t]
            if in_aff[v] > 1.0:
                continue
            mem = members[t]
            if idx.size:
                pos = np.searchsorted(idx, mem)
                pos_c = np.minimum(pos, idx.size - 1)
                hit = idx[pos_c] == mem
                if np.any(in_aff[mem[hit]] + val[pos_c[hit]] > 1.0):
                    continue
            slots[t].append(v)
            members[t] = np.insert(mem, np.searchsorted(mem, v), v)
            in_aff[idx] += val
            placed = True
            break
        if not placed:
            slots.append([v])
            members.append(np.array([v], dtype=int))
            fresh = np.zeros(m)
            fresh[idx] = val
            sums.append(fresh)
    return tuple(tuple(sorted(s)) for s in slots)


def _dense_and_sparse(
    links: LinkSet, **kwargs
) -> tuple[SchedulingContext, SchedulingContext]:
    dense = SchedulingContext(links, noise=0.0, beta=1.0, **kwargs)
    sparse = SchedulingContext(
        links, noise=0.0, beta=1.0, backend="sparse", eps=TINY_EPS, **kwargs
    )
    return dense, sparse


class TestDenseIdentity:
    """Complete-pattern regime: sparse == dense, byte for byte."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_registry_scenarios_schedule_identical(self, name):
        links = build_scenario(name, n_links=40, seed=1)
        dense, sparse = _dense_and_sparse(links)
        assert sparse.sparse_affectance.complete
        assert dense.first_fit() == sparse.first_fit()
        for admission in ("bounded_growth", "general", "adaptive"):
            assert dense.repeated_capacity(
                admission=admission
            ) == sparse.repeated_capacity(admission=admission)
        assert dense.capacity_bounded_growth() == sparse.capacity_bounded_growth()
        assert dense.capacity_general() == sparse.capacity_general()

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_random_planar_instances_identical(self, seed):
        links = make_planar_links(30, alpha=3.0, seed=seed)
        dense, sparse = _dense_and_sparse(links)
        assert dense.first_fit() == sparse.first_fit()
        assert dense.repeated_capacity() == sparse.repeated_capacity()

    def test_sparse_values_match_dense_entries(self):
        links = build_scenario("asymmetric_measured", n_links=30, seed=4)
        dense, sparse = _dense_and_sparse(links)
        a = dense.raw_affectance
        rows, cols, values = sparse.sparse_affectance.triplets()
        assert np.array_equal(values, a[rows, cols])


class TestModerateEps:
    """Genuinely sparse regime: certified slack instead of identity."""

    @pytest.mark.parametrize(
        "name,eps", [("planar_uniform", 0.05), ("dense_urban", 0.2)]
    )
    def test_sparse_schedule_feasible_within_certificate(self, name, eps):
        links = build_scenario(name, n_links=400, seed=0)
        dense = SchedulingContext(links, noise=0.0, beta=1.0)
        sparse = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=eps
        )
        sa = sparse.sparse_affectance
        m = links.m
        assert sa.nnz < m * (m - 1)  # the pattern actually dropped pairs
        assert float(np.max(sa.tail_in + sa.tail_out)) <= eps
        ff = sparse.first_fit()
        assert sorted(v for slot in ff for v in slot) == list(range(m))
        a = np.minimum(dense.raw_affectance, 1.0)
        for slot in ff:
            idx = np.asarray(slot, dtype=int)
            block = a[np.ix_(idx, idx)]
            np.fill_diagonal(block, 0.0)
            # The dense in-sum exceeds the sparse one by at most the
            # certified dropped tail, and the sparse sum passed <= 1.
            assert np.all(block.sum(axis=0) <= 1.0 + sa.tail_in[idx])


class TestFirstFitReference:
    """Incomplete patterns at pinned radii: sparse first fit equals the
    support-overlap reference loop, for every processing order."""

    @given(
        n=st.integers(20, 60),
        radius=st.floats(0.5, 5.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=CHURN_EXAMPLES)
    def test_first_fit_matches_reference(self, n, radius, seed):
        links = make_planar_links(n, alpha=3.0, seed=seed)
        ctx = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", radius=radius
        )
        assert not ctx.sparse_affectance.complete
        a = ctx.raw_affectance
        default = [int(v) for v in ctx.order]
        assert ctx.first_fit() == reference_first_fit_sparse(a, n, default)
        rng = np.random.default_rng(seed)
        order = [int(v) for v in rng.permutation(n)]
        assert ctx.first_fit(order) == reference_first_fit_sparse(a, n, order)


class TestDynamicChurnIdentity:
    """Dense and sparse dynamic contexts stay identical through churn."""

    @staticmethod
    def _drive(links: LinkSet, seed: int, make_scheduler, **dyn_kwargs):
        pairs = [(l.sender, l.receiver) for l in links]
        m0 = max(4, links.m // 2)
        dyn = DynamicContext(links.space, pairs[:m0], **dyn_kwargs)
        rs = make_scheduler(dyn)
        rng = np.random.default_rng(seed)
        alive = list(range(m0))
        nxt = m0
        history = []
        for _ in range(16):
            if rng.random() < 0.55 or len(alive) <= 3:
                batch = [
                    pairs[(nxt + j) % len(pairs)]
                    for j in range(int(rng.integers(1, 3)))
                ]
                nxt += len(batch)
                slots = dyn.add_links(batch)
                alive.extend(slots)
                rs.apply(slots, [])
            else:
                gone = [alive.pop(int(rng.integers(len(alive))))]
                dyn.remove_links(gone)
                rs.apply([], gone)
            history.append(rs.schedule.slots)
        return dyn, history

    @pytest.mark.parametrize("scenario", CHURN_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_frozen_matrices_identical_after_churn(self, scenario, seed):
        links = build_scenario(scenario, n_links=14, seed=3)
        d, _ = self._drive(links, seed, OnlineRepairScheduler)
        s, _ = self._drive(
            links, seed, OnlineRepairScheduler,
            backend="sparse", eps=TINY_EPS,
        )
        fd, fs = d.freeze(), s.freeze()
        assert fs.sparse_affectance.complete
        rows, cols, values = fs.sparse_affectance.triplets()
        assert np.array_equal(values, fd.raw_affectance[rows, cols])
        assert fd.first_fit() == fs.first_fit()
        assert fd.repeated_capacity() == fs.repeated_capacity()

    @pytest.mark.parametrize("scenario", CHURN_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_online_repair_trace_identical(self, scenario, seed):
        links = build_scenario(scenario, n_links=14, seed=3)
        make = lambda dyn: OnlineRepairScheduler(dyn, cascade=2)
        _, dense_hist = self._drive(links, seed, make)
        _, sparse_hist = self._drive(
            links, seed, make, backend="sparse", eps=TINY_EPS
        )
        assert dense_hist == sparse_hist

    @pytest.mark.parametrize("admission", ("adaptive", "general"))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_capacity_repair_trace_identical(self, admission, seed):
        links = build_scenario("planar_uniform", n_links=14, seed=3)
        make = lambda dyn: CapacityRepairScheduler(
            dyn, admission=admission, compaction_every=3
        )
        _, dense_hist = self._drive(links, seed, make)
        _, sparse_hist = self._drive(
            links, seed, make, backend="sparse", eps=TINY_EPS
        )
        assert dense_hist == sparse_hist


class TestSparseEventPath:
    """The sparse arrival path: one neighbour query per arrival batch,
    and a maintained pattern equal to a rebuild at the pinned radius,
    also when several active links share a node."""

    def test_one_query_per_arrival_batch(self, monkeypatch):
        links = make_planar_links(40, 3.0, seed=1)
        pairs = [(l.sender, l.receiver) for l in links]
        dyn = DynamicContext(
            links.space, pairs[:30], backend="sparse", radius=2.0
        )
        calls = []
        original = CellIndex.query

        def spy(self, *args, **kwargs):
            calls.append(len(args[0]))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CellIndex, "query", spy)
        dyn.add_links(pairs[30:31])
        dyn.add_links(pairs[31:35])
        dyn.add_link(*pairs[35])
        dyn.remove_links([0, 31])
        # Both endpoint roles in one call: the receivers, then the senders.
        assert calls == [2, 8, 2]

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_shared_nodes_pattern_matches_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        # Four hub nodes and twelve leaves: links share hub endpoints in
        # both roles, and duplicate links share both.
        pts = rng.uniform(0.0, 8.0, size=(16, 2))
        space = DecaySpace.from_points(pts, 3.0)
        pool = [(int(h), int(l)) for h in range(4) for l in range(4, 16)]
        pool += [(l, h) for h, l in pool]

        def draw(k):
            return [pool[int(i)] for i in rng.integers(len(pool), size=k)]

        dyn = DynamicContext(
            space, draw(6), backend="sparse", radius=float(rng.uniform(2, 6))
        )
        for _ in range(12):
            act = dyn.active_slots
            if rng.random() < 0.6 or act.size <= 2:
                dyn.add_links(draw(int(rng.integers(1, 4))))
            else:
                dyn.remove_links(
                    rng.choice(act, size=int(rng.integers(1, 3)), replace=False)
                )
            act = dyn.active_slots
            sp = dyn.freeze().sparse_affectance
            for i, slot in enumerate(act.tolist()):
                for (idx, val), (f_idx, f_val) in (
                    (dyn._row[slot], sp.raw.row(i)),
                    (dyn._col[slot], sp.raw.col(i)),
                ):
                    assert np.array_equal(idx, act[f_idx])
                    assert np.array_equal(val, f_val)


class TestTailCertificate:
    """The per-link tail bounds dominate the actual dropped mass."""

    def test_certificate_dominates_brute_force_dropped_mass(self):
        links = build_scenario("planar_uniform", n_links=200, seed=5)
        dense = SchedulingContext(links, noise=0.0, beta=1.0)
        a = dense.raw_affectance
        # Pin a radius well below the diameter so pairs really drop.
        sparse = build_sparse_affectance(
            links, dense.powers, eps=1.0, radius=6.0
        )
        assert 0 < sparse.nnz < links.m * (links.m - 1)
        rows, cols, values = sparse.triplets()
        assert np.array_equal(values, a[rows, cols])
        dropped = a.copy()
        np.fill_diagonal(dropped, 0.0)
        dropped[rows, cols] = 0.0
        assert np.all(dropped.sum(axis=0) <= sparse.tail_in * (1 + 1e-12))
        assert np.all(dropped.sum(axis=1) <= sparse.tail_out * (1 + 1e-12))

    def test_near_threshold_pair_kept_exactly(self):
        # Two parallel unit links, sender-to-receiver gap just inside the
        # pinned radius: the pair must be stored with the exact dense
        # value.  Shift the second link just outside: the pair drops and
        # its whole affectance is (certifiably) inside the tail bound.
        def instance(gap: float) -> LinkSet:
            pts = np.array(
                [[0.0, 0.0], [1.0, 0.0], [1.0 + gap, 0.0], [2.0 + gap, 0.0]]
            )
            return LinkSet(
                DecaySpace.from_points(pts, 3.0), [(0, 1), (2, 3)]
            )

        radius = 5.0
        near = instance(gap=4.99)  # d(s_1, r_0) = 1 + 4.99 - 1 = 4.99
        ctx = SchedulingContext(near, noise=0.0, beta=1.0)
        sp = build_sparse_affectance(
            near, ctx.powers, eps=1.0, radius=radius
        )
        a = ctx.raw_affectance
        assert sp.raw.gather_row(1, np.array([0]))[0] == a[1, 0] > 0.0

        far = instance(gap=5.01)
        ctx_f = SchedulingContext(far, noise=0.0, beta=1.0)
        sp_f = build_sparse_affectance(
            far, ctx_f.powers, eps=1.0, radius=radius
        )
        assert sp_f.raw.gather_row(1, np.array([0]))[0] == 0.0
        af = ctx_f.raw_affectance
        assert af[1, 0] <= sp_f.tail_in[0]
        assert af[1, 0] <= sp_f.tail_out[1]


class TestBackendValidation:
    """The backend invariants fail fast with a clear LinkError."""

    def test_sparse_requires_geometry(self):
        f = np.array([[0.0, 2.0, 3.0], [2.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        links = LinkSet(DecaySpace(f), [(0, 1), (1, 2)])
        with pytest.raises(LinkError, match="SpaceGeometry"):
            SchedulingContext(links, noise=0.0, beta=1.0, backend="sparse")
        with pytest.raises(LinkError, match="SpaceGeometry"):
            DynamicContext(links.space, [(0, 1)], backend="sparse", radius=1.0)

    def test_unknown_backend_rejected(self):
        links = make_planar_links(6, alpha=3.0, seed=0)
        with pytest.raises(LinkError, match="unknown affectance backend"):
            SchedulingContext(links, noise=0.0, beta=1.0, backend="csr")

    def test_bad_eps_and_radius_rejected(self):
        links = make_planar_links(6, alpha=3.0, seed=0)
        with pytest.raises(LinkError, match="eps must be positive"):
            SchedulingContext(
                links, noise=0.0, beta=1.0, backend="sparse", eps=0.0
            )
        with pytest.raises(LinkError, match="radius must be positive"):
            SchedulingContext(
                links, noise=0.0, beta=1.0, backend="sparse", radius=-1.0
            )

    @pytest.mark.parametrize(
        "eps,radius",
        [
            (0.0, None),
            (-1.0, None),
            (float("nan"), None),
            (1e-2, 0.0),
            (1e-2, -2.0),
            (1e-2, float("nan")),
        ],
    )
    def test_bad_sparse_args_rejected_by_both_contexts(self, eps, radius):
        """NaN fails like a non-positive value, at construction, on both
        contexts (with or without initial links), building nothing."""
        links = make_planar_links(6, alpha=3.0, seed=0)
        space = links.space
        pairs = [(l.sender, l.receiver) for l in links]
        match = "eps must be positive" if radius is None else "radius"
        with pytest.raises(LinkError, match=match):
            SchedulingContext(
                links, noise=0.0, beta=1.0, backend="sparse", eps=eps,
                radius=radius,
            )
        for initial in (pairs, []):
            with pytest.raises(LinkError, match=match):
                DynamicContext(
                    space, initial, backend="sparse", eps=eps,
                    radius=1.0 if radius is None else radius,
                )
        # Nothing was built on the shared space: no metricity, no cell
        # index from a pattern build.
        assert space._cache == {}
        assert space.geometry._node_index_cache == {}

    @pytest.mark.parametrize(
        "eps,radius",
        [
            (float("nan"), None),
            (0.0, None),
            (1e-2, float("nan")),
            (1e-2, 0.0),
        ],
    )
    def test_public_builder_refuses_bad_args(self, eps, radius, monkeypatch):
        """``build_sparse_affectance`` refuses NaN like a non-positive
        value, before any work: a NaN eps used to build the complete
        pattern and certify ``eps=nan``."""
        links = make_planar_links(6, alpha=3.0, seed=0)
        p = np.ones(links.m)

        def refuse(*args, **kwargs):
            raise AssertionError("built a cell index")

        monkeypatch.setattr(CellIndex, "__init__", refuse)
        match = "eps must be positive" if radius is None else "radius"
        with pytest.raises(LinkError, match=match):
            build_sparse_affectance(links, p, eps=eps, radius=radius)

    @pytest.mark.parametrize(
        "zeta,radius",
        [(float("nan"), None), (0.0, None), (2.0, float("nan")), (2.0, -1.0)],
    )
    def test_sparse_distances_refuse_bad_args(self, zeta, radius, monkeypatch):
        links = make_planar_links(6, alpha=3.0, seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("built a cell index")

        monkeypatch.setattr(CellIndex, "__init__", refuse)
        match = "zeta must be positive" if radius is None else "radius"
        with pytest.raises(LinkError, match=match):
            build_sparse_link_distances(links, zeta, radius=radius)

    def test_check_context_pins_backend(self):
        links = make_planar_links(8, alpha=3.0, seed=0)
        dense, sparse = _dense_and_sparse(links)
        check_context(dense, links, 0.0, 1.0, backend="dense")
        with pytest.raises(LinkError, match="backend"):
            check_context(sparse, links, 0.0, 1.0, backend="dense")

    def test_empty_sparse_dynamic_needs_radius(self):
        links = make_planar_links(6, alpha=3.0, seed=0)
        with pytest.raises(LinkError, match="explicit interaction radius"):
            DynamicContext(links.space, [], backend="sparse")

    def test_dense_context_has_no_sparse_pattern(self):
        links = make_planar_links(6, alpha=3.0, seed=0)
        dense = SchedulingContext(links, noise=0.0, beta=1.0)
        with pytest.raises(LinkError, match="backend='sparse'"):
            dense.sparse_affectance

    def test_sparse_context_refuses_dense_distance_matrix(self):
        links = make_planar_links(6, alpha=3.0, seed=0)
        sparse = SchedulingContext(
            links, noise=0.0, beta=1.0, backend="sparse", eps=TINY_EPS
        )
        with pytest.raises(LinkError, match="sparse_link_distances"):
            sparse.link_distances
