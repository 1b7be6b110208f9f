"""Shared scheduling context: precomputed matrices for repeated algorithms.

Every scheduling and capacity routine needs the same three expensive
objects: the affectance matrix (Sec. 2.4), the link quasi-distance matrix
(Sec. 2.4), and the resolved metricity ``zeta`` (Definition 2.2).  The
historical implementations recomputed all three per call — and
:func:`~repro.algorithms.scheduling.schedule_repeated_capacity` even
rebuilt a fresh :class:`~repro.core.links.LinkSet` *every round*, making a
150-link schedule three orders of magnitude slower than first-fit.

:class:`SchedulingContext` computes each object lazily, exactly once, and
lets the algorithms operate on *index subsets* of the full link set instead
of reconstructed ``LinkSet`` objects.  Subsetting a matrix is
float-identical to rebuilding the link set and recomputing it (the entries
are the same products of the same inputs), so the context-based algorithms
produce byte-identical outputs to the historical per-round rebuilds; the
test suite pins this equivalence on seeded instances.

Typical use::

    ctx = SchedulingContext(links)
    selected, candidate = ctx.capacity_bounded_growth()      # Algorithm 1
    slots = ctx.repeated_capacity()                          # SCHEDULING
    ctx.is_feasible(slots[0])                                # SINR check

The higher-level wrappers in :mod:`repro.algorithms.capacity` and
:mod:`repro.algorithms.scheduling` accept an optional ``context=`` argument
so several calls (e.g. a capacity query followed by a full schedule) can
share one context.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Sequence

import numpy as np

from repro.core.affectance import (
    affectance_matrix,
    as_view,
    in_affectances_within,
    noise_constants,
)
from repro.core.affectance_sparse import (
    SparseAffectance,
    SparseLinkDistances,
    _SparseView,
    _concat,
    build_sparse_affectance,
    build_sparse_link_distances,
)
from repro.core.decay import DecaySpace
from repro.core.links import Link, LinkSet, _checked_zeta, _coerce_links
from repro.core.power import uniform_power
from repro.core.separation import link_distance_matrix
from repro.errors import InfeasibleLinkError, LinkError, PowerError

__all__ = [
    "DynamicContext",
    "Schedule",
    "SchedulingContext",
    "slot_admission_sums",
]

#: Safety margin subtracted from admission thresholds before trusting the
#: ledger's subtractively-maintained sums: the drift after peeling every
#: slot is bounded by a few ulp of the running sums (entries are clipped to
#: [0, 1], so sums are at most m), far below this guard.  A link whose
#: remaining-set sums clear the guarded threshold provably also clears the
#: exact per-round check, so skipping that check cannot change the output.
_LEDGER_GUARD_PER_LINK = 1e-9


class _AffectanceLedger:
    """Per-link in/out affectance sums over a shrinking member set.

    The delta structure of repeated capacity:
    ``in_sum[v] = a_M(v)`` (column sums: what members do to ``v``) and
    ``out_sum[v] = a_v(M)`` (row sums: what ``v`` does to members) over the
    member set ``M``, for *every* link ``v``.  ``M`` starts as every link
    and loses a peeled slot at a time (``remove_slot`` — one vectorized
    subtraction per round instead of re-slicing the full matrix).  All
    state is local to the algorithm invocation; the context's caches are
    never touched.
    """

    __slots__ = ("a", "mask", "in_sum", "out_sum", "count")

    def __init__(self, a) -> None:
        self.a = a = as_view(a)
        m = a.shape[0]
        self.mask = np.ones(m, dtype=bool)
        self.in_sum = a.sum_axis0()
        self.out_sum = a.sum_axis1()
        self.count = m

    def remove_slot(self, members: Sequence[int]) -> None:
        """Peel a whole slot from the member set by subtraction."""
        idx = np.asarray(members, dtype=int)
        self.mask[idx] = False
        self.in_sum -= self.a.rows_sum(idx)
        self.out_sum -= self.a.cols_sum(idx)
        self.count -= idx.size


def slot_admission_sums(
    a: np.ndarray, members: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Per-member clipped ``a_M(v) + a_v(M)`` within the member set ``M``.

    ``a`` is the raw affectance (dense array or sparse view).  The ledger
    sums a freshly built round would carry: column sums plus row sums of
    the clipped member block (diagonal zero), aligned with ``members``.
    The gathered block is a fresh copy, clipped in place — bit for bit
    the block of the clipped matrix.  A set whose every entry clears the
    Algorithm-1 admission threshold of 1/2 is in particular feasible —
    each member's in-affectance is at most 1/2 — which is what makes
    threshold-guarded slot merges safe.
    """
    idx = np.asarray(members, dtype=int)
    block = as_view(a).block(idx, idx)
    np.minimum(block, 1.0, out=block)
    return block.sum(axis=0) + block.sum(axis=1)


def _first_fit_slots(a, order: Iterable[int]) -> list[list[int]]:
    """First fit over ``order``: the one slot-placement loop of the package.

    Each link joins the earliest slot where it and every member keep
    in-affectance at most 1 under the raw affectance ``a`` (dense array
    or sparse view); otherwise it opens a new slot.  Static first fit
    and the repair anchor both run here, so they compare the same floats
    by construction.

    Each slot keeps a ledger ``in_aff`` of the in-affectance its members
    put on every link.  A probe of slot ``t`` checks ``in_aff[v] <= 1``
    and then ``in_aff[u] + a[v, u] <= 1`` for the members ``u``.  On a
    sparse view only the members in the support of ``v``'s stored row are
    checked, found through one ``label`` array (the slot of each placed
    link, -1 before placement): every other member gains an exact
    ``+0.0`` and already carries load at most 1 (it passed the same test
    when it joined and at every later admission), so skipping it changes
    no comparison.  A sparse probe therefore costs O(degree) instead of
    O(slot size), and the ledger update scatters over the same support,
    float for float what a dense zero-padded row would add.  A dense row's
    support is the whole row, so a dense probe gathers the slot's members
    from a per-slot index buffer and costs O(slot size).

    Returns each slot's members in admission order.
    """
    a = as_view(a)
    n = a.shape[0]
    dense = a.dense
    slots: list[list[int]] = []
    ledgers: list[np.ndarray] = []
    if dense:
        # Slot t's members are members[t][:len(slots[t])]; a slot holds
        # at most n links, so the buffers never grow.
        members: list[np.ndarray] = []
    else:
        label = np.full(n, -1, dtype=np.int64)
    for v in order:
        v = int(v)
        idx, val = a.row(v)  # dense: the support is the whole row
        if not dense:
            lab = label[idx]
        for t, in_aff in enumerate(ledgers):
            if in_aff[v] > 1.0:
                continue
            if dense:
                mem = members[t][: len(slots[t])]
                fits = np.all(in_aff[mem] + val[mem] <= 1.0)
            else:
                hit = lab == t
                fits = np.all(in_aff[idx[hit]] + val[hit] <= 1.0)
            if fits:
                in_aff[idx] += val
                break
        else:
            t = len(slots)
            slots.append([])
            in_aff = np.zeros(n)
            in_aff[idx] = val
            ledgers.append(in_aff)
            if dense:
                members.append(np.empty(n, dtype=np.int64))
        if dense:
            members[t][len(slots[t])] = v
        else:
            label[v] = t
        slots[t].append(v)
    return slots


@dataclass(frozen=True)
class Schedule:
    """A slot assignment: a partition of link indices into feasible slots."""

    slots: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        """Number of slots."""
        return len(self.slots)

    def slot_of(self, v: int) -> int:
        """The slot index carrying link ``v``; raises when unscheduled."""
        for t, slot in enumerate(self.slots):
            if v in slot:
                return t
        raise LinkError(f"link {v} is not scheduled")

    def all_links(self) -> tuple[int, ...]:
        """Every scheduled link index, sorted."""
        return tuple(sorted(v for slot in self.slots for v in slot))


def check_context(
    context: "SchedulingContext",
    links: LinkSet,
    noise: float,
    beta: float,
    powers: np.ndarray | None = None,
    backend: str | None = None,
) -> "SchedulingContext":
    """Validate that a caller-supplied context matches the call's inputs.

    A context built for different links, physical parameters, or powers
    would silently produce results for the wrong instance; raise instead.
    Pass ``backend`` when the caller requires a specific affectance
    backend (e.g. a consumer that must see dense matrices).
    """
    if context.links is not links or context.noise != noise or context.beta != beta:
        raise LinkError(
            "supplied SchedulingContext was built for different links or "
            "physical parameters"
        )
    if powers is not None and not np.array_equal(
        np.asarray(powers, dtype=float), context.powers
    ):
        raise LinkError(
            "supplied SchedulingContext was built for a different power "
            "assignment"
        )
    if backend is not None and context.backend != backend:
        raise LinkError(
            f"supplied SchedulingContext uses backend {context.backend!r}, "
            f"but this call requires {backend!r}"
        )
    return context


def _checked_backend(
    backend: str, space: DecaySpace, eps: float, radius: float | None
) -> tuple[float, float | None]:
    """Validate a context's backend arguments; return ``(eps, radius)``.

    Shared by both context constructors so a bad argument fails before
    anything is built.  ``not (x > 0)`` rejects NaN as well as
    non-positive values: a NaN ``eps`` would silently search up to the
    complete pattern, and a NaN or non-positive ``radius`` only fails at
    the first pattern build.  ``eps`` and ``radius`` are ignored on the
    dense backend.
    """
    if backend not in ("dense", "sparse"):
        raise LinkError(
            f"unknown affectance backend {backend!r}; "
            "expected 'dense' or 'sparse'"
        )
    eps = float(eps)
    radius = None if radius is None else float(radius)
    if backend == "sparse":
        if space.geometry is None:
            raise LinkError(
                "backend='sparse' needs node positions: the decay "
                "space carries no SpaceGeometry (build it with "
                "DecaySpace.from_points / PointDecaySpace, or attach "
                "a measured geometry via SpaceGeometry.measured)"
            )
        if not eps > 0:
            raise LinkError(
                f"sparse tail tolerance eps must be positive, got {eps}"
            )
        if radius is not None and not radius > 0:
            raise LinkError(
                f"interaction radius must be positive, got {radius}"
            )
    return eps, radius


def _validated_order(order: Sequence[int], m: int) -> list[int]:
    """An explicit processing order, checked to be a permutation of 0..m-1.

    Guards against silently double-scheduling a link (a repeated index) or
    dropping one (a missing index) — both would make the resulting
    :class:`Schedule` not a partition.
    """
    seq = [int(v) for v in order]
    if sorted(seq) != list(range(m)):
        raise LinkError(
            f"order must be a permutation of all {m} link indices; got "
            f"{len(seq)} entries {seq[:8]}{'...' if len(seq) > 8 else ''}"
        )
    return seq


class SchedulingContext:
    """Lazily cached matrices shared by capacity and scheduling algorithms.

    Parameters
    ----------
    links:
        The full link set all subset operations index into.
    powers:
        Power assignment; defaults to uniform power 1.  The context's
        algorithms assume this assignment throughout.
    noise, beta:
        Physical parameters, fixed for the context's lifetime.
    zeta:
        Metricity override; by default the decay space's own (cached)
        metricity is resolved on first use — building a context is free
        until an algorithm actually needs a matrix.
    backend:
        ``"dense"`` (default) stores the full O(m^2) affectance and
        distance matrices; ``"sparse"`` keeps only pairs within a
        certified interaction radius (see
        :mod:`repro.core.affectance_sparse`) and routes every kernel
        through CSR slices — required for m much beyond ~10^4.  The
        sparse backend needs node positions: the link set's decay space
        must carry a :class:`~repro.core.decay.SpaceGeometry`.
    eps:
        Sparse tail tolerance: the certified per-link bound on dropped
        in+out affectance mass.  Smaller ``eps`` grows the interaction
        radius (``eps`` small enough yields the complete pattern and
        bit-identical results to dense).  Ignored for ``backend="dense"``.
    radius:
        Explicit interaction radius overriding the ``eps``-driven search
        (tails are still certified and recorded).  Ignored for dense.
    """

    __slots__ = (
        "_links", "_powers", "_noise", "_beta", "_zeta_arg", "_cache",
        "_backend", "_eps", "_radius",
    )

    def __init__(
        self,
        links: LinkSet,
        powers: np.ndarray | None = None,
        *,
        noise: float = 0.0,
        beta: float = 1.0,
        zeta: float | None = None,
        backend: str = "dense",
        eps: float = 1e-2,
        radius: float | None = None,
    ) -> None:
        zeta = _checked_zeta(zeta)
        self._links = links
        self._powers = (
            uniform_power(links) if powers is None else np.asarray(powers, dtype=float)
        )
        self._noise = float(noise)
        self._beta = float(beta)
        self._zeta_arg = zeta
        # Backend invariants are validated once, here: every downstream
        # kernel may then assume a well-formed backend configuration.
        self._backend = backend
        self._eps, self._radius = _checked_backend(
            backend, links.space, eps, radius
        )
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def links(self) -> LinkSet:
        """The underlying full link set."""
        return self._links

    @property
    def m(self) -> int:
        """Number of links."""
        return self._links.m

    @property
    def powers(self) -> np.ndarray:
        """The power assignment the context's matrices were built under."""
        return self._powers

    @property
    def noise(self) -> float:
        """Ambient noise ``N``."""
        return self._noise

    @property
    def beta(self) -> float:
        """SINR threshold ``beta``."""
        return self._beta

    @property
    def zeta(self) -> float:
        """The resolved metricity (cached; triggers computation on first use)."""
        if "zeta" not in self._cache:
            self._cache["zeta"] = self._links._resolve_zeta(self._zeta_arg)
        return float(self._cache["zeta"])  # type: ignore[arg-type]

    @property
    def zeta_capacity(self) -> float:
        """``zeta`` clamped below at 1, as Algorithm 1 requires."""
        return max(self.zeta, 1.0)

    @property
    def backend(self) -> str:
        """The affectance backend: ``"dense"`` or ``"sparse"``."""
        return self._backend

    @property
    def eps(self) -> float:
        """The sparse tail tolerance (meaningful for ``backend="sparse"``)."""
        return self._eps

    @property
    def sparse_affectance(self) -> SparseAffectance:
        """The thresholded CSR affectance (sparse backend only)."""
        if self._backend != "sparse":
            raise LinkError(
                "the dense backend has no sparse affectance; build the "
                "context with backend='sparse'"
            )
        if "sparse" not in self._cache:
            self._cache["sparse"] = build_sparse_affectance(
                self._links, self._powers, noise=self._noise,
                beta=self._beta, eps=self._eps, radius=self._radius,
            )
        return self._cache["sparse"]  # type: ignore[return-value]

    @property
    def sparse_link_distances(self) -> SparseLinkDistances:
        """Sparse link quasi-distances (sparse backend only; exact
        separation decisions — see
        :class:`repro.core.affectance_sparse.SparseLinkDistances`)."""
        if self._backend != "sparse":
            raise LinkError(
                "the dense backend has no sparse distances; build the "
                "context with backend='sparse'"
            )
        if "sparse_dist" not in self._cache:
            self._cache["sparse_dist"] = build_sparse_link_distances(
                self._links, self.zeta_capacity
            )
        return self._cache["sparse_dist"]  # type: ignore[return-value]

    @property
    def raw_affectance(self) -> np.ndarray:
        """Unclipped affectance ``A[w, v] = a_w(v)`` (SINR-exact sums).

        On the sparse backend this is a CSR view exposing the same access
        kernels; consumers that must see a dense ndarray should require
        ``backend="dense"`` via :func:`check_context`.
        """
        if self._backend == "sparse":
            return self.sparse_affectance.raw  # type: ignore[return-value]
        if "raw_affectance" not in self._cache:
            self._cache["raw_affectance"] = affectance_matrix(
                self._links, self._powers, noise=self._noise, beta=self._beta,
                clip=False,
            )
        return self._cache["raw_affectance"]  # type: ignore[return-value]

    @property
    def affectance(self) -> np.ndarray:
        """Clipped affectance ``min(1, a_w(v))`` (the paper's accounting)."""
        if self._backend == "sparse":
            return self.sparse_affectance.clip  # type: ignore[return-value]
        if "affectance" not in self._cache:
            self._cache["affectance"] = np.minimum(self.raw_affectance, 1.0)
        return self._cache["affectance"]  # type: ignore[return-value]

    @property
    def link_distances(self) -> np.ndarray:
        """Link quasi-distances at the capacity exponent (diag = lengths)."""
        if self._backend == "sparse":
            raise LinkError(
                "the sparse backend does not materialize the O(m^2) "
                "distance matrix; use sparse_link_distances"
            )
        if "dist" not in self._cache:
            self._cache["dist"] = link_distance_matrix(
                self._links, self.zeta_capacity
            )
        return self._cache["dist"]  # type: ignore[return-value]

    @property
    def order(self) -> np.ndarray:
        """Global non-decreasing length order (paper precedence, Sec. 2.4)."""
        if "order" not in self._cache:
            self._cache["order"] = self._links.order_by_length()
        return self._cache["order"]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Subset utilities
    # ------------------------------------------------------------------
    def in_affectances(self, subset: Iterable[int]) -> np.ndarray:
        """``a_S(v)`` for every ``v`` in ``subset`` (unclipped, aligned)."""
        idx = np.asarray(list(subset), dtype=int)
        return in_affectances_within(self.raw_affectance, idx)

    def is_feasible(self, subset: Iterable[int], k: float = 1.0) -> bool:
        """Whether ``subset`` is simultaneously ``k``-feasible (SINR-exact).

        Mirrors :func:`repro.core.feasibility.is_k_feasible` without
        rebuilding the affectance matrix.
        """
        idx = np.asarray(list(subset), dtype=int)
        if idx.size <= 1:
            return True
        return bool(np.all(self.in_affectances(idx) <= 1.0 / k + 1e-12))

    # ------------------------------------------------------------------
    # Capacity kernels (global indices in, global indices out)
    # ------------------------------------------------------------------
    def _greedy_admission(
        self,
        active_order: np.ndarray,
        threshold: float,
        *,
        separation: bool,
        auto: np.ndarray | None = None,
    ) -> list[int]:
        """The shared sequential admission scan; returns the candidate ``X``.

        Links are visited in ``active_order``; a link joins ``X`` when it is
        (zeta/2)-separated from ``X`` (only with ``separation=True``) and
        its combined in+out affectance w.r.t. ``X`` is at most
        ``threshold``.  The separation test is O(1) per candidate: a
        running vector of each link's minimum quasi-distance to ``X`` is
        lowered on every admission (``min`` of a column), which is exactly
        equivalent to the historical ``all(dist[v, X] >= ...)`` row scan.

        ``auto`` (optional) marks links whose in+out affectance over the
        *whole remaining set* clears the guarded threshold — a superset
        bound of the check against ``X``, so such links pass the affectance
        test unconditionally.  When every active link is auto-admissible
        the per-admission affectance accumulation is skipped entirely; with
        no separation requirement the scan degenerates to the order itself.
        """
        sparse = self._backend == "sparse"
        a = as_view(self.affectance)
        if separation:
            if sparse:
                # Every pair below the stored radius is kept exactly and
                # the radius dominates every separation target, so the
                # scatter-min over stored neighbours makes the same
                # decisions as the dense full-column min (see
                # SparseLinkDistances).
                sdist = self.sparse_link_distances
                sep_target = (self.zeta_capacity / 2.0) * sdist.qlen
            else:
                dist = self.link_distances
                # eta * qlen[v], precomputed: same elementwise product the
                # historical loop evaluated one scalar at a time.
                sep_target = (self.zeta_capacity / 2.0) * np.diagonal(dist)
            min_sep = np.full(self.m, np.inf)
        all_auto = auto is not None and bool(np.all(auto[active_order]))
        if all_auto and not separation:
            return [int(v) for v in active_order]
        x: list[int] = []
        if not all_auto:
            in_aff = np.zeros(self.m)  # a_X(v) for every link v
            out_aff = np.zeros(self.m)  # a_v(X) for every link v
        for v in active_order:
            v = int(v)
            if separation and x and min_sep[v] < sep_target[v]:
                continue
            if not all_auto and not (auto is not None and auto[v]):
                if out_aff[v] + in_aff[v] > threshold:
                    continue
            x.append(v)
            if not all_auto:
                a.add_row_to(in_aff, v)  # l_v now affects every other link
                a.add_col_to(out_aff, v)  # and each link's affectance on X
            if separation:
                if sparse:
                    nbr, nd = sdist.col(v)
                    min_sep[nbr] = np.minimum(min_sep[nbr], nd)
                else:
                    np.minimum(min_sep, dist[:, v], out=min_sep)
        return x

    def capacity_bounded_growth(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Algorithm 1 (Sec. 4.1) on all links.

        Returns ``(selected, candidate)`` as tuples of link indices: the
        feasible output ``S`` and the internal candidate set ``X``.
        """
        x = self._greedy_admission(self.order, 0.5, separation=True)
        return self._final_filter(self.affectance, x), tuple(x)

    def capacity_general(
        self, admission_threshold: float = 0.5
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The general-metric greedy (no separation check) on all links.

        Returns ``(selected, candidate)`` as link indices; the power
        assignment is the context's (monotonicity is the caller's
        responsibility — see
        :func:`repro.algorithms.capacity_general.capacity_general_metric`).
        """
        x = self._greedy_admission(
            self.order, admission_threshold, separation=False
        )
        return self._final_filter(self.affectance, x), tuple(x)

    @staticmethod
    def _final_filter(a: np.ndarray, x: list[int]) -> tuple[int, ...]:
        """The standard closing filter: keep members with in-affectance <= 1."""
        if not x:
            return ()
        x_arr = np.asarray(x, dtype=int)
        final_in = in_affectances_within(a, x_arr)
        return tuple(
            sorted(int(v) for v, load in zip(x_arr, final_in) if load <= 1.0)
        )

    # ------------------------------------------------------------------
    # Scheduling kernels
    # ------------------------------------------------------------------
    def first_fit(
        self, order: Sequence[int] | None = None
    ) -> tuple[tuple[int, ...], ...]:
        """First-fit slot assignment with exact incremental feasibility.

        Links are processed shortest-first (or in the given ``order``,
        which must be a permutation of all link indices) and placed in the
        earliest slot that stays feasible with them added, by the one
        first-fit loop (:func:`_first_fit_slots`) the repair anchor also
        runs.  Unstored sparse pairs contribute an exact 0.0, so on a
        complete pattern both backends give the same slots.
        """
        if order is None:
            sequence = self.order
        else:
            sequence = _validated_order(order, self.m)
        slots = _first_fit_slots(self.raw_affectance, sequence)
        return tuple(tuple(sorted(s)) for s in slots)

    def repeated_capacity(
        self,
        *,
        admission: str = "bounded_growth",
        max_slots: int | None = None,
    ) -> tuple[tuple[int, ...], ...]:
        """Schedule by repeatedly peeling off a capacity-approximate set.

        ``admission`` selects the per-round kernel: ``"bounded_growth"``
        (Algorithm 1), ``"general"`` (the general-metric greedy), or
        ``"adaptive"`` (zeta-adaptive, below).  When a round selects
        nothing from a non-empty remainder, the shortest remaining link is
        scheduled alone.  Raises :class:`LinkError` when ``max_slots``
        rounds leave links unscheduled.

        On high-metricity spaces (``zeta`` well above the path-loss
        exponent — corridor walls, fading snapshots, dense urban NLOS),
        Algorithm 1's separation requirement ``(zeta/2) * d_vv`` can exceed
        the quasi-metric diameter, so every round degenerates to a
        singleton slot.  ``"adaptive"`` keeps the bounded-growth kernel
        where its separation is satisfiable, but whenever a round's
        bounded-growth slot collapses to at most one link while more than
        one remains, re-runs the round with the general kernel (pure
        affectance admission, no separation) and keeps the larger slot —
        the final filter guarantees feasibility either way, so the
        schedule stays a partition into affectance-feasible slots.

        The admission loop is incremental across rounds: an
        :class:`_AffectanceLedger` maintains every link's in/out affectance
        sums over the remaining set, updated by one vectorized subtraction
        when a slot is peeled (never re-slicing the full matrix), and the
        remaining set itself is a boolean mask (no per-round list rebuild).
        Links whose remaining-set sums clear the guarded threshold are
        admissible without consulting the per-round accumulations — in late
        rounds typically *all* of them, collapsing the round to a
        separation-only scan (or, for the general kernel, to the order
        itself).  The produced slots are byte-identical to running the
        from-scratch kernel on each round's remainder, which the test suite
        pins.  All loop state is local: a ``max_slots`` overflow raises
        without mutating any cached context state.
        """
        adaptive = False
        if admission == "bounded_growth":
            separation = True
        elif admission == "general":
            separation = False
        elif admission == "adaptive":
            separation = True
            adaptive = True
        else:
            raise LinkError(
                f"unknown admission kernel {admission!r}; "
                "expected 'bounded_growth', 'general' or 'adaptive'"
            )
        a = self.affectance
        order = self.order
        threshold = 0.5
        guard = _LEDGER_GUARD_PER_LINK * self.m
        ledger = _AffectanceLedger(a)
        slots: list[tuple[int, ...]] = []
        cap = max_slots if max_slots is not None else self.m
        while ledger.count and len(slots) < cap:
            active_order = order[ledger.mask[order]]
            auto = ledger.in_sum + ledger.out_sum <= threshold - guard
            x = self._greedy_admission(
                active_order, threshold, separation=separation, auto=auto
            )
            chosen = list(self._final_filter(a, x))
            if adaptive and len(chosen) <= 1 and active_order.size > 1:
                # Separation degenerated this round; the general kernel's
                # affectance-only admission can still pack several links.
                relaxed = self._greedy_admission(
                    active_order, threshold, separation=False, auto=auto
                )
                relaxed_chosen = list(self._final_filter(a, relaxed))
                if len(relaxed_chosen) > len(chosen):
                    chosen = relaxed_chosen
            if not chosen:
                # order sorts by (length, index), so the first remaining
                # link is exactly the historical min(remaining) fallback.
                chosen = [int(active_order[0])]
            slots.append(tuple(sorted(chosen)))
            ledger.remove_slot(chosen)
        if ledger.count:
            raise LinkError(
                f"schedule exceeded {cap} slots with {ledger.count} links left"
            )
        return tuple(slots)

    # ------------------------------------------------------------------
    # Dynamic view
    # ------------------------------------------------------------------
    def dynamic(self, capacity: int | None = None) -> "DynamicContext":
        """An incremental :class:`DynamicContext` seeded from this context.

        The dynamic view starts with this context's links occupying slots
        ``0 .. m-1`` (in link order) and adopts any already-computed
        matrices, so going dynamic never recomputes affectance or
        distances.  The returned object is independent: mutating it does
        not touch this context.
        """
        return DynamicContext._from_context(self, capacity=capacity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cached = sorted(self._cache)
        return (
            f"SchedulingContext(m={self.m}, noise={self._noise}, "
            f"beta={self._beta}, cached={cached})"
        )


#: Shared empty adjacency pair for free sparse slots.  Safe to share:
#: a slot's adjacency is replaced wholesale on mutation, never edited in
#: place (the replacements are views into per-call merge buffers).
_EMPTY_ADJ: tuple[np.ndarray, np.ndarray] = (
    np.empty(0, dtype=np.int64),
    np.empty(0),
)
_EMPTY_ADJ[0].setflags(write=False)
_EMPTY_ADJ[1].setflags(write=False)


class _DynSparseView(_SparseView):
    """The raw affectance over a sparse :class:`DynamicContext`'s adjacency.

    A *live* padded view (size = slot capacity, free slots empty): every
    access reads the maintained per-slot ``(indices, values)`` arrays, so
    the view tracks churn and capacity growth without invalidation.
    Adjacency arrays are kept index-sorted by every mutation path
    (adopted CSR slices are sorted, insertion re-sorts the touched slots,
    removal filters in place), so reads are allocation-free, and each
    member sum scatters them in member order — the order of numpy's
    axis-0 reduction of the dense member rows, bit for bit.  Consumers
    of the clipped form clip what they gather.
    """

    __slots__ = ("_dyn",)

    def __init__(self, dyn: "DynamicContext") -> None:
        self._dyn = dyn

    @property
    def n(self) -> int:
        return self._dyn._capacity

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        return self._dyn._row[int(v)]

    def col(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        return self._dyn._col[int(v)]

    def gather(
        self, members: np.ndarray, cols: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_SparseView.gather` straight from the adjacency lists:
        plain-int subscripts, without a ``row()`` call per member — the
        hottest loop of the repair path."""
        adj = self._dyn._col if cols else self._dyn._row
        return _concat(list(map(adj.__getitem__, members.tolist())))


class DynamicContext:
    """Incremental link arrivals and departures over a fixed decay space.

    The online counterpart of :class:`SchedulingContext`: links join
    (:meth:`add_link`) and leave (:meth:`remove_links`) one event at a
    time.  The context maintains one affectance layer — the *raw*
    affectance ``a_w(v)`` — plus per-link lengths, powers and noise
    constants, in **O(m) work per event** (one row and one column), never
    by an O(m^2) rebuild.  Consumers that need the clipped form
    ``min(1, a)`` clip the entries they gather; link quasi-distances are
    built only when a schedule is anchored, by the :meth:`freeze`-produced
    static context.

    Exactness contract: every maintained *matrix entry* is computed by the
    same elementwise IEEE operations as a from-scratch
    :class:`SchedulingContext` over the current link set, so
    :meth:`freeze` produces a context whose affectance matrices — and
    therefore whose capacity/scheduling outputs — are byte-identical to a
    fresh build (the test suite pins this across random churn sequences).

    Storage is slot-stable: each link occupies a fixed *slot* index for
    its whole lifetime, departures free the slot, and later arrivals
    reuse the lowest free slot.  Stable slots mean per-link simulation
    state (queues, learning weights) never needs re-indexing on churn;
    the padded arrays simply carry zero rows/columns at free slots.
    Capacity grows by doubling, so slot indices never move.

    Parameters
    ----------
    space:
        The fixed node universe.  All arrivals reference its node
        indices; mobility is modelled by including every position a node
        will ever visit in the space (see
        :func:`repro.scenarios.build_dynamic_scenario`).
    links:
        Optional initial links (``Link`` or ``(sender, receiver)``), given
        slots ``0 .. m-1`` in order.
    powers:
        Initial per-link powers (default: uniform 1).  Arrivals carry
        their own power.
    noise, beta, zeta:
        As for :class:`SchedulingContext`, fixed for the lifetime.
    backend, eps, radius:
        Affectance storage backend, as for :class:`SchedulingContext`.
        With ``backend="sparse"`` the padded matrices are replaced by
        per-slot adjacency arrays maintained in **O(degree)** per event
        at a pinned interaction radius (adopted from the initial build's
        certificate, or ``radius`` when starting empty), and
        :attr:`raw_affectance` returns a live sparse view instead of an
        array.
    """

    __slots__ = (
        "_space", "_noise", "_beta", "_zeta_arg", "_zeta", "_capacity",
        "_senders", "_receivers", "_powers", "_lengths", "_c",
        "_a_raw", "_active", "_free", "_count",
        "_backend", "_eps", "_radius", "_row", "_col",
        "_node_index", "_at_count", "_at_slot",
        "last_removed_rows",
    )

    _MIN_CAPACITY = 8

    def __init__(
        self,
        space: DecaySpace,
        links: Iterable[Link | tuple[int, int]] = (),
        powers: np.ndarray | Sequence[float] | None = None,
        *,
        noise: float = 0.0,
        beta: float = 1.0,
        zeta: float | None = None,
        capacity: int | None = None,
        backend: str = "dense",
        eps: float = 1e-2,
        radius: float | None = None,
    ) -> None:
        zeta = _checked_zeta(zeta)
        self._backend = backend
        self._eps, self._radius = _checked_backend(backend, space, eps, radius)
        self._space = space
        self._noise = float(noise)
        self._beta = float(beta)
        self._zeta_arg = zeta
        self._zeta: float | None = None
        pairs = _coerce_links(links)
        cap = max(
            self._MIN_CAPACITY,
            len(pairs),
            0 if capacity is None else int(capacity),
        )
        self._allocate(cap)
        if pairs:
            initial = LinkSet(space, pairs)
            p0 = (
                uniform_power(initial)
                if powers is None
                else np.asarray(powers, dtype=float)
            )
            ctx = SchedulingContext(
                initial, p0, noise=self._noise, beta=self._beta, zeta=zeta,
                backend=backend, eps=self._eps, radius=self._radius,
            )
            self._adopt(ctx)
        elif powers is not None and len(np.atleast_1d(powers)):
            raise PowerError("powers given without initial links")
        if backend == "sparse" and self._radius is None:
            # No initial links to derive a certified radius from: the
            # maintained pattern criterion d <= R must be pinned up front.
            raise LinkError(
                "a sparse DynamicContext without initial links needs an "
                "explicit interaction radius"
            )

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _allocate(self, cap: int) -> None:
        self._capacity = cap
        self._senders = np.zeros(cap, dtype=int)
        self._receivers = np.zeros(cap, dtype=int)
        self._powers = np.zeros(cap)
        self._lengths = np.zeros(cap)
        self._c = np.zeros(cap)
        if self._backend == "sparse":
            # Per-slot adjacency mirrors: _row[w] = (v indices, a_w(v)),
            # _col[v] = (w indices, a_w(v)) as parallel numpy arrays (raw
            # values), each index-sorted so every sum over a row keeps
            # its operand order.
            # Arrivals and departures merge the O(degree) touched entries
            # of all touched slots in one vectorized pass and replace
            # those slots wholesale, with no per-entry Python objects —
            # the m=10^4+ regime where dict storage would dominate memory.
            self._a_raw: np.ndarray | None = None
            self._row: list[tuple[np.ndarray, np.ndarray]] | None = [
                _EMPTY_ADJ
            ] * cap
            self._col: list[tuple[np.ndarray, np.ndarray]] | None = [
                _EMPTY_ADJ
            ] * cap
            # Node -> active-slot map over endpoint keys (sender u is key
            # u, receiver u is key n + u): _at_count[key] counts the
            # active links with that endpoint, and _at_slot[key] is the
            # link's slot while the count is one.  Links on their own
            # nodes (every scenario builds them so) resolve by gathers;
            # a node shared by several active links is resolved by a
            # scan of the active slots.
            n = self._space.n
            self._at_count = np.zeros(2 * n, dtype=np.int64)
            self._at_slot = np.zeros(2 * n, dtype=np.int64)
        else:
            self._a_raw = np.zeros((cap, cap))
            self._row = None
            self._col = None
            self._at_count = None
            self._at_slot = None
        self._node_index = None
        self._active = np.zeros(cap, dtype=bool)
        self._free = list(range(cap))
        heapq.heapify(self._free)
        self._count = 0
        #: Row patterns of the most recent :meth:`remove_links` batch
        #: (sparse backend): slot -> the column indices its row held just
        #: before removal.  Consumers that maintain derived per-position
        #: sums (the repair schedulers' ledgers) read this to re-exact
        #: only the entries a departure actually touched instead of
        #: recomputing whole slots; replaced wholesale on every removal.
        self.last_removed_rows: dict[int, np.ndarray] = {}

    @classmethod
    def _from_context(
        cls, ctx: SchedulingContext, capacity: int | None = None
    ) -> "DynamicContext":
        sparse = ctx.backend == "sparse"
        dyn = cls(
            ctx.links.space,
            noise=ctx.noise,
            beta=ctx.beta,
            zeta=ctx._zeta_arg,
            capacity=max(ctx.m, 0 if capacity is None else int(capacity)),
            backend=ctx.backend,
            eps=ctx.eps,
            radius=ctx.sparse_affectance.radius if sparse else None,
        )
        dyn._adopt(ctx)
        return dyn

    def _adopt(self, ctx: SchedulingContext) -> None:
        """Install a static context's links (slots ``0..m-1``, in order).

        The raw affectance is taken from the context — computed there if
        absent — so adoption is one batch build (or a pure copy when the
        context already has it), identical float-for-float to a fresh
        :class:`SchedulingContext` over the same links.
        """
        m = ctx.m
        if m > self._capacity:
            self._grow(m)
        links = ctx.links
        sl = np.arange(m)
        self._senders[sl] = links.senders
        self._receivers[sl] = links.receivers
        self._powers[sl] = ctx.powers
        self._lengths[sl] = links.lengths
        self._c[sl] = noise_constants(
            links, ctx.powers, noise=self._noise, beta=self._beta
        )
        if self._backend == "sparse":
            sp = ctx.sparse_affectance
            # Pin the builder's certified radius: from here on the pattern
            # criterion d(s_w, r_v) <= R is maintained incrementally, and
            # freeze() rebuilds at this same R for byte-identity.
            self._radius = sp.radius
            raw = sp.raw
            for i in range(m):
                idx, val = raw.row(i)
                self._row[i] = (idx.copy(), val.copy())
                idx, val = raw.col(i)
                self._col[i] = (idx.copy(), val.copy())
            self._register(sl)
        else:
            self._a_raw[:m, :m] = ctx.raw_affectance
        if "zeta" in ctx._cache:
            self._zeta = ctx.zeta
        self._active[sl] = True
        self._free = [s for s in range(self._capacity) if s >= m]
        heapq.heapify(self._free)
        self._count = m

    def _grow(self, need: int) -> None:
        cap = self._capacity
        new_cap = max(cap * 2, need, self._MIN_CAPACITY)
        for name in ("_senders", "_receivers"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=int)
            fresh[:cap] = old
            setattr(self, name, fresh)
        for name in ("_powers", "_lengths", "_c"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap)
            fresh[:cap] = old
            setattr(self, name, fresh)
        if self._a_raw is not None:
            fresh = np.zeros((new_cap, new_cap))
            fresh[:cap, :cap] = self._a_raw
            self._a_raw = fresh
        if self._row is not None:
            self._row.extend([_EMPTY_ADJ] * (new_cap - cap))
            self._col.extend([_EMPTY_ADJ] * (new_cap - cap))
        mask = np.zeros(new_cap, dtype=bool)
        mask[:cap] = self._active
        self._active = mask
        for s in range(cap, new_cap):
            heapq.heappush(self._free, s)
        self._capacity = new_cap

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> DecaySpace:
        """The fixed node universe."""
        return self._space

    @property
    def m(self) -> int:
        """Number of currently active links."""
        return self._count

    @property
    def capacity(self) -> int:
        """Allocated slot count (active links + free slots)."""
        return self._capacity

    @property
    def noise(self) -> float:
        """Ambient noise ``N``."""
        return self._noise

    @property
    def beta(self) -> float:
        """SINR threshold ``beta``."""
        return self._beta

    @property
    def active_slots(self) -> np.ndarray:
        """Sorted slot indices of the active links."""
        return np.flatnonzero(self._active)

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean activity mask over all slots (read-only view)."""
        return self._active

    @property
    def zeta(self) -> float:
        """The resolved metricity (cached; computed on first use)."""
        if self._zeta is None:
            if self._zeta_arg is not None:
                self._zeta = float(self._zeta_arg)
            else:
                z = self._space.metricity()
                self._zeta = z if z > 0 else 1.0
        return self._zeta

    @property
    def backend(self) -> str:
        """Affectance storage backend: ``"dense"`` or ``"sparse"``."""
        return self._backend

    @property
    def eps(self) -> float:
        """Sparse tail tolerance (unused by the dense backend)."""
        return self._eps

    @property
    def radius(self) -> float | None:
        """Pinned sparse interaction radius (``None`` on the dense backend)."""
        return self._radius

    @property
    def raw_affectance(self) -> np.ndarray:
        """Padded unclipped affectance; free slots carry zero rows/cols.

        On the sparse backend this is a live :class:`_DynSparseView`
        exposing the maintained pattern through the sparse kernel API.
        """
        if self._backend == "sparse":
            return _DynSparseView(self)
        return self._a_raw

    @property
    def senders(self) -> np.ndarray:
        """Padded sender node indices by slot."""
        return self._senders

    @property
    def receivers(self) -> np.ndarray:
        """Padded receiver node indices by slot."""
        return self._receivers

    @property
    def powers(self) -> np.ndarray:
        """Padded per-slot powers."""
        return self._powers

    @property
    def lengths(self) -> np.ndarray:
        """Padded signal decays ``f_vv`` by slot."""
        return self._lengths

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def add_link(
        self, sender: int, receiver: int, power: float = 1.0
    ) -> int:
        """Admit one link; returns the slot index it will occupy.

        A batch of one through :meth:`add_links` — there is exactly one
        implementation of the arrival formulas.  O(m): the new link's raw
        affectance row/column is computed against the active set with the
        exact elementwise expressions of the batch builders.
        """
        return self.add_links([(int(sender), int(receiver))], powers=power)[0]

    def add_links(
        self,
        links: Iterable[Link | tuple[int, int]],
        powers: np.ndarray | Sequence[float] | float | None = None,
    ) -> list[int]:
        """Admit a batch of links; returns the slot index of each.

        The multi-arrival fast path: instead of one O(m) row/column pass
        per link, the whole batch's raw affectance blocks —
        new-versus-active and new-versus-new — are computed as single
        vectorized broadcasts.  Batching is **byte-identical** to
        admitting the same pairs one at a time (a sequence of singleton
        batches, i.e. :meth:`add_link` calls): the same slots are
        assigned (lowest free first, capacity doubling on demand) and
        every matrix entry (sparse: every adjacency index and value) is
        produced by the same elementwise IEEE expression.  The test
        suite pins this.

        ``powers`` is a scalar applied to every arrival (default 1.0) or
        a per-arrival sequence.  Unlike a sequential loop, validation is
        atomic: every pair and power is checked *before* any state
        mutates, so a bad arrival in the middle of a batch leaves the
        context untouched.
        """
        pairs = _coerce_links(links)
        k = len(pairs)
        if k == 0:
            return []
        s_new = np.array([l.sender for l in pairs], dtype=int)
        r_new = np.array([l.receiver for l in pairs], dtype=int)
        hi = max(int(s_new.max()), int(r_new.max()))
        if hi >= self._space.n:
            raise LinkError(
                f"link endpoint {hi} out of range for a "
                f"{self._space.n}-node space"
            )
        if powers is None:
            p_new = np.ones(k)
        else:
            p_new = np.asarray(powers, dtype=float)
            if p_new.ndim == 0:
                p_new = np.full(k, float(p_new))
            elif p_new.shape != (k,):
                raise PowerError(
                    f"power vector must be a scalar or have shape ({k},)"
                )
        if not np.isfinite(p_new).all() or (p_new <= 0).any():
            raise PowerError("powers must be positive and finite")
        # Pairwise decays (an exact entry read on materialized spaces, the
        # same elementwise formula on lazy ones) — never the full f matrix,
        # which sparse-scale spaces cannot afford to materialize.
        l_new = np.asarray(
            self._space.decay_pairs(s_new, r_new), dtype=float
        )
        # Same scalar expression as add_link / noise_constants, batched.
        slack = 1.0 - self._beta * self._noise * l_new / p_new
        if (slack <= 0).any():
            bad = int(np.argmin(slack))
            raise InfeasibleLinkError(
                f"arriving link ({pairs[bad].sender}, {pairs[bad].receiver}) "
                f"cannot overcome ambient noise: P/f_vv = "
                f"{p_new[bad] / l_new[bad]:.4g} <= beta*N = "
                f"{self._beta * self._noise:.4g}"
            )
        c_new = self._beta / slack
        # Capacity evolves exactly as k sequential adds would: double
        # whenever the free list runs dry (so slot indices never move).
        while self._capacity - self._count < k:
            self._grow(self._capacity + 1)
        slots = [heapq.heappop(self._free) for _ in range(k)]
        sl = np.asarray(slots, dtype=int)
        # Scalar state first: both backends' pair formulas below read the
        # arrivals' own entries (the arrivals join the active set last,
        # so nothing active is disturbed).
        self._senders[sl] = s_new
        self._receivers[sl] = r_new
        self._powers[sl] = p_new
        self._lengths[sl] = l_new
        self._c[sl] = c_new
        if self._backend == "sparse":
            self._insert_sparse_links(sl, s_new, r_new)
        else:
            act = self.active_slots
            f = self._space.f
            # Affectance blocks, per element the exact association order of
            # add_link: (c_v * (P_u / P_v)) * (f_vv / f_uv).
            with np.errstate(divide="ignore"):
                if act.size:
                    p_act = self._powers[act]
                    c_act = self._c[act]
                    l_act = self._lengths[act]
                    rows = (
                        c_act[None, :]
                        * (p_new[:, None] / p_act[None, :])
                        * (l_act[None, :] / f[np.ix_(s_new, self._receivers[act])])
                    )
                    cols = (
                        c_new[None, :]
                        * (p_act[:, None] / p_new[None, :])
                        * (l_new[None, :] / f[np.ix_(self._senders[act], r_new)])
                    )
                    self._a_raw[np.ix_(sl, act)] = rows
                    self._a_raw[np.ix_(act, sl)] = cols
                if k > 1:
                    # New-versus-new block: when added sequentially, link j
                    # sees every earlier batch member as active — the same
                    # elementwise formula fills the whole block at once.
                    block = (
                        c_new[None, :]
                        * (p_new[:, None] / p_new[None, :])
                        * (l_new[None, :] / f[np.ix_(s_new, r_new)])
                    )
                    np.fill_diagonal(block, 0.0)
                    self._a_raw[np.ix_(sl, sl)] = block
        self._active[sl] = True
        self._count += k
        return slots

    def _insert_sparse_links(
        self,
        sl: np.ndarray,
        s_new: np.ndarray,
        r_new: np.ndarray,
    ) -> None:
        """Sparse arrival: O(degree) pattern growth at the pinned radius.

        Kept pairs follow the builder's criterion ``d(s_w, r_v) <= R``
        exactly (same coordinates, same distance expression via
        :meth:`CellIndex.query`), so the maintained pattern always equals
        what a freeze-time rebuild at the pinned radius produces.  Values
        use the dense association order, making every stored float the
        exact dense matrix entry.

        One query serves both endpoint roles of the whole batch: the
        first ``k`` query points are the new receivers, the last ``k``
        the new senders.  Hits come offset-major, so each role's hits,
        taken in place, keep the order a query of that role alone would
        return.
        """
        if self._node_index is None:
            # One instance per (geometry, cell size) across all contexts
            # over the geometry, through the geometry-level cache.
            self._node_index = self._space.geometry.node_index(self._radius)
        nidx = self._node_index
        pts = nidx.points
        radius = self._radius
        k = sl.size
        q_idx, node_idx, _ = nidx.query(
            pts[np.concatenate((r_new, s_new))], radius
        )
        near_rx = q_idx < k
        # Arrivals as affected links: active senders near each new
        # receiver.  The arrivals are not registered yet, so neither
        # role sees them (the new-vs-new block covers those pairs).
        q_rx = q_idx[near_rx]
        hit, w_in = self._active_at(node_idx[near_rx])
        # Arrivals as acting links: active receivers near each new sender.
        q_tx = q_idx[~near_rx]
        hit_tx, v_out = self._active_at(node_idx[~near_rx] + self._space.n)
        w_parts = [w_in, sl[q_tx[hit_tx] - k]]
        v_parts = [sl[q_rx[hit]], v_out]
        # New-versus-new, both orientations (slot identity excludes the
        # diagonal, matching the builder's w != v filter).
        if k > 1:
            diff = pts[s_new][:, None, :] - pts[r_new][None, :, :]
            d_nn = np.sqrt((diff**2).sum(axis=-1))
            ii, jj = np.nonzero(d_nn <= radius)
            keep = ii != jj
            w_parts.append(sl[ii[keep]])
            v_parts.append(sl[jj[keep]])
        self._register(sl)
        ww = np.concatenate(w_parts)
        if ww.size == 0:
            return
        vv = np.concatenate(v_parts)
        f_wv = np.asarray(
            self._space.decay_pairs(self._senders[ww], self._receivers[vv]),
            dtype=float,
        )
        with np.errstate(divide="ignore"):
            vals = (
                self._c[vv]
                * (self._powers[ww] / self._powers[vv])
                * (self._lengths[vv] / f_wv)
            )
        # Extend each touched adjacency (row and column mirror) once.
        cap = self._capacity
        self._extend_adjacency(
            np.concatenate((ww, vv + cap)),
            np.concatenate((vv, ww)),
            np.concatenate((vals, vals)),
        )

    def _endpoint_keys(self, slots: np.ndarray) -> np.ndarray:
        """Node-map keys of the links at ``slots``: senders, then
        receivers shifted by the node count."""
        return np.concatenate(
            (self._senders[slots], self._receivers[slots] + self._space.n)
        )

    def _register(self, slots: np.ndarray) -> None:
        """Enter (active-to-be) ``slots`` into the node -> slot map."""
        keys = self._endpoint_keys(slots)
        np.add.at(self._at_count, keys, 1)
        self._at_slot[keys] = np.concatenate((slots, slots))

    def _unregister(self, slots: np.ndarray) -> None:
        """Drop (already deactivated) ``slots`` from the node -> slot map."""
        keys = self._endpoint_keys(slots)
        np.subtract.at(self._at_count, keys, 1)
        # An endpoint left with one link after several shared it: its
        # slot entry went stale while shared, so look it up again.
        for key in set(keys[self._at_count[keys] == 1].tolist()):
            self._at_slot[key] = self._sharing(key)[0]

    def _sharing(self, key: int) -> np.ndarray:
        """Active slots with endpoint ``key``, by a scan (shared nodes)."""
        role, node = divmod(key, self._space.n)
        nodes = self._receivers if role else self._senders
        return np.flatnonzero(self._active & (nodes == node))

    def _active_at(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Active links with an endpoint key in ``keys``: ``(j, slot)``
        pairs with ``keys[j]`` the link's key, ``j`` ascending and slots
        ascending per key."""
        count = self._at_count[keys]
        j = count.nonzero()[0]
        slots = self._at_slot[keys[j]]
        count = count[j]
        if j.size and count.max() > 1:
            slots = np.concatenate(
                [
                    self._sharing(key) if c > 1 else [slot]
                    for key, slot, c in zip(
                        keys[j].tolist(), slots.tolist(), count.tolist()
                    )
                ]
            )
            j = np.repeat(j, count)
        return j, slots

    def _mirror_get(
        self, keys: list[int]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The adjacency arrays of sorted mirror ``keys``: ``w`` names
        ``_row[w]`` and ``capacity + v`` names ``_col[v]``."""
        cap = self._capacity
        split = bisect_left(keys, cap)
        return list(map(self._row.__getitem__, keys[:split])) + [
            self._col[key - cap] for key in keys[split:]
        ]

    def _mirror_set(
        self,
        keys: list[int],
        ends: Iterable[int],
        idx: np.ndarray,
        val: np.ndarray,
    ) -> None:
        """Point each mirror key at its run of ``(idx, val)``: views into
        the shared buffers, laid out in key order, each run ending at the
        matching entry of ``ends``."""
        cap = self._capacity
        row, col = self._row, self._col
        lo = 0
        for key, hi in zip(keys, ends):
            if key < cap:
                row[key] = (idx[lo:hi], val[lo:hi])
            else:
                col[key - cap] = (idx[lo:hi], val[lo:hi])
            lo = hi

    def _extend_adjacency(
        self, keys: np.ndarray, others: np.ndarray, vals: np.ndarray
    ) -> None:
        """Merge entry ``(others[j], vals[j])`` into mirror ``keys[j]``
        (see :meth:`_mirror_get`), keeping every touched array
        index-sorted.

        All touched arrays of both mirrors merge in one pass.  Their old
        entries, concatenated in key order, are already sorted under the
        composite ``key * capacity + index``; the new entries follow in
        any order, and one stable argsort (a sorted run plus a short
        tail, linear for timsort) orders the whole buffer.  Indices are
        unique per array (a new link's partners are never already
        present), so the merge equals the per-array ``argsort`` of the
        concatenation exactly.
        """
        new_count = Counter(keys.tolist())
        touched = sorted(new_count)
        old_idx, old_val = zip(*self._mirror_get(touched))
        lens = list(map(len, old_idx))
        idx = np.concatenate(old_idx + (others,))
        val = np.concatenate(old_val + (vals,))
        composite = np.concatenate((np.repeat(touched, lens), keys))
        composite *= self._capacity
        composite += idx
        order = np.argsort(composite, kind="stable")
        sizes = map(add, lens, map(new_count.__getitem__, touched))
        self._mirror_set(touched, accumulate(sizes), idx[order], val[order])

    def _shrink_adjacency(self, keys: np.ndarray) -> None:
        """Drop every entry naming an inactive slot from the mirror
        arrays named in ``keys`` (see :meth:`_mirror_get`), in one pass
        over their concatenation.

        ``keys`` names each array once per departed slot it holds (the
        departed slots' partner lists, concatenated).  Adjacency arrays
        name active slots only, so once the departing slots are
        deactivated the active mask picks the survivors, which keep
        their order, and each array shrinks by its count in ``keys``.
        """
        count = Counter(keys.tolist())
        touched = sorted(count)
        old_idx, old_val = zip(*self._mirror_get(touched))
        idx = np.concatenate(old_idx)
        keep = self._active[idx]
        sizes = map(sub, map(len, old_idx), map(count.__getitem__, touched))
        self._mirror_set(
            touched,
            accumulate(sizes),
            idx[keep],
            np.concatenate(old_val)[keep],
        )

    def remove_links(self, slots: Iterable[int] | int) -> None:
        """Retire links by slot index; their slots become reusable.

        O(m) per removed link: the freed rows/columns are zeroed so the
        padded matrix never leaks stale interference (sparse: the departed
        entries leave their partners' adjacency, O(degree)).  Slot ids
        must be integers (Python or numpy; bools and floats are refused
        with :class:`LinkError` before anything changes).
        """
        idx = self._slot_ids(slots)
        if idx.size == 0:
            return
        if (
            idx[0] < 0
            or idx[-1] >= self._capacity
            or not self._active[idx].all()
        ):
            bad = [
                int(s)
                for s in idx
                if s < 0 or s >= self._capacity or not self._active[s]
            ]
            raise LinkError(f"cannot remove inactive slots {bad[:5]}")
        removed_rows: dict[int, np.ndarray] = {}
        # Deactivate first: the sparse shrink keeps the adjacency entries
        # that name active slots.
        self._active[idx] = False
        if self._backend == "sparse":
            cap = self._capacity
            partners: list[np.ndarray] = []
            for s in idx.tolist():
                # Shed this slot's row (its effect on survivors) and column
                # (survivors' effect on it); each row partner v holds s in
                # _col[v], each column partner w in _row[w].
                ri = self._row[s][0]
                removed_rows[s] = ri
                partners += (self._col[s][0], ri + cap)
            keys = np.concatenate(partners)
            if keys.size:
                self._shrink_adjacency(keys)
            for s in idx.tolist():
                self._row[s] = _EMPTY_ADJ
                self._col[s] = _EMPTY_ADJ
            self._unregister(idx)
        else:
            self._a_raw[idx, :] = 0.0
            self._a_raw[:, idx] = 0.0
        self.last_removed_rows = removed_rows
        self._count -= idx.size
        for s in idx.tolist():
            heapq.heappush(self._free, s)

    @staticmethod
    def _slot_ids(slots: Iterable[int] | int) -> np.ndarray:
        """Sorted distinct slot ids, refusing anything but integers."""
        if isinstance(slots, np.ndarray):
            ok = slots.dtype.kind in "iu" or slots.size == 0
            items = slots.ravel().tolist()
        else:
            items = list(slots) if isinstance(slots, Iterable) else [slots]
            ok = all(
                isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                for s in items
            )
        if not ok:
            raise LinkError(f"slot ids must be integers, got {slots!r}")
        return np.array(sorted(set(map(int, items))), dtype=np.int64)

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------
    def freeze(self) -> SchedulingContext:
        """A static :class:`SchedulingContext` over the current links.

        Active links are listed in slot order.  On the dense backend the
        frozen context's raw affectance is a copy of the maintained
        padded matrix — byte-identical to a from-scratch build, without
        recomputing a single affectance entry; the resolved ``zeta``
        rides along too.  The frozen context derives its clipped layer and
        link distances on first use, exactly as a fresh context does.
        The result is independent of further churn on this object.
        """
        act = self.active_slots
        if act.size == 0:
            raise LinkError("cannot freeze an empty dynamic context")
        pairs = [
            (int(self._senders[s]), int(self._receivers[s])) for s in act
        ]
        ctx = SchedulingContext(
            LinkSet(self._space, pairs),
            self._powers[act].copy(),
            noise=self._noise,
            beta=self._beta,
            zeta=self._zeta_arg,
            backend=self._backend,
            eps=self._eps,
            radius=self._radius,
        )
        if self._zeta is not None:
            ctx._cache["zeta"] = self._zeta
        if self._backend == "sparse":
            # No cache injection: the frozen context lazily rebuilds its
            # CSR affectance at the pinned radius, which reproduces the
            # maintained pattern and values exactly (the d <= R criterion
            # is the builder's own), so freeze stays O(1) until used.
            return ctx
        ctx._cache["raw_affectance"] = self._a_raw[np.ix_(act, act)]
        return ctx

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicContext(m={self._count}, capacity={self._capacity}, "
            f"space_n={self._space.n}, noise={self._noise}, beta={self._beta})"
        )
