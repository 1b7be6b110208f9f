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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.affectance import (
    affectance_matrix,
    in_affectances_within,
    noise_constants,
)
from repro.core.affectance_sparse import (
    _DENSE_BLOCK_LIMIT,
    SparseAffectance,
    SparseLinkDistances,
    _SparseView,
    add_row_to,
    build_sparse_affectance,
    build_sparse_link_distances,
)
from repro.core.decay import DecaySpace
from repro.core.links import Link, LinkSet
from repro.core.power import uniform_power
from repro.core.separation import link_distance_matrix
from repro.errors import InfeasibleLinkError, LinkError, PowerError

__all__ = [
    "DynamicContext",
    "Schedule",
    "SchedulingContext",
    "combined_affectance_within",
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
    """Per-link in/out affectance sums over a maintained member set.

    The delta structure of repeated capacity:
    ``in_sum[v] = a_M(v)`` (column sums: what members do to ``v``) and
    ``out_sum[v] = a_v(M)`` (row sums: what ``v`` does to members) over the
    member set ``M``, for *every* link ``v``.  Members join one at a time
    (``add`` — a link-subset view is seeded this way) or leave a peeled
    slot at a time (``remove_slot`` — one vectorized subtraction per round
    instead of re-slicing the full matrix).  All state is local to the
    algorithm invocation; the context's caches are never touched.
    """

    __slots__ = ("a", "dense", "mask", "in_sum", "out_sum", "count")

    def __init__(self, a, *, full: bool) -> None:
        m = a.shape[0]
        self.a = a
        self.dense = isinstance(a, np.ndarray)
        if full:
            self.mask = np.ones(m, dtype=bool)
            self.in_sum = a.sum(axis=0) if self.dense else a.sum_axis0()
            self.out_sum = a.sum(axis=1) if self.dense else a.sum_axis1()
            self.count = m
        else:
            self.mask = np.zeros(m, dtype=bool)
            self.in_sum = np.zeros(m)
            self.out_sum = np.zeros(m)
            self.count = 0

    def add(self, v: int) -> None:
        """Admit link ``v`` (identical accumulation order to the PR-1 loops)."""
        self.mask[v] = True
        if self.dense:
            self.in_sum += self.a[v]
            self.out_sum += self.a[:, v]
        else:
            # Scatter over the stored pattern: unstored entries add an
            # exact 0.0, so the sums match the dense accumulation float
            # for float whenever the pattern holds the pairs.
            self.a.add_row_to(self.in_sum, v)
            self.a.add_col_to(self.out_sum, v)
        self.count += 1

    def remove_slot(self, members: Sequence[int]) -> None:
        """Peel a whole slot from the member set by subtraction."""
        idx = np.asarray(members, dtype=int)
        self.mask[idx] = False
        if self.dense:
            self.in_sum -= self.a[idx].sum(axis=0)
            self.out_sum -= self.a[:, idx].sum(axis=1)
        else:
            self.in_sum -= self.a.rows_sum(idx)
            self.out_sum -= self.a.cols_sum(idx)
        self.count -= idx.size


def combined_affectance_within(
    a: np.ndarray, members: Sequence[int] | np.ndarray, v: int
) -> float:
    """``a_M(v) + a_v(M)`` over ``members`` — the admission quantity.

    The scalar Algorithm 1's greedy admission scan checks against its
    threshold for each candidate (with ``a`` the *clipped* affectance,
    the paper's accounting).  Shared by the capacity-repair probes so
    the online admission rule is evaluated by the same gathers the
    ledger maintains in bulk.
    """
    idx = np.asarray(members, dtype=int)
    if not isinstance(a, np.ndarray):
        return float(a.gather_col(idx, v).sum() + a.gather_row(v, idx).sum())
    return float(a[idx, v].sum() + a[v, idx].sum())


def slot_admission_sums(
    a: np.ndarray, members: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Per-member ``a_M(v) + a_v(M)`` within the member set ``M``.

    The ledger sums a freshly built round would carry: column sums plus
    row sums of the member block (diagonal zero), aligned with
    ``members``.  A set whose every entry clears the Algorithm-1
    admission threshold of 1/2 is in particular feasible — each member's
    in-affectance is at most 1/2 — which is what makes threshold-guarded
    slot merges safe.
    """
    idx = np.asarray(members, dtype=int)
    if isinstance(a, np.ndarray):
        block = a[np.ix_(idx, idx)]
    else:
        block = a.block(idx, idx)
    return block.sum(axis=0) + block.sum(axis=1)


def _first_fit_slots(
    a,
    order: Iterable[int],
    *,
    seeds: Sequence[np.ndarray] = (),
    admits: Callable[[int, np.ndarray], bool] | None = None,
) -> list[np.ndarray]:
    """First fit over ``order``: the one slot-placement loop of the package.

    Each link joins the earliest slot where it and every member keep
    in-affectance at most 1 under the raw affectance ``a`` (dense array
    or sparse view), and ``admits(v, members)`` — an extra admission
    rule, checked last — holds; otherwise it opens a new slot.  Static
    first fit, the repair anchor and the shard merge's leftover pass all
    run here, so they compare the same floats by construction.

    ``seeds`` are pre-certified slots probed before any opened one.  A
    seed's ledger is built on its first probe by sequential row adds in
    member order; an opened slot's ledger starts as the opener's row.

    Slot members live in amortized-doubling numpy buffers, so each
    probe's ledger gather ``in_aff[members] + av[members]`` is a pure
    array fancy-index (``benchmarks/profile_place.py`` found the list
    re-conversion it replaced at ~60% of a serial m=10^4 run).  A sparse
    row is materialized into one reused scratch vector (zero the previous
    row's support, scatter the new one) instead of a fresh O(m) dense
    row per link; untouched entries are the same +0.0, so every
    comparison and ledger update equals the dense-row one bit for bit.

    Returns each slot's members in admission order.
    """
    dense = isinstance(a, np.ndarray)
    bufs = [np.array(s, dtype=np.int64) for s in seeds]
    sizes = [b.size for b in bufs]
    sums: list[np.ndarray | None] = [None] * len(bufs)
    scratch = None if dense else np.zeros(a.shape[0])
    prev_idx: np.ndarray | None = None
    for v in order:
        v = int(v)
        if dense:
            av = a[v]
        else:
            if prev_idx is not None:
                scratch[prev_idx] = 0.0
            prev_idx, rval = a.row(v)
            scratch[prev_idx] = rval
            av = scratch
        for t in range(len(bufs)):
            in_aff = sums[t]
            if in_aff is None:
                in_aff = sums[t] = np.zeros(a.shape[0])
                for u in bufs[t][: sizes[t]]:
                    add_row_to(in_aff, a, int(u))
            if in_aff[v] > 1.0:
                continue
            mem = bufs[t][: sizes[t]]
            if np.all(in_aff[mem] + av[mem] <= 1.0) and (
                admits is None or admits(v, mem)
            ):
                if sizes[t] == bufs[t].size:
                    grown = np.empty(max(4, 2 * sizes[t]), dtype=np.int64)
                    grown[: sizes[t]] = mem
                    bufs[t] = grown
                bufs[t][sizes[t]] = v
                sizes[t] += 1
                in_aff += av
                break
        else:
            buf = np.empty(4, dtype=np.int64)
            buf[0] = v
            bufs.append(buf)
            sizes.append(1)
            sums.append(av.copy())
    return [bufs[t][: sizes[t]] for t in range(len(bufs))]


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
    def _active_order(self, active: Iterable[int] | None) -> np.ndarray:
        """``self.order`` restricted to ``active`` (all links when None).

        Restricting the precomputed global order is float-identical to
        ordering a rebuilt subset: both sort the same lengths with the same
        index tie-break.
        """
        order = self.order
        if active is None:
            return order
        mask = np.zeros(self.m, dtype=bool)
        mask[np.asarray(list(active), dtype=int)] = True
        return order[mask[order]]

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
        a = self.affectance
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
                if sparse:
                    a.add_row_to(in_aff, v)
                    a.add_col_to(out_aff, v)
                else:
                    in_aff += a[v]  # l_v now affects every other link
                    out_aff += a[:, v]  # each link's out-affectance onto X grows
            if separation:
                if sparse:
                    nbr, nd = sdist.col(v)
                    min_sep[nbr] = np.minimum(min_sep[nbr], nd)
                else:
                    np.minimum(min_sep, dist[:, v], out=min_sep)
        return x

    def capacity_bounded_growth(
        self, active: Iterable[int] | None = None
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Algorithm 1 (Sec. 4.1) on the ``active`` links.

        Returns ``(selected, candidate)`` as tuples of global link indices:
        the feasible output ``S`` and the internal candidate set ``X``.
        """
        x = self._greedy_admission(
            self._active_order(active), 0.5, separation=True
        )
        return self._final_filter(self.affectance, x), tuple(x)

    def capacity_general(
        self,
        active: Iterable[int] | None = None,
        admission_threshold: float = 0.5,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The general-metric greedy (no separation check) on ``active``.

        Returns ``(selected, candidate)`` in global indices; the power
        assignment is the context's (monotonicity is the caller's
        responsibility — see
        :func:`repro.algorithms.capacity_general.capacity_general_metric`).
        """
        x = self._greedy_admission(
            self._active_order(active), admission_threshold, separation=False
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
        self,
        order: Sequence[int] | None = None,
        *,
        active: Iterable[int] | None = None,
    ) -> tuple[tuple[int, ...], ...]:
        """First-fit slot assignment with exact incremental feasibility.

        Links are processed shortest-first (or in the given ``order``,
        which must be a permutation of all link indices) and placed in the
        earliest slot that stays feasible with them added, by the one
        first-fit loop (:func:`_first_fit_slots`) the repair anchor and
        the shard merge also run.  Unstored sparse pairs contribute an
        exact 0.0, so on a complete pattern both backends give the same
        slots.

        ``active`` restricts scheduling to a link-subset view: only the
        given links are placed, in the global precedence order restricted
        to them, and only their mutual affectances are ever compared —
        the slots are what a context over just those links would produce.
        ``order`` and ``active`` are mutually exclusive (an explicit order
        already *is* the processed subset's order, but the full-universe
        permutation check below would reject subsets, so the combination
        is refused rather than half-honoured).
        """
        if order is None:
            sequence = self._active_order(active)
        elif active is not None:
            raise LinkError("pass either an explicit order or active, not both")
        else:
            sequence = _validated_order(order, self.m)
        slots = _first_fit_slots(self.raw_affectance, sequence)
        return tuple(tuple(sorted(s.tolist())) for s in slots)

    def repeated_capacity(
        self,
        *,
        admission: str = "bounded_growth",
        max_slots: int | None = None,
        active: Iterable[int] | None = None,
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
        if active is None:
            ledger = _AffectanceLedger(a, full=True)
        else:
            # Link-subset view: seed the ledger with only the active
            # members (ascending index, matching CSR storage order).  The
            # admission scans then see exactly the sums a context over the
            # subset would hold, and the remaining-set mask confines every
            # round to the view.
            ledger = _AffectanceLedger(a, full=False)
            for v in np.unique(np.asarray(list(active), dtype=int)):
                ledger.add(int(v))
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
#: slot adjacencies are replaced wholesale on mutation, never edited in
#: place.
_EMPTY_ADJ: tuple[np.ndarray, np.ndarray] = (
    np.empty(0, dtype=np.int64),
    np.empty(0),
)
_EMPTY_ADJ[0].setflags(write=False)
_EMPTY_ADJ[1].setflags(write=False)


class _DynSparseView(_SparseView):
    """One value layer over a sparse :class:`DynamicContext`'s adjacency.

    A *live* padded view (size = slot capacity, free slots empty): every
    access reads the maintained per-slot ``(indices, values)`` arrays, so
    the view tracks churn and capacity growth without invalidation.  Raw
    values are stored; clipping is applied on read.
    """

    __slots__ = ("_dyn", "_clipped")

    def __init__(self, dyn: "DynamicContext", clipped: bool) -> None:
        self._dyn = dyn
        self._clipped = clipped

    @property
    def n(self) -> int:
        return self._dyn._capacity

    def _layer(
        self, adj: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        # Adjacency arrays are kept index-sorted by every mutation path
        # (adopted CSR slices are sorted, insertion re-sorts the touched
        # slots, removal filters in place), so reads are allocation-free
        # for the raw layer.
        idx, val = adj
        if idx.size == 0:
            return _EMPTY_ADJ
        if self._clipped:
            val = np.minimum(val, 1.0)
        return idx, val

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        return self._layer(self._dyn._row[int(v)])

    def col(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        return self._layer(self._dyn._col[int(v)])

    def rows_sum(self, members) -> np.ndarray:
        """Member-row sum, reading the maintained adjacency directly.

        Same two regimes as the mixin (dense-block twin within the
        budget, bincount scatter beyond it), but the scatter path skips
        the per-row ``row()``/clip round trip: raw layers are gathered
        straight from the adjacency lists and clipped once on the
        concatenation — elementwise ``min`` commutes with concatenation,
        so the floats match the per-row reads bit for bit.
        """
        members = np.asarray(members, dtype=int)
        n = self.n
        if members.size == 0:
            return np.zeros(n)
        if members.size * n <= _DENSE_BLOCK_LIMIT:
            return super().rows_sum(members)
        row = self._dyn._row
        parts_i: list[np.ndarray] = []
        parts_v: list[np.ndarray] = []
        keep_i = parts_i.append
        keep_v = parts_v.append
        # tolist(): plain-int indices — numpy scalars pay ~10x per list
        # subscript in this, the hottest loop of the repair path.
        for r in members.tolist():
            idx, val = row[r]
            if idx.size:
                keep_i(idx)
                keep_v(val)
        if not parts_i:
            return np.zeros(n)
        cat_i = np.concatenate(parts_i)
        cat_v = np.concatenate(parts_v)
        if self._clipped:
            cat_v = np.minimum(cat_v, 1.0)
        return np.bincount(cat_i, weights=cat_v, minlength=n)


class DynamicContext:
    """Incremental link arrivals and departures over a fixed decay space.

    The online counterpart of :class:`SchedulingContext`: links join
    (:meth:`add_link`) and leave (:meth:`remove_links`) one event at a
    time, and every maintained object — the raw and clipped affectance
    matrices, link quasi-distances, lengths, powers, noise constants, and
    the ledger-style in/out affectance sums — is updated in **O(m) work
    per event** (one row and one column), never by an O(m^2) rebuild.

    Exactness contract: every maintained *matrix entry* is computed by the
    same elementwise IEEE operations as a from-scratch
    :class:`SchedulingContext` over the current link set, so
    :meth:`freeze` produces a context whose affectance and distance
    matrices — and therefore whose capacity/scheduling outputs — are
    byte-identical to a fresh build (the test suite pins this across
    random churn sequences).  The running ledger *sums* are maintained by
    subtraction and may drift by a few ulp from a fresh sum; anything that
    needs exact sums (the scheduling kernels) recomputes them from the
    exact matrices inside :meth:`freeze`-produced contexts.

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
        :attr:`raw_affectance` / :attr:`affectance` return live sparse
        views instead of arrays.
    """

    __slots__ = (
        "_space", "_noise", "_beta", "_zeta_arg", "_zeta", "_capacity",
        "_senders", "_receivers", "_powers", "_lengths", "_c",
        "_a_raw", "_a_clip", "_dist", "_active", "_free", "_count",
        "_in_sum", "_out_sum",
        "_backend", "_eps", "_radius", "_row", "_col",
        "_node_index", "_by_sender", "_by_receiver",
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
        if zeta is not None and zeta <= 0:
            raise LinkError(f"zeta must be positive, got {zeta}")
        self._backend = backend
        self._eps, self._radius = _checked_backend(backend, space, eps, radius)
        self._space = space
        self._noise = float(noise)
        self._beta = float(beta)
        self._zeta_arg = zeta
        self._zeta: float | None = None
        pairs = [
            l if isinstance(l, Link) else Link(int(l[0]), int(l[1]))
            for l in links
        ]
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
            # values; clipping happens on read).  Arrays are replaced
            # wholesale on mutation, so arrivals and departures touch
            # O(degree) entries with no per-entry Python objects — the
            # m=10^4+ regime where dict storage would dominate memory.
            self._a_raw: np.ndarray | None = None
            self._a_clip: np.ndarray | None = None
            self._row: list[tuple[np.ndarray, np.ndarray]] | None = [
                _EMPTY_ADJ
            ] * cap
            self._col: list[tuple[np.ndarray, np.ndarray]] | None = [
                _EMPTY_ADJ
            ] * cap
        else:
            self._a_raw = np.zeros((cap, cap))
            self._a_clip = np.zeros((cap, cap))
            self._row = None
            self._col = None
        self._node_index = None
        self._by_sender: dict[int, set[int]] = {}
        self._by_receiver: dict[int, set[int]] = {}
        self._dist: np.ndarray | None = None
        self._active = np.zeros(cap, dtype=bool)
        self._free = list(range(cap))
        heapq.heapify(self._free)
        self._count = 0
        self._in_sum = np.zeros(cap)
        self._out_sum = np.zeros(cap)
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

        Matrices are taken from the context — computed there if absent —
        so adoption is one batch build (or a pure copy when the context
        already has them), identical float-for-float to a fresh
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
                self._by_sender.setdefault(
                    int(links.senders[i]), set()
                ).add(i)
                self._by_receiver.setdefault(
                    int(links.receivers[i]), set()
                ).add(i)
            clip = sp.clip
            self._in_sum[:m] = clip.sum_axis0()
            self._out_sum[:m] = clip.sum_axis1()
        else:
            self._a_raw[:m, :m] = ctx.raw_affectance
            self._a_clip[:m, :m] = ctx.affectance
            if "dist" in ctx._cache:
                self._ensure_dist()
                self._dist[:m, :m] = ctx.link_distances
            self._in_sum[:m] = self._a_clip[:m, :m].sum(axis=0)
            self._out_sum[:m] = self._a_clip[:m, :m].sum(axis=1)
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
        for name in ("_powers", "_lengths", "_c", "_in_sum", "_out_sum"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap)
            fresh[:cap] = old
            setattr(self, name, fresh)
        for name in ("_a_raw", "_a_clip", "_dist"):
            old = getattr(self, name)
            if old is None:
                continue
            fresh = np.zeros((new_cap, new_cap))
            fresh[:cap, :cap] = old
            setattr(self, name, fresh)
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
    def zeta_capacity(self) -> float:
        """``zeta`` clamped below at 1 — the distance-matrix exponent."""
        return max(self.zeta, 1.0)

    @property
    def backend(self) -> str:
        """Affectance storage backend: ``"dense"`` or ``"sparse"``."""
        return self._backend

    @property
    def is_sparse(self) -> bool:
        """Whether affectance is maintained sparsely (no padded matrices)."""
        return self._backend == "sparse"

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
            return _DynSparseView(self, clipped=False)
        return self._a_raw

    @property
    def affectance(self) -> np.ndarray:
        """Padded clipped affectance ``min(1, a_w(v))``."""
        if self._backend == "sparse":
            return _DynSparseView(self, clipped=True)
        return self._a_clip

    @property
    def link_distances(self) -> np.ndarray:
        """Padded link quasi-distances (materialized on first access)."""
        if self._backend == "sparse":
            raise LinkError(
                "the sparse backend does not maintain a dense link-distance "
                "matrix; freeze() and use the static context's "
                "sparse_link_distances"
            )
        self._ensure_dist(populate=True)
        return self._dist

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

    @property
    def ledger_in_sums(self) -> np.ndarray:
        """Running ``a_M(v)`` over the active set (subtractive; see class doc)."""
        return self._in_sum

    @property
    def ledger_out_sums(self) -> np.ndarray:
        """Running ``a_v(M)`` over the active set (subtractive; see class doc)."""
        return self._out_sum

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def add_link(
        self, sender: int, receiver: int, power: float = 1.0
    ) -> int:
        """Admit one link; returns the slot index it will occupy.

        A batch of one through :meth:`add_links` — there is exactly one
        implementation of the arrival formulas.  O(m): the new link's
        affectance row/column (and distance row/column when distances
        are materialized) are computed against the active set with the
        exact elementwise expressions of the batch builders, and the
        ledger sums absorb them.
        """
        return self.add_links([(int(sender), int(receiver))], powers=power)[0]

    def add_links(
        self,
        links: Iterable[Link | tuple[int, int]],
        powers: np.ndarray | Sequence[float] | float | None = None,
    ) -> list[int]:
        """Admit a batch of links; returns the slot index of each.

        The multi-arrival fast path: instead of one O(m) row/column pass
        per link, the whole batch's affectance (and distance) blocks —
        new-versus-active and new-versus-new — are computed as single
        vectorized broadcasts.  Batching is **byte-identical** to
        admitting the same pairs one at a time (a sequence of singleton
        batches, i.e. :meth:`add_link` calls): the same slots are
        assigned (lowest free first, capacity doubling on demand), every
        matrix entry is produced by the same elementwise IEEE expression,
        and the ledger sums absorb the new rows/columns in the same
        accumulation order.  The test suite pins this.

        ``powers`` is a scalar applied to every arrival (default 1.0) or
        a per-arrival sequence.  Unlike a sequential loop, validation is
        atomic: every pair and power is checked *before* any state
        mutates, so a bad arrival in the middle of a batch leaves the
        context untouched.
        """
        pairs = [
            l if isinstance(l, Link) else Link(int(l[0]), int(l[1]))
            for l in links
        ]
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
        if not np.all(np.isfinite(p_new)) or np.any(p_new <= 0):
            raise PowerError("powers must be positive and finite")
        # Pairwise decays (an exact entry read on materialized spaces, the
        # same elementwise formula on lazy ones) — never the full f matrix,
        # which sparse-scale spaces cannot afford to materialize.
        l_new = np.asarray(
            self._space.decay_pairs(s_new, r_new), dtype=float
        )
        # Same scalar expression as add_link / noise_constants, batched.
        slack = 1.0 - self._beta * self._noise * l_new / p_new
        if np.any(slack <= 0):
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
        act = self.active_slots
        slots = [heapq.heappop(self._free) for _ in range(k)]
        sl = np.asarray(slots, dtype=int)
        # Scalar state first: both backends' pair formulas below read the
        # arrivals' own entries (act never overlaps sl, so nothing active
        # is disturbed).
        self._senders[sl] = s_new
        self._receivers[sl] = r_new
        self._powers[sl] = p_new
        self._lengths[sl] = l_new
        self._c[sl] = c_new
        if self._backend == "sparse":
            self._insert_sparse_links(sl, act, s_new, r_new)
        else:
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
                    self._a_clip[np.ix_(sl, act)] = np.minimum(rows, 1.0)
                    self._a_clip[np.ix_(act, sl)] = np.minimum(cols, 1.0)
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
                    self._a_clip[np.ix_(sl, sl)] = np.minimum(block, 1.0)
            # Ledger sums in the exact per-arrival accumulation order of
            # add_link (gathering the just-written clipped entries), so the
            # running sums match a sequential replay bit for bit.
            for i, slot in enumerate(slots):
                act_i = np.sort(np.concatenate([act, sl[:i]])) if i else act
                clip_row = self._a_clip[slot, act_i]
                clip_col = self._a_clip[act_i, slot]
                self._in_sum[slot] = clip_col.sum()
                self._out_sum[slot] = clip_row.sum()
                self._in_sum[act_i] += clip_row
                self._out_sum[act_i] += clip_col
        if self._dist is not None:
            self._update_dist_block(sl, act, s_new, r_new, l_new)
        self._active[sl] = True
        self._count += k
        return slots

    def _insert_sparse_links(
        self,
        sl: np.ndarray,
        act: np.ndarray,
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
        """
        if self._node_index is None:
            # One instance per (geometry, cell size) across all consumers:
            # the sparse pattern maintenance here and the shard partition
            # share it through the geometry-level cache.
            self._node_index = self._space.geometry.node_index(self._radius)
        nidx = self._node_index
        pts = nidx.points
        radius = self._radius
        k = sl.size
        w_parts: list[int] = []
        v_parts: list[int] = []
        # Arrivals as affected links: active senders near each new receiver.
        q_idx, node_idx, _ = nidx.query(pts[r_new], radius)
        for qi, node in zip(q_idx.tolist(), node_idx.tolist()):
            for w in self._by_sender.get(node, ()):
                w_parts.append(w)
                v_parts.append(int(sl[qi]))
        # Arrivals as acting links: active receivers near each new sender.
        q_idx, node_idx, _ = nidx.query(pts[s_new], radius)
        for qi, node in zip(q_idx.tolist(), node_idx.tolist()):
            for v in self._by_receiver.get(node, ()):
                w_parts.append(int(sl[qi]))
                v_parts.append(v)
        # New-versus-new, both orientations (slot identity excludes the
        # diagonal, matching the builder's w != v filter).
        if k > 1:
            diff = pts[s_new][:, None, :] - pts[r_new][None, :, :]
            d_nn = np.sqrt((diff**2).sum(axis=-1))
            ii, jj = np.nonzero(d_nn <= radius)
            keep = ii != jj
            w_parts.extend(sl[ii[keep]].tolist())
            v_parts.extend(sl[jj[keep]].tolist())
        # Register the arrivals only now: the queries above must not see
        # them (the new-vs-new block already covers those pairs).
        for i in range(k):
            self._by_sender.setdefault(int(s_new[i]), set()).add(int(sl[i]))
            self._by_receiver.setdefault(int(r_new[i]), set()).add(int(sl[i]))
        if not w_parts:
            return
        ww = np.asarray(w_parts, dtype=np.int64)
        vv = np.asarray(v_parts, dtype=np.int64)
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
        clipped = np.minimum(vals, 1.0)
        # Ledger accumulation in entry order (unbuffered, so repeated
        # slots add sequentially like the historical per-entry loop).
        np.add.at(self._in_sum, vv, clipped)
        np.add.at(self._out_sum, ww, clipped)
        # Extend each touched adjacency once: group the new entries by
        # row (and mirror by column) and concatenate per slot.
        self._extend_adjacency(self._row, ww, vv, vals)
        self._extend_adjacency(self._col, vv, ww, vals)

    def _extend_adjacency(
        self,
        adj: list[tuple[np.ndarray, np.ndarray]],
        keys: np.ndarray,
        others: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """Append ``(others, vals)`` entries to ``adj[key]`` per key,
        keeping every touched slot index-sorted.

        All touched slots merge in one pass: both streams are sorted
        under the composite (slot, index) key — old arrays by the
        maintained invariant, new entries by the up-front composite
        sort (within one slot they may arrive as several sorted runs,
        e.g. by-sender then by-receiver, so sorting by slot alone is
        not enough) — so a single ``searchsorted`` + ``np.insert``
        produces every slot's sorted merge at once.  Indices are unique
        per slot (a new link's partners are never already present), so
        the merge equals the per-slot ``argsort`` of the concatenation
        exactly.
        """
        big = self._capacity  # strict index upper bound
        order = np.argsort(
            keys.astype(np.int64) * big + others, kind="stable"
        )
        ks, os_, vs = keys[order], others[order], vals[order]
        uniq, starts = np.unique(ks, return_index=True)
        counts = np.diff(np.append(starts, ks.size))
        slots = uniq.tolist()
        old = [adj[key] for key in slots]
        old_lens = np.array([o[0].size for o in old], dtype=np.int64)
        old_idx = np.concatenate([o[0] for o in old])
        old_val = np.concatenate([o[1] for o in old])
        ranks = np.arange(len(slots), dtype=np.int64)
        key_old = np.repeat(ranks, old_lens) * big + old_idx
        key_new = np.repeat(ranks, counts) * big + os_
        pos = np.searchsorted(key_old, key_new)
        merged_idx = np.insert(old_idx, pos, os_)
        merged_val = np.insert(old_val, pos, vs)
        offs = np.zeros(len(slots) + 1, dtype=np.int64)
        np.cumsum(old_lens + counts, out=offs[1:])
        bounds = offs.tolist()
        for j, key in enumerate(slots):
            lo, hi = bounds[j], bounds[j + 1]
            # Views into the merged buffer: adjacency is replaced
            # wholesale on every mutation, never edited in place, and
            # the buffer holds exactly these slots' rows, so no slack
            # memory is pinned.
            adj[key] = (merged_idx[lo:hi], merged_val[lo:hi])

    def _shrink_adjacency(
        self,
        adj: list[tuple[np.ndarray, np.ndarray]],
        partners: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        """Drop entry ``targets[j]`` from ``adj[partners[j]]``, for all
        ``j``, in one pass over the concatenated partner arrays.

        The composite (partner-rank, index) key locates every target in
        every partner with a single ``searchsorted``; pairs whose entry
        is already gone (both endpoints leaving in one batch) simply
        miss.  Equivalent to the historical per-partner mask filter:
        indices are unique per slot, so each pair deletes at most one
        entry and the survivors keep their order.
        """
        big = self._capacity
        order = np.argsort(
            partners.astype(np.int64) * big + targets, kind="stable"
        )
        ps, ts = partners[order], targets[order]
        uniq, starts = np.unique(ps, return_index=True)
        counts = np.diff(np.append(starts, ps.size))
        slots = uniq.tolist()
        old = [adj[p] for p in slots]
        lens = np.array([o[0].size for o in old], dtype=np.int64)
        flat_i = np.concatenate([o[0] for o in old])
        flat_v = np.concatenate([o[1] for o in old])
        ranks = np.arange(len(slots), dtype=np.int64)
        key = np.repeat(ranks, lens) * big + flat_i
        target = np.repeat(ranks, counts) * big + ts
        pos = np.searchsorted(key, target)
        pos_c = np.minimum(pos, max(key.size - 1, 0))
        hit = (
            (key[pos_c] == target)
            if key.size
            else np.zeros(target.size, dtype=bool)
        )
        gone_per_slot = np.bincount(
            np.repeat(ranks, counts)[hit], minlength=len(slots)
        )
        if hit.any():
            flat_i = np.delete(flat_i, pos[hit])
            flat_v = np.delete(flat_v, pos[hit])
        offs = np.zeros(len(slots) + 1, dtype=np.int64)
        np.cumsum(lens - gone_per_slot, out=offs[1:])
        bounds = offs.tolist()
        for j, p in enumerate(slots):
            lo, hi = bounds[j], bounds[j + 1]
            # Views into the surviving buffer: adjacency is replaced
            # wholesale on every mutation, never edited in place, and
            # the buffer holds exactly these slots' rows, so no slack
            # memory is pinned.
            adj[p] = (flat_i[lo:hi], flat_v[lo:hi])

    def _update_dist_block(
        self,
        sl: np.ndarray,
        act: np.ndarray,
        s_new: np.ndarray,
        r_new: np.ndarray,
        l_new: np.ndarray,
    ) -> None:
        """Distance blocks for a batch arrival (exact per element).

        The blocked form of :meth:`_update_dist`: every entry is the same
        four-candidate endpoint minimum evaluated through the same ufunc
        power loop, so batched and sequential arrivals produce identical
        distance matrices.
        """
        inv = 1.0 / self.zeta_capacity
        f = self._space.f
        self._dist[sl, sl] = np.power(l_new, inv)
        if act.size:
            s_act = self._senders[act]
            r_act = self._receivers[act]
            sr = f[np.ix_(s_new, r_act)] ** inv  # d(s_new, r_w)
            rs = f[np.ix_(s_act, r_new)] ** inv  # d(s_w, r_new)
            ss_fwd = f[np.ix_(s_new, s_act)] ** inv
            ss_bwd = f[np.ix_(s_act, s_new)] ** inv
            rr_fwd = f[np.ix_(r_new, r_act)] ** inv
            rr_bwd = f[np.ix_(r_act, r_new)] ** inv
            self._dist[np.ix_(sl, act)] = np.minimum(
                np.minimum(sr, rs.T), np.minimum(ss_fwd, rr_fwd)
            )
            self._dist[np.ix_(act, sl)] = np.minimum(
                np.minimum(rs, sr.T), np.minimum(ss_bwd, rr_bwd)
            )
        if sl.size > 1:
            sr_nn = f[np.ix_(s_new, r_new)] ** inv
            ss_nn = f[np.ix_(s_new, s_new)] ** inv
            rr_nn = f[np.ix_(r_new, r_new)] ** inv
            block = np.minimum(
                np.minimum(sr_nn, sr_nn.T), np.minimum(ss_nn, rr_nn)
            )
            np.fill_diagonal(block, np.power(l_new, inv))
            self._dist[np.ix_(sl, sl)] = block

    def remove_links(self, slots: Iterable[int] | int) -> None:
        """Retire links by slot index; their slots become reusable.

        O(m) per removed link: ledger sums shed the departed rows and
        columns by subtraction, and the freed rows/columns are zeroed so
        the padded matrices never leak stale interference.
        """
        if isinstance(slots, (int, np.integer)):
            slots = [int(slots)]
        idx = np.asarray(sorted({int(s) for s in slots}), dtype=int)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self._capacity or not bool(
            np.all(self._active[idx])
        ):
            bad = [
                int(s)
                for s in idx
                if s < 0 or s >= self._capacity or not self._active[s]
            ]
            raise LinkError(f"cannot remove inactive slots {bad[:5]}")
        removed_rows: dict[int, np.ndarray] = {}
        if self._backend == "sparse":
            col_partners: list[np.ndarray] = []
            row_partners: list[np.ndarray] = []
            col_targets: list[np.ndarray] = []
            row_targets: list[np.ndarray] = []
            for s in idx.tolist():
                # Shed this slot's row (its effect on survivors) and column
                # (survivors' effect on it), unhooking both adjacency
                # mirrors.  The pair streams are collected across the whole
                # batch and applied in two passes below; pair deletion is
                # idempotent, so when both endpoints of a pair leave in
                # the same batch the second entry simply finds the slot
                # already zeroed and misses.
                ri, rv = self._row[s]
                removed_rows[s] = ri
                self._in_sum[ri] -= np.minimum(rv, 1.0)
                if ri.size:
                    col_partners.append(ri)
                    col_targets.append(np.full(ri.size, s, dtype=np.int64))
                ci, cv = self._col[s]
                self._out_sum[ci] -= np.minimum(cv, 1.0)
                if ci.size:
                    row_partners.append(ci)
                    row_targets.append(np.full(ci.size, s, dtype=np.int64))
                self._row[s] = _EMPTY_ADJ
                self._col[s] = _EMPTY_ADJ
                snode = int(self._senders[s])
                rnode = int(self._receivers[s])
                group = self._by_sender.get(snode)
                if group is not None:
                    group.discard(s)
                    if not group:
                        del self._by_sender[snode]
                group = self._by_receiver.get(rnode)
                if group is not None:
                    group.discard(s)
                    if not group:
                        del self._by_receiver[rnode]
            if col_partners:
                self._shrink_adjacency(
                    self._col,
                    np.concatenate(col_partners),
                    np.concatenate(col_targets),
                )
            if row_partners:
                self._shrink_adjacency(
                    self._row,
                    np.concatenate(row_partners),
                    np.concatenate(row_targets),
                )
        else:
            self._in_sum -= self._a_clip[idx].sum(axis=0)
            self._out_sum -= self._a_clip[:, idx].sum(axis=1)
            self._a_raw[idx, :] = 0.0
            self._a_raw[:, idx] = 0.0
            self._a_clip[idx, :] = 0.0
            self._a_clip[:, idx] = 0.0
            if self._dist is not None:
                self._dist[idx, :] = 0.0
                self._dist[:, idx] = 0.0
        self.last_removed_rows = removed_rows
        self._in_sum[idx] = 0.0
        self._out_sum[idx] = 0.0
        self._active[idx] = False
        self._count -= idx.size
        for s in idx:
            heapq.heappush(self._free, int(s))

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def _ensure_dist(self, populate: bool = False) -> None:
        if self._dist is None:
            self._dist = np.zeros((self._capacity, self._capacity))
            populate = populate and self._count > 0
        else:
            populate = False
        if populate:
            inv = 1.0 / self.zeta_capacity
            act = self.active_slots
            f = self._space.f
            s, r = self._senders[act], self._receivers[act]
            sv_rw = f[np.ix_(s, r)] ** inv
            sv_sw = f[np.ix_(s, s)] ** inv
            rv_rw = f[np.ix_(r, r)] ** inv
            out = np.minimum(
                np.minimum(sv_rw, sv_rw.T), np.minimum(sv_sw, rv_rw)
            )
            np.fill_diagonal(out, np.diagonal(sv_rw))
            self._dist[np.ix_(act, act)] = out

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------
    def freeze(self) -> SchedulingContext:
        """A static :class:`SchedulingContext` over the current links.

        Active links are listed in slot order.  The frozen context's
        matrix caches are injected from the maintained padded arrays —
        byte-identical to a from-scratch build, without recomputing a
        single affectance or distance entry.  The result is independent
        of further churn on this object.
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
        ctx._cache["raw_affectance"] = self._a_raw[np.ix_(act, act)].copy()
        ctx._cache["affectance"] = self._a_clip[np.ix_(act, act)].copy()
        if self._dist is not None:
            ctx._cache["dist"] = self._dist[np.ix_(act, act)].copy()
        return ctx

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicContext(m={self._count}, capacity={self._capacity}, "
            f"space_n={self._space.n}, noise={self._noise}, beta={self._beta})"
        )
