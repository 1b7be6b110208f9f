"""Sparse thresholded affectance with certified tail bounds.

The dense backend stores every ``a_w(v)`` in an ``(m, m)`` matrix — the
O(m^2) memory wall the ROADMAP's scale item names.  Under decaying signal
strength, far pairs contribute vanishing affectance, so this module keeps
only the pairs whose sender-to-receiver distance is within an interaction
radius ``R`` and *certifies* what was dropped:

    tail_in(v)  >= sum over dropped w of a_w(v)
    tail_out(v) >= sum over dropped w of a_v(w)

via the cell-count far-field tables of
:class:`repro.geometry.cells.CellIndex` and the decay envelope
``f >= floor * d^alpha`` recorded in the space's
:class:`~repro.core.decay.SpaceGeometry`.  The builder grows ``R``
(doubling) until ``max_v tail_in(v) + tail_out(v) <= eps``; when ``R``
reaches the bounding-box diameter the pattern is complete and the tails
are exactly zero — the regime the dense-identity test suites run in.

Storage is CSR + CSC over link indices (row = acting link ``w``, column =
affected link ``v`` — the dense convention), with raw and clipped value
arrays sharing one pattern.  :class:`_SparseView` exposes one value layer
through the access idioms the scheduling kernels use on dense matrices
(row/column gathers, member blocks, member-set sums) — the protocol
:func:`repro.core.affectance.as_view` gives dense matrices too.  A member
sum scatters the stored entries with ``np.bincount`` in member order,
which is the order numpy's axis-0 reduction adds the dense member rows
in; with unstored entries adding an exact ``+0.0``, a complete pattern
reproduces the dense floats bit for bit.

Link quasi-distances get the same treatment in
:class:`SparseLinkDistances`, with a stronger guarantee: the admission
scan only ever asks whether ``min_w d(l_v, l_w) < (zeta/2) d_vv``, and
every pair below the stored radius is kept exactly, so separation
decisions are *always* identical to dense — no epsilon involved.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.affectance import noise_constants_from_lengths
from repro.core.links import LinkSet
from repro.errors import LinkError

__all__ = [
    "SparseAffectance",
    "SparseLinkDistances",
    "build_sparse_affectance",
    "build_sparse_link_distances",
]

#: Hard cap on the link count for which a complete (all-pairs) pattern may
#: be assembled when the certified radius reaches the instance diameter.
_FULL_PATTERN_LIMIT = 4096


class _SparseView:
    """One value layer (raw or clipped) of a sparse pattern.

    Subclasses provide ``n`` (padded size), ``row(v)`` and ``col(v)``
    returning ``(indices, values)`` with indices strictly increasing; the
    generic kernels below express every dense access idiom the schedulers
    use in terms of those two.  Every member sum reads the concatenated
    member rows or columns of :meth:`gather` and scatters them with one
    ``np.bincount``, whose C loop accumulates in input (member) order —
    the order of numpy's axis-0 reduction of the dense member rows.
    """

    __slots__ = ()

    dense = False

    # -- to be provided by concrete views --------------------------------
    @property
    def n(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    def col(self, v: int) -> tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    # -- generic kernels --------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def gather(
        self, members: np.ndarray, cols: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries of the member rows (columns with ``cols``),
        concatenated in member order: ``(indices, values, lengths)``
        with one length per member."""
        read = self.col if cols else self.row
        return _concat([read(v) for v in members.tolist()])

    def gather_row(self, v: int, cols: np.ndarray) -> np.ndarray:
        """``a[v, cols]`` — zeros at unstored positions."""
        cols = np.asarray(cols, dtype=int)
        idx, val = self.row(int(v))
        out = np.zeros(cols.size)
        if idx.size:
            pos = np.searchsorted(idx, cols)
            pos_c = np.minimum(pos, idx.size - 1)
            hit = idx[pos_c] == cols
            out[hit] = val[pos_c[hit]]
        return out

    def gather_col(self, rows: np.ndarray, v: int) -> np.ndarray:
        """``a[rows, v]`` — zeros at unstored positions."""
        rows = np.asarray(rows, dtype=int)
        idx, val = self.col(int(v))
        out = np.zeros(rows.size)
        if idx.size:
            pos = np.searchsorted(idx, rows)
            pos_c = np.minimum(pos, idx.size - 1)
            hit = idx[pos_c] == rows
            out[hit] = val[pos_c[hit]]
        return out

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The dense sub-matrix ``a[rows x cols]``."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        out = np.zeros((rows.size, cols.size))
        if rows.size == 0 or cols.size == 0:
            return out
        if np.unique(cols).size != cols.size:
            for i, r in enumerate(rows):
                out[i] = self.gather_row(int(r), cols)
            return out
        # Unique columns: invert once, then each row is a single gather +
        # scatter over its stored entries — O(degree) instead of
        # O(|cols| log degree) per row.  Same floats as gather_row (each
        # stored entry is placed verbatim, zeros elsewhere).
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[cols] = np.arange(cols.size)
        for i, r in enumerate(rows):
            idx, val = self.row(int(r))
            if idx.size:
                p = pos[idx]
                hit = p >= 0
                out[i, p[hit]] = val[hit]
        return out

    def dense_row(self, v: int) -> np.ndarray:
        """``a[v]`` as a fresh dense vector."""
        out = np.zeros(self.n)
        idx, val = self.row(int(v))
        out[idx] = val
        return out

    def add_row_to(self, out: np.ndarray, v: int) -> None:
        """``out += a[v]`` (scatter; the zeros add nothing)."""
        idx, val = self.row(int(v))
        out[idx] += val

    def add_col_to(self, out: np.ndarray, v: int) -> None:
        """``out += a[:, v]``."""
        idx, val = self.col(int(v))
        out[idx] += val

    def rows_sum(self, members: Sequence[int] | np.ndarray) -> np.ndarray:
        """``a[members].sum(axis=0)`` over the full width.

        Each output element receives its stored entries in member order,
        and an unstored entry adds an exact ``+0.0``: bit for bit the
        dense reduction, which adds the member rows one after another.
        """
        idx, val, _ = self.gather(np.asarray(members, dtype=int))
        return _scatter(idx, val, self.n)

    def cols_sum(self, members: Sequence[int] | np.ndarray) -> np.ndarray:
        """``a[:, members].sum(axis=1)`` over the full height.

        Column fancy-indexing yields an F-contiguous copy, whose axis-1
        reduction numpy performs column by column — member order, as
        the scatter here.
        """
        idx, val, _ = self.gather(np.asarray(members, dtype=int), cols=True)
        return _scatter(idx, val, self.n)

    def in_affectances_within(
        self, subset: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """``a_S(v)`` for each ``v`` of ``subset``: the dense member block's
        ``sum(axis=0)``, repeated members counted once per copy."""
        idx = np.asarray(subset, dtype=int)
        if idx.size == 0:
            return np.zeros(0)
        # Scatter onto the distinct members, in member order, and read
        # each copy of a member back through the inverse.
        uniq, inverse = np.unique(idx, return_inverse=True)
        cols, vals, _ = self.gather(idx)
        pos = np.minimum(np.searchsorted(uniq, cols), uniq.size - 1)
        hit = uniq[pos] == cols
        return _scatter(pos[hit], vals[hit], uniq.size)[inverse]


def _scatter(idx: np.ndarray, val: np.ndarray, n: int) -> np.ndarray:
    """``out[idx[j]] += val[j]`` over ``out = zeros(n)``, ``j`` ascending.

    ``np.bincount``'s C loop adds the weights in input order; it returns
    integer zeros when there are none, hence the guard.
    """
    if idx.size == 0:
        return np.zeros(n)
    return np.bincount(idx, weights=val, minlength=n)


def _concat(
    parts: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate ``(indices, values)`` pairs (:meth:`_SparseView.gather`)."""
    if not parts:
        none = np.empty(0, dtype=np.int64)
        return none, np.empty(0), none
    idx, val = zip(*parts)
    lens = np.fromiter(map(len, idx), dtype=np.int64, count=len(idx))
    return np.concatenate(idx), np.concatenate(val), lens


class _CSRView(_SparseView):
    """A value layer over the static CSR/CSC pattern."""

    __slots__ = ("_sp", "_rv", "_cv")

    def __init__(self, sp: "SparseAffectance", rv: np.ndarray, cv: np.ndarray):
        self._sp = sp
        self._rv = rv
        self._cv = cv

    @property
    def n(self) -> int:
        return self._sp.m

    def row(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        sp = self._sp
        lo, hi = sp.row_ptr[v], sp.row_ptr[v + 1]
        return sp.row_idx[lo:hi], self._rv[lo:hi]

    def col(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        sp = self._sp
        lo, hi = sp.col_ptr[v], sp.col_ptr[v + 1]
        return sp.col_idx[lo:hi], self._cv[lo:hi]

    def sum_axis0(self) -> np.ndarray:
        """``a.sum(axis=0)``: :meth:`rows_sum` over every row, read
        straight from the CSR arrays (row-major, so member order)."""
        return _scatter(self._sp.row_idx, self._rv, self._sp.m)

    def sum_axis1(self) -> np.ndarray:
        """``a.sum(axis=1)`` up to rounding: the CSC scatter adds each
        row's entries in column order, where the dense reduction of a
        contiguous row sums pairwise.  Its one reader, the repeated
        capacity ledger, only skips checks its guard proves redundant
        (``_LEDGER_GUARD_PER_LINK``), so the last bits change no slot."""
        return _scatter(self._sp.col_idx, self._cv, self._sp.m)


class SparseAffectance:
    """CSR + CSC thresholded affectance over ``m`` links.

    ``A[w, v] = a_w(v)`` for every kept pair (dense convention: row acts,
    column is affected); the certified per-link bounds :attr:`tail_in` /
    :attr:`tail_out` dominate everything dropped.  Raw and clipped value
    layers share the pattern; access them through :attr:`raw` /
    :attr:`clip`.
    """

    __slots__ = (
        "m", "eps", "radius", "cell_size", "tail_in", "tail_out",
        "row_ptr", "row_idx", "col_ptr", "col_idx",
        "_row_raw", "_row_clip", "_col_raw", "_col_clip",
    )

    def __init__(
        self,
        m: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        *,
        eps: float,
        radius: float,
        cell_size: float,
        tail_in: np.ndarray,
        tail_out: np.ndarray,
    ) -> None:
        self.m = int(m)
        self.eps = float(eps)
        self.radius = float(radius)
        self.cell_size = float(cell_size)
        self.tail_in = np.asarray(tail_in, dtype=float)
        self.tail_out = np.asarray(tail_out, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise LinkError("sparse triplet arrays must be aligned")
        if self.tail_in.shape != (self.m,) or self.tail_out.shape != (self.m,):
            raise LinkError(f"tail bounds must have shape ({self.m},)")
        # Row-major sort — skipped when the triplets already arrive
        # sorted (a saved pattern's triplets keep its CSR order, so the
        # check turns the reload lexsort into an O(nnz) scan).
        if rows.size and not bool(
            np.all(
                (rows[1:] > rows[:-1])
                | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
            )
        ):
            order = np.lexsort((cols, rows))
            rows = rows[order]
            cols = cols[order]
            values = values[order]
        self.row_idx = cols
        self._row_raw = values
        self._row_clip = np.minimum(self._row_raw, 1.0)
        counts = np.bincount(rows, minlength=self.m)
        self.row_ptr = np.concatenate(
            [[0], np.cumsum(counts)]
        ).astype(np.int64)
        # On row-sorted triplets a stable single-key sort by column is
        # exactly ``lexsort((rows, cols))`` — and radix-sorts int keys.
        order_c = np.argsort(cols, kind="stable")
        self.col_idx = rows[order_c]
        self._col_raw = values[order_c]
        self._col_clip = np.minimum(self._col_raw, 1.0)
        counts_c = np.bincount(cols, minlength=self.m)
        self.col_ptr = np.concatenate(
            [[0], np.cumsum(counts_c)]
        ).astype(np.int64)

    @property
    def nnz(self) -> int:
        """Stored (nonzero-pattern) entry count."""
        return int(self.row_idx.size)

    @property
    def complete(self) -> bool:
        """Whether the pattern holds every off-diagonal pair."""
        return self.nnz == self.m * (self.m - 1)

    @property
    def raw(self) -> _CSRView:
        """Unclipped value layer (SINR-exact sums; may contain ``inf``)."""
        return _CSRView(self, self._row_raw, self._col_raw)

    @property
    def clip(self) -> _CSRView:
        """Clipped value layer ``min(1, a)`` (the paper's accounting)."""
        return _CSRView(self, self._row_clip, self._col_clip)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-major ``(rows, cols, raw_values)`` triplet arrays."""
        rows = np.repeat(
            np.arange(self.m, dtype=np.int64), np.diff(self.row_ptr)
        )
        return rows, self.row_idx.copy(), self._row_raw.copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseAffectance(m={self.m}, nnz={self.nnz}, "
            f"radius={self.radius:.3g}, eps={self.eps:.3g}, "
            f"max_tail={float(np.max(self.tail_in + self.tail_out, initial=0.0)):.3g})"
        )


class SparseLinkDistances:
    """Sparse link quasi-distances with exact separation decisions.

    The stored pattern is symmetric, but each orientation keeps its own
    value: in an asymmetric decay space ``d(l_v, l_w) != d(l_w, l_v)``
    (the endpoint candidates ``d(s_v, s_w)`` and ``d(r_v, r_w)`` flip),
    matching the dense :func:`~repro.core.separation.link_distance_matrix`
    entry for entry.  A pair enters the pattern when *either* orientation
    is at most ``radius``; the diagonal quasi-lengths live in
    :attr:`qlen`.  The radius dominates every separation target
    ``(zeta/2) d_vv``, so an orientation missing from the pattern provably
    cannot violate separation — the admission scan's decisions are exactly
    the dense ones.
    """

    __slots__ = ("m", "radius", "qlen", "ptr", "idx", "val")

    def __init__(
        self,
        m: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        qlen: np.ndarray,
        radius: float,
    ) -> None:
        self.m = int(m)
        self.radius = float(radius)
        self.qlen = np.asarray(qlen, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        # Grouped by *column* so the admission scan's scatter-min reads
        # d(l_u, l_v) for every stored u in one slice.
        order = np.lexsort((rows, cols))
        self.idx = rows[order]
        self.val = values[order]
        counts = np.bincount(cols, minlength=self.m)
        self.ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    @property
    def nnz(self) -> int:
        return int(self.idx.size)

    def col(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Matrix column ``v``: stored ``u`` with their ``d(l_u, l_v)``."""
        lo, hi = self.ptr[v], self.ptr[v + 1]
        return self.idx[lo:hi], self.val[lo:hi]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseLinkDistances(m={self.m}, nnz={self.nnz}, "
            f"radius={self.radius:.3g})"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _geometry_of(links: LinkSet):
    geo = links.space.geometry
    if geo is None:
        raise LinkError(
            "the sparse backend needs node positions: the link set's decay "
            "space has no attached SpaceGeometry (build it with "
            "DecaySpace.from_points / PointDecaySpace, or attach a measured "
            "geometry)"
        )
    return geo


def _pair_affectance(
    links: LinkSet,
    powers: np.ndarray,
    c: np.ndarray,
    w_idx: np.ndarray,
    v_idx: np.ndarray,
) -> np.ndarray:
    """``a_w(v)`` per pair — the dense matrix expression, elementwise.

    Association order mirrors :func:`repro.core.affectance.affectance_matrix`
    (``(c_v * (P_w / P_v)) * (f_vv / f_wv)``), so every produced value is
    the exact float the dense matrix holds at ``[w, v]``.
    """
    f_wv = links.space.decay_pairs(links.senders[w_idx], links.receivers[v_idx])
    lengths = links.lengths
    with np.errstate(divide="ignore"):
        return (
            c[v_idx]
            * (powers[w_idx] / powers[v_idx])
            * (lengths[v_idx] / f_wv)
        )


def _full_pattern(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered off-diagonal pairs ``(w, v)``."""
    w = np.repeat(np.arange(m, dtype=np.int64), m)
    v = np.tile(np.arange(m, dtype=np.int64), m)
    keep = w != v
    return w[keep], v[keep]


def build_sparse_affectance(
    links: LinkSet,
    powers: np.ndarray,
    *,
    noise: float = 0.0,
    beta: float = 1.0,
    eps: float = 1e-2,
    radius: float | None = None,
) -> SparseAffectance:
    """Assemble the thresholded CSR affectance with certified tails.

    The interaction radius starts from a density heuristic and doubles
    until the certificate ``max_v tail_in(v) + tail_out(v) <= eps`` holds
    (or the radius covers the instance diameter, in which case the pattern
    is complete and the tails are exactly zero).  Pass ``radius`` to pin
    the radius instead; the tails are still certified and returned, but
    ``eps`` is not enforced.
    """
    from repro.geometry.cells import CellIndex

    # ``not (x > 0)`` refuses NaN too, which would otherwise grow the
    # radius to the complete pattern (eps) or fail deep in the cell index.
    if not eps > 0:
        raise LinkError(f"sparse tail tolerance eps must be positive, got {eps}")
    if radius is not None and not radius > 0:
        raise LinkError(f"interaction radius must be positive, got {radius}")
    geo = _geometry_of(links)
    m = links.m
    p = np.asarray(powers, dtype=float)
    c = noise_constants_from_lengths(links.lengths, p, noise=noise, beta=beta)
    pts = geo.points
    spts = np.ascontiguousarray(pts[links.senders])
    rpts = np.ascontiguousarray(pts[links.receivers])
    all_pts = np.concatenate([spts, rpts])
    origin = all_pts.min(axis=0)
    diameter = float(np.linalg.norm(all_pts.max(axis=0) - origin))
    # Per-link certificate weights: tail_in(v) <= w_in[v] * W_s(cell(r_v)),
    # tail_out(v) <= w_out[v] * W_r(cell(s_v)), with the far-field tables
    # W over sender / receiver cells and the envelope floor folded in.
    with np.errstate(over="ignore"):
        w_in = c * links.lengths * (p.max() / p) / geo.floor
        w_out = float(np.max(c * links.lengths / p)) * p / geo.floor
    if radius is not None:
        r = float(radius)
        grow = False
    else:
        # ~32 expected senders per interaction disk seeds the search.
        extent = np.maximum(all_pts.max(axis=0) - origin, 0.0)
        area = float(np.prod(np.maximum(extent, 1e-12)))
        r = max(float(np.sqrt(area * 32.0 / max(m, 1))), diameter / 256.0, 1e-12)
        grow = True
    while True:
        if r >= diameter:
            # Complete pattern: nothing dropped, tails exactly zero.
            if m > _FULL_PATTERN_LIMIT:
                raise LinkError(
                    f"eps={eps} needs the complete {m}x{m} affectance "
                    "pattern, which exceeds the sparse full-pattern limit; "
                    "loosen eps or pass an explicit radius"
                )
            rows, cols = _full_pattern(m)
            tail_in = np.zeros(m)
            tail_out = np.zeros(m)
            r = max(r, diameter)
            break
        sender_index = CellIndex(spts, r, origin=origin)
        receiver_index = CellIndex(rpts, r, origin=origin)
        ws = sender_index.far_field_sums(
            sender_index.cell_of(rpts), r, geo.alpha
        )
        wr = receiver_index.far_field_sums(
            receiver_index.cell_of(spts), r, geo.alpha
        )
        tail_in = w_in * ws
        tail_out = w_out * wr
        if not grow or float(np.max(tail_in + tail_out)) <= eps:
            # Candidate pairs: receivers against the sender index — the
            # exact support {(w, v) : d(s_w, r_v) <= r}, minus diagonal.
            v_idx, w_idx, _ = sender_index.query(rpts, r)
            keep = v_idx != w_idx
            rows, cols = w_idx[keep], v_idx[keep]
            break
        r *= 2.0
    values = _pair_affectance(links, p, c, rows, cols)
    return SparseAffectance(
        m, rows, cols, values,
        eps=eps, radius=r, cell_size=r,
        tail_in=tail_in, tail_out=tail_out,
    )


def build_sparse_link_distances(
    links: LinkSet,
    zeta_capacity: float,
    *,
    radius: float | None = None,
) -> SparseLinkDistances:
    """Sparse link quasi-distances at the capacity exponent.

    Keeps every unordered pair where either orientation's link distance is
    at most ``radius`` (default: the largest separation target
    ``(zeta/2) * d_vv`` over all links — the only threshold the admission
    scan compares against, which is what makes the sparse separation
    decisions exact).  Candidate generation converts the distance cutoff
    into a Euclidean one through the envelope ``f >= floor * d^alpha``
    (the endpoint pairs are shared between orientations, so one Euclidean
    screen covers both); every kept entry is the same four-candidate
    endpoint minimum the dense matrix holds, per orientation.
    """
    from repro.geometry.cells import CellIndex

    z = float(zeta_capacity)
    # ``not (x > 0)`` refuses NaN too (it would fail in the cell index).
    if not z > 0:
        raise LinkError(f"zeta must be positive, got {z}")
    inv = 1.0 / z
    qlen = links.lengths**inv
    r_d = (
        float(radius)
        if radius is not None
        else float((z / 2.0) * qlen.max())
    )
    if not r_d > 0:
        raise LinkError(f"distance radius must be positive, got {r_d}")
    geo = _geometry_of(links)
    # f <= r_d^z  <=  floor * dE^alpha  =>  dE <= (r_d^z / floor)^(1/alpha)
    r_e = float((r_d**z / geo.floor) ** (1.0 / geo.alpha))
    pts = geo.points
    spts = np.ascontiguousarray(pts[links.senders])
    rpts = np.ascontiguousarray(pts[links.receivers])
    all_pts = np.concatenate([spts, rpts])
    origin = all_pts.min(axis=0)
    diameter = float(np.linalg.norm(all_pts.max(axis=0) - origin))
    m = links.m
    if r_e >= diameter:
        if m > _FULL_PATTERN_LIMIT:
            raise LinkError(
                f"the separation radius {r_d:.3g} needs the complete "
                f"{m}x{m} link-distance pattern, which exceeds the sparse "
                "full-pattern limit; pass an explicit zeta closer to the "
                "path-loss exponent or schedule without separation"
            )
        u, w = _full_pattern(m)
        keep_mask = u < w
        u, w = u[keep_mask], w[keep_mask]
    else:
        s_index = CellIndex(spts, r_e, origin=origin)
        r_index = CellIndex(rpts, r_e, origin=origin)
        cand = []
        for q_idx, p_idx, _ in (
            s_index.query(rpts, r_e),  # d(s_w, r_v) both orientations
            s_index.query(spts, r_e),  # d(s_v, s_w)
            r_index.query(rpts, r_e),  # d(r_v, r_w)
        ):
            lo = np.minimum(q_idx, p_idx)
            hi = np.maximum(q_idx, p_idx)
            keep = lo != hi
            cand.append(lo[keep] * m + hi[keep])
        pair_keys = np.unique(np.concatenate(cand)) if cand else np.empty(0, int)
        u = (pair_keys // m).astype(np.int64)
        w = (pair_keys % m).astype(np.int64)
    if u.size:
        space = links.space
        s, r = links.senders, links.receivers
        d1 = space.decay_pairs(s[u], r[w]) ** inv  # d(s_u, r_w)
        d2 = space.decay_pairs(s[w], r[u]) ** inv  # d(s_w, r_u)
        d3 = space.decay_pairs(s[u], s[w]) ** inv  # d(s_u, s_w)
        d4 = space.decay_pairs(r[u], r[w]) ** inv  # d(r_u, r_w)
        # The dense matrix's four-candidate minimum, per orientation: in
        # an asymmetric space the endpoint candidates d3/d4 flip with the
        # orientation, so d(l_u, l_w) and d(l_w, l_u) differ.
        d3t = space.decay_pairs(s[w], s[u]) ** inv  # d(s_w, s_u)
        d4t = space.decay_pairs(r[w], r[u]) ** inv  # d(r_w, r_u)
        shared = np.minimum(d1, d2)
        dist_uw = np.minimum(shared, np.minimum(d3, d4))
        dist_wu = np.minimum(shared, np.minimum(d3t, d4t))
        keep = (dist_uw <= r_d) | (dist_wu <= r_d)
        u, w = u[keep], w[keep]
        dist_uw, dist_wu = dist_uw[keep], dist_wu[keep]
    else:
        dist_uw = np.empty(0, dtype=float)
        dist_wu = np.empty(0, dtype=float)
    rows = np.concatenate([u, w])
    cols = np.concatenate([w, u])
    values = np.concatenate([dist_uw, dist_wu])
    return SparseLinkDistances(m, rows, cols, values, qlen, r_d)
