"""Uniform spatial cell index for the sparse affectance backend.

The sparse backend keeps only link pairs whose relevant endpoint distance
is below an interaction radius ``R``.  Two ingredients live here:

* :class:`CellIndex` — a uniform grid over point coordinates supporting
  vectorized fixed-radius neighbour queries.  With cell side ``h >= R``
  every pair within ``R`` falls in the 3x3 (generally ``3^dim``)
  neighbourhood of the query point's cell, so a query is a handful of
  sorted-array lookups plus one exact distance filter.

* :meth:`CellIndex.far_field_sums` — the certificate table.  For each
  query cell ``c`` it over-counts the far-field kernel mass

      W(c) = sum_cells c'  count(c') / max(d_min(c, c'), R)^alpha

  where ``d_min`` is the minimum possible distance between the two cells'
  boxes.  Every *dropped* neighbour of a query point in ``c`` sits at
  distance ``> R >= d_min`` of its cell, so ``W`` upper-bounds the sum of
  ``1 / d^alpha`` over all dropped points — the geometric factor of the
  certified tail bound in :mod:`repro.core.affectance_sparse`.  (Kept
  points are also counted, clamped at ``R``; the bound only gets looser,
  never unsound.)  The denominator depends on a cell pair only through
  its per-axis offsets, so it is looked up in a table built once per
  distinct offset, with the same ``W`` bit for bit as a per-pair
  evaluation.

Indices that take part in one certificate must share ``origin`` and
``cell_size`` so their integer cell coordinates live on a common grid.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError

__all__ = ["CellIndex"]

# Query sets with at most this many stacked cell probes (points x 3^dim
# neighbour offsets) take the batched single-pass path in
# :meth:`CellIndex.query`; larger sets keep the per-offset loop so the
# ragged candidate expansion never holds more than one offset's worth of
# indices at a time (the bulk-build memory bound).
_SMALL_QUERY_LIMIT = 1 << 12


class CellIndex:
    """Uniform grid over ``(n, dim)`` points with cell side ``cell_size``.

    Parameters
    ----------
    points:
        The indexed coordinates; returned neighbour ids refer to rows of
        this array.
    cell_size:
        Positive cell side ``h``.  Radius queries require ``radius <= h``.
    origin:
        Grid origin (defaults to the pointwise minimum).  Pass a shared
        origin when several indices must agree on cell coordinates.
    """

    def __init__(
        self,
        points: np.ndarray,
        cell_size: float,
        origin: np.ndarray | None = None,
    ) -> None:
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise GeometryError("cell index needs a non-empty (n, dim) array")
        if not cell_size > 0:
            raise GeometryError(f"cell size must be positive, got {cell_size}")
        self.points = pts
        self.h = float(cell_size)
        if origin is None:
            origin = pts.min(axis=0)
        self.origin = np.asarray(origin, dtype=float)
        if self.origin.shape != (pts.shape[1],):
            raise GeometryError(
                f"origin must have shape ({pts.shape[1]},), got {self.origin.shape}"
            )
        coords = self.cell_of(pts)
        if coords.min() < 0:
            raise GeometryError("points must lie at or beyond the grid origin")
        # Extent of the coordinate range, padded by one ghost layer on each
        # side so query cells one step outside the occupied box still get
        # valid (simply unmatched) keys.
        self._dims = coords.max(axis=0) + 1
        # Row-major strides over the padded extent: a cell's key is
        # (coords + 1) @ strides, linear in the coordinates.
        extent = self._dims + 2
        self._strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1)
        keys = self._keys_of(coords)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        uniq, starts = np.unique(sorted_keys, return_index=True)
        self._order = order
        self._uniq_keys = uniq
        self._starts = starts
        self._sizes = np.diff(np.append(starts, keys.size))
        self._uniq_coords = coords[order[starts]]
        # The 3^dim neighbour stencil, in lexicographic offset order (last
        # axis fastest), as keys: cell c's neighbour at offset o has key
        # c @ strides + _stencil_keys[o].
        stencil = np.stack(
            np.meshgrid(*([np.array([-1, 0, 1])] * self.dim), indexing="ij"),
            axis=-1,
        ).reshape(-1, self.dim)
        self._stencil_keys = self._keys_of(stencil)
        # Contiguous per-axis coordinate columns: the distance filter
        # gathers from these (1-D gathers are cheaper than row gathers
        # from the (n, dim) array).
        self._columns = tuple(pts.T.copy())

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Integer cell coordinates of each point."""
        return np.floor((pts - self.origin[None, :]) / self.h).astype(np.int64)

    def _keys_of(self, coords: np.ndarray) -> np.ndarray:
        """Linearize cell coordinates, shifted by the ghost layer."""
        return (coords + 1) @ self._strides

    def cell_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(coords, counts)`` of the occupied cells."""
        return self._uniq_coords, self._sizes

    # ------------------------------------------------------------------
    def query(
        self, qpoints: np.ndarray, radius: float, *, chunk: int = 1 << 20
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (query, point) pairs within Euclidean ``radius``.

        Returns ``(q_idx, p_idx, dist)`` — parallel arrays over matches,
        with exact distances.  Requires ``0 <= radius <= cell_size`` (the
        3^dim neighbourhood guarantee).  Matches are ordered by neighbour
        offset (lexicographic), then query index, then position in the
        matched cell, so the hits of a subset of the query points come
        in the same relative order whether or not they are queried
        alongside others.

        Candidates are filtered in ``chunk``-sized slices so the working
        set stays bounded regardless of how many raw candidates the
        neighbourhood scan produces (the 3^dim cells over-cover the radius
        disc ~3x); only the matches are ever held in full.
        """
        if not radius >= 0:
            raise GeometryError(
                f"query radius must be non-negative, got {radius}"
            )
        if radius > self.h * (1 + 1e-12):
            raise GeometryError(
                f"query radius {radius} exceeds the cell size {self.h}"
            )
        if (
            isinstance(chunk, bool)
            or not isinstance(chunk, (int, np.integer))
            or chunk < 1
        ):
            raise GeometryError(
                f"query chunk must be a positive integer, got {chunk!r}"
            )
        q = np.ascontiguousarray(qpoints, dtype=float)
        if q.ndim != 2 or q.shape[1] != self.dim:
            raise GeometryError(f"query points must have shape (k, {self.dim})")
        k = q.shape[0]
        qcells = np.minimum(self.cell_of(q), self._dims)
        np.maximum(qcells, -1, out=qcells)
        qkeys = qcells @ self._strides
        q_parts: list[np.ndarray] = []
        p_parts: list[np.ndarray] = []
        d_parts: list[np.ndarray] = []
        n_off = self._stencil_keys.size
        # The whole stencil in one pass for small query sets (the churn
        # hot path), one offset per pass beyond _SMALL_QUERY_LIMIT; both
        # walk offset-major, query-minor.
        step = n_off if k * n_off <= _SMALL_QUERY_LIMIT else 1
        for lo in range(0, n_off, step):
            keys = (
                self._stencil_keys[lo : lo + step, None] + qkeys[None, :]
            ).ravel()
            pos = np.searchsorted(self._uniq_keys, keys)
            np.minimum(pos, self._uniq_keys.size - 1, out=pos)
            qi = (self._uniq_keys[pos] == keys).nonzero()[0]
            if qi.size == 0:
                continue
            cell = pos[qi]
            sizes = self._sizes[cell]
            ends = np.cumsum(sizes)
            # Ragged expansion: repeat each probe for every point in the
            # matched cell, then index into the sorted-point order.
            reps = np.repeat(qi % k, sizes)
            pts_idx = self._order[
                np.arange(ends[-1])
                + np.repeat(self._starts[cell] - (ends - sizes), sizes)
            ]
            for c in range(0, reps.size, chunk):
                rr = reps[c : c + chunk]
                pp = pts_idx[c : c + chunk]
                # Squares summed in axis order: the same IEEE adds as a
                # row reduction over the last axis.
                acc = None
                for qc, pc in zip(q.T, self._columns):
                    diff = qc[rr] - pc[pp]
                    diff *= diff
                    if acc is None:
                        acc = diff
                    else:
                        acc += diff
                dist = np.sqrt(acc, out=acc)
                keep = dist <= radius
                q_parts.append(rr[keep])
                p_parts.append(pp[keep])
                d_parts.append(dist[keep])
        if not q_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=float)
        if len(q_parts) == 1:
            return q_parts[0], p_parts[0], d_parts[0]
        return (
            np.concatenate(q_parts),
            np.concatenate(p_parts),
            np.concatenate(d_parts),
        )

    # ------------------------------------------------------------------
    def far_field_sums(
        self,
        query_cells: np.ndarray,
        radius: float,
        alpha: float,
        chunk: int = 512,
    ) -> np.ndarray:
        """The certificate table ``W`` over the given query cells.

        ``query_cells`` is a ``(k, dim)`` array of integer cell coordinates
        on this index's grid; the result is the length-``k`` vector

            W[c] = sum over occupied cells c' of
                   count(c') / max(d_min(c, c'), radius)^alpha

        with ``d_min`` the minimum box-to-box Euclidean distance
        (per-axis gap ``max(|delta| - 1, 0) * h``).

        The denominator depends on a cell pair only through its per-axis
        offsets ``|c - c'|``, so it is evaluated once per distinct offset
        into a table and gathered per pair.  Each row then divides and sums
        the same operands in the same order as a direct per-pair
        evaluation, so ``W`` is the same bit for bit.  Duplicate query
        cells are summed once.  When the offset table would hold more
        entries than one ``chunk``-row block of pairs (sparse points over a
        wide extent), the denominators are evaluated per pair instead.
        """
        if not radius > 0:
            raise GeometryError(f"certificate radius must be positive, got {radius}")
        qc = np.asarray(query_cells, dtype=np.int64)
        if qc.ndim != 2 or qc.shape[1] != self.dim:
            raise GeometryError(f"query cells must have shape (k, {self.dim})")
        if qc.shape[0] == 0:
            return np.empty(0, dtype=float)
        cells, inverse = np.unique(qc, axis=0, return_inverse=True)
        coords, weights = self._uniq_coords, self._sizes.astype(float)
        # Table extent per axis: the largest offset between a query cell
        # and an occupied cell, plus one.
        span = np.maximum(
            cells.max(axis=0) - coords.min(axis=0),
            coords.max(axis=0) - cells.min(axis=0),
        ) + 1
        n_entries = math.prod(int(s) for s in span)
        if n_entries <= min(chunk, cells.shape[0]) * coords.shape[0]:
            grid = np.meshgrid(*(np.arange(s) for s in span), indexing="ij")
            table = self._far_field_denominators(
                np.stack(grid, axis=-1), radius, alpha
            ).ravel()
            strides = np.cumprod(np.append(span[1:], 1)[::-1])[::-1]
            columns = [np.ascontiguousarray(coords[:, d]) for d in range(self.dim)]

            def denominators(block: np.ndarray) -> np.ndarray:
                key = np.abs(np.subtract.outer(block[:, -1], columns[-1]))
                for d in range(self.dim - 1):
                    off = np.subtract.outer(block[:, d], columns[d])
                    np.abs(off, out=off)
                    off *= strides[d]
                    key += off
                return table[key]
        else:

            def denominators(block: np.ndarray) -> np.ndarray:
                delta = np.abs(block[:, None, :] - coords[None, :, :])
                return self._far_field_denominators(delta, radius, alpha)

        out = np.empty(cells.shape[0], dtype=float)
        for lo in range(0, cells.shape[0], chunk):
            denom = denominators(cells[lo : lo + chunk])
            np.divide(weights[None, :], denom, out=denom)
            out[lo : lo + chunk] = denom.sum(axis=1)
        return out[inverse.reshape(-1)]

    def _far_field_denominators(
        self, delta: np.ndarray, radius: float, alpha: float
    ) -> np.ndarray:
        """``max(d_min, radius)^alpha`` for per-axis cell offsets ``delta``
        (the last axis), the one expression both lookup paths evaluate."""
        gap = np.maximum(delta - 1, 0) * self.h
        d_min = np.sqrt((gap**2).sum(axis=-1))
        return np.maximum(d_min, radius) ** alpha
