"""The neighbour query and far-field certificate of
:class:`repro.geometry.cells.CellIndex`.

``query`` probes the 3^dim neighbour cells through key deltas and
coordinate columns built once per index.  The query kept below as
``reference_query`` rebuilt its stencil and columns per call; every
``(q_idx, p_idx, dist)`` triple must equal it array for array, on the
single-pass and per-offset paths and at any chunk size.

``far_field_sums`` evaluates each cell pair's denominator through a table
keyed by the pair's per-axis offsets (or per pair, when that table would
outgrow one block of pairs).  The direct per-pair formula below is the
reference: every ``W`` must equal it bit for bit, on both sides of the
table-or-pair choice, for any grid, radius, exponent and set of query
cells.  ``W`` must also bound the far-field kernel mass it certifies.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.geometry.cells as cells_mod
from repro.errors import GeometryError
from repro.geometry.cells import CellIndex


def reference_query(index, qpoints, radius, *, chunk=1 << 20):
    """The neighbour query with its stencil and coordinate columns built
    per call: the implementation the hoisted one must reproduce."""
    self = index
    if radius > self.h * (1 + 1e-12):
        raise GeometryError(
            f"query radius {radius} exceeds the cell size {self.h}"
        )
    q = np.ascontiguousarray(qpoints, dtype=float)
    if q.ndim != 2 or q.shape[1] != self.dim:
        raise GeometryError(f"query points must have shape (k, {self.dim})")
    qcoords = np.clip(self.cell_of(q), -1, self._dims[None, :])
    planar = self.dim == 2
    if planar:
        qx = np.ascontiguousarray(q[:, 0])
        qy = np.ascontiguousarray(q[:, 1])
        px = np.ascontiguousarray(self.points[:, 0])
        py = np.ascontiguousarray(self.points[:, 1])
    q_parts: list[np.ndarray] = []
    p_parts: list[np.ndarray] = []
    d_parts: list[np.ndarray] = []
    offsets = np.stack(
        np.meshgrid(*([np.array([-1, 0, 1])] * self.dim), indexing="ij"),
        axis=-1,
    ).reshape(-1, self.dim)

    def _filter(rr: np.ndarray, pp: np.ndarray) -> None:
        if planar:
            dx = qx[rr] - px[pp]
            dx *= dx
            dy = qy[rr] - py[pp]
            dy *= dy
            dx += dy
            dist = np.sqrt(dx)
        else:
            diff = q[rr] - self.points[pp]
            dist = np.sqrt((diff**2).sum(axis=-1))
        keep = dist <= radius
        q_parts.append(rr[keep])
        p_parts.append(pp[keep])
        d_parts.append(dist[keep])

    k = q.shape[0]
    if k * offsets.shape[0] <= cells_mod._SMALL_QUERY_LIMIT:
        nb = (qcoords[None, :, :] + offsets[:, None, :]).reshape(
            -1, self.dim
        )
        keys = self._keys_of(nb)
        pos = np.searchsorted(self._uniq_keys, keys)
        pos_c = np.minimum(pos, self._uniq_keys.size - 1)
        hit = self._uniq_keys[pos_c] == keys
        if hit.any():
            qi = np.flatnonzero(hit)
            cell = pos_c[qi]
            sizes = self._sizes[cell]
            starts = self._starts[cell]
            reps = np.repeat(qi % k, sizes)
            within = np.arange(sizes.sum()) - np.repeat(
                np.cumsum(sizes) - sizes, sizes
            )
            pts_idx = self._order[np.repeat(starts, sizes) + within]
            for lo in range(0, reps.size, chunk):
                _filter(reps[lo : lo + chunk], pts_idx[lo : lo + chunk])
    else:
        for off in offsets:
            nb = qcoords + off[None, :]
            keys = self._keys_of(nb)
            pos = np.searchsorted(self._uniq_keys, keys)
            pos_c = np.minimum(pos, self._uniq_keys.size - 1)
            hit = self._uniq_keys[pos_c] == keys
            if not hit.any():
                continue
            qi = np.flatnonzero(hit)
            cell = pos_c[qi]
            sizes = self._sizes[cell]
            starts = self._starts[cell]
            reps = np.repeat(qi, sizes)
            within = np.arange(sizes.sum()) - np.repeat(
                np.cumsum(sizes) - sizes, sizes
            )
            pts_idx = self._order[np.repeat(starts, sizes) + within]
            for lo in range(0, reps.size, chunk):
                _filter(reps[lo : lo + chunk], pts_idx[lo : lo + chunk])
    if not q_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=float)
    return (
        np.concatenate(q_parts),
        np.concatenate(p_parts),
        np.concatenate(d_parts),
    )


@st.composite
def query_cases(draw):
    """An index, query points in and around its grid, and parameters."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 60))
    h = draw(st.sampled_from([0.5, 1.0, 12.0]))
    extent = h * draw(st.sampled_from([0.5, 3.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(0.0, extent, size=(n, dim))
    if draw(st.booleans()):  # snapped to a lattice: ties and cell edges
        pts = np.round(pts / (h / 2)) * (h / 2)
    index = CellIndex(pts, h, origin=np.zeros(dim))
    n_q = draw(st.integers(0, 12))
    parts = [rng.uniform(-2 * h, extent + 2 * h, size=(n_q, dim))]
    if draw(st.booleans()):  # the indexed points themselves (distance 0)
        parts.append(pts[rng.integers(0, n, size=draw(st.integers(1, 6)))])
    if draw(st.booleans()):  # far outside (clipped to the ghost layer)
        parts.append(rng.uniform(-1e3 * h, 1e3 * h, size=(3, dim)))
    qpts = np.concatenate(parts)
    radius = h * draw(st.sampled_from([0.0, 0.3, 0.77, 1.0]))
    chunk = draw(st.sampled_from([1, 3, 1 << 20]))
    per_offset = draw(st.booleans())
    return index, qpts, radius, chunk, per_offset


@given(query_cases())
def test_query_matches_reference(case):
    index, qpts, radius, chunk, per_offset = case
    # A zero limit sends every query set down the per-offset path.
    limit = 0 if per_offset else cells_mod._SMALL_QUERY_LIMIT
    with mock.patch.object(cells_mod, "_SMALL_QUERY_LIMIT", limit):
        got = index.query(qpts, radius, chunk=chunk)
        want = reference_query(index, qpts, radius, chunk=chunk)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_large_query_sets_take_the_per_offset_path(dim):
    """Past the single-pass limit the natural path is per offset."""
    rng = np.random.default_rng(dim)
    pts = rng.uniform(0.0, 30.0, size=(2000, dim))
    index = CellIndex(pts, 2.0, origin=np.zeros(dim))
    qpts = rng.uniform(-1.0, 31.0, size=(cells_mod._SMALL_QUERY_LIMIT, dim))
    for chunk in (3, 1 << 20):
        got = index.query(qpts, 1.7, chunk=chunk)
        want = reference_query(index, qpts, 1.7, chunk=chunk)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_query_builds_no_stencil(monkeypatch):
    index = CellIndex(np.random.default_rng(0).uniform(0, 9, (50, 2)), 1.0)

    def no_meshgrid(*args, **kwargs):
        raise AssertionError("query rebuilt the offset stencil")

    monkeypatch.setattr(np, "meshgrid", no_meshgrid)
    q_idx, _, _ = index.query(index.points[:4], 1.0)
    assert q_idx.size >= 4


@pytest.mark.parametrize("radius", [float("nan"), -1.0, -1e-300])
def test_query_rejects_nan_or_negative_radius(radius):
    index = CellIndex(np.zeros((3, 2)), 1.0)
    with pytest.raises(GeometryError, match="non-negative"):
        index.query(np.zeros((1, 2)), radius)


@pytest.mark.parametrize("chunk", [0, -4, 2.5, True])
def test_query_rejects_bad_chunk(chunk):
    index = CellIndex(np.zeros((3, 2)), 1.0)
    with pytest.raises(GeometryError, match="chunk"):
        index.query(np.zeros((1, 2)), 0.5, chunk=chunk)


def reference_far_field_sums(index, query_cells, radius, alpha, chunk=512):
    """The direct per-pair evaluation of ``W``: every (query cell,
    occupied cell) pair computes its own denominator."""
    qc = np.asarray(query_cells, dtype=np.int64)
    coords, counts = index._uniq_coords, index._sizes
    out = np.empty(qc.shape[0], dtype=float)
    weights = counts.astype(float)
    for lo in range(0, qc.shape[0], chunk):
        block = qc[lo : lo + chunk]
        delta = np.abs(block[:, None, :] - coords[None, :, :])
        gap = np.maximum(delta - 1, 0) * index.h
        d_min = np.sqrt((gap.astype(float) ** 2).sum(axis=-1))
        denom = np.maximum(d_min, radius) ** alpha
        out[lo : lo + chunk] = (weights[None, :] / denom).sum(axis=1)
    return out


alphas = st.one_of(
    st.sampled_from([1, 2, 3, 4]),
    st.floats(1.0, 6.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def certificate_cases(draw):
    """An index, query cells in every region of its grid, and parameters."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    h = draw(st.sampled_from([0.25, 1.0, 3.0, 12.0]))
    extent = h * draw(st.sampled_from([0.5, 4.0, 30.0, 400.0]))
    clustered = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if clustered:
        centres = rng.uniform(0.0, extent, size=(3, dim))
        pts = centres[rng.integers(0, 3, size=n)] + rng.normal(
            0.0, h, size=(n, dim)
        )
        pts = np.abs(pts)
    else:
        pts = rng.uniform(0.0, extent, size=(n, dim))
    index = CellIndex(pts, h, origin=np.zeros(dim))
    dims = index._dims
    parts = [np.empty((0, dim), dtype=np.int64)]
    if draw(st.booleans()):  # inside the occupied box
        parts.append(rng.integers(0, dims, size=(draw(st.integers(1, 30)), dim)))
    if draw(st.booleans()):  # on the ghost layer, one side per row
        ghost = rng.integers(0, dims, size=(4, dim))
        axis = rng.integers(0, dim, size=4)
        ghost[np.arange(4), axis] = np.where(rng.random(4) < 0.5, -1, dims[axis])
        parts.append(ghost)
    if draw(st.booleans()):  # a few cells outside the box
        parts.append(rng.integers(-6, dims + 6, size=(draw(st.integers(1, 5)), dim)))
    if draw(st.booleans()):  # far outside
        parts.append(rng.integers(-10**6, 10**6, size=(3, dim)))
    cells = np.concatenate(parts)
    if cells.shape[0] and draw(st.booleans()):  # duplicated
        cells = np.concatenate([cells, cells[rng.integers(0, cells.shape[0], 7)]])
    rng.shuffle(cells)
    radius = h * draw(st.floats(0.01, 1.0))
    alpha = draw(alphas)
    chunk = draw(st.sampled_from([1, 3, 512]))
    return index, cells, radius, alpha, chunk


@given(certificate_cases())
def test_far_field_sums_match_reference_bitwise(case):
    index, cells, radius, alpha, chunk = case
    got = index.far_field_sums(cells, radius, alpha, chunk=chunk)
    assert got.dtype == np.float64
    assert got.shape == (cells.shape[0],)
    assert np.array_equal(got, reference_far_field_sums(index, cells, radius, alpha))


@given(certificate_cases())
def test_far_field_sums_bound_the_dropped_mass(case):
    """W(cell(q)) >= sum of 1/d^alpha over the points farther than radius."""
    index, _, radius, alpha, _ = case
    rng = np.random.default_rng(0)
    lo = index.origin - 2.0 * index.h
    hi = index.points.max(axis=0) + 2.0 * index.h
    queries = rng.uniform(lo, hi, size=(12, index.dim))
    w = index.far_field_sums(index.cell_of(queries), radius, alpha)
    d = np.sqrt(((queries[:, None, :] - index.points[None, :, :]) ** 2).sum(-1))
    dropped = d > radius
    mass = np.where(dropped, 1.0 / np.where(dropped, d, 1.0) ** alpha, 0.0)
    assert (w >= mass.sum(axis=1) * (1.0 - 1e-9)).all()


def _spy(monkeypatch):
    """Record the offset arrays handed to the denominator expression."""
    shapes = []
    original = CellIndex._far_field_denominators

    def spy(self, delta, radius, alpha):
        shapes.append(delta.shape)
        return original(self, delta, radius, alpha)

    monkeypatch.setattr(CellIndex, "_far_field_denominators", spy)
    return shapes


@pytest.mark.parametrize("alpha", [3, 2.5])
def test_dense_grid_takes_the_offset_table(monkeypatch, alpha):
    rng = np.random.default_rng(1)
    pts = rng.uniform(0.0, 40.0, size=(600, 2))
    index = CellIndex(pts, 2.0, origin=np.zeros(2))
    cells = index.cell_of(rng.uniform(0.0, 40.0, size=(300, 2)))
    shapes = _spy(monkeypatch)
    got = index.far_field_sums(cells, 2.0, alpha, chunk=64)
    # One evaluation over the whole offset grid (20 x 20 cells per axis).
    assert shapes == [(20, 20, 2)]
    assert np.array_equal(got, reference_far_field_sums(index, cells, 2.0, alpha))


@pytest.mark.parametrize("alpha", [3, 2.5])
def test_wide_sparse_extent_evaluates_per_pair(monkeypatch, alpha):
    """A pinned tiny radius over a wide sparse extent: the offset table
    would dwarf a block of pairs, so denominators are evaluated per pair."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.0, 1e4, size=(50, 2))
    index = CellIndex(pts, 0.5, origin=np.zeros(2))
    cells = index.cell_of(np.concatenate([pts, pts[:5]]))
    shapes = _spy(monkeypatch)
    got = index.far_field_sums(cells, 0.5, alpha, chunk=16)
    # 50 distinct query cells in blocks of 16, each against the 50 cells.
    assert shapes == [(16, 50, 2)] * 3 + [(2, 50, 2)]
    assert np.array_equal(got, reference_far_field_sums(index, cells, 0.5, alpha))


def test_empty_query_returns_empty():
    index = CellIndex(np.zeros((3, 2)), 1.0)
    got = index.far_field_sums(np.empty((0, 2), dtype=np.int64), 1.0, 3.0)
    assert got.shape == (0,) and got.dtype == np.float64


@pytest.mark.parametrize(
    "cells", [np.zeros(2, dtype=np.int64), np.zeros((4, 3)), np.zeros((4, 1)),
              np.zeros((2, 2, 2))],
)
def test_misshaped_query_cells_rejected(cells):
    index = CellIndex(np.zeros((3, 2)), 1.0)
    with pytest.raises(GeometryError, match=r"shape \(k, 2\)"):
        index.far_field_sums(cells, 1.0, 3.0)


def test_non_positive_radius_rejected():
    index = CellIndex(np.zeros((3, 2)), 1.0)
    with pytest.raises(GeometryError, match="radius must be positive"):
        index.far_field_sums(np.zeros((1, 2), dtype=np.int64), 0.0, 3.0)

