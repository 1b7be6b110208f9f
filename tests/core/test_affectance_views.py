"""The reduction contract of the affectance access protocol.

Every scheduler reads affectance through one protocol: a sparse view
(:mod:`repro.core.affectance_sparse`) or a dense matrix wrapped by
:func:`repro.core.affectance.as_view`.  A sparse member sum scatters the
stored entries of the member rows (or columns) in member order with one
``np.bincount``; that is the order in which numpy's axis-0 reduction
adds the dense member rows, so on the materialized matrix

* ``rows_sum(idx)`` equals ``a[idx].sum(axis=0)``,
* ``cols_sum(idx)`` equals ``a[:, idx].sum(axis=1)``,
* ``in_affectances_within(idx)`` equals ``a[np.ix_(idx, idx)].sum(axis=0)``,

bit for bit, for permuted and repeated member lists, on complete and
thresholded patterns, static and maintained under churn.  The dense view
is pinned to the numpy expression each of its methods stands for.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.context import DynamicContext
from repro.core.affectance import _DenseView, as_view, in_affectances_within
from repro.core.affectance_sparse import SparseAffectance
from repro.core.decay import DecaySpace


def _pattern(m: int, density: float, seed: int):
    """A random pattern and its materialized matrix.

    Values span five orders of magnitude, so a different summation order
    shows in the last bits; a few exceed 1, so the clipped layer differs
    from the raw one.
    """
    rng = np.random.default_rng(seed)
    vals = rng.random((m, m)) * 10.0 ** rng.uniform(-4.0, 1.0, (m, m))
    keep = rng.random((m, m)) < density
    np.fill_diagonal(keep, False)
    rows, cols = np.nonzero(keep)
    sp = SparseAffectance(
        m, rows, cols, vals[rows, cols],
        eps=1.0, radius=1.0, cell_size=1.0,
        tail_in=np.zeros(m), tail_out=np.zeros(m),
    )
    dense = np.zeros((m, m))
    dense[rows, cols] = vals[rows, cols]
    return sp, dense


def _assert_member_sums(view, a: np.ndarray, idx: np.ndarray) -> None:
    np.testing.assert_array_equal(view.rows_sum(idx), a[idx].sum(axis=0))
    np.testing.assert_array_equal(view.cols_sum(idx), a[:, idx].sum(axis=1))
    np.testing.assert_array_equal(
        view.in_affectances_within(idx), a[np.ix_(idx, idx)].sum(axis=0)
    )


@st.composite
def member_lists(draw, m: int) -> np.ndarray:
    """A permuted subset of ``0..m-1``, or a list with repeats."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(m)))
        return np.array(perm[: draw(st.integers(0, m))], dtype=int)
    picks = draw(st.lists(st.integers(0, m - 1), max_size=3 * m))
    return np.array(picks, dtype=int)


@given(
    m=st.integers(2, 40),
    complete=st.booleans(),
    density=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_static_view_sums_match_dense(m, complete, density, seed, data):
    sp, dense = _pattern(m, 1.0 if complete else density, seed)
    assert sp.complete or not complete
    idx = data.draw(member_lists(m))
    raw = sp.raw
    assert as_view(raw) is raw and not raw.dense
    _assert_member_sums(raw, dense, idx)
    _assert_member_sums(sp.clip, np.minimum(dense, 1.0), idx)
    np.testing.assert_array_equal(raw.sum_axis0(), dense.sum(axis=0))
    # The CSC scatter adds a row's entries in column order where the
    # dense reduction of a contiguous row sums pairwise: equal up to
    # rounding only (the ledger's guard absorbs it).
    np.testing.assert_allclose(
        raw.sum_axis1(), dense.sum(axis=1), rtol=1e-12, atol=0.0
    )


def test_long_member_lists_match_dense_bitwise():
    """Columns with many members, where pairwise and sequential sums of
    mixed magnitudes part ways: the scatter must be sequential."""
    sp, dense = _pattern(64, 1.0, 7)
    perm = np.random.default_rng(7).permutation(64)
    for idx in (perm, np.concatenate([perm, perm[:20]])):
        _assert_member_sums(sp.raw, dense, idx)


@given(seed=st.integers(0, 2**16), data=st.data())
def test_dynamic_view_sums_match_dense(seed, data):
    """The live view over a churned sparse context, against its own
    materialized padded matrix."""
    rng = np.random.default_rng(seed)
    space = DecaySpace.from_points(rng.uniform(0, 10, (48, 2)), 3.0)
    pairs = [(2 * i, 2 * i + 1) for i in range(24)]
    dyn = DynamicContext(
        space, pairs[:16], backend="sparse", radius=float(rng.uniform(2, 8))
    )
    gone = rng.choice(16, size=5, replace=False).tolist()
    dyn.remove_links(gone)
    dyn.add_links(pairs[16:])
    view = dyn.raw_affectance
    a = np.array([view.dense_row(s) for s in range(dyn.capacity)])
    _assert_member_sums(view, a, data.draw(member_lists(dyn.capacity)))


def test_repeated_member_counted_per_copy_beyond_2048():
    """A subset of more than 2048 members with a repeated index: every
    copy of the repeated member reads the full in-affectance."""
    m = 2100
    w = np.repeat(np.arange(m), 3)
    v = (w + np.tile([1, 2, 3], m)) % m
    vals = np.random.default_rng(3).random(w.size)
    sp = SparseAffectance(
        m, w, v, vals, eps=1.0, radius=1.0, cell_size=1.0,
        tail_in=np.zeros(m), tail_out=np.zeros(m),
    )
    dense = np.zeros((m, m))
    dense[w, v] = vals
    idx = np.append(np.arange(m), 3)
    got = in_affectances_within(sp.raw, idx)
    np.testing.assert_array_equal(got, dense[np.ix_(idx, idx)].sum(axis=0))
    assert got[-1] == got[3] > 0.0


@given(
    m=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_dense_view_is_the_numpy_expression(m, seed, data):
    a = np.random.default_rng(seed).random((m, m))
    view = as_view(a)
    assert isinstance(view, _DenseView) and view.dense
    assert view.shape == a.shape
    v = data.draw(st.integers(0, m - 1))
    rows = data.draw(member_lists(m))
    cols = data.draw(member_lists(m))
    support, row = view.row(v)
    assert support == slice(None)
    np.testing.assert_array_equal(row, a[v])
    support, col = view.col(v)
    assert support == slice(None)
    np.testing.assert_array_equal(col, a[:, v])
    np.testing.assert_array_equal(view.gather_row(v, cols), a[v, cols])
    np.testing.assert_array_equal(view.gather_col(rows, v), a[rows, v])
    np.testing.assert_array_equal(
        view.block(rows, cols), a[np.ix_(rows, cols)]
    )
    fresh = view.dense_row(v)
    np.testing.assert_array_equal(fresh, a[v])
    fresh += 1.0
    assert not np.shares_memory(fresh, a)
    out = np.arange(m, dtype=float)
    view.add_row_to(out, v)
    np.testing.assert_array_equal(out, np.arange(m) + a[v])
    view.add_col_to(out, v)
    np.testing.assert_array_equal(out, (np.arange(m) + a[v]) + a[:, v])
    np.testing.assert_array_equal(
        view.rows_sum(rows),
        a[rows].sum(axis=0) if rows.size else np.zeros(m),
    )
    np.testing.assert_array_equal(view.cols_sum(rows), a[:, rows].sum(axis=1))
    np.testing.assert_array_equal(view.sum_axis0(), a.sum(axis=0))
    np.testing.assert_array_equal(view.sum_axis1(), a.sum(axis=1))
    np.testing.assert_array_equal(
        view.in_affectances_within(rows), a[np.ix_(rows, rows)].sum(axis=0)
    )
