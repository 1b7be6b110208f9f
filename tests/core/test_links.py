"""Tests for repro.core.links."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decay import DecaySpace
from repro.core.links import Link, LinkSet, links_from_pairs
from repro.errors import LinkError


@pytest.fixture
def space() -> DecaySpace:
    f = np.array(
        [
            [0.0, 2.0, 5.0, 9.0],
            [2.0, 0.0, 3.0, 7.0],
            [5.0, 3.0, 0.0, 4.0],
            [9.0, 7.0, 4.0, 0.0],
        ]
    )
    return DecaySpace(f)


class TestLink:
    def test_basic(self):
        link = Link(0, 3)
        assert link.sender == 0 and link.receiver == 3
        assert tuple(link) == (0, 3)

    def test_reversed(self):
        assert Link(0, 3).reversed() == Link(3, 0)

    def test_rejects_self_loop(self):
        with pytest.raises(LinkError, match="differ"):
            Link(2, 2)

    def test_rejects_negative(self):
        with pytest.raises(LinkError, match="non-negative"):
            Link(-1, 2)

    def test_hashable_and_ordered(self):
        assert len({Link(0, 1), Link(0, 1), Link(1, 0)}) == 2
        assert Link(0, 1) < Link(0, 2) < Link(1, 0)

    @pytest.mark.parametrize(
        "ends",
        [(0.9, 5.7), (True, 2), (0, False), (1.0, 2), (np.float64(1.0), 2), ("1", 2)],
    )
    def test_rejects_non_integer_endpoints(self, ends):
        with pytest.raises(LinkError, match="integers"):
            Link(*ends)

    def test_numpy_integers_become_python_ints(self):
        link = Link(np.int64(1), np.int32(3))
        assert link == Link(1, 3)
        assert type(link.sender) is int and type(link.receiver) is int


class TestLinkSet:
    def test_construction_from_tuples(self, space):
        links = LinkSet(space, [(0, 1), (2, 3)])
        assert links.m == 2
        assert links[0] == Link(0, 1)
        assert list(links.senders) == [0, 2]
        assert list(links.receivers) == [1, 3]

    def test_cross_decay_semantics(self, space):
        links = LinkSet(space, [(0, 1), (2, 3)])
        # F[u, v] = f(s_u, r_v): decay from sender u to receiver v.
        assert links.cross_decay[0, 0] == 2.0  # f(0, 1)
        assert links.cross_decay[0, 1] == 9.0  # f(0, 3)
        assert links.cross_decay[1, 0] == 3.0  # f(2, 1)
        assert links.cross_decay[1, 1] == 4.0  # f(2, 3)

    def test_lengths(self, space):
        links = LinkSet(space, [(0, 1), (2, 3)])
        assert list(links.lengths) == [2.0, 4.0]
        assert links.length(1) == 4.0

    def test_rejects_non_integer_endpoints(self, space):
        with pytest.raises(LinkError, match="integers"):
            LinkSet(space, [(0.9, 2.7)])
        with pytest.raises(LinkError, match="integers"):
            LinkSet(space, [(0, 1), (True, 2)])
        assert LinkSet(space, [(np.int64(0), np.int64(2))]).links == (Link(0, 2),)

    def test_rejects_empty(self, space):
        with pytest.raises(LinkError, match="at least one"):
            LinkSet(space, [])

    def test_rejects_out_of_range(self, space):
        with pytest.raises(LinkError, match="out of range"):
            LinkSet(space, [(0, 4)])

    def test_duplicates_allowed(self, space):
        links = LinkSet(space, [(0, 1), (0, 1)])
        assert links.m == 2

    def test_order_by_length(self, space):
        links = LinkSet(space, [(0, 3), (0, 1), (2, 3)])  # lengths 9, 2, 4
        assert list(links.order_by_length()) == [1, 2, 0]
        assert list(links.order_by_length(descending=True)) == [0, 2, 1]

    def test_order_tie_break_by_index(self, space):
        links = LinkSet(space, [(0, 1), (1, 0)])  # both length 2
        assert list(links.order_by_length()) == [0, 1]

    def test_subset(self, space):
        links = LinkSet(space, [(0, 1), (2, 3), (1, 2)])
        sub = links.subset([2, 0])
        assert sub.m == 2
        assert sub[0] == Link(1, 2)

    def test_subset_rejects_empty(self, space):
        links = LinkSet(space, [(0, 1)])
        with pytest.raises(LinkError, match="empty"):
            links.subset([])

    def test_subset_rejects_negative_indices(self, space):
        links = LinkSet(space, [(0, 1), (2, 3), (1, 2)])
        # A negative index must not silently wrap to the last link.
        with pytest.raises(LinkError, match="0..2"):
            links.subset([-1, 0])

    def test_subset_rejects_out_of_range(self, space):
        links = LinkSet(space, [(0, 1), (2, 3)])
        with pytest.raises(LinkError, match="0..1"):
            links.subset([0, 2])

    def test_quasi_lengths(self, space):
        links = LinkSet(space, [(0, 1), (2, 3)])
        q = links.quasi_lengths(zeta=2.0)
        assert q[0] == pytest.approx(np.sqrt(2.0))
        assert q[1] == pytest.approx(2.0)

    def test_quasi_lengths_rejects_bad_zeta(self, space):
        links = LinkSet(space, [(0, 1)])
        with pytest.raises(LinkError, match="positive"):
            links.quasi_lengths(zeta=-1.0)

    def test_iteration_and_len(self, space):
        links = LinkSet(space, [(0, 1), (2, 3)])
        assert len(links) == 2
        assert [l.sender for l in links] == [0, 2]

    def test_cross_decay_readonly(self, space):
        links = LinkSet(space, [(0, 1)])
        with pytest.raises(ValueError):
            links.cross_decay[0, 0] = 1.0

    def test_links_from_pairs(self, space):
        links = links_from_pairs(space, [(0, 1)])
        assert links.m == 1

    def test_shared_endpoints_allowed(self, space):
        # A node may serve as sender of one link and receiver of another.
        links = LinkSet(space, [(0, 1), (1, 2)])
        assert links.cross_decay[1, 0] == 0.0  # f(s_1=1, r_0=1) = 0
