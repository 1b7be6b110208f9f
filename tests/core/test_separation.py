"""Tests for repro.core.separation (Sec. 2.4 eta-separation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import DecaySpace
from repro.core.links import LinkSet
from repro.core.separation import (
    is_separated_from,
    is_separated_set,
    link_distance_matrix,
    separation_of_set,
    separation_violations,
)
from repro.scenarios import (
    build_dynamic_scenario,
    build_scenario,
    scenario_names,
)
from tests.conftest import CHURN_EXAMPLES


def reference_link_distance_matrix(links: LinkSet, zeta: float) -> np.ndarray:
    """The node-pool form: raise all of ``f`` to ``1/zeta``, then gather
    the link blocks.  ``link_distance_matrix`` raises only the gathered
    blocks; it must equal this bit for bit."""
    d = links.space.f ** (1.0 / zeta)
    s, r = links.senders, links.receivers
    sv_rw = d[np.ix_(s, r)]
    sv_sw = d[np.ix_(s, s)]
    rv_rw = d[np.ix_(r, r)]
    out = np.minimum(np.minimum(sv_rw, sv_rw.T), np.minimum(sv_sw, rv_rw))
    np.fill_diagonal(out, np.diagonal(sv_rw))
    return out


@pytest.fixture
def colinear_links() -> LinkSet:
    """Two unit links far apart on a line, plus one long link near link 0."""
    pts = np.array(
        [
            [0.0, 0.0],   # s0
            [1.0, 0.0],   # r0
            [10.0, 0.0],  # s1
            [11.0, 0.0],  # r1
            [1.5, 0.0],   # s2
            [5.5, 0.0],   # r2
        ]
    )
    space = DecaySpace.from_points(pts, 2.0)
    return LinkSet(space, [(0, 1), (2, 3), (4, 5)])


class TestDistanceMatrix:
    def test_min_of_four(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        # Links 0 and 1: endpoint distances 10, 11, 9, 10 -> min 9.
        assert d[0, 1] == pytest.approx(9.0, rel=1e-6)
        assert d[1, 0] == pytest.approx(9.0, rel=1e-6)
        # Links 0 and 2: distances s0-r2=5.5, s2-r0=0.5, s0-s2=1.5, r0-r2=4.5.
        assert d[0, 2] == pytest.approx(0.5, rel=1e-6)

    def test_diagonal_is_link_length(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        assert d[0, 0] == pytest.approx(1.0, rel=1e-6)
        assert d[2, 2] == pytest.approx(4.0, rel=1e-6)

    def test_default_zeta_uses_metricity(self, colinear_links):
        d = link_distance_matrix(colinear_links)
        # Metricity of a colinear alpha=2 space is 2.
        assert d[0, 1] == pytest.approx(9.0, rel=1e-3)


class TestBlockFormMatchesNodePool:
    """``link_distance_matrix`` takes the power of the three link blocks
    of ``f`` only; the entries must equal the node-pool form's."""

    @given(
        name=st.sampled_from(scenario_names()),
        seed=st.integers(0, 2**16),
        zeta=st.sampled_from([None, 0.5, 1.0, 2.5]),
    )
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_registry_scenarios(self, name, seed, zeta):
        links = build_scenario(name, n_links=9, seed=seed)
        z = links._resolve_zeta(zeta)
        got = link_distance_matrix(links, z)
        assert np.array_equal(got, reference_link_distance_matrix(links, z))

    @given(
        substrate=st.sampled_from(["planar_uniform", "asymmetric_measured"]),
        seed=st.integers(0, 2**16),
        zeta=st.sampled_from([0.5, 1.0, 3.0]),
    )
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_churn_pools(self, substrate, seed, zeta):
        """A churn pool holds more nodes than the live links use
        (n > 2m), so the block form skips most of ``f``."""
        scn = build_dynamic_scenario(
            "poisson_churn", n_links=8, seed=seed, horizon=10,
            substrate=substrate,
        )
        links = scn.initial_links()
        assert links.space.n > 2 * links.m
        want = reference_link_distance_matrix(links, zeta)
        assert np.array_equal(link_distance_matrix(links, zeta), want)


class TestSeparationPredicates:
    def test_is_separated_from(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        # Link 0 (length 1) vs link 1 at distance 9: separated up to eta 9.
        assert is_separated_from(d, 0, [1], eta=9.0)
        assert not is_separated_from(d, 0, [1], eta=9.1)
        # Relative to link 2's own length 4: distance to link 0 is 0.5.
        assert not is_separated_from(d, 2, [0], eta=0.2)

    def test_own_index_ignored(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        assert is_separated_from(d, 0, [0], eta=100.0)

    def test_set_separation(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        assert is_separated_set(d, [0, 1], eta=5.0)
        assert not is_separated_set(d, [0, 2], eta=1.0)
        assert is_separated_set(d, [2], eta=100.0)

    def test_violations_listed(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        bad = separation_violations(d, [0, 1, 2], eta=1.0)
        assert (0, 2) in bad and (2, 0) in bad
        assert (0, 1) not in bad

    def test_separation_of_set_value(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        # Pairwise d(l0, l1)/max(lengths) = 9/1 = 9.
        assert separation_of_set(d, [0, 1]) == pytest.approx(9.0, rel=1e-6)
        # With link 2: d(l0,l2)=0.5 over max length 4 -> 0.125.
        assert separation_of_set(d, [0, 1, 2]) == pytest.approx(0.125, rel=1e-6)

    def test_singleton_is_infinitely_separated(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        assert separation_of_set(d, [1]) == np.inf

    def test_consistency_between_predicates(self, colinear_links):
        d = link_distance_matrix(colinear_links, zeta=2.0)
        eta_star = separation_of_set(d, [0, 1, 2])
        assert is_separated_set(d, [0, 1, 2], eta_star)
        assert not is_separated_set(d, [0, 1, 2], eta_star * 1.01)
