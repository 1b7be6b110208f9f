"""Tests for repro.core.metricity (Definition 2.2, Sec. 4.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.decay import DecaySpace
from repro.core.metricity import (
    metricity,
    metricity_bisection,
    metricity_witness,
    phi,
    satisfies_metricity,
    varphi,
    varphi_witness,
    zeta_of_triple,
)
from repro.spaces.constructions import three_point_space, uniform_space
from tests.conftest import random_decay_matrix


class TestGeometricSpaces:
    """Sec. 2.2: geometric path loss has zeta = alpha."""

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.5, 6.0])
    def test_zeta_equals_alpha_on_line(self, alpha):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0], [4.0, 0.0]])
        space = DecaySpace.from_points(pts, alpha)
        assert metricity(space) == pytest.approx(alpha, abs=5e-3)

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_zeta_equals_alpha_random_plane(self, alpha, rng):
        pts = rng.uniform(0, 5, size=(12, 2))
        # Anchor a colinear triple so the geometric bound zeta = alpha is
        # tight regardless of how the random points fall.
        anchors = np.array([[6.0, 6.0], [7.0, 6.0], [8.0, 6.0]])
        space = DecaySpace.from_points(np.concatenate([pts, anchors]), alpha)
        assert metricity(space) == pytest.approx(alpha, abs=5e-3)

    def test_colinear_equidistant_triple_is_tight(self):
        # x --1-- z --1-- y: the binding triple for any alpha.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        space = DecaySpace.from_points(pts, 4.0)
        assert metricity(space) == pytest.approx(4.0, abs=1e-3)


class TestPredicate:
    def test_monotone_in_zeta(self, planar_space):
        z = metricity(planar_space)
        assert satisfies_metricity(planar_space, z)
        assert satisfies_metricity(planar_space, z * 2.0)
        assert not satisfies_metricity(planar_space, max(z - 0.05, 1e-3))

    def test_returned_value_satisfies(self):
        for seed in range(5):
            f = random_decay_matrix(7, seed=seed, symmetric=False)
            z = metricity(f)
            if z > 0:
                assert satisfies_metricity(f, z)

    def test_rejects_nonpositive_zeta(self, planar_space):
        with pytest.raises(ValueError, match="positive"):
            satisfies_metricity(planar_space, 0.0)

    def test_tiny_spaces_trivially_satisfied(self):
        assert satisfies_metricity(np.array([[0.0, 1.0], [2.0, 0.0]]), 0.5)
        assert metricity(np.array([[0.0, 1.0], [2.0, 0.0]])) == 0.0

    def test_witness_found_below_zeta(self, planar_space):
        z = metricity(planar_space)
        w = metricity_witness(planar_space, max(z - 0.05, 1e-3))
        assert w is not None
        x, y, mid = w
        f = planar_space.f
        bad_zeta = max(z - 0.05, 1e-3)
        lhs = f[x, y] ** (1 / bad_zeta)
        rhs = f[x, mid] ** (1 / bad_zeta) + f[mid, y] ** (1 / bad_zeta)
        assert lhs > rhs

    def test_witness_none_at_zeta(self, planar_space):
        z = metricity(planar_space)
        assert metricity_witness(planar_space, z + 1e-6) is None


class TestUniformAndDegenerate:
    def test_uniform_space_has_zero_metricity(self):
        assert metricity(uniform_space(5)) == 0.0

    def test_uniform_satisfies_everything(self):
        space = uniform_space(5)
        for z in (0.01, 0.5, 1.0, 10.0):
            assert satisfies_metricity(space, z)


class TestZetaOfTriple:
    def test_trivial_when_direct_not_longest(self):
        assert zeta_of_triple(1.0, 2.0, 0.5) == 0.0
        assert zeta_of_triple(2.0, 2.0, 0.1) == 0.0

    def test_matches_known_value(self):
        # f_xy = 2^a, detours 1: need 2^(a/zeta) <= 2 -> zeta >= a.
        for a in (2.0, 3.0, 5.0):
            z = zeta_of_triple(2.0**a, 1.0, 1.0)
            assert z == pytest.approx(a, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            zeta_of_triple(0.0, 1.0, 1.0)

    def test_consistent_with_global(self):
        space = three_point_space(100.0)
        # For the 3-point space, global zeta is the max per-triple zeta.
        f = space.f
        best = 0.0
        for x in range(3):
            for y in range(3):
                for z in range(3):
                    if len({x, y, z}) == 3:
                        best = max(best, zeta_of_triple(f[x, y], f[x, z], f[z, y]))
        assert metricity(space) == pytest.approx(best, abs=1e-6)


class TestVarphi:
    def test_metric_has_varphi_at_most_one(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.0]])
        space = DecaySpace.from_points(pts, 1.0)
        assert varphi(space) <= 1.0 + 1e-9

    def test_geometric_varphi_value(self):
        # Colinear equidistant: f_xz/(f_xy + f_yz) = 2^alpha/2 = 2^(alpha-1).
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        space = DecaySpace.from_points(pts, 3.0)
        assert varphi(space) == pytest.approx(4.0)
        assert phi(space) == pytest.approx(2.0)

    def test_witness_attains_value(self, planar_space):
        value, witness = varphi_witness(planar_space)
        assert witness is not None
        x, y, z = witness
        f = planar_space.f
        assert value == pytest.approx(f[x, z] / (f[x, y] + f[y, z]))

    def test_three_point_example(self):
        """Sec. 4.2: varphi < 2 bounded, zeta grows like log q / log log q."""
        zetas = []
        for q in (1e2, 1e4, 1e8):
            space = three_point_space(q)
            assert varphi(space) < 2.0
            zetas.append(metricity(space))
        assert zetas[0] < zetas[1] < zetas[2]
        # Against the predictor log q / log log q: ratio stays near 1.
        for q, z in zip((1e2, 1e4, 1e8), zetas):
            predictor = np.log(q) / np.log(np.log(q))
            assert 0.8 <= z / predictor <= 1.6

    def test_tiny_space(self):
        assert varphi(np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.0
        assert phi(np.array([[0.0, 1.0], [1.0, 0.0]])) == float("-inf")


@given(
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=0, max_value=200),
)
def test_phi_at_most_zeta(n, seed):
    """Sec. 4.2 (corrected direction): varphi <= 2^zeta on every space."""
    f = random_decay_matrix(n, seed=seed, low=0.1, high=50.0, symmetric=False)
    z = metricity(f)
    v = varphi(f)
    assert v <= 2.0 ** max(z, 0.0) * (1.0 + 1e-6)


@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=1.05, max_value=4.0),
)
def test_predicate_interval_structure(n, seed, factor):
    """Once satisfied at zeta, satisfied at every larger exponent."""
    f = random_decay_matrix(n, seed=seed, symmetric=False)
    z = metricity(f)
    if z > 0:
        assert satisfies_metricity(f, z * factor)


@given(st.integers(min_value=0, max_value=100))
def test_scaling_invariance(seed):
    """Metricity is invariant under scaling decays by a power: zeta scales."""
    f = random_decay_matrix(5, seed=seed, low=1.5, high=30.0, symmetric=False)
    z1 = metricity(f)
    z2 = metricity(f**2.0)  # f^2 doubles every exponent requirement
    if z1 > 1e-6:
        assert z2 == pytest.approx(2.0 * z1, rel=5e-2, abs=1e-3)


@given(
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=1.0, max_value=6.0),
)
def test_property_geometric_metricity_equals_alpha(seed, alpha):
    """Sec 2.2: zeta(d^alpha) = alpha for a metric d with a tight triangle.

    Random planar points give a genuine metric; the anchored colinear
    triple makes the worst triangle tight, so the supremum is exactly
    alpha regardless of how the random points fall.
    """
    gen = np.random.default_rng(seed)
    pts = gen.uniform(0, 5, size=(8, 2))
    anchors = np.array([[6.0, 6.0], [7.25, 6.0], [8.5, 6.0]])
    pts = np.concatenate([pts, anchors])
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=-1))
    space = DecaySpace.from_distances(d, alpha)
    assert metricity(space) == pytest.approx(alpha, abs=5e-3)


@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=0, max_value=150),
)
def test_property_vectorized_agrees_with_bisection(n, seed):
    """The root-solving kernel matches the predicate bisection everywhere."""
    f = random_decay_matrix(n, seed=seed, low=0.2, high=40.0, symmetric=False)
    assert metricity(f) == pytest.approx(metricity_bisection(f), abs=1e-6)


@given(st.integers(min_value=0, max_value=60))
def test_property_vectorized_agrees_with_predicate(seed):
    """The returned value satisfies the predicate; slightly less does not."""
    f = random_decay_matrix(7, seed=seed, low=0.3, high=25.0, symmetric=False)
    z = metricity(f)
    if z > 0:
        assert satisfies_metricity(f, z)
        assert not satisfies_metricity(f, z * (1.0 - 1e-4))


def test_extreme_dynamic_range_uses_log_fallback():
    """Spans beyond float pow range still agree with the bisection."""
    f = random_decay_matrix(8, seed=3, low=1e-8, high=1e12, symmetric=False)
    assert metricity(f) == pytest.approx(metricity_bisection(f), abs=1e-6)


@pytest.mark.parametrize("all_pruned", [True, False])
def test_float32_screen_copies_built_only_for_dense_nodes(all_pruned):
    """The float32 ``screen``/``target`` copies are read only by the dense
    screen, so a scan whose every middle node takes the pruned gather
    never builds them; when dense nodes do run, the copies match the
    float64 quasi-distances they were made from.  Either way the value
    is the same."""
    import sys
    from unittest import mock

    # ``repro.core`` re-exports the function under the module's name.
    metricity_mod = sys.modules["repro.core.metricity"]
    f = random_decay_matrix(30, seed=4, low=0.2, high=40.0, symmetric=False)
    want = metricity(f, workers=1)
    states = []
    real_init = metricity_mod._ScreenState.__init__

    def spy(self, *args):
        real_init(self, *args)
        states.append(self)

    share = 0 if all_pruned else 10**9  # zero: every count estimate passes
    with mock.patch.object(metricity_mod._ScreenState, "__init__", spy), \
            mock.patch.object(metricity_mod, "_DENSE_SHARE", share):
        got = metricity(f, workers=1)
    assert repr(got) == repr(want)
    (state,) = states
    assert state.snap[1] == "f32"
    if all_pruned:
        assert state._dense is None
        assert state.snap[2] is None and state.snap[3] is None
    else:
        snap, full = state._dense
        assert full[2].dtype == np.float32
        assert np.array_equal(full[2], snap[4].astype(np.float32))
