"""Cross-validation: the pruned metricity kernel against its slow oracle.

The scaled kernel in :func:`repro.core.metricity.metricity` (bounded
bootstrap, sorted-neighbour candidate gather with a dense float32 screen
-> float64 confirm fallback, batched middle-node blocks, optional thread
pool) is only trustworthy because every tier is pinned against
:func:`repro.core.metricity.metricity_bisection`, the predicate-bisection
reference.  This module sweeps the pinning across:

* every registered scenario's decay space (seeded registry sweep);
* random matrices across sizes and seeds (both screen-tier paths);
* adversarial wide-dynamic-range matrices that force the float64 linear
  screen and the log-domain (``logaddexp``) screen;
* structured tie-heavy spaces (equally spaced colinear points) that
  maximize float32-margin false positives in the screen -> confirm
  handoff;
* explicit ``block_size`` / ``workers`` settings (including forcing many
  blocks through the real thread pool), which cannot move the result
  beyond the solver tolerance;
* the all-dense scan that the pruned one replaced, kept below as
  :func:`reference_metricity`: at ``workers=1`` the two must return the
  same float, bit for bit.

Tolerances: ordinary spaces agree to 1e-6.  On extreme-dynamic-range
spaces both implementations carry an input-conditioned skew — the oracle's
predicate slack shifts its bracket by ``slack / |h'|`` and the kernel
drops constraining log-ratios inside the float64 noise floor — so those
cases assert the documented looser tolerance.
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.metricity  # noqa: F401  (the module, shadowed by the function)
from repro.core.decay import DecaySpace
from repro.core.metricity import (
    _F32_SCREEN_MARGIN,
    _F32_SPAN_LIMIT,
    _LN2,
    _LOG_SPAN_LIMIT,
    _BlockBuffers,
    _log_matrix,
    _log_noise_floor,
    _resolve_block_size,
    metricity,
    metricity_bisection,
)
from repro.scenarios import build_dynamic_scenario, build_scenario, scenario_names
from tests.conftest import random_decay_matrix

metricity_mod = sys.modules["repro.core.metricity"]


# ----------------------------------------------------------------------
# The all-dense scan (bootstrap over every constraining triple of the
# first middle node, then every block screened by one outer-add), with
# the solver and confirmation it called: the implementation the pruned
# scan must reproduce bit for bit at ``workers=1``.
# ----------------------------------------------------------------------


def reference_solve_triple_zetas(a, b, tol, max_iterations):
    u = -2.0 * _LN2 / (a + b)
    z = 1.0 / u
    for _ in range(max_iterations):
        ea = np.exp(a * u)
        eb = np.exp(b * u)
        hp = a * ea + b * eb  # h'(u), strictly negative on the domain
        u = u + (1.0 - (ea + eb)) / hp
        z_new = 1.0 / u
        if np.all(np.abs(z - z_new) <= tol):
            z = z_new
            break
        z = z_new
    for _ in range(8):
        bad = np.exp(a * u) + np.exp(b * u) < 1.0
        if not bad.any():
            break
        u[bad] *= 1.0 - 4.0 * np.finfo(float).eps
    return 1.0 / u


class ReferenceScreenState:
    """Incumbent snapshot ``(best, mode, screen_q, target, quasi64)``."""

    def __init__(self, f, logf, best):
        self.f = f
        self.logf = logf
        self.fmax = float(f.max())
        with np.errstate(divide="ignore"):
            self.span = (
                float(np.log2(self.fmax) - np.log2(f[f > 0.0].min()))
                if self.fmax > 0
                else 0.0
            )
        self.log_noise = _log_noise_floor(logf)
        self._lock = threading.Lock()
        self.snap = self._build(best)

    @property
    def best(self):
        return self.snap[0]

    def _build(self, best):
        ratio = np.inf if not np.isfinite(self.span) else self.span / best
        if ratio > _LOG_SPAN_LIMIT:
            quasi = self.logf / best
            return best, "log", quasi, quasi, None
        quasi64 = (self.f / self.fmax) ** (1.0 / best)
        if ratio > _F32_SPAN_LIMIT:
            return best, "f64", quasi64, quasi64, quasi64
        screen = quasi64.astype(np.float32)
        target = (quasi64 * (1.0 + _F32_SCREEN_MARGIN)).astype(np.float32)
        return best, "f32", screen, target, quasi64

    def improve(self, top):
        with self._lock:
            if top > self.snap[0]:
                self.snap = self._build(top)


def reference_screen_block(zs, snap, buffers):
    best, mode, screen_q, target, quasi64 = snap
    k = len(zs)
    cols = screen_q[:, zs].T[:, :, None]
    rows = screen_q[zs, :][:, None, :]
    sums = buffers.sums(k, mode)
    if mode == "log":
        np.logaddexp(cols, rows, out=sums)
    else:
        np.add(cols, rows, out=sums)
    flags = buffers.flags[:k]
    np.less(sums, target[None, :, :], out=flags)
    if not flags.any():
        return None
    if k < buffers.block:
        buffers.flags[k:] = False  # final partial block: clear stale flags
    coords = buffers.flagged_coordinates(k)
    if coords is None:
        return None
    bj, xi, yi = coords
    z_arr = zs[bj]
    if mode == "f32":
        assert quasi64 is not None
        exact = quasi64[xi, z_arr] + quasi64[z_arr, yi] < quasi64[xi, yi]
        if not exact.any():
            return None
        z_arr, xi, yi = z_arr[exact], xi[exact], yi[exact]
    return z_arr, xi, yi


def reference_confirm_block(flagged, state, tol, max_iterations):
    logf = state.logf
    z_arr, xi, yi = flagged
    base = logf[xi, yi]
    aa = logf[xi, z_arr] - base
    bb = logf[z_arr, yi] - base
    keep = np.maximum(aa, bb) < -state.log_noise
    if not keep.any():
        return
    roots = reference_solve_triple_zetas(aa[keep], bb[keep], tol, max_iterations)
    state.improve(float(roots.max()))


def reference_metricity(f, tol=1e-9, max_iterations=200, block_size=None):
    """The serial all-dense scan."""
    n = f.shape[0]
    if n <= 2:
        return 0.0
    logf = _log_matrix(f)
    noise = _log_noise_floor(logf)
    best = 0.0
    first_screened = n
    for z in range(n):
        with np.errstate(invalid="ignore"):
            d_a = logf[:, z][:, None] - logf
            d_b = logf[z, :][None, :] - logf
            nontrivial = np.maximum(d_a, d_b) < -noise
        if not nontrivial.any():
            continue
        roots = reference_solve_triple_zetas(
            d_a[nontrivial], d_b[nontrivial], tol, max_iterations
        )
        best = float(roots.max())
        first_screened = z + 1
        break
    if best == 0.0:
        return 0.0

    state = ReferenceScreenState(f, logf, best)
    block = _resolve_block_size(n, block_size)
    blocks = [
        np.arange(start, min(start + block, n))
        for start in range(first_screened, n, block)
    ]
    buffers = _BlockBuffers(n, block)
    for zs in blocks:
        flagged = reference_screen_block(zs, state.snap, buffers)
        if flagged is not None:
            reference_confirm_block(flagged, state, tol, max_iterations)
    best = state.best
    return best if best > tol / 4.0 else 0.0

#: Ordinary spaces: both implementations resolve the same maximum root.
TOL = 1e-6
#: Wide-dynamic-range spaces: see module docstring.
TOL_EXTREME = 1e-3

#: Small enough that the bisection oracle stays subsecond per case.
SCENARIO_LINKS = 12


class TestRegistrySweep:
    """Every registry scenario's decay space, multiple seeds."""

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scenario_space_matches_oracle(self, name, seed):
        links = build_scenario(name, n_links=SCENARIO_LINKS, seed=seed)
        f = links.space.f
        assert metricity(f) == pytest.approx(
            metricity_bisection(f), abs=TOL
        ), f"scenario {name!r}, seed {seed}"


class TestRandomSweep:
    @pytest.mark.parametrize("n", [4, 6, 9, 13])
    @pytest.mark.parametrize("seed", range(6))
    def test_asymmetric_random(self, n, seed):
        f = random_decay_matrix(n, seed=seed, low=0.2, high=40.0, symmetric=False)
        assert metricity(f) == pytest.approx(metricity_bisection(f), abs=TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_random(self, seed):
        f = random_decay_matrix(10, seed=seed, low=0.5, high=20.0, symmetric=True)
        assert metricity(f) == pytest.approx(metricity_bisection(f), abs=TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_wide_range_random(self, seed):
        """Large but float64-representable dynamic range (f64 screen tier)."""
        f = random_decay_matrix(8, seed=seed, low=1e-8, high=1e12, symmetric=False)
        assert metricity(f) == pytest.approx(metricity_bisection(f), abs=TOL)


class TestExtremeDynamicRange:
    """Adversarial spaces pushing the scan into its exactness tiers.

    A colinear metric with geometrically exploding coordinates keeps the
    metricity near 1 while the decay span covers almost the whole float64
    exponent range, so ``span / zeta`` exceeds the float32 and (for the
    largest span) even the float64 power tier thresholds.
    """

    @staticmethod
    def _colinear_space(lo_exp: float, hi_exp: float, n: int) -> DecaySpace:
        coords = np.concatenate([[0.0], np.logspace(lo_exp, hi_exp, n - 1)])
        d = np.abs(coords[:, None] - coords[None, :])
        return DecaySpace.from_distances(d, 1.0)

    def test_log_domain_tier(self):
        """span/zeta > 1000: the screen must run via logaddexp."""
        space = self._colinear_space(-155.0, 150.0, 40)
        assert np.log2(space.decay_ratio()) > 1000.0  # really the log tier
        assert metricity(space) == pytest.approx(
            metricity_bisection(space), abs=TOL_EXTREME
        )

    def test_f64_linear_tier(self):
        """80 < span/zeta <= 1000: float64 powers, no float32 screen."""
        space = self._colinear_space(-75.0, 75.0, 40)
        assert 80.0 < np.log2(space.decay_ratio()) <= 1000.0
        assert metricity(space) == pytest.approx(
            metricity_bisection(space), abs=TOL_EXTREME
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_log_tier_with_noise(self, seed):
        """Log-tier space perturbed multiplicatively (still huge span)."""
        space = self._colinear_space(-155.0, 150.0, 24)
        rng = np.random.default_rng(seed)
        noise = np.exp(rng.normal(0.0, 0.05, size=space.f.shape))
        f = space.f * noise
        np.fill_diagonal(f, 0.0)
        assert metricity(f) == pytest.approx(
            metricity_bisection(f), abs=TOL_EXTREME
        )


class TestScreenConfirmHandoff:
    """Inputs that maximize float32-margin false positives."""

    def test_equally_spaced_grid_ties(self):
        """Colinear equally spaced points: every inner triple is an exact
        tie at the answer, so the float32 screen's margin flags them all
        every block — the float64 confirm must reject them without drift."""
        pts = np.stack([np.arange(120.0), np.zeros(120)], axis=1)
        space = DecaySpace.from_points(pts, 3.0)
        assert metricity(space) == pytest.approx(
            metricity_bisection(space), abs=TOL
        )

    def test_near_tie_cloud(self):
        """A jittered grid: dense near-ties just inside the screen margin."""
        rng = np.random.default_rng(5)
        base = np.arange(80.0)
        pts = np.stack(
            [base + rng.normal(0, 1e-7, 80), rng.normal(0, 1e-7, 80)], axis=1
        )
        space = DecaySpace.from_points(pts, 2.5)
        assert metricity(space) == pytest.approx(
            metricity_bisection(space), abs=TOL
        )


class TestScanParameters:
    """Partitioning cannot move the result beyond the solver tolerance.

    Which triples are flagged at a stale-vs-fresh incumbent can differ
    exactly for roots within ~tol of it, so different block partitions
    (and worker interleavings) may disagree at the ulp level — never
    beyond ``tol``.  The assertions use the default ``tol=1e-9``.
    """

    @pytest.mark.parametrize("block_size", [1, 2, 3, 64])
    @pytest.mark.parametrize("seed", [2, 11])
    def test_block_size_invariance(self, block_size, seed):
        f = random_decay_matrix(40, seed=seed, low=0.2, high=40.0, symmetric=False)
        assert metricity(f, block_size=block_size) == pytest.approx(
            metricity(f), abs=1e-9
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_invariance(self, workers):
        """block_size=2 forces many blocks through the actual thread pool
        (the auto block size would cover a small space in one block and
        silently fall back to the serial path)."""
        links = build_scenario("dense_urban", n_links=30, seed=3)
        f = links.space.f
        pooled = metricity(f, workers=workers, block_size=2)
        serial = metricity(f, workers=1, block_size=2)
        assert pooled == pytest.approx(serial, abs=1e-9)

    def test_pool_matches_oracle(self):
        """The threaded scan is pinned to the bisection oracle directly."""
        f = random_decay_matrix(36, seed=7, low=0.3, high=30.0, symmetric=False)
        assert metricity(f, workers=3, block_size=2) == pytest.approx(
            metricity_bisection(f), abs=TOL
        )

    def test_rejects_bad_parameters(self):
        f = random_decay_matrix(5, seed=0)
        with pytest.raises(ValueError, match="block_size"):
            metricity(f, block_size=0)
        with pytest.raises(ValueError, match="workers"):
            metricity(f, workers=0)
        for tol in (float("nan"), float("inf"), 0.0, -1e-9):
            with pytest.raises(ValueError, match="tol"):
                metricity(f, tol=tol)
        for bad in (1.5, True, np.float64(2.0)):
            with pytest.raises(ValueError, match="workers"):
                metricity(f, workers=bad)
        for bad in (2.7, True, 0):
            with pytest.raises(ValueError, match="block_size"):
                metricity(f, block_size=bad)
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError, match="max_iterations"):
                metricity(f, max_iterations=bad)
        # numpy integers are integers
        assert metricity(f, workers=np.int64(1), block_size=np.int32(2)) == (
            metricity(f, workers=1, block_size=2)
        )

    def test_space_cache_refuses_nan_tol(self):
        """``DecaySpace.metricity`` keys its cache on ``tol``: a NaN must
        raise before anything is cached, not store ``0.0``."""
        space = build_scenario("planar_uniform", n_links=6, seed=0).space
        with pytest.raises(ValueError, match="tol"):
            space.metricity(tol=float("nan"))
        assert space.metricity() == pytest.approx(3.0, abs=1e-3)
        assert not any("nan" in str(key) for key in space._cache)


def _bit_identical(f, **kwargs):
    got = metricity(f, workers=1, **kwargs)
    want = reference_metricity(f, **kwargs)
    assert repr(got) == repr(want)


class TestReferenceIdentity:
    """At ``workers=1`` the pruned scan returns the all-dense scan's float."""

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("seed", [0, 1])
    def test_registry_sweep(self, name, seed):
        _bit_identical(build_scenario(name, n_links=150, seed=seed).space.f)

    @pytest.mark.parametrize(
        "n_links, seed", [(100, 1000), (150, 2000), (200, 3000), (200, 1001)]
    )
    def test_measured_churn_spaces(self, n_links, seed):
        scn = build_dynamic_scenario(
            "poisson_churn", n_links=n_links, seed=seed, churn_rate=0.5,
            substrate="asymmetric_measured",
        )
        _bit_identical(scn.space.f)

    def test_block_size_one(self):
        f = build_scenario("asymmetric_measured", n_links=60, seed=4).space.f
        _bit_identical(f, block_size=1)

    @given(
        n=st.integers(min_value=5, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        high=st.sampled_from([2.0, 40.0, 1e4]),
        symmetric=st.booleans(),
    )
    def test_random_matrices(self, n, seed, high, symmetric):
        _bit_identical(
            random_decay_matrix(n, seed=seed, low=0.1, high=high,
                                symmetric=symmetric)
        )

    def test_tie_heavy_spaces(self):
        pts = np.stack([np.arange(60.0), np.zeros(60)], axis=1)
        _bit_identical(DecaySpace.from_points(pts, 3.0).f)
        rng = np.random.default_rng(5)
        base = np.arange(50.0)
        pts = np.stack(
            [base + rng.normal(0, 1e-7, 50), rng.normal(0, 1e-7, 50)], axis=1
        )
        _bit_identical(DecaySpace.from_points(pts, 2.5).f)


def _dense_violators(snap, z):
    quasi64 = snap[4]
    hit = quasi64[:, z][:, None] + quasi64[z, :][None, :] < quasi64
    return {(z, int(x), int(y)) for x, y in zip(*np.nonzero(hit))}


def _pruned_violators(state, snap, zs):
    """Flags of the candidate gather with every middle node forced onto
    the pruned path (a zero share makes every count estimate pass)."""
    with mock.patch.object(metricity_mod, "_DENSE_SHARE", 0):
        flagged, dense = metricity_mod._candidate_block(zs, snap, state)
    assert dense.size == 0
    if flagged is None:
        return set()
    return {tuple(map(int, t)) for t in zip(*flagged)}


class TestCandidateSuperset:
    """At a fixed incumbent the pruned gather flags exactly the triples
    the dense float64 predicate flags: its candidate prefixes contain
    every violator, and the exact re-test keeps exactly those."""

    @staticmethod
    def _spaces():
        grid = np.stack([np.arange(40.0), np.zeros(40)], axis=1)
        rng = np.random.default_rng(5)
        base = np.arange(40.0)
        cloud = np.stack(
            [base + rng.normal(0, 1e-7, 40), rng.normal(0, 1e-7, 40)], axis=1
        )
        yield "grid", DecaySpace.from_points(grid, 3.0).f
        yield "near_tie_cloud", DecaySpace.from_points(cloud, 2.5).f
        yield "measured", build_scenario(
            "asymmetric_measured", n_links=20, seed=2
        ).space.f
        yield "random", random_decay_matrix(
            30, seed=3, low=0.2, high=40.0, symmetric=False
        )

    @pytest.mark.parametrize("scale", [0.5, 0.9, 0.999, 1.0])
    def test_pruned_flags_equal_dense_flags(self, scale):
        for label, f in self._spaces():
            zeta = metricity(f, workers=1)
            logf = _log_matrix(f)
            state = metricity_mod._ScreenState(
                f, logf, _log_noise_floor(logf), zeta * scale
            )
            snap = state.snap
            assert snap[1] != "log", label
            zs = np.arange(f.shape[0])
            want = set().union(*(_dense_violators(snap, z) for z in zs))
            assert _pruned_violators(state, snap, zs) == want, label
            if scale < 1.0:
                assert want, label  # the check is not vacuous


def _constraining_log_ratios(f, z=0):
    logf = _log_matrix(f)
    noise = _log_noise_floor(logf)
    with np.errstate(invalid="ignore"):
        d_a = logf[:, z][:, None] - logf
        d_b = logf[z, :][None, :] - logf
        keep = np.maximum(d_a, d_b) < -noise
    return d_a[keep], d_b[keep]


class TestBoundedBootstrap:
    @given(
        n=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        high=st.sampled_from([2.0, 40.0, 1e6]),
    )
    def test_keeps_argmax_and_matches_full_solve(self, n, seed, high):
        f = random_decay_matrix(n, seed=seed, low=0.1, high=high, symmetric=False)
        a, b = _constraining_log_ratios(f)
        if a.size == 0:
            return
        roots = reference_solve_triple_zetas(a, b, 1e-9, 200)
        kept = metricity_mod._bootstrap_candidates(a, b)
        assert kept[roots == roots.max()].all()
        got = metricity_mod._bootstrap_zeta(a, b, 1e-9, 200)
        assert repr(got) == repr(float(roots.max()))

    @given(
        a=st.lists(st.floats(-60.0, -1e-6), min_size=1, max_size=60),
        data=st.data(),
    )
    def test_arbitrary_log_ratios(self, a, data):
        b = data.draw(
            st.lists(st.floats(-60.0, -1e-6), min_size=len(a), max_size=len(a))
        )
        a, b = np.array(a), np.array(b)
        roots = reference_solve_triple_zetas(a, b, 1e-9, 200)
        kept = metricity_mod._bootstrap_candidates(a, b)
        assert kept[roots == roots.max()].all()
        got = metricity_mod._bootstrap_zeta(a, b, 1e-9, 200)
        assert repr(got) == repr(float(roots.max()))

    def test_measured_space_keeps_few(self):
        scn = build_dynamic_scenario(
            "poisson_churn", n_links=200, seed=1000, churn_rate=0.5,
            substrate="asymmetric_measured",
        )
        a, b = _constraining_log_ratios(scn.space.f)
        kept = metricity_mod._bootstrap_candidates(a, b)
        assert kept.sum() * 8 < kept.size


class TestPathChoice:
    """Which middle nodes take the pruned gather and which the dense
    screen, counted by spying on the dense screen."""

    @staticmethod
    def _dense_share(f):
        seen = []
        real = metricity_mod._screen_block

        def spy(zs, snap, buffers):
            seen.extend(int(z) for z in zs)
            return real(zs, snap, buffers)

        with mock.patch.object(metricity_mod, "_screen_block", spy):
            metricity(f, workers=1)
        return len(seen) / (f.shape[0] - 1)

    def test_measured_space_is_pruned(self):
        scn = build_dynamic_scenario(
            "poisson_churn", n_links=100, seed=1000, churn_rate=0.5,
            substrate="asymmetric_measured",
        )
        assert self._dense_share(scn.space.f) <= 0.1

    def test_planar_space_falls_back_to_dense(self):
        f = build_scenario("planar_uniform", n_links=100, seed=1).space.f
        assert self._dense_share(f) >= 0.9
