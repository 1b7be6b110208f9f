"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.decay import DecaySpace
from repro.core.links import LinkSet

# Hypothesis profiles.  Both are derandomized (fixed example sequence per
# test, no shared-database flakiness), so the churn-trace suites are
# deterministic everywhere; the profiles differ only in depth:
#
# ``repro``
#     The tier-1 default: a small example budget keeps the suite fast on
#     every push.
# ``nightly``
#     The deep sweep the scheduled CI job runs: a 10x example budget for
#     the property suites (churn traces, batched-arrival identities,
#     repair invariants) that tier-1 only samples.
#
# Select with ``HYPOTHESIS_PROFILE=nightly`` (defaults to ``repro``).
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


def pytest_configure(config):
    """Register project markers (there is no pytest.ini to carry them)."""
    config.addinivalue_line(
        "markers",
        "service: scheduler daemon / loadgen suites (select with -m service)",
    )

#: Example budget for the heavy churn-trace property suites (each
#: example replays a whole churn trace with from-scratch cross-checks):
#: a fifth of the active profile's budget, so tier-1 stays cheap while
#: the nightly profile deepens the sweeps ~10x.  Computed at conftest
#: import from the profile the env var selected — the env var is the
#: *only* lever for these suites: pytest's ``--hypothesis-profile``
#: flag loads after this module is imported, and per-test
#: ``@settings(max_examples=CHURN_EXAMPLES)`` overrides a profile's
#: budget anyway, so the CLI flag cannot deepen them.
CHURN_EXAMPLES = max(5, settings.default.max_examples // 5)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(20140223)


@pytest.fixture
def planar_space(rng: np.random.Generator) -> DecaySpace:
    """A 16-node geometric decay space (alpha = 3) in a 10x10 box."""
    pts = rng.uniform(0, 10, size=(16, 2))
    return DecaySpace.from_points(pts, 3.0)


@pytest.fixture
def planar_links(rng: np.random.Generator) -> LinkSet:
    """Eight random planar links under geometric decay (alpha = 3)."""
    senders = rng.uniform(0, 10, size=(8, 2))
    receivers = senders + rng.uniform(-1.2, 1.2, size=(8, 2))
    pts = np.concatenate([senders, receivers])
    space = DecaySpace.from_points(pts, 3.0)
    return LinkSet(space, [(i, 8 + i) for i in range(8)])


def make_planar_links(
    n_links: int,
    alpha: float,
    seed: int,
    extent: float = 10.0,
    link_scale: float = 1.2,
) -> LinkSet:
    """Deterministic planar link-set factory used across test modules."""
    gen = np.random.default_rng(seed)
    senders = gen.uniform(0, extent, size=(n_links, 2))
    angle = gen.uniform(0, 2 * np.pi, size=n_links)
    radius = gen.uniform(0.3, 1.0, size=n_links) * link_scale
    receivers = senders + np.stack(
        [radius * np.cos(angle), radius * np.sin(angle)], axis=1
    )
    pts = np.concatenate([senders, receivers])
    space = DecaySpace.from_points(pts, alpha)
    return LinkSet(space, [(i, n_links + i) for i in range(n_links)])


def random_decay_matrix(
    n: int, seed: int, low: float = 0.5, high: float = 20.0, symmetric: bool = True
) -> np.ndarray:
    """A valid random decay matrix."""
    gen = np.random.default_rng(seed)
    f = gen.uniform(low, high, size=(n, n))
    if symmetric:
        f = (f + f.T) / 2.0
    np.fill_diagonal(f, 0.0)
    return f
