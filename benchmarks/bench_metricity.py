"""Benchmarks and reproduction for E1/E10: metricity computations.

Kernels: the vectorized triple predicate, the root-solving metricity
kernel at n = 60 and n = 300 (the headline speedup of the vectorized
rewrite — the seed bisection took ~4.4 s at n = 300), plus varphi.  The
``scale`` benches (selected by ``-k scale``; CI uploads their json as the
``BENCH_scale`` artifact) time the pruned scan: at n = 2000 on a
geometric space (every middle node falls back to the dense float32
screen) and on the ``dense_urban`` registry scenario, and at n = 1600 on
the measured space that ``perfbench``'s ``plan_measured_m400`` plans on
(nearly every middle node takes the sorted-neighbour candidate gather).
Experiment targets regenerate the E1 and E10 tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import once
from repro.core.decay import DecaySpace
from repro.core.metricity import (
    metricity,
    metricity_bisection,
    satisfies_metricity,
    varphi,
)
from repro.scenarios import build_dynamic_scenario, build_scenario
from repro.experiments.exp_metricity import (
    environment_metricity_table,
    geometric_metricity_table,
    three_point_growth_table,
    zeta_phi_relation_table,
)


@pytest.fixture(scope="module")
def big_space() -> DecaySpace:
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 20, size=(60, 2))
    return DecaySpace.from_points(pts, 3.0)


def test_kernel_predicate(benchmark, big_space):
    result = benchmark(satisfies_metricity, big_space, 3.0)
    assert result


def test_kernel_metricity_bisection(benchmark, big_space):
    z = benchmark(metricity, big_space)
    assert z == pytest.approx(3.0, abs=5e-3)


def test_kernel_varphi(benchmark, big_space):
    v = benchmark(varphi, big_space)
    assert v <= 4.0 + 1e-9


@pytest.fixture(scope="module")
def n300_space() -> DecaySpace:
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 20, size=(300, 2))
    return DecaySpace.from_points(pts, 3.0)


def test_kernel_metricity_n300(benchmark, n300_space):
    """The acceptance kernel: seed took 4.4 s, target <= 0.22 s."""
    z = benchmark(metricity, n300_space)
    assert z == pytest.approx(3.0, abs=5e-3)
    benchmark.extra_info["seed baseline (s)"] = 4.4


def test_kernel_metricity_n2000_scale(benchmark):
    """Geometric n = 2000: collinear near-ties keep every middle node on
    the dense float32 screen (one pass)."""
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 40, size=(2000, 2))
    space = DecaySpace.from_points(pts, 3.0)
    z = once(benchmark, metricity, space)
    assert z == pytest.approx(3.0, abs=5e-3)
    benchmark.extra_info["nodes"] = 2000


def test_kernel_metricity_dense_urban_n2000_scale(benchmark):
    """n = 2000 nodes of the dense_urban scenario (NLOS + shadowing)."""
    links = build_scenario("dense_urban", n_links=1000, seed=1)
    z = once(benchmark, metricity, links.space)
    assert z > 3.2  # NLOS corners push zeta above alpha
    benchmark.extra_info["nodes"] = links.space.n
    benchmark.extra_info["zeta"] = round(z, 3)


def test_kernel_metricity_asymmetric_measured_n1600_scale(benchmark):
    """The measured space of ``plan_measured_m400`` (scenario seed 1000):
    n = 1600 nodes, no geometry, zeta about 10.7."""
    scn = build_dynamic_scenario(
        "poisson_churn", n_links=400, seed=1000, horizon=6000,
        churn_rate=0.5, substrate="asymmetric_measured",
    )
    z = once(benchmark, metricity, scn.space)
    assert z == pytest.approx(10.727967707455361, abs=1e-9)
    benchmark.extra_info["nodes"] = scn.space.n
    benchmark.extra_info["zeta"] = repr(z)


def test_kernel_metricity_bisection_reference_n60(benchmark, big_space):
    """The historical predicate bisection, for the speedup ratio."""
    z = benchmark.pedantic(
        metricity_bisection, args=(big_space,), rounds=1, iterations=1
    )
    assert z == pytest.approx(3.0, abs=5e-3)


def test_e1a_geometric_metricity(benchmark):
    table = once(benchmark, geometric_metricity_table)
    worst = max(table.column("|zeta - alpha|"))
    benchmark.extra_info["max |zeta - alpha|"] = worst
    assert worst < 5e-3


def test_e1b_environment_metricity(benchmark):
    table = once(benchmark, environment_metricity_table)
    zetas = dict(zip(table.column("environment"), table.column("zeta")))
    benchmark.extra_info["zeta(free)"] = zetas["free space"]
    benchmark.extra_info["zeta(walls)"] = zetas["office walls"]
    assert zetas["office walls"] > zetas["free space"]


def test_e10a_phi_vs_zeta(benchmark):
    table = once(benchmark, zeta_phi_relation_table)
    assert all(table.column("phi <= zeta"))
    benchmark.extra_info["rows"] = len(table.rows)


def test_e10b_three_point_growth(benchmark):
    table = once(benchmark, three_point_growth_table)
    ratios = table.column("zeta / predictor")
    benchmark.extra_info["zeta/predictor range"] = (
        f"{min(ratios):.3f}..{max(ratios):.3f}"
    )
    assert all(0.7 <= r <= 1.7 for r in ratios)
    assert all(v < 2.0 for v in table.column("varphi"))
