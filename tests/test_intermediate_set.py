import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardpath import intermediate_set
from cardpath.errors import (CardpathError, InvalidDistribution,
                             InvalidParameter)
from cardpath.intermediate_set import (MappingDistribution, _ks_statistic,
                                       _ks_uniform, _kolmogorov_sf, _uniforms,
                                       realize_images, unit_set_counts)

EDGE_NS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
           0.5, 1.0, 3.25, -7.0, 1e6, -1e6, 1e300, -1.7976931348623157e308]
EDGE_SEEDS = [0, 1, 12345, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5,
              2 ** 64 - 1, 2 ** 64, -1]


def reference_uniform(n: float, seed: int) -> float:
    """The per-point draw through numpy's own SeedSequence and Generator."""
    n_bits = int(np.float64(n).view(np.uint64))
    ss = np.random.SeedSequence(entropy=[int(seed) & ((1 << 64) - 1), n_bits])
    return np.random.default_rng(ss).random()


def test_point_requires_finite_coordinate():
    dist = MappingDistribution.uniform(0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for refuse in (lambda ns: realize_images(ns, dist, seed=0),
                       unit_set_counts):
            with pytest.raises(InvalidParameter) as info:
                refuse(np.array([0.5, bad, 2.0]))
            assert isinstance(info.value, CardpathError)
            assert isinstance(info.value, ValueError)


def test_vectorized_draw_matches_numpy_on_edge_cases():
    ns = np.array(EDGE_NS + list(np.linspace(-4.0, 4.0, 33)))
    for seed in EDGE_SEEDS:
        want = [reference_uniform(n, seed) for n in ns]
        assert np.array_equal(_uniforms(ns, seed), want), seed


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8),
       st.integers(min_value=-2 ** 70, max_value=2 ** 70))
@settings(max_examples=200, deadline=None)
def test_vectorized_draw_matches_numpy_property(ns, seed):
    want = [reference_uniform(n, seed) for n in ns]
    assert np.array_equal(_uniforms(np.array(ns), seed), want)


def test_realize_images_matches_per_point_reference():
    # a non-uniform density also checks that the array inverse CDF of the
    # population gives the bits of the scalar one of a single point
    dist = MappingDistribution.from_density(0.0, 1.0, lambda r: 2.0 * r)
    ns = np.array(EDGE_NS + [0.25 * i for i in range(40)])
    for seed in (0, 7, 2 ** 64 - 1):
        images = realize_images(ns, dist, seed)
        for n, got in zip(ns, images):
            assert got == float(dist.inverse_cdf(reference_uniform(n, seed)))
            assert realize_images(np.array([n]), dist, seed)[0] == got


@pytest.mark.parametrize("block", [1, 7, intermediate_set._BLOCK, 1 << 16])
def test_realize_images_bits_do_not_depend_on_the_block(monkeypatch, block):
    dist = MappingDistribution.from_density(0.0, 1.0, lambda r: 2.0 * r)
    # blocks of one point take 0.5 ms each, so they draw a shorter population
    ns = (np.arange(20000) * 3 / 20000 - 1.0)[:1000 if block == 1 else None]
    want = dist.inverse_cdf(_uniforms(ns, 17))  # the draw, then the image
    monkeypatch.setattr(intermediate_set, "_BLOCK", block)
    assert np.array_equal(realize_images(ns, dist, 17), want)
    got = realize_images(ns.reshape(-1, 200), dist, 17)
    assert got.shape == (ns.size // 200, 200) and np.array_equal(got.ravel(), want)


def test_realize_is_deterministic_and_one_shot():
    ns = np.array([3.25])
    dist = MappingDistribution.uniform(0.0, 1.0)
    r1 = realize_images(ns, dist, seed=42)
    r2 = realize_images(ns, dist, seed=42)
    assert np.array_equal(r1, r2)
    assert 0.0 <= r1[0] <= 1.0


def test_distinct_points_draw_independently():
    dist = MappingDistribution.uniform(0.0, 1.0)
    images = realize_images(np.arange(50.0), dist, seed=0)
    assert len(set(images.tolist())) == 50


def test_realization_order_does_not_matter():
    dist = MappingDistribution.uniform(-2.0, 5.0)
    ns = 0.5 * np.arange(20)
    fwd = realize_images(ns, dist, seed=9)
    rev = realize_images(ns[::-1], dist, seed=9)
    assert np.array_equal(fwd, rev[::-1])


def test_seed_changes_the_draw():
    ns = np.array([1.0])
    dist = MappingDistribution.uniform(0.0, 1.0)
    assert realize_images(ns, dist, seed=1)[0] != realize_images(ns, dist, seed=2)[0]


def test_point_mass_distribution_is_degenerate():
    dist = MappingDistribution.point_mass(0.75)
    imgs = {realize_images(np.array([float(i)]), dist, seed=i)[0]
            for i in range(10)}
    assert imgs == {0.75}
    assert np.array_equal(realize_images(np.arange(10.0), dist, seed=3),
                          np.full(10, 0.75))


def test_uniform_samples_match_uniform_law():
    dist = MappingDistribution.uniform(2.0, 6.0)
    rng = np.random.default_rng(123)
    xs = dist.inverse_cdf(rng.random(4000))
    assert xs.min() >= 2.0 and xs.max() <= 6.0
    # KS against the target CDF
    from scipy import stats
    res = stats.kstest(xs, stats.uniform(loc=2.0, scale=4.0).cdf)
    assert res.pvalue > 1e-4


def test_density_distribution_samples_match_density():
    # triangular density on [0, 1]: p(r) = 2r
    dist = MappingDistribution.from_density(0.0, 1.0, lambda r: 2.0 * r)
    rng = np.random.default_rng(7)
    xs = dist.inverse_cdf(rng.random(4000))
    from scipy import stats
    res = stats.kstest(xs, lambda v: np.clip(v, 0.0, 1.0) ** 2)
    assert res.pvalue > 1e-4


def test_invalid_densities_rejected():
    with pytest.raises(InvalidDistribution):
        MappingDistribution.uniform(1.0, 1.0)
    with pytest.raises(InvalidDistribution):
        MappingDistribution.from_density(0.0, 1.0, lambda r: -np.ones_like(r))
    with pytest.raises(InvalidDistribution):
        # integrates to 2, not 1
        MappingDistribution.from_density(0.0, 1.0, lambda r: 2.0 * np.ones_like(r))


def test_density_verdicts_need_quadrature_not_the_grid():
    # a step and a kink between nodes integrate to one; a rule on the CDF
    # grid's nodes alone would refuse the step, which falls on a node
    for density in (lambda r: 2.0 * r,
                    lambda r: 2.0 * (r > 0.5),
                    lambda r: 4.0 * np.minimum(r, 1.0 - r)):
        MappingDistribution.from_density(0.0, 1.0, density)
    for density in (lambda r: 2.0 * np.ones_like(r),
                    lambda r: -np.ones_like(r),
                    lambda r: np.where(np.abs(r - 0.5) < 0.1, -1.0, 1.0),
                    lambda r: np.full_like(r, 1e308)):
        with pytest.raises(InvalidDistribution):
            MappingDistribution.from_density(0.0, 1.0, density)
    # the CDF grid of a density with no mass on it, or past float range,
    # is refused without a warning, also where nothing checks the integral
    for density in (np.zeros_like, lambda r: np.full_like(r, 1e308)):
        with pytest.raises(InvalidDistribution):
            MappingDistribution(0.0, 1.0, density=density)


@pytest.mark.parametrize("lo, hi, density", [
    (0.0, 1.0, None),
    (-2.0, 5.0, None),
    (0.0, 1.0, lambda r: 2.0 * r),
    (0.0, 1.0, lambda r: 2.0 * (r > 0.5)),
    (-1.0, 3.0, lambda r: np.exp(-r) / (np.exp(1.0) - np.exp(-3.0))),
], ids=["uniform", "uniform_shifted", "ramp", "step", "exp"])
def test_cdf_grid_is_scipys_cumulative_trapezoid(lo, hi, density):
    from scipy import integrate
    dist = (MappingDistribution.uniform(lo, hi) if density is None
            else MappingDistribution.from_density(lo, hi, density))
    xs = np.linspace(lo, hi, dist._xs.size)
    vals = (np.full_like(xs, 1.0 / (hi - lo)) if density is None
            else np.asarray(density(xs), dtype=float))
    want = integrate.cumulative_trapezoid(vals, xs, initial=0.0)
    assert np.array_equal(dist._cdf_grid, want / want[-1])


def _ks_branch_is_ported(n, d):
    """Whether scipy's _kolmogn reaches a branch that _kolmogorov_sf ports
    line for line at (n, d): every branch but twice the Smirnov tail,
    which scipy computes in C, and Pomeranz's recursion, for which the
    port takes Durbin's matrix."""
    t = n * d
    if d >= 1.0 or d <= 0.0 or t <= 1.0 or t >= n - 1:
        return True
    if d >= 0.5:
        return False
    if n <= 140:
        return t * d <= 0.754693
    return not 2.2 <= t * d < 370.0


def _ks_grid():
    # t = n d at and below 1/2 and 1 and from n - 1 up, n d**2 on both
    # sides of every threshold of scipy's branch choice, d from 1/2 up,
    # and, up to n = 1000, seeded draws of n d**2 below 20
    rng = np.random.default_rng(2011)
    for n in (1, 2, 5, 30, 140, 141, 1000, 100_000, 100_001, 1_000_000):
        ts = [0.3, 0.5, 0.75, 1.0, n - 1.0, n - 0.5]
        if n <= 140:
            nd2 = [0.754, 0.754693, 0.7548, 3.99, 4.0, 4.01, 18.0]
        else:
            nd2 = [2.19, 2.2, 2.21, 18.0, 369.0, 370.0, 371.0]
        ds = ([t / n for t in ts] + [math.sqrt(v / n) for v in nd2]
              + [0.5, 0.5 + 0.5 / n, 0.75])
        if n <= 1000:
            ds += list(np.sqrt(rng.uniform(0.0, 20.0, 4) / n))
        for d in ds:
            if 0.0 < d < 1.0:
                yield n, float(d)


@pytest.mark.parametrize("n, d", list(_ks_grid()))
def test_kolmogorov_sf_matches_kstwo(n, d):
    from scipy import stats
    got = float(_kolmogorov_sf(n, np.float64(d)))
    want = float(stats.kstwo.sf(d, n))
    if _ks_branch_is_ported(n, d):
        assert got == want
    elif want < np.finfo(float).tiny:
        # below the normal range scipy's C sum loses bits: at n = 100000,
        # n d**2 = 369 it gives 1.56e-321 where the exact sum, in 60-digit
        # arithmetic, is 1.6235e-321 and this port 1.625e-321
        assert got == pytest.approx(want, rel=0.1, abs=0.0)
    else:
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 30, 140, 141, 1000, 100_000])
def test_ks_uniform_matches_kstest(n):
    from scipy import stats
    rng = np.random.default_rng(n)
    samples = [rng.uniform(-2.0, 5.0, n),
               rng.uniform(-2.0, 3.0, n),           # too few above 3
               np.round(rng.uniform(-3.0, 6.0, n))]  # ties, and some outside
    for x in samples:
        stat, pvalue = _ks_uniform(x, -2.0, 5.0)
        want = stats.kstest(x, stats.uniform(loc=-2.0, scale=7.0).cdf)
        assert stat == float(want.statistic)
        if _ks_branch_is_ported(n, stat):
            assert pvalue == float(want.pvalue)
        else:
            assert pvalue == pytest.approx(float(want.pvalue), rel=1e-10, abs=0.0)


def _one_shot_ks_statistic(images, lo, hi):
    cdf = np.clip((np.sort(images) - lo) / (hi - lo), 0.0, 1.0)
    n = images.size
    steps = np.arange(0.0, n + 1) / n
    return max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max())


@pytest.mark.parametrize("block", [1, 7, intermediate_set._BLOCK])
@pytest.mark.parametrize("n", [1, 2, 8191, 8193, 20000])
def test_ks_statistic_bits_do_not_depend_on_the_block(monkeypatch, n, block):
    monkeypatch.setattr(intermediate_set, "_BLOCK", block)
    rng = np.random.default_rng(n)
    for x in (rng.uniform(-2.0, 5.0, n), rng.uniform(-2.0, 3.0, n),
              np.round(rng.uniform(-3.0, 6.0, n))):
        got = _ks_statistic(x, -2.0, 5.0)
        assert got == _one_shot_ks_statistic(x, -2.0, 5.0)


def test_support_width_must_be_finite():
    with pytest.raises(InvalidDistribution):
        MappingDistribution.uniform(-1e308, 1e308)
    with pytest.raises(InvalidDistribution):
        MappingDistribution.from_density(-1e308, 1e308, lambda r: np.zeros_like(r))


def test_unit_set_index_is_floor():
    assert unit_set_counts(np.array([3.7])) == {3: 1}
    assert unit_set_counts(np.array([-0.2])) == {-1: 1}
    assert unit_set_counts(np.array([5.0])) == {5: 1}
    assert unit_set_counts(np.array([-0.0])) == {0: 1}
    assert unit_set_counts(np.empty(0)) == {}


def test_unit_set_counts_partitions():
    ns = np.concatenate([0.1 * np.arange(40), 0.37 * np.arange(30) - 3.0,
                         [-1.0, -0.5, -1e6 - 0.5]])
    counts = unit_set_counts(ns)
    assert counts == collections.Counter(math.floor(n) for n in ns.tolist())
    assert list(counts) == sorted(counts)
    assert all(type(idx) is int and type(size) is int
               for idx, size in counts.items())
    assert sum(counts.values()) == ns.size


@pytest.mark.parametrize("block", [1, 7, intermediate_set._BLOCK])
def test_unit_set_counts_match_unique(monkeypatch, block):
    monkeypatch.setattr(intermediate_set, "_BLOCK", block)
    rng = np.random.default_rng(3)
    # unsorted, with sets that recur across blocks, and a sorted population
    for ns in (rng.uniform(-40.0, 60.0, 20000), np.arange(20000) * 7 / 20000):
        ids, sizes = np.unique(np.floor(ns), return_counts=True)
        counts = unit_set_counts(ns)
        assert list(counts.items()) == list(zip(ids.astype(int).tolist(),
                                                sizes.tolist()))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_realize_replay_property(n, seed):
    dist = MappingDistribution.uniform(0.0, 1.0)
    a = realize_images(np.array([n]), dist, seed=seed)
    b = realize_images(np.array([n]), dist, seed=seed)
    assert np.array_equal(a, b)
    assert unit_set_counts(np.array([n])) == {math.floor(n): 1}
