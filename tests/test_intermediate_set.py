import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardpath.errors import AlreadyRealized, InvalidDistribution
from cardpath.intermediate_set import (IntermediatePoint, MappingDistribution,
                                       UnitSet, _uniforms, collect_unit_sets,
                                       realize_mapping, realize_population,
                                       unit_set_of)

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
    with pytest.raises(ValueError):
        IntermediatePoint(n=float("nan"))
    with pytest.raises(ValueError):
        IntermediatePoint(n=float("inf"))


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


def test_realize_mapping_is_the_one_point_case():
    # a non-uniform density also checks that the array inverse CDF of the
    # population gives the bits of the scalar one of a single point
    dist = MappingDistribution.from_density(0.0, 1.0, lambda r: 2.0 * r)
    pts = [IntermediatePoint(n=n) for n in EDGE_NS + [0.25 * i for i in range(40)]]
    for seed in (0, 7, 2 ** 64 - 1):
        population = realize_population(pts, dist, seed)
        for pt, got in zip(pts, population):
            assert got.n == pt.n
            assert realize_mapping(pt, dist, seed).image == got.image
            assert got.image == float(dist.inverse_cdf(reference_uniform(pt.n, seed)))


def test_realize_population_refuses_realized_points():
    dist = MappingDistribution.uniform(0.0, 1.0)
    done = realize_mapping(IntermediatePoint(n=2.0), dist, seed=1)
    with pytest.raises(AlreadyRealized):
        realize_population([IntermediatePoint(n=1.0), done], dist, seed=1)


def test_realize_is_deterministic_and_one_shot():
    pt = IntermediatePoint(n=3.25)
    dist = MappingDistribution.uniform(0.0, 1.0)
    r1 = realize_mapping(pt, dist, seed=42)
    r2 = realize_mapping(pt, dist, seed=42)
    assert r1.image == r2.image
    assert 0.0 <= r1.image <= 1.0
    with pytest.raises(AlreadyRealized):
        realize_mapping(r1, dist, seed=42)


def test_distinct_points_draw_independently():
    dist = MappingDistribution.uniform(0.0, 1.0)
    images = [realize_mapping(IntermediatePoint(n=float(i)), dist, seed=0).image
              for i in range(50)]
    assert len(set(images)) == 50


def test_realization_order_does_not_matter():
    dist = MappingDistribution.uniform(-2.0, 5.0)
    pts = [IntermediatePoint(n=0.5 * i) for i in range(20)]
    fwd = realize_population(pts, dist, seed=9)
    rev = realize_population(list(reversed(pts)), dist, seed=9)
    assert {p.n: p.image for p in fwd} == {p.n: p.image for p in rev}


def test_seed_changes_the_draw():
    pt = IntermediatePoint(n=1.0)
    dist = MappingDistribution.uniform(0.0, 1.0)
    a = realize_mapping(pt, dist, seed=1).image
    b = realize_mapping(pt, dist, seed=2).image
    assert a != b


def test_point_mass_distribution_is_degenerate():
    dist = MappingDistribution.point_mass(0.75)
    imgs = {realize_mapping(IntermediatePoint(n=float(i)), dist, seed=i).image
            for i in range(10)}
    assert imgs == {0.75}


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


def test_support_width_must_be_finite():
    with pytest.raises(InvalidDistribution):
        MappingDistribution.uniform(-1e308, 1e308)
    with pytest.raises(InvalidDistribution):
        MappingDistribution.from_density(-1e308, 1e308, lambda r: np.zeros_like(r))


def test_unit_set_index_is_floor():
    assert unit_set_of(IntermediatePoint(n=3.7)) == 3
    assert unit_set_of(IntermediatePoint(n=-0.2)) == -1
    assert unit_set_of(IntermediatePoint(n=5.0)) == 5


def test_unit_set_membership_validated():
    good = IntermediatePoint(n=2.5)
    with pytest.raises(ValueError):
        UnitSet(index=3, members=(good,))


def test_collect_unit_sets_partitions():
    pts = [IntermediatePoint(n=0.1 * i) for i in range(40)]
    sets = collect_unit_sets(pts)
    assert sorted(sets) == [0, 1, 2, 3]
    total = sum(len(us.members) for us in sets.values())
    assert total == 40
    for idx, us in sets.items():
        assert all(math.floor(m.n) == idx for m in us.members)


def test_collect_unit_sets_floors_each_n_once():
    floors = []

    class Counted(float):
        def __floor__(self):
            floors.append(float(self))
            return math.floor(float(self))

    pts = [IntermediatePoint(n=Counted(0.37 * i - 3.0)) for i in range(30)]
    sets = collect_unit_sets(pts)
    assert sorted(floors) == sorted(float(pt.n) for pt in pts)
    # the same sets as the checked constructor builds, in the same order
    for idx, us in sets.items():
        assert us == UnitSet(idx, us.members)
    assert list(sets) == sorted(sets)
    assert [pt for us in sets.values() for pt in us.members] == sorted(
        pts, key=lambda pt: math.floor(float(pt.n)))


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
       st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_realize_replay_property(n, seed):
    dist = MappingDistribution.uniform(0.0, 1.0)
    pt = IntermediatePoint(n=n)
    a = realize_mapping(pt, dist, seed=seed)
    b = realize_mapping(pt, dist, seed=seed)
    assert a.image == b.image
    assert unit_set_of(pt) == math.floor(n)
