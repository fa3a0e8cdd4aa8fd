import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardpath.amplitude import WaveSample
from cardpath.errors import (CardpathError, GridMismatch, InvalidParameter,
                             NonpositiveUnit, ZeroDenominator)
from cardpath.lattice import (LagrangianSpec, LatticePath, SpaceGrid, TimeGrid,
                              discretized_action, free_particle,
                              harmonic_oscillator, linear_potential,
                              path_probability_product, transition_ratio,
                              winding_of)


def test_time_grid_basics():
    grid = TimeGrid(0.0, 2.0, 4)
    assert grid.epsilon == 0.5
    assert grid.duration == 2.0
    assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert np.allclose(grid.midpoint_times(), [0.25, 0.75, 1.25, 1.75])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 3)


_NOT_FINITE = (math.nan, math.inf, -math.inf)


def _refused(make):
    with pytest.raises(InvalidParameter) as info:
        make()
    assert isinstance(info.value, CardpathError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_time_grid_refuses_non_finite(bad):
    _refused(lambda: TimeGrid(bad, 1.0, 4))
    _refused(lambda: TimeGrid(0.0, bad, 4))
    _refused(lambda: TimeGrid(0.0, 1.0, bad))
    _refused(lambda: TimeGrid(-1e308, 1e308, 4))  # the duration overflows


@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_space_grid_refuses_non_finite(bad):
    _refused(lambda: SpaceGrid(bad, 1.0, 5))
    _refused(lambda: SpaceGrid(-1.0, bad, 5))
    _refused(lambda: SpaceGrid(-1.0, 1.0, bad))
    _refused(lambda: SpaceGrid(-1e308, 1e308, 5))  # the width overflows


@pytest.mark.parametrize("bad", _NOT_FINITE + (0.0, -1.0))
def test_lagrangian_refuses_bad_mass(bad):
    _refused(lambda: LagrangianSpec(mass=bad, potential=lambda r, t: r))
    _refused(lambda: free_particle(mass=bad))
    _refused(lambda: harmonic_oscillator(mass=bad))


def test_grids_refuse_non_positive_or_fractional_sizes():
    _refused(lambda: TimeGrid(0.0, 1.0, 0))
    _refused(lambda: TimeGrid(0.0, 1.0, 2.5))
    _refused(lambda: SpaceGrid(-1.0, 1.0, 20.5))
    _refused(lambda: TimeGrid(0.0, 1.0, -3))
    _refused(lambda: TimeGrid(1.0, 0.0, 3))
    _refused(lambda: SpaceGrid(-1.0, 1.0, 1))
    _refused(lambda: SpaceGrid(-1.0, 1.0, -5))
    _refused(lambda: SpaceGrid(1.0, -1.0, 5))


def test_paths_and_products_refuse_fewer_than_two_entries():
    _refused(lambda: LatticePath((0.0,)))
    _refused(lambda: path_probability_product([WaveSample(1.0, 0.0)]))


def test_space_grid_nearest_index_clips():
    grid = SpaceGrid(-1.0, 1.0, 5)
    assert grid.dx == 0.5
    assert grid.nearest_index(0.0) == 2
    assert grid.nearest_index(0.24) == 2
    assert grid.nearest_index(0.26) == 3
    assert grid.nearest_index(-9.0) == 0
    assert grid.nearest_index(9.0) == 4


def test_straight_line_free_action_matches_closed_form():
    # S = m (b-a)^2 / (2T) for the straight line, any k
    m, a, b, T = 1.7, -0.3, 1.1, 2.0
    lag = free_particle(m)
    for k in (1, 2, 5, 16):
        grid = TimeGrid(0.0, T, k)
        path = LatticePath(tuple(np.linspace(a, b, k + 1)))
        S = discretized_action(path, grid, lag)
        assert math.isclose(S, m * (b - a) ** 2 / (2.0 * T), rel_tol=1e-12)


def test_action_riemann_sum_against_manual_loop():
    lag = harmonic_oscillator(mass=2.0, omega=1.3)
    grid = TimeGrid(0.5, 1.7, 6)
    rng = np.random.default_rng(3)
    r = rng.normal(size=7)
    path = LatticePath(tuple(r))
    eps = grid.epsilon
    expect = 0.0
    for i in range(1, 7):
        mid = 0.5 * (r[i] + r[i - 1])
        expect += (0.5 * 2.0 * ((r[i] - r[i - 1]) / eps) ** 2
                   - 0.5 * 2.0 * 1.3 ** 2 * mid * mid) * eps
    assert math.isclose(discretized_action(path, grid, lag), expect, rel_tol=1e-13)


def test_action_infinite_potential_is_nonfinite():
    def hard_wall(r, t):
        r = np.asarray(r, dtype=float)
        return np.where(np.abs(r) > 0.5, np.inf, 0.0)

    from cardpath.lattice import LagrangianSpec
    lag = LagrangianSpec(mass=1.0, potential=hard_wall, label="wall")
    grid = TimeGrid(0.0, 1.0, 2)
    inside = LatticePath((0.0, 0.1, 0.0))
    outside = LatticePath((0.0, 1.5, 0.0))
    assert math.isfinite(discretized_action(inside, grid, lag))
    assert not math.isfinite(discretized_action(outside, grid, lag))


def test_action_grid_mismatch():
    lag = free_particle()
    with pytest.raises(GridMismatch):
        discretized_action(LatticePath((0.0, 1.0)), TimeGrid(0.0, 1.0, 5), lag)


def test_time_dependent_potential_uses_midpoint_times():
    from cardpath.lattice import LagrangianSpec
    lag = LagrangianSpec(mass=1.0, potential=lambda r, t: t * np.ones_like(r),
                         time_dependent=True, label="ramp")
    grid = TimeGrid(0.0, 1.0, 4)
    path = LatticePath((0.0,) * 5)
    # S = -sum_i t_{i-1/2} * eps = -integral of t = -T^2/2
    assert math.isclose(discretized_action(path, grid, lag), -0.5, rel_tol=1e-13)


def test_winding_requires_positive_unit():
    assert winding_of(3.0, 2.0) == 1.5
    with pytest.raises(NonpositiveUnit):
        winding_of(1.0, 0.0)
    with pytest.raises(NonpositiveUnit):
        winding_of(1.0, -2.0)


def test_transition_ratio_ignores_winding():
    a = WaveSample(2.0, 0.37)
    b = WaveSample(3.0, 9.12)
    assert math.isclose(transition_ratio(a, b), 9.0 / 4.0, rel_tol=1e-12)
    with pytest.raises(ZeroDenominator):
        transition_ratio(WaveSample(0.0, 0.0), b)


@given(st.lists(st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
                min_size=2, max_size=12),
       st.data())
@settings(max_examples=150, deadline=None)
def test_probability_product_telescopes(mods, data):
    winds = [data.draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
             for _ in mods]
    samples = [WaveSample(A, n) for A, n in zip(mods, winds)]
    prod = path_probability_product(samples)
    expect = (mods[-1] / mods[0]) ** 2
    assert abs(prod - expect) <= 1e-10 * max(1.0, expect)


def test_linear_potential_derivative():
    lag = linear_potential(mass=1.0, g=2.5)
    assert float(lag.v(1.0, 0.0)) == 2.5
    assert float(lag.v_prime(4.0, 0.0)) == 2.5


def test_finite_difference_derivative_fallback():
    from cardpath.lattice import LagrangianSpec
    lag = LagrangianSpec(mass=1.0, potential=lambda r, t: np.sin(r), label="sin")
    got = float(lag.v_prime(0.7, 0.0))
    assert abs(got - math.cos(0.7)) < 1e-9


def test_potential_values_take_the_shape_of_r():
    # a scalar V or V' is spread over r's shape; an array of that shape is
    # passed through as it is, with no copy or view
    r = np.linspace(-1.0, 1.0, 5)
    flat = LagrangianSpec(mass=1.0, potential=lambda r, t: 2.0,
                          potential_deriv=lambda r, t: 0.0)
    assert flat.v(r, 0.0).tolist() == [2.0] * 5
    assert flat.v_prime(r[:, None], 0.0).shape == (5, 1)
    values = np.cos(r)
    lag = LagrangianSpec(mass=1.0, potential=lambda r, t: values,
                         potential_deriv=lambda r, t: values)
    assert lag.v(r, 0.0) is values
    assert lag.v_prime(r, 0.0) is values
    # the central difference of a scalar V is 0 at every r
    assert LagrangianSpec(mass=1.0, potential=lambda r, t: 2.0).v_prime(
        r, 0.0).tolist() == [0.0] * 5
