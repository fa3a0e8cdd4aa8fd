import math

import numpy as np
import pytest

from cardpath import classical_limit
from cardpath.classical_limit import (ConcentrationScan, action_gradient,
                                      classical_path, concentration_scan,
                                      finite_difference_action_gradient,
                                      packet_argmax_offset,
                                      slice_tube_fractions)
from cardpath.errors import CardpathError, NoConvergence
from cardpath.lattice import (LagrangianSpec, LatticePath, SpaceGrid, TimeGrid,
                              discretized_action, free_particle,
                              harmonic_oscillator, linear_potential)
from cardpath.oracles import shooting_euler_lagrange
from cardpath.propagator import (PropagatorConfig, Sweep, convergence_recipe,
                                 gaussian_window, propagate_transfer_matrix,
                                 step_matrix)


def test_free_stationary_path_is_straight():
    grid = TimeGrid(0.0, 2.0, 12)
    path = classical_path(free_particle(1.0), grid, -1.0, 2.0)
    expect = np.linspace(-1.0, 2.0, 13)
    assert np.max(np.abs(path.as_array() - expect)) < 1e-12


def test_linear_potential_path_solved_in_one_newton_step():
    grid = TimeGrid(0.0, 1.0, 10)
    lag = linear_potential(1.0, 2.0)
    path = classical_path(lag, grid, 0.0, 1.0)
    g = action_gradient(path, lag, grid)
    assert np.max(np.abs(g)) <= 1e-10


def test_newton_path_meets_gradient_tolerance():
    grid = TimeGrid(0.0, 1.0, 16)
    lag = harmonic_oscillator(1.0, 1.3)
    path = classical_path(lag, grid, 0.2, 1.1)
    g = action_gradient(path, lag, grid)
    assert np.max(np.abs(g)) <= 1e-10
    assert path.sites[0] == 0.2 and path.sites[-1] == 1.1


def test_newton_agrees_with_shooting_solver():
    grid = TimeGrid(0.0, 1.0, 16)
    lag = harmonic_oscillator(1.0, 1.0)
    newt = classical_path(lag, grid, 0.0, 1.0)
    shot = shooting_euler_lagrange(lag, 0.0, 1.0, grid)
    # the two discretizations differ at O(eps^2), far below a grid spacing
    assert np.max(np.abs(newt.as_array() - shot.as_array())) < 1e-3


def test_newton_no_convergence_when_starved(monkeypatch):
    monkeypatch.setattr(classical_limit, "_NEWTON_ITERATIONS", 0)
    grid = TimeGrid(0.0, 1.0, 8)
    with pytest.raises(NoConvergence):
        classical_path(harmonic_oscillator(1.0, 1.0), grid, 0.0, 1.0)


def test_tridiagonal_solve_matches_dense_solve():
    # seeded strictly diagonally dominant systems shaped like the Newton
    # Hessian of a convex V: about 2 m / eps on the diagonal and -m / eps
    # off it
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 17, 200):
        for _ in range(20):
            off = -10.0 + rng.uniform(-1.0, 1.0, n - 1)
            edges = np.abs(np.concatenate([[0.0], off, [0.0]]))
            diag = edges[:-1] + edges[1:] + rng.uniform(0.1, 4.0, n)
            rhs = rng.standard_normal(n)
            a = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            want = np.linalg.solve(a, rhs)
            got = classical_limit._tridiagonal_solve(diag, off, rhs)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("diag, off", [
    ([0.0, 2.0], [1.0]),  # the first pivot
    ([1.0, 1.0, 3.0], [1.0, 0.5]),  # 1 - 1 * 1 = 0 after one elimination
    ([1.0, math.nan], [0.5]),
    ([1e-300, 1.0], [1e10]),  # 1 - 1e320 is -inf
])
def test_tridiagonal_solve_refuses_a_zero_or_non_finite_pivot(diag, off):
    with pytest.raises(NoConvergence, match="pivot"):
        classical_limit._tridiagonal_solve(np.array(diag), np.array(off),
                                           np.ones(len(diag)))


def test_fd_gradient_matches_analytic_on_generic_path():
    grid = TimeGrid(0.0, 1.0, 8)
    lag = harmonic_oscillator(1.2, 0.9)
    rng = np.random.default_rng(2)
    r = np.linspace(0.0, 1.0, 9) + 0.3 * rng.normal(size=9)
    path = LatticePath(tuple(r))
    fd = finite_difference_action_gradient(path, lag, grid, dx=0.01)
    an = action_gradient(path, lag, grid)
    assert np.max(np.abs(fd - an)) < 1e-5 * max(1.0, float(np.max(np.abs(an))))


def test_fd_gradient_vanishes_at_stationary_path():
    grid = TimeGrid(0.0, 1.0, 16)
    lag = harmonic_oscillator(1.0, 1.0)
    path = classical_path(lag, grid, 0.0, 1.0)
    s_cl = abs(discretized_action(path, grid, lag))
    fd = finite_difference_action_gradient(path, lag, grid, dx=0.005)
    assert np.max(np.abs(fd)) <= 1e-6 * max(s_cl, 1.0)


def _fixed_cfg(k=6, sites=241):
    lag = free_particle(1.0)
    return PropagatorConfig(grid=TimeGrid(0.0, 1.0, k),
                            space=SpaceGrid(-2.0, 3.0, sites),
                            lag=lag, hbar=1.0, a=0.0, b=1.0)


def test_slice_fractions_are_fractions_and_grow_with_delta():
    evolve = Sweep(_fixed_cfg())
    centers = np.linspace(0.0, 1.0, 7)
    prev = None
    for delta in (0.1, 0.3, 1.0, 10.0):
        f = slice_tube_fractions(evolve, delta, centers, source_width=0.3)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)
        if prev is not None:
            assert np.all(f >= prev - 1e-12)
        prev = f
    # a tube covering the whole grid captures everything
    assert np.min(prev) > 0.999999


def test_slice_decomposition_sums_to_kernel_everywhere():
    cfg = _fixed_cfg()
    k = cfg.grid.k
    x = cfg.space.points()
    sw = 0.3
    p = cfg.lag.mass * (cfg.b - cfg.a) / cfg.grid.duration
    whole = propagate_transfer_matrix(cfg, source_width=sw).value.to_complex()
    wa = gaussian_window(x, cfg.a, sw, p, cfg.hbar)
    wb = gaussian_window(x, cfg.b, sw, p, cfg.hbar)
    Tm = step_matrix(cfg, 1)
    fwd = [wa]
    for _ in range(k):
        fwd.append(Tm @ fwd[-1])
    bwd = [np.conj(wb)]
    for _ in range(k):
        bwd.append(Tm @ bwd[-1])
    for i in range(k + 1):
        through = complex(np.sum(fwd[i] * bwd[k - i]) * cfg.space.dx)
        assert abs(through - whole) <= 1e-12 * abs(whole)


def test_slice_fractions_input_validation():
    with pytest.raises(ValueError):
        slice_tube_fractions(Sweep(_fixed_cfg()), 0.2, [0.0, 1.0],
                             source_width=0.3)
    with pytest.raises(ValueError):
        slice_tube_fractions(Sweep(_fixed_cfg(k=1)), 0.2, [0.0, 1.0],
                             source_width=0.3)


def test_slice_fractions_refuse_an_underflowed_mass_or_an_empty_tube():
    evolve = Sweep(_fixed_cfg())
    centers = np.linspace(0.0, 1.0, 7)
    # windows 1e154 wide peak at 4e-155: every product fwd * bwd underflows
    with pytest.raises(NoConvergence, match="underflows"):
        slice_tube_fractions(evolve, 0.2, centers, source_width=1e154)
    # the centers i / 6 are sites of the grid, of spacing 1/48: tubes of
    # half-width 1e-3 hold one site each, and none when moved by 1e-2
    with pytest.raises(NoConvergence, match="holds no site"):
        slice_tube_fractions(evolve, 1e-3, centers + 1e-2, source_width=0.3)
    assert np.all(slice_tube_fractions(evolve, 1e-3, centers,
                                       source_width=0.3) > 0.0)


def test_packet_offset_refuses_an_underflowed_peak():
    # a mass of 1e-308 spreads the packet to 7e153: |psi|^2 underflows to
    # 0 everywhere, where argmax would read site 0
    lag = free_particle(1e-308)
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 6),
                           space=SpaceGrid(-2.0, 3.0, 241),
                           lag=lag, hbar=1.0, a=0.0, b=1.0)
    path = classical_path(lag, cfg.grid, 0.0, 1.0)
    with pytest.raises(NoConvergence, match="underflows"):
        packet_argmax_offset(Sweep(cfg), path)


def test_bad_arguments_are_cardpath_errors():
    cfg = _fixed_cfg()
    td = LagrangianSpec(mass=1.0, potential=lambda r, t: r * t,
                        time_dependent=True)
    refusals = [
        lambda: action_gradient(LatticePath((0.0, 1.0)), cfg.lag, cfg.grid),
        lambda: slice_tube_fractions(Sweep(cfg), 0.2, [0.0, 1.0],
                                     source_width=0.3),
        lambda: slice_tube_fractions(Sweep(_fixed_cfg(k=1)), 0.2, [0.0, 1.0],
                                     source_width=0.3),
        lambda: slice_tube_fractions(
            Sweep(PropagatorConfig(grid=cfg.grid, space=cfg.space, lag=td,
                                   hbar=1.0, a=0.0, b=1.0)),
            0.2, np.linspace(0.0, 1.0, 7), source_width=0.3),
        lambda: ConcentrationScan(hbar_values=(1.0,), delta=0.1,
                                  mass_fraction=(1.5,),
                                  classical_path=LatticePath((0.0, 1.0)),
                                  m_scale=(1.0,), argmax_offset=(0.0,),
                                  dx_values=(0.1,)),
    ]
    for refuse in refusals:
        with pytest.raises(CardpathError):
            refuse()


def test_concentration_scan_small():
    scan = concentration_scan(free_particle(1.0), 1.0, 0.0, 1.0,
                              [1.0, 0.25], 0.2, k=6)
    assert scan.hbar_values == (1.0, 0.25)
    assert all(0.0 <= f <= 1.0 for f in scan.mass_fraction)
    assert scan.mass_fraction[1] > scan.mass_fraction[0]
    # free particle: S_cl = (b-a)^2/(2T) = 0.5
    assert math.isclose(scan.m_scale[0], 0.5 / (2.0 * math.pi), rel_tol=1e-12)
    assert math.isclose(scan.m_scale[1], scan.m_scale[0] * 4.0, rel_tol=1e-12)
    assert scan.classical_path.sites[0] == 0.0
    assert scan.classical_path.sites[-1] == 1.0
    assert all(off < 2.0 * dx for off, dx in zip(scan.argmax_offset,
                                                 scan.dx_values))


def test_scan_invariant_rejects_out_of_range_fraction():
    with pytest.raises(ValueError):
        ConcentrationScan(hbar_values=(1.0,), delta=0.1, mass_fraction=(1.5,),
                          classical_path=LatticePath((0.0, 1.0)),
                          m_scale=(1.0,), argmax_offset=(0.0,),
                          dx_values=(0.1,))


def test_mass_sweep_equals_hbar_sweep():
    # scaling mass by c at fixed hbar builds the same step matrices as
    # scaling hbar by 1/c at fixed mass, so the fractions match exactly
    f_mass = concentration_scan(free_particle(4.0), 1.0, 0.0, 1.0,
                                [1.0], 0.2, k=6).mass_fraction[0]
    f_hbar = concentration_scan(free_particle(1.0), 1.0, 0.0, 1.0,
                                [0.25], 0.2, k=6).mass_fraction[0]
    assert abs(f_mass - f_hbar) < 1e-13


def test_packet_lands_on_target():
    # the harmonic packet must be aimed with the potential's own launch
    # momentum: the free one, m(b-a)/T, lands it near sin(1), not b = 1
    for lag, hbar, k in ((free_particle(1.0), 0.25, 8),
                         (harmonic_oscillator(1.0, 1.0), 0.0625, 16)):
        grid, space, _ = convergence_recipe(lag, hbar, 1.0, 0.0, 1.0, k=k)
        cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=hbar,
                               a=0.0, b=1.0)
        path = classical_path(lag, grid, 0.0, 1.0)
        off = packet_argmax_offset(Sweep(cfg), path)
        assert off <= 2.0 * space.dx, lag.label

