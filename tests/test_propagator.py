import cmath
import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardpath import propagator
from cardpath.classical_limit import (classical_path, concentration_scan,
                                      packet_argmax_offset,
                                      slice_tube_fractions)
from cardpath.errors import (CardpathError, GridMismatch, InvalidParameter,
                             TooLarge, UnboundedPotential)
from cardpath.lattice import (LagrangianSpec, SpaceGrid, TimeGrid,
                              free_particle, harmonic_oscillator,
                              linear_potential)
from cardpath.oracles import (AnalyticKernel, analytic_propagator,
                              euclidean_harmonic_kernel, naive_enumeration)
from cardpath.propagator import (PropagatorConfig, Sweep, compose,
                                 convergence_recipe, gaussian_window,
                                 propagate_enumerate,
                                 propagate_monte_carlo_euclidean,
                                 propagate_transfer_matrix, site_count,
                                 step_matrix)


def _small_cfg(lag=None, k=4, sites=7, hbar=1.0, a=-0.3, b=0.4):
    return PropagatorConfig(grid=TimeGrid(0.0, 1.0, k),
                            space=SpaceGrid(-1.0, 1.0, sites),
                            lag=lag or free_particle(), hbar=hbar, a=a, b=b)


# on [-1, 1] with 41 sites dx is 0.05, so -1.02 lies 0.4 dx below the grid
# and snaps to its edge, while 5 and -7 lie far outside it
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0,
                                 5.0, -7.0, -1.02])
def test_config_refuses_bad_hbar_and_endpoints(bad):
    cfg = _small_cfg(sites=41)
    half = 0.5 * cfg.space.dx
    on_grid = -1.0 - half <= bad <= 1.0 + half
    for field, ok in (("hbar", 0.0 < bad < math.inf), ("a", on_grid),
                      ("b", on_grid)):
        args = {"hbar": 1.0, "a": 0.0, "b": 0.5, field: bad}
        if ok:
            PropagatorConfig(grid=cfg.grid, space=cfg.space, lag=cfg.lag, **args)
            continue
        with pytest.raises(InvalidParameter) as info:
            PropagatorConfig(grid=cfg.grid, space=cfg.space, lag=cfg.lag, **args)
        assert isinstance(info.value, CardpathError), field
        assert isinstance(info.value, ValueError), field


def test_norm_per_step_value():
    cfg = _small_cfg(k=4)
    norm = cfg.norm_per_step
    eps = 0.25
    assert math.isclose(abs(norm), math.sqrt(1.0 / (2.0 * math.pi * eps)),
                        rel_tol=1e-14)
    assert math.isclose(cmath.phase(norm), -math.pi / 4.0, rel_tol=1e-12)


def test_transfer_matrix_equals_enumeration():
    rng = np.random.default_rng(20)
    lags = [free_particle(1.0), harmonic_oscillator(1.0, 1.2),
            linear_potential(1.0, 0.8)]
    for trial in range(9):
        lag = lags[trial % 3]
        k = int(rng.integers(1, 6))
        sites = int(rng.integers(3, 9))
        hbar = float(rng.uniform(0.5, 2.0))
        a, b = rng.uniform(-0.9, 0.9, size=2)
        cfg = _small_cfg(lag, k=k, sites=sites, hbar=hbar, a=a, b=b)
        ke = propagate_enumerate(cfg).value.to_complex()
        kt = propagate_transfer_matrix(cfg).value.to_complex()
        scale = max(abs(ke), 1e-30)
        assert abs(ke - kt) / scale < 1e-12, (trial, k, sites)


def test_transfer_matrix_equals_naive_oracle():
    for lag, k, sites in ((free_particle(), 3, 6),
                          (harmonic_oscillator(1.0, 0.7), 4, 5),
                          (linear_potential(1.0, 1.1), 2, 9)):
        cfg = _small_cfg(lag, k=k, sites=sites)
        kt = propagate_transfer_matrix(cfg).value.to_complex()
        kn = naive_enumeration(cfg).to_complex()
        assert abs(kt - kn) / abs(kn) < 1e-12


def test_single_step_kernel_in_closed_form():
    cfg = _small_cfg(k=1, sites=5, a=-0.5, b=0.5)
    got = propagate_transfer_matrix(cfg).value.to_complex()
    norm = cmath.sqrt(1.0 / (2j * math.pi))
    expect = norm * cmath.exp(1j * 0.5)  # S = (1.0)^2 / 2
    assert abs(got - expect) < 1e-14


def _walled(r, t):
    # walls off any grid midpoint, where rounding would decide the side
    r = np.asarray(r, dtype=float)
    return np.where(np.abs(r) > 0.605, np.inf, 0.0)


def _direct_step_matrix(cfg, step_index):
    # T[j', j] = norm * dx * e^{i S_step / hbar}, one exponential per entry
    x = cfg.space.points()
    eps = cfg.grid.epsilon
    t_mid = cfg.grid.t_a + (step_index - 0.5) * eps
    dr = x[:, None] - x[None, :]
    S = 0.5 * cfg.lag.mass * dr * dr / eps \
        - eps * cfg.lag.v(0.5 * (x[:, None] + x[None, :]), t_mid)
    out = np.zeros(S.shape, dtype=complex)
    ok = np.isfinite(S)
    out[ok] = cfg.norm_per_step * cfg.space.dx * np.exp(1j * S[ok] / cfg.hbar)
    return out


def test_step_matrix_is_symmetric():
    # the Toeplitz build is exactly symmetric and matches the direct N^2
    # formula, one exponential per entry
    td = LagrangianSpec(mass=1.3, time_dependent=True, label="td",
                        potential=lambda r, t: 0.4 * r * r + np.sin(3.0 * t))
    quartic = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.1 * r ** 4)
    walled = LagrangianSpec(mass=1.0, potential=_walled, label="box")
    for lag in (free_particle(), harmonic_oscillator(1.0, 1.5), td, quartic,
                walled):
        for sites, hbar in ((20, 1.0), (101, 0.3)):
            cfg = _small_cfg(lag, k=3, sites=sites, hbar=hbar)
            Tm = step_matrix(cfg, 2)
            assert np.array_equal(Tm, Tm.T)
            direct = _direct_step_matrix(cfg, 2)
            assert np.array_equal(Tm == 0, direct == 0)
            assert np.max(np.abs(Tm - direct)) <= 1e-12 * np.max(np.abs(direct))


def _count_builds(monkeypatch):
    # the engine's dense builds: _step hands the step factor the V it has
    # read, while step_matrix, _dense_sweep's reference, and the
    # enumeration read their own
    builds = []
    factor = propagator._step_factor

    def counted(cfg, step_index, *args, v=None):
        if v is not None:
            builds.append(step_index)
        return factor(cfg, step_index, *args, v=v)

    monkeypatch.setattr(propagator, "_step_factor", counted)
    return builds


def _dense_sweep(cfg, psi):
    for i in range(1, cfg.grid.k + 1):
        psi = step_matrix(cfg, i) @ psi
    return psi


def test_fft_step_matches_dense_sweep(monkeypatch):
    builds = _count_builds(monkeypatch)
    rng = np.random.default_rng(44)
    for trial in range(40):
        mass = float(rng.uniform(0.5, 2.0))
        omega = float(rng.uniform(0.0, 2.0))
        c1 = float(rng.uniform(-1.0, 1.0))
        amp = float(rng.uniform(0.0, 1.0)) if trial % 2 else 0.0

        def v(r, t, mass=mass, omega=omega, c1=c1, amp=amp):
            return 0.5 * mass * omega ** 2 * r * r + c1 * r + amp * np.sin(3.0 * t)

        lag = LagrangianSpec(mass=mass, potential=v, time_dependent=amp > 0.0)
        lo, hi = float(rng.uniform(-2.0, -0.5)), float(rng.uniform(0.5, 2.0))
        cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, int(rng.integers(1, 7))),
                               space=SpaceGrid(lo, hi, int(rng.integers(2, 80))),
                               lag=lag, hbar=float(rng.uniform(0.3, 2.0)),
                               a=0.0, b=0.0)
        x = cfg.space.points()
        if trial % 4 < 2:
            psi = np.zeros(x.size, dtype=complex)
            psi[int(rng.integers(0, x.size))] = 1.0 / cfg.space.dx
        else:
            psi = gaussian_window(x, float(rng.uniform(lo, hi)), 0.3,
                                  float(rng.uniform(-2.0, 2.0)), cfg.hbar)
        got = Sweep(cfg)(psi)
        assert not builds, "a quadratic potential built a dense matrix"
        want = _dense_sweep(cfg, psi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), trial


def test_non_quadratic_potentials_take_the_dense_path(monkeypatch):
    # a hard wall makes the Hankel factor an indicator, of full rank, so a
    # walled V keeps the dense matrix; a finite non-quadratic V takes the
    # low-rank FFT step (test_low_rank_step_matches_dense_sweep)
    builds = _count_builds(monkeypatch)
    walled = LagrangianSpec(mass=1.0, potential=_walled, label="box")
    cfg = _small_cfg(walled, k=4, sites=40)
    psi = gaussian_window(cfg.space.points(), 0.0, 0.3, 0.5, 1.0)
    assert np.array_equal(Sweep(cfg)(psi), _dense_sweep(cfg, psi))
    assert len(builds) == 1


def _anharmonic_lags():
    quartic = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.1 * r ** 4,
                             label="quartic")
    double_well = LagrangianSpec(
        mass=1.0, potential=lambda r, t: 0.25 * (r * r - 1.0) ** 2,
        label="double well")
    td_quartic = LagrangianSpec(
        mass=1.0, time_dependent=True, label="td quartic",
        potential=lambda r, t: 0.1 * r ** 4 + 0.3 * np.sin(3.0 * t) * r ** 3)
    return quartic, double_well, td_quartic


def _localized_lags(space):
    # a Gaussian barrier 3 dx wide, 10 dx from the upper edge, and a finite
    # step over the first three midpoints: features in a corner of the
    # Hankel factor, which the pivots of ACA alone have missed
    lo, hi, dx = space.lo, space.hi, space.dx
    barrier = LagrangianSpec(
        mass=1.0, label="edge barrier", potential=lambda r, t: 0.1 * r ** 4
        + 5.0 * np.exp(-0.5 * ((r - (hi - 10.0 * dx)) / (3.0 * dx)) ** 2))
    step = LagrangianSpec(
        mass=1.0, label="corner step",
        potential=lambda r, t: 0.1 * r ** 4 + 5.0 * (r < lo + 1.25 * dx))
    return barrier, step


@pytest.mark.parametrize("hbar", [1.0, 0.25, 0.0625])
def test_low_rank_step_matches_dense_sweep(monkeypatch, hbar):
    # the gate that _ACA_TOL is tied to: on recipe grids of about 1,000
    # sites every step is a low-rank FFT step, and the sweep matches the
    # dense steps within 1e-12, max-norm relative; the cost rule would pick
    # the dense steps at these ranks, so it is lifted here
    builds = _count_builds(monkeypatch)
    monkeypatch.setattr(propagator, "_max_rank", lambda sites, size, applies: sites)
    rng = np.random.default_rng(int(1 / hbar))
    cases = []
    for lag in _anharmonic_lags():
        a = float(rng.uniform(-0.2, 0.2))
        b = a + float(rng.uniform(0.3, 0.7))
        cases.append((lag, a, b) + convergence_recipe(lag, hbar, 1.0, a, b, k=8))
    _, a, b, grid, space, width = cases[0]
    cases += [(lag, a, b, grid, space, width) for lag in _localized_lags(space)]
    for lag, a, b, grid, space, width in cases:
        cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=hbar,
                               a=a, b=b)
        psi = gaussian_window(space.points(), a, width, b - a, hbar)
        evolve = Sweep(cfg)
        assert 1 < evolve._first.rank < 100, lag.label
        got = evolve(psi)
        assert not builds, lag.label
        want = _dense_sweep(cfg, psi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), \
            lag.label


def test_cost_rule_caps_the_cross_approximation(monkeypatch):
    # ACA stops at the rank where the low-rank step would take longer than
    # the dense one: a V of high rank falls back to the dense matrix after
    # at most that many terms, while the quartic on a k = 24 recipe grid of
    # about 3,000 sites keeps a low-rank step
    import scipy.fft
    calls = []
    aca = propagator._aca

    def recorded(h, max_rank, size):
        calls.append((max_rank, size, aca(h, max_rank, size)))
        return calls[-1][2]

    monkeypatch.setattr(propagator, "_aca", recorded)
    builds = _count_builds(monkeypatch)
    steep = LagrangianSpec(mass=1.0, potential=lambda r, t: 5.0 * r ** 4,
                           label="steep quartic")
    grid, space, width = convergence_recipe(steep, 1.0, 1.0, 0.0, 0.5, k=8)
    cfg = PropagatorConfig(grid=grid, space=space, lag=steep, hbar=1.0,
                           a=0.0, b=0.5)
    psi = gaussian_window(space.points(), 0.0, width, 0.5, 1.0)
    got = Sweep(cfg)(psi)
    (cap, size, factors), = calls
    assert size == scipy.fft.next_fast_len(2 * space.sites - 1)
    assert cap == propagator._max_rank(space.sites, size, grid.k)
    assert factors is None and 0 < cap < space.sites // 20
    assert len(builds) == 1
    assert np.array_equal(got, _dense_sweep(cfg, psi))
    calls.clear()
    quartic = _anharmonic_lags()[0]
    grid, space, _ = convergence_recipe(quartic, 1.0, 1.0, 0.0, 0.5, k=24)
    op = propagator._step(PropagatorConfig(grid=grid, space=space, lag=quartic,
                                           hbar=1.0, a=0.0, b=0.5), 1)
    (cap, _, _), = calls
    assert 1 < op.rank < cap


def test_aca_skips_rows_that_are_already_exact():
    # H[i, j] = (-1)^(i + j) has rank 1: after the first term every other
    # row's residual is exactly 0, so no pivot is found in it
    import scipy.fft
    n = 50
    h = ((-1.0) ** np.arange(2 * n - 1)).astype(complex)
    u, v = propagator._aca(h, 20, scipy.fft.next_fast_len(2 * n - 1))
    assert len(u) == 1
    assert np.array_equal(u.T @ v, h[np.add.outer(np.arange(n), np.arange(n))])


def test_cost_rule_picks_dense_on_a_small_grid(monkeypatch):
    # on 12 sites any rank's cross approximation and products are measured
    # to take longer than the 12 x 12 matrix's build and products
    builds = _count_builds(monkeypatch)
    for lag in _anharmonic_lags():
        cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 4),
                               space=SpaceGrid(-3.0, 3.0, 12), lag=lag,
                               hbar=1.0, a=0.0, b=0.5)
        psi = gaussian_window(cfg.space.points(), 0.0, 0.8, 0.5, 1.0)
        builds.clear()
        assert np.array_equal(Sweep(cfg)(psi), _dense_sweep(cfg, psi))
        assert len(builds) == (4 if lag.time_dependent else 1), lag.label


def test_step_operator_guard_allocates_nothing(monkeypatch):
    # 20 million sites: the FFT path's arrays alone exceed the guard, so the
    # operator refuses before V is evaluated or any grid array is made
    def untouchable(*args):
        raise AssertionError("grid-sized work before the size guard")

    monkeypatch.setattr(SpaceGrid, "points", untouchable)
    for lag in (free_particle(), LagrangianSpec(mass=1.0, potential=untouchable)):
        cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 2),
                               space=SpaceGrid(-1.0, 1.0, 20_000_000),
                               lag=lag, hbar=1.0, a=0.0, b=0.5)
        with pytest.raises(TooLarge):
            Sweep(cfg)
        with pytest.raises(TooLarge):
            propagate_transfer_matrix(cfg)


def test_step_guard_refuses_an_astronomical_grid_at_once():
    # 10^300 sites pass SpaceGrid; the padded length's search, whose steps
    # grow as (log target)^4, is skipped past the guard, so the one size
    # check refuses the grid at once
    target = 2 * 10 ** 300 - 1
    assert propagator._fast_len(target) == 1 << (target - 1).bit_length()
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 2),
                           space=SpaceGrid(-1.0, 1.0, 10 ** 300),
                           lag=free_particle(), hbar=1.0, a=0.0, b=0.5)
    with pytest.raises(TooLarge):
        Sweep(cfg)


def _quadratic_lags():
    td = LagrangianSpec(mass=1.3, potential=lambda r, t: 0.4 * r * r - 0.2 * r
                        + 0.7 * np.sin(3.0 * t), time_dependent=True)
    return (free_particle(), harmonic_oscillator(1.0, 1.0), td)


def test_fft_apply_bits_match_out_of_place_formula():
    import scipy.fft
    rng = np.random.default_rng(61)
    for lag in _quadratic_lags():
        for sites in (2, 37, 500, 2986):
            cfg = _small_cfg(lag, k=3, sites=sites)
            for i in (1, 3):
                op = propagator._step(cfg, i)
                assert isinstance(op, propagator._FftStep)
                psi = rng.standard_normal(sites) + 1j * rng.standard_normal(sites)
                n, size = sites, op._work.size
                (u,), (v,) = op._u_out, op._v_in
                want = u * scipy.fft.ifft(
                    scipy.fft.fft(v * psi, size) * op._g_hat)[:n]
                assert np.array_equal(op @ psi, want), (lag.label, sites, i)
                # the buffer's padding is cleared on every call
                assert np.array_equal(op @ psi, want)


def test_rank_one_step_bits_match_hand_written_fft_apply():
    # T = scale * D * Toeplitz(g) * D from the module's formulas, applied
    # out of place with scipy.fft: the rank-r step at r = 1 gives the same
    # bits
    import scipy.fft
    rng = np.random.default_rng(62)
    for lag in _quadratic_lags():
        for sites in (2, 37, 2986):
            cfg = _small_cfg(lag, k=3, sites=sites)
            eps, hbar, dx = cfg.grid.epsilon, cfg.hbar, cfg.space.dx
            for i in (1, 3):
                op = propagator._step(cfg, i)
                assert op.rank == 1
                (c0, c1, c2), _ = propagator._quadratic_fit(
                    *propagator._midpoint_potential(cfg, i))
                size = scipy.fft.next_fast_len(2 * sites - 1)
                g = np.zeros(size, dtype=complex)
                d = dx * np.arange(sites)
                g[:sites] = np.exp(1j * (lag.mass / (2.0 * eps) + 0.25 * eps * c2)
                                   * d * d / hbar)
                g[size - sites + 1:] = g[sites - 1:0:-1]
                x = cfg.space.points()
                D = np.exp(-1j * eps * (0.5 * c2 * x + 0.5 * c1) * x / hbar)
                scale = cfg.norm_per_step * dx * np.exp(-1j * eps * c0 / hbar)
                psi = rng.standard_normal(sites) + 1j * rng.standard_normal(sites)
                want = (scale * D) * scipy.fft.ifft(
                    scipy.fft.fft(D * psi, size) * scipy.fft.fft(g))[:sites]
                assert np.array_equal(op @ psi, want), (lag.label, sites, i)


def test_sweep_keep_returns_distinct_arrays():
    for lag in _quadratic_lags()[:2]:
        cfg = _small_cfg(lag, k=5, sites=64)
        evolve = Sweep(cfg)
        psi = gaussian_window(cfg.space.points(), 0.0, 0.3, 0.5, 1.0)
        states = evolve(psi, keep=True)
        assert len(states) == cfg.grid.k + 1
        for j, s in enumerate(states):
            assert not np.shares_memory(s, evolve._first._work)
            for t in states[j + 1:]:
                assert not np.shares_memory(s, t)
        assert np.array_equal(states[-1], evolve(psi))


def _count_steps(monkeypatch):
    steps = []
    build = propagator._step

    def counted(cfg, step_index):
        steps.append(step_index)
        return build(cfg, step_index)

    monkeypatch.setattr(propagator, "_step", counted)
    return steps


def test_time_independent_sweep_builds_once(monkeypatch):
    # the forward and backward slice sweeps and the packet sweep of one
    # configuration share the one build that the Sweep made
    steps = _count_steps(monkeypatch)
    quartic = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.1 * r ** 4)
    for lag in (free_particle(), quartic):
        cfg = _small_cfg(lag, k=6, sites=64, a=0.0, b=0.5)
        path = classical_path(lag, cfg.grid, cfg.a, cfg.b)
        steps.clear()
        evolve = Sweep(cfg)
        slice_tube_fractions(evolve, 0.2, path.as_array(), source_width=0.3)
        packet_argmax_offset(evolve, path)
        assert steps == [1], lag.label
    steps.clear()
    concentration_scan(free_particle(), 1.0, 0.0, 1.0, [1.0, 0.5], 0.2, k=4)
    assert steps == [1, 1]


def test_time_dependent_sweep_builds_every_step(monkeypatch):
    # step 1 is the build the Sweep made; steps 2 .. k are built per call
    steps = _count_steps(monkeypatch)
    td = _quadratic_lags()[2]
    cfg = _small_cfg(td, k=4, sites=40)
    psi = gaussian_window(cfg.space.points(), 0.0, 0.3, 0.5, 1.0)
    evolve = Sweep(cfg)
    assert steps == [1]
    first = evolve(psi)
    assert steps == [1, 2, 3, 4]
    assert np.array_equal(evolve(psi), first)
    assert steps == [1, 2, 3, 4, 2, 3, 4]
    want = _dense_sweep(cfg, psi)
    assert np.max(np.abs(first - want)) <= 1e-12 * np.max(np.abs(want))


def test_fft_apply_allocates_no_padded_temporary():
    import tracemalloc
    cfg = _small_cfg(harmonic_oscillator(1.0, 1.0), k=2, sites=3000)
    op = propagator._step(cfg, 1)
    psi = gaussian_window(cfg.space.points(), 0.0, 0.3, 0.5, 1.0)
    op @ psi  # first call: anything numpy.fft sets up once per length
    tracemalloc.start()
    try:
        for _ in range(3):
            op @ psi
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the sites-long result only: one padded complex array alone is 16 L
    assert peak < 16 * op._work.size, peak


def test_aca_step_footprint(monkeypatch):
    # the k = 24 quartic's rank-r step scales ACA's factors in place and
    # transforms its rows in blocks through one work buffer of _ROW_BLOCK
    # rows: from the end of the cross approximation on, its build and three
    # products peak within _fft_bytes, the spare rows of ACA's two buffers
    # (the factors are their first r rows) and 16 sites-long temporaries.
    # Copied factors (2r rows) or an r x L work buffer would not fit.
    import tracemalloc
    aca = propagator._aca
    rows = []

    def then_reset_peak(*args):
        factors = aca(*args)
        rows.append(len(factors[0].base))
        tracemalloc.reset_peak()
        return factors

    monkeypatch.setattr(propagator, "_aca", then_reset_peak)
    quartic = _anharmonic_lags()[0]
    grid, space, _ = convergence_recipe(quartic, 1.0, 1.0, 0.0, 0.5, k=24)
    cfg = PropagatorConfig(grid=grid, space=space, lag=quartic, hbar=1.0,
                           a=0.0, b=0.5)
    psi = gaussian_window(space.points(), 0.0, 0.3, 0.5, 1.0)
    tracemalloc.start()
    try:
        op = propagator._step(cfg, 1)
        for _ in range(3):
            op @ psi
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, rank, size = space.sites, op.rank, propagator._fast_len(2 * space.sites - 1)
    assert rank > propagator._ROW_BLOCK
    spare = 32 * n * (rows[0] - rank)
    assert peak < propagator._fft_bytes(n, size, rank) + spare + 16 * 16 * n, peak


def test_site_count_guard():
    assert site_count(10.0) == 11
    assert site_count(10.2) == 12
    for bad in (math.inf, math.nan, 1e300, float(propagator._DENSE_GUARD)):
        with pytest.raises(TooLarge):
            site_count(bad)


def test_dense_step_matrix_guard():
    # refused from the site count alone, before anything is allocated
    space = SpaceGrid(-1.0, 1.0, 100_000)
    walled = LagrangianSpec(mass=1.0, potential=_walled, label="box")
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 1), space=space,
                           lag=walled, hbar=1.0, a=0.0, b=0.5)
    with pytest.raises(TooLarge):
        step_matrix(cfg, 1)
    with pytest.raises(TooLarge):
        propagate_transfer_matrix(cfg)
    # a finite potential on the same grid never needs the matrix: the
    # quadratic one takes the rank-1 FFT step, the quartic a low-rank one
    quartic = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.1 * r ** 4)
    for lag in (free_particle(), quartic):
        finite = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 1), space=space,
                                  lag=lag, hbar=1.0, a=0.0, b=0.5)
        value = propagate_transfer_matrix(finite).value.to_complex()
        assert math.isfinite(abs(value)), lag.label


def test_hard_wall_paths_drop_out_consistently():
    def walled(r, t):
        r = np.asarray(r, dtype=float)
        return np.where(np.abs(r) > 0.6, np.inf, 0.0)

    lag = LagrangianSpec(mass=1.0, potential=walled, label="box")
    cfg = _small_cfg(lag, k=4, sites=8, a=-0.3, b=0.3)
    ke = propagate_enumerate(cfg).value.to_complex()
    kt = propagate_transfer_matrix(cfg).value.to_complex()
    kn = naive_enumeration(cfg).to_complex()
    assert abs(ke - kt) / abs(ke) < 1e-12
    assert abs(ke - kn) / abs(ke) < 1e-12
    # the wall must actually remove weight relative to the free sum
    free_cfg = _small_cfg(free_particle(), k=4, sites=8, a=-0.3, b=0.3)
    assert abs(ke - propagate_enumerate(free_cfg).value.to_complex()) > 1e-6


@pytest.mark.parametrize("bad", [-math.inf, math.nan])
def test_potential_unbounded_below_or_undefined_is_refused(bad):
    # +inf is a wall, but V = -inf or NaN outside |r| <= 0.8 has no path
    # sum: the sweep, the enumeration and the naive oracle all refuse it
    lag = LagrangianSpec(mass=1.0, label="sink", potential=lambda r, t:
                         np.where(np.abs(r) > 0.8, bad, 0.0))
    cfg = _small_cfg(lag, k=3, sites=9, a=0.0, b=0.2)
    for run in (propagate_transfer_matrix, propagate_enumerate,
                naive_enumeration):
        with pytest.raises(UnboundedPotential):
            run(cfg)


def test_each_step_reads_the_potential_once():
    # V at the 2 sites - 1 midpoints, once per step: _step hands the V it
    # has read to the dense step, for a wall and under the cost rule, and
    # the enumeration takes each step's pair factors from it, from one
    # read for a time-independent V and one per step for a time-dependent
    # one
    calls = []

    def counted(v):
        def potential(r, t):
            calls.append(np.size(r))
            return v(r, t)
        return potential

    walled = LagrangianSpec(mass=1.0, potential=counted(_walled))
    quartic = LagrangianSpec(mass=1.0,
                             potential=counted(lambda r, t: 0.1 * r ** 4))
    for lag, sites in ((walled, 60), (quartic, 12)):
        calls.clear()
        assert isinstance(propagator._step(_small_cfg(lag, sites=sites), 1),
                          np.ndarray)
        assert calls == [2 * sites - 1]
    td = LagrangianSpec(mass=1.0, time_dependent=True,
                        potential=counted(lambda r, t: 0.1 * r ** 4 + t))
    for lag, want in ((quartic, [59]), (td, [59] * 4)):
        calls.clear()
        propagate_enumerate(_small_cfg(lag, k=4, sites=30))
        assert calls == want


def _at_zero(potential, hbar, t_b, k, sites, deriv=None):
    """a = b = 0 on sites points of [-1, 1], over [0, t_b] in k steps."""
    return PropagatorConfig(
        grid=TimeGrid(0.0, t_b, k), space=SpaceGrid(-1.0, 1.0, sites),
        lag=LagrangianSpec(mass=1.0, potential=potential,
                           potential_deriv=deriv),
        hbar=hbar, a=0.0, b=0.0)


def _wall_around(inside):
    return lambda r, t: np.where(np.abs(r) < 0.9, inside, np.inf)


def _huge(r, t):
    return 1e300 + 0.0 * r


_DRIFTED = {
    # the dense step's kinetic factor overflows
    "a": lambda: propagate_transfer_matrix(
        _at_zero(_wall_around(0.0), 1e-299, 1e-10, 2, 12)),
    # the dense step's potential factor overflows inside the wall
    "b": lambda: propagate_transfer_matrix(
        _at_zero(_wall_around(1e300), 1e-10, 1.0, 2, 12)),
    # a finite V whose fit leaves a rank too high for 12 sites: the dense
    # step's potential factor overflows
    "c": lambda: propagate_transfer_matrix(_at_zero(_huge, 1e-10, 1.0, 2, 12)),
    # the enumeration's potential phase overflows
    "d": lambda: propagate_enumerate(_at_zero(_huge, 1e-10, 1.0, 3, 5)),
    # the enumeration's kinetic phase overflows; the sweep refuses this
    # configuration in the FFT step's chirp
    "e": lambda: propagate_enumerate(
        _at_zero(lambda r, t: 0.0 * r, 1e-299, 1e-10, 3, 5)),
    # a scalar V and V' on the Newton path
    "f": lambda: classical_path(
        LagrangianSpec(mass=1.0, potential=lambda r, t: 0.0,
                       potential_deriv=lambda r, t: 0.0),
        TimeGrid(0.0, 1.0, 4), 0.0, 0.0),
}


@pytest.mark.parametrize("case", sorted(_DRIFTED))
def test_engines_share_the_phase_check_and_the_potential_shape(case):
    # (a)-(e) once returned NaN past a numpy overflow warning, and (f)
    # raised IndexError; every step factor's phase is now checked by one
    # rule, and V and V' take the shape of r
    if case == "f":
        assert _DRIFTED[case]().as_array().tolist() == [0.0] * 5
    else:
        with pytest.raises(InvalidParameter, match="phase is not finite"):
            _DRIFTED[case]()


def _digit_enumeration(cfg):
    """The pinned sum with every path's sites read off the mixed-radix
    digits of its index, all paths in one array: the per-chunk form that
    propagate_enumerate had before it evaluated each step on site pairs."""
    k, sites, eps = cfg.grid.k, cfg.space.sites, cfg.grid.epsilon
    x = cfg.space.points()
    idx = np.arange(sites ** (k - 1))
    pos = np.empty((idx.size, k + 1))
    pos[:, 0] = x[cfg.space.nearest_index(cfg.a)]
    pos[:, k] = x[cfg.space.nearest_index(cfg.b)]
    for d in range(k - 1):
        pos[:, 1 + d] = x[idx // sites ** d % sites]
    S = np.zeros(idx.size)
    for i, t in enumerate(cfg.grid.midpoint_times(), 1):
        drv = (pos[:, i] - pos[:, i - 1]) / eps
        vm = cfg.lag.v(0.5 * (pos[:, i] + pos[:, i - 1]), t)
        S += (0.5 * cfg.lag.mass * drv * drv - vm) * eps
    acc = np.sum(np.exp(1j * S[np.isfinite(S)] / cfg.hbar))
    return cfg.norm_per_step ** k * cfg.space.dx ** (k - 1) * acc


@pytest.mark.parametrize("chunk", [1, 40, propagator._ENUM_CHUNK])
def test_enumeration_blocks_match_digit_form_and_naive_oracle(monkeypatch, chunk):
    # chunk 1 and 40 force one or two broadcast sites and loop over the
    # rest; the default broadcasts every interior site of these grids
    monkeypatch.setattr(propagator, "_ENUM_CHUNK", chunk)
    td = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.5 * r * r
                        + 0.7 * np.sin(3.0 * t) + 0.3 * r * t,
                        time_dependent=True, label="td")
    walled = LagrangianSpec(mass=1.0, potential=_walled, label="box")
    for lag in (free_particle(), harmonic_oscillator(1.0, 1.3), td, walled):
        for k in (1, 2, 3, 4):
            for sites in (5, 12):
                cfg = _small_cfg(lag, k=k, sites=sites, hbar=0.8, a=-0.31, b=0.42)
                got = propagate_enumerate(cfg).value.to_complex()
                want = _digit_enumeration(cfg)
                assert abs(got - want) <= 1e-13 * abs(want), (lag.label, k, sites)
                if chunk == propagator._ENUM_CHUNK:
                    kn = naive_enumeration(cfg).to_complex()
                    assert abs(got - kn) <= 1e-12 * abs(kn), (lag.label, k, sites)


def _serial_block_enumeration(cfg):
    # propagate_enumerate's blocks one after another on one thread, their
    # weights added in mixed-radix order of the slow sites, from the
    # engine's step factors: a row out of a, a column into b, and full
    # blocks between
    k, sites = cfg.grid.k, cfg.space.sites
    everywhere = slice(None)

    def step_weight(i, rows, cols):
        return propagator._step_factor(cfg, i, 1.0, [(rows, cols)])[0]

    n_int = k - 1
    ja, jb = cfg.space.nearest_index(cfg.a), cfg.space.nearest_index(cfg.b)
    at_a, at_b = slice(ja, ja + 1), slice(jb, jb + 1)
    pairs = [step_weight(i, everywhere, everywhere) for i in range(2, k)]
    last = step_weight(k, everywhere, at_b)[:, 0]
    fast = 1
    while fast < n_int and sites ** (fast + 1) <= propagator._ENUM_CHUNK:
        fast += 1
    head = step_weight(1, at_a, everywhere)[0]
    for block in pairs[:fast - 1]:
        head = head[..., None] * block
    if n_int == 0:
        acc = np.sum(step_weight(1, at_a, at_b))
    elif fast == n_int:
        acc = np.sum(head * last)
    else:
        acc = 0.0 + 0.0j
        for slow in itertools.product(range(sites), repeat=n_int - fast):
            w = head * pairs[fast - 1][:, slow[0]]
            for i in range(1, len(slow)):
                w = w * pairs[fast - 1 + i][slow[i - 1], slow[i]]
            acc += np.sum(w * last[slow[-1]])
    return complex(cfg.norm_per_step ** k * cfg.space.dx ** n_int * acc)


@pytest.mark.parametrize("chunk", [1, 40])
def test_enumeration_pool_bits_match_serial_blocks(monkeypatch, chunk):
    # k = 1 and 2, and k = 3 at chunk 40 with 5 sites, are one block; at
    # chunk 1 and 40 the others leave one or two slow sites, so their
    # blocks go through the pool; every pool size must give the bits of
    # the serial loop, which keeps a branch for each of these cases
    monkeypatch.setattr(propagator, "_ENUM_CHUNK", chunk)
    td = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.5 * r * r
                        + 0.7 * np.sin(3.0 * t) + 0.3 * r * t,
                        time_dependent=True, label="td")
    walled = LagrangianSpec(mass=1.0, potential=_walled, label="box")
    cases = []
    for lag in (free_particle(), harmonic_oscillator(1.0, 1.3), td, walled):
        for k in (1, 2, 3, 4):
            for sites in (5, 12):
                cfg = _small_cfg(lag, k=k, sites=sites, hbar=0.8, a=-0.31, b=0.42)
                cases.append((cfg, _serial_block_enumeration(cfg)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the pool's threads often
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(propagator, "_workers", lambda: workers)
            for cfg, want in cases:
                got = propagate_enumerate(cfg).value.to_complex()
                assert got == want, (cfg.lag.label, cfg.grid.k,
                                     cfg.space.sites, workers)
    finally:
        sys.setswitchinterval(interval)


def test_enumeration_guard():
    cfg = _small_cfg(k=6, sites=30)
    with pytest.raises(TooLarge):
        propagate_enumerate(cfg)


def test_probability_is_squared_modulus():
    for res in (propagate_transfer_matrix(_small_cfg()),
                propagate_enumerate(_small_cfg()),
                propagate_monte_carlo_euclidean(_small_cfg(), 200, seed=1)):
        v = res.value
        assert res.probability == v.re * v.re + v.im * v.im


def test_results_are_plain_values():
    # two identical calls return equal results: nothing in a result
    # depends on how long the call took
    cfg = _small_cfg(k=3, sites=9)
    for run in (lambda: propagate_transfer_matrix(cfg),
                lambda: propagate_transfer_matrix(cfg, source_width=0.3),
                lambda: propagate_enumerate(cfg),
                lambda: propagate_monte_carlo_euclidean(cfg, 200, seed=3),
                lambda: concentration_scan(free_particle(1.0), 1.0, 0.0, 1.0,
                                           [1.0], 0.2, k=4)):
        assert run() == run()


def test_snap_distances_reported():
    cfg = _small_cfg(k=2, sites=7, a=-0.29, b=0.41)
    res = propagate_transfer_matrix(cfg)
    x = cfg.space.points()
    assert math.isclose(res.snap_a,
                        float(np.min(np.abs(x - cfg.a))), rel_tol=1e-12)
    assert res.snap_a <= cfg.space.dx / 2 + 1e-15
    assert res.snap_b <= cfg.space.dx / 2 + 1e-15


def test_recipe_meets_alias_bound():
    lag = free_particle(1.0)
    for hbar, k in ((1.0, 12), (0.25, 16), (1.0, 24)):
        grid, space, sw = convergence_recipe(lag, hbar, 1.0, 0.0, 0.5, k=k)
        W = space.hi - space.lo
        assert space.sites >= 2.0 * W * W * k / (math.pi * hbar)
        # chirp resolved: phase advance between adjacent sites stays under pi
        assert W * space.dx / (hbar * grid.epsilon) <= math.pi
        assert sw > 0


def test_windowed_free_kernel_converges():
    lag = free_particle(1.0)
    grid, space, sw = convergence_recipe(lag, 1.0, 1.0, 0.0, 0.5, k=12)
    cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=1.0,
                           a=0.0, b=0.5)
    res = propagate_transfer_matrix(cfg, source_width=sw)
    oracle = analytic_propagator(AnalyticKernel("free", 1.0, 1.0, 1.0),
                                 0.0, 0.5, source_width=sw).to_complex()
    assert abs(res.value.to_complex() - oracle) / abs(oracle) < 1e-9


def test_windowed_harmonic_error_shrinks_with_k():
    lag = harmonic_oscillator(1.0, 1.0)
    oracle_of = {}
    errs = []
    for k in (6, 12, 24):
        grid, space, sw = convergence_recipe(lag, 1.0, 1.0, 0.0, 0.5, k=k)
        cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=1.0,
                               a=0.0, b=0.5)
        res = propagate_transfer_matrix(cfg, source_width=sw)
        oracle = analytic_propagator(
            AnalyticKernel("harmonic", 1.0, 1.0, 1.0, omega=1.0),
            0.0, 0.5, source_width=sw).to_complex()
        errs.append(abs(res.value.to_complex() - oracle) / abs(oracle))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_undersampled_grid_diverges():
    # Same span as the recipe but a fraction of the sites: the chirp is
    # aliased and the sweep is exponentially unstable.  This is the failure
    # mode the coupled sites-vs-k recipe exists to avoid.
    lag = free_particle(1.0)
    grid = TimeGrid(0.0, 1.0, 30)
    space = SpaceGrid(-6.0, 6.5, 301)
    cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=1.0,
                           a=0.0, b=0.5)
    res = propagate_transfer_matrix(cfg, source_width=0.4)
    oracle = analytic_propagator(AnalyticKernel("free", 1.0, 1.0, 1.0),
                                 0.0, 0.5, source_width=0.4).to_complex()
    assert abs(res.value.to_complex() - oracle) / abs(oracle) > 1e3


def test_counting_limit_at_large_hbar():
    # On a fixed grid the phase content of each step scales like 1/hbar, so
    # the modulus of the pinned sum approaches the phase-free counting sum.
    lag = free_particle(1.0)
    space = SpaceGrid(-2.0, 3.0, 201)
    grid = TimeGrid(0.0, 1.0, 8)
    x = space.points()
    ja, jb = space.nearest_index(0.0), space.nearest_index(0.5)
    diffs = []
    for hbar in (1e3, 3.16e4, 1e6):
        cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=hbar,
                               a=0.0, b=0.5)
        k_mod = abs(propagate_transfer_matrix(cfg).value.to_complex())
        psi = np.zeros(x.size, dtype=complex)
        psi[ja] = 1.0 / space.dx
        n = space.sites
        Tm = np.full((n, n), abs(cfg.norm_per_step) * space.dx)
        for _ in range(grid.k):
            psi = Tm @ psi
        k_pf = psi[jb].real
        diffs.append(abs(k_mod - k_pf) / k_pf)
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-6


def test_composition_identity():
    # K(b,a) assembled from kernels into and out of an intermediate slice
    lag = free_particle(1.0)
    hbar, T, a, b = 1.0, 1.0, 0.0, 0.5
    grid, space, sw = convergence_recipe(lag, hbar, T, a, b, k=12)
    cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=hbar, a=a, b=b)
    whole = propagate_transfer_matrix(cfg, source_width=sw).value.to_complex()
    half = TimeGrid(0.0, T / 2.0, grid.k // 2)
    cfg_half = PropagatorConfig(grid=half, space=space, lag=lag, hbar=hbar,
                                a=a, b=b)
    p = lag.mass * (b - a) / T
    x = space.points()
    from_a = Sweep(cfg_half)(gaussian_window(x, a, sw, p, hbar))
    # sink window enters conjugated, and T is symmetric, so the "to b" run
    # starts from the conjugate window
    wb = gaussian_window(x, b, sw, p, hbar)
    chi = np.conj(wb)
    Tm = step_matrix(cfg_half, 1)
    for _ in range(half.k):
        chi = Tm @ chi
    glued = compose(from_a, chi, space.dx).to_complex()
    assert abs(glued - whole) / abs(whole) < 1e-10


def test_compose_rejects_mismatched_vectors():
    with pytest.raises(GridMismatch):
        compose(np.zeros(4, dtype=complex), np.zeros(5, dtype=complex), 0.1)


def test_packet_norm_is_preserved():
    lag = free_particle(1.0)
    grid, space, _ = convergence_recipe(lag, 1.0, 1.0, 0.0, 0.0, k=12)
    cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=1.0,
                           a=0.0, b=0.0)
    x = space.points()
    psi = gaussian_window(x, 0.0, 0.5, 1.0, 1.0).astype(complex)
    norm0 = float(np.sum(np.abs(psi) ** 2) * space.dx)
    Tm = step_matrix(cfg, 1)
    for _ in range(grid.k):
        psi = Tm @ psi
    norm1 = float(np.sum(np.abs(psi) ** 2) * space.dx)
    # drift is ~3e-4 at this resolution and shrinks with finer grids; the
    # engine-level promise is staying under one percent over a full sweep
    assert abs(norm1 / norm0 - 1.0) < 1e-2


def test_monte_carlo_free_case_is_exact():
    cfg = _small_cfg(k=8, sites=41, a=0.0, b=0.5)
    res = propagate_monte_carlo_euclidean(cfg, samples=500, seed=3)
    exact = analytic_propagator(
        AnalyticKernel("euclidean_free", 1.0, 1.0, 1.0), 0.0, 0.5).re
    assert res.value.im == 0.0
    assert abs(res.value.re - exact) < 1e-14
    assert res.stderr == 0.0


def test_monte_carlo_replay_is_bitwise():
    lag = harmonic_oscillator(1.0, 1.0)
    cfg = _small_cfg(lag, k=8, sites=41, a=0.0, b=0.5)
    r1 = propagate_monte_carlo_euclidean(cfg, samples=5000, seed=11)
    r2 = propagate_monte_carlo_euclidean(cfg, samples=5000, seed=11)
    assert r1.value == r2.value
    assert r1.stderr == r2.stderr
    r3 = propagate_monte_carlo_euclidean(cfg, samples=5000, seed=12)
    assert r1.value != r3.value


def _serial_monte_carlo(cfg, samples, seed):
    # one chunk after another on one thread: each chunk's log-weights w,
    # their max and its sums of e^{w - max} and e^{2 (w - max)}, folded in
    # chunk order at the running max; the estimate from log kfree + max
    k, eps = cfg.grid.k, cfg.grid.epsilon
    mass, hbar = cfg.lag.mass, cfg.hbar
    tmids = cfg.grid.midpoint_times()
    T = cfg.grid.duration
    d = cfg.b - cfg.a
    log_kfree = 0.5 * (math.log(mass) - math.log(2.0 * math.pi * hbar * T)) \
        - mass * d * d / (2.0 * hbar * T)
    chunk = propagator._MC_CHUNK
    n_chunks = (samples + chunk - 1) // chunk
    top, sum_w, sum_w2 = -math.inf, 0.0, 0.0
    done = 0
    for c in range(n_chunks):
        n = min(chunk, samples - done)
        done += n
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        h_prev = np.zeros(n)  # half the deviation from the line a -> b
        vsum = np.zeros(n)
        for i in range(1, k + 1):
            tau_rest = (k - i) * eps
            if i < k:
                alpha = tau_rest / (tau_rest + eps)
                var = (hbar / mass) * eps * tau_rest / (eps + tau_rest)
                h = 0.5 * math.sqrt(var) * rng.standard_normal(n) + h_prev * alpha
            else:
                h = np.zeros(n)
            line = cfg.a + (cfg.b - cfg.a) * (i - 0.5) / k
            vsum += cfg.lag.v((h_prev + h) + line, tmids[i - 1])
            h_prev = h
        logw = vsum * (-eps / hbar)
        c_top = float(logw.max())
        w = np.exp(logw - c_top)
        new_top = max(top, c_top)
        x, y = math.exp(top - new_top), math.exp(c_top - new_top)
        sum_w = sum_w * x + float(w.sum()) * y
        sum_w2 = sum_w2 * x * x + float((w * w).sum()) * y * y
        top = new_top
    mean_w = sum_w / samples
    var_w = max(0.0, (sum_w2 - samples * mean_w * mean_w) / (samples - 1))
    est = math.exp(log_kfree + top + math.log(mean_w))
    return est, est * (math.sqrt(var_w / samples) / mean_w)


def _line_free_monte_carlo(cfg, samples, seed):
    # the reference for the deviation form: the bridge drawn as positions,
    # each from its Gaussian conditional given the one before, with the
    # log-weight summed step by step and one SeedSequence child per chunk
    k, eps = cfg.grid.k, cfg.grid.epsilon
    mass, hbar = cfg.lag.mass, cfg.hbar
    tmids = cfg.grid.midpoint_times()
    T = cfg.grid.duration
    kfree = math.sqrt(mass / (2.0 * math.pi * hbar * T)) \
        * math.exp(-mass * (cfg.b - cfg.a) ** 2 / (2.0 * hbar * T))
    chunk = propagator._MC_CHUNK
    n_chunks = (samples + chunk - 1) // chunk
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sum_w = sum_w2 = 0.0
    done = 0
    for c in range(n_chunks):
        n = min(chunk, samples - done)
        done += n
        rng = np.random.default_rng(children[c])
        prev = np.full(n, cfg.a)
        logw = np.zeros(n)
        for i in range(1, k + 1):
            tau_rest = (k - i) * eps
            if i < k:
                mu = (tau_rest * prev + eps * cfg.b) / (tau_rest + eps)
                var = (hbar / mass) * eps * tau_rest / (eps + tau_rest)
                cur = mu + math.sqrt(var) * rng.standard_normal(n)
            else:
                cur = np.full(n, cfg.b)
            logw -= (eps / hbar) * cfg.lag.v(0.5 * (prev + cur), tmids[i - 1])
            prev = cur
        w = np.where(np.isfinite(logw), np.exp(logw), 0.0)
        sum_w += float(w.sum())
        sum_w2 += float((w * w).sum())
    mean_w = sum_w / samples
    var_w = max(0.0, (sum_w2 - samples * mean_w * mean_w) / (samples - 1))
    return kfree * mean_w, kfree * math.sqrt(var_w / samples)


_MC_LAGS = pytest.mark.parametrize("lag", [
    harmonic_oscillator(1.0, 1.0),
    LagrangianSpec(mass=1.0, potential=lambda r, t: (1.0 + t) * r * r + 0.3 * t,
                   time_dependent=True, label="td_harmonic")],
    ids=["harmonic", "time_dependent"])


@_MC_LAGS
@pytest.mark.parametrize("k", [1, 2, 8])
def test_monte_carlo_matches_line_free_bridge(lag, k):
    # the same normals, in the same order, give the same paths: drawn as
    # deviations from the line a -> b they agree with the paths drawn as
    # positions to rounding
    cfg = _small_cfg(lag, k=k, sites=41, a=0.0, b=0.5)
    samples = propagator._MC_CHUNK + 17
    est, stderr = _line_free_monte_carlo(cfg, samples, seed=2)
    res = propagate_monte_carlo_euclidean(cfg, samples=samples, seed=2)
    assert abs(res.value.re - est) <= 1e-12 * abs(est)
    assert abs(res.stderr - stderr) <= 1e-12 * stderr


@_MC_LAGS
@pytest.mark.parametrize("samples", [
    12305, propagator._MC_CHUNK + 17, 2 * propagator._MC_CHUNK + 12305,
    3 * propagator._MC_CHUNK + 17])
def test_monte_carlo_pool_bits_match_serial_chunks(monkeypatch, lag, samples):
    # 1, 2, 3 and 4 chunks, the last one short: every pool size gives the
    # serial bits.  Under seed 2, chunk results folded in reverse order
    # change the last bits of both harmonic cases of 3 and 4 chunks and the
    # time-dependent case of 4, so the order is checked too.
    cfg = _small_cfg(lag, k=8, sites=41, a=0.0, b=0.5)
    est, stderr = _serial_monte_carlo(cfg, samples, seed=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the pool's threads often
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(propagator, "_workers", lambda: workers)
            res = propagate_monte_carlo_euclidean(cfg, samples=samples, seed=2)
            assert res.value.re == est and res.value.im == 0.0, workers
            assert res.stderr == stderr, workers
    finally:
        sys.setswitchinterval(interval)


def test_monte_carlo_matches_harmonic_kernel():
    lag = harmonic_oscillator(1.0, 1.0)
    cfg = _small_cfg(lag, k=16, sites=41, a=0.0, b=0.5)
    res = propagate_monte_carlo_euclidean(cfg, samples=20000, seed=5)
    exact = euclidean_harmonic_kernel(1.0, 1.0, 1.0, 1.0, 0.0, 0.5)
    # Trotter bias ~ (omega*eps)^2 plus statistical error
    assert abs(res.value.re - exact) < 3.0 * res.stderr + 2e-3
    assert res.stderr > 0.0


def test_monte_carlo_guards():
    for samples in (50, 150.5, math.nan):
        with pytest.raises(InvalidParameter):
            propagate_monte_carlo_euclidean(_small_cfg(), samples=samples, seed=0)
    # only a nonnegative integer seeds a replayable draw: None would draw
    # entropy from the OS
    for seed in (-1, 1.5, None, True, "3", math.nan):
        with pytest.raises(InvalidParameter):
            propagate_monte_carlo_euclidean(_small_cfg(), samples=200, seed=seed)
    assert propagate_monte_carlo_euclidean(_small_cfg(), 200, seed=np.int64(7)) \
        == propagate_monte_carlo_euclidean(_small_cfg(), 200, seed=7)

    def bottomless(r, t):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0.9, -np.inf, 0.0)

    lag = LagrangianSpec(mass=1.0, potential=bottomless, label="sink")
    with pytest.raises(UnboundedPotential):
        propagate_monte_carlo_euclidean(_small_cfg(lag), samples=200, seed=0)

    # bounded on the grid at t_a, but -inf where the samples go later
    def late_sink(r, t):
        return np.where((r > 0.3) & (t > 0.5), -np.inf, 0.0)

    lag = LagrangianSpec(mass=1.0, potential=late_sink, time_dependent=True)
    with pytest.raises(UnboundedPotential):
        propagate_monte_carlo_euclidean(_small_cfg(lag, k=4, sites=9, a=0.0,
                                                   b=0.2), 1000, seed=0)

    # a harmonic V past float range is refused, not read as a wall: on the
    # space grid of [-2, 2], and at sampled midpoints beyond |r| = 1.4 when
    # the grid of [-1, 1] passes
    osc = harmonic_oscillator(omega=1.3e154)
    wide = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 4),
                            space=SpaceGrid(-2.0, 2.0, 9), lag=osc, hbar=1.0,
                            a=0.0, b=0.2)
    for cfg in (wide, _small_cfg(osc, hbar=100.0, a=0.0, b=0.2)):
        with pytest.raises(InvalidParameter, match=r"harmonic\(omega=1.3e\+154\) "
                           "overflows float64"):
            propagate_monte_carlo_euclidean(cfg, 200, seed=0)


def test_monte_carlo_weight_past_float_range_is_refused():
    # V = -1e306 everywhere gives each path the weight e^{1e306}, and
    # V = -1e3 the weight e^{1e3}: estimates past float range, refused by
    # name with no float warning, as are V = -1e308, whose sum over a path's
    # finite midpoints overflows to -inf, and V = -1e306 at hbar = 1e-3,
    # whose log-weight overflows to +inf; a finite weight keeps its value,
    # and a wall everywhere gives 0
    def flat(depth):
        return LagrangianSpec(mass=1.0, potential=lambda r, t: depth + 0.0 * r)

    for depth, hbar in ((-1e306, 1.0), (-1e3, 1.0), (-1e308, 1.0), (-1e306, 1e-3)):
        with pytest.raises(InvalidParameter, match="past float range"):
            propagate_monte_carlo_euclidean(
                _small_cfg(flat(depth), k=4, sites=9, hbar=hbar, a=0.0, b=0.2),
                200, seed=0)
    walled = propagate_monte_carlo_euclidean(
        _small_cfg(flat(math.inf), k=4, sites=9, a=0.0, b=0.2), 200, seed=0)
    assert (walled.value.re, walled.stderr) == (0.0, 0.0)
    got = propagate_monte_carlo_euclidean(
        _small_cfg(flat(-100.0), k=4, sites=9, a=0.0, b=0.2), 200, seed=0)
    free = propagate_monte_carlo_euclidean(
        _small_cfg(k=4, sites=9, a=0.0, b=0.2), 200, seed=0)
    assert got.value.re == pytest.approx(free.value.re * math.exp(100.0), rel=1e-14)
    assert got.stderr == 0.0


def test_monte_carlo_weights_past_float_range_with_a_finite_estimate():
    # every weight is e^{2000} and kfree is e^{-2450.9}, which underflows on
    # its own; in log space their product is the exact lattice value
    lag = LagrangianSpec(mass=1.0, potential=lambda r, t: -2000.0 + 0.0 * r)
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 4),
                           space=SpaceGrid(-1.0, 71.0, 73), lag=lag, hbar=1.0,
                           a=0.0, b=70.0)
    res = propagate_monte_carlo_euclidean(cfg, samples=200, seed=0)
    exact = math.exp(0.5 * math.log(1.0 / (2.0 * math.pi)) - 70.0 ** 2 / 2 + 2000.0)
    assert exact == 1.4736461348784934e-196
    assert res.value.re == pytest.approx(exact, rel=1e-12)
    assert res.stderr == 0.0


@pytest.mark.parametrize("lag", [
    linear_potential(g=1e308), harmonic_oscillator(omega=1e154),
    LagrangianSpec(mass=1.0, potential=lambda r, t: 1e307 * r ** 4,
                   label="quartic")], ids=["linear", "harmonic", "quartic"])
def test_potential_overflow_is_refused_by_every_engine(lag):
    # V past float range on [0, 3] is refused by LagrangianSpec.v, naming
    # the potential, in every engine: not read as a wall (the sweep
    # returned K = 0 for the linear case, with an overflow warning)
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1e-3, 3),
                           space=SpaceGrid(0.0, 3.0, 31), lag=lag, hbar=1e300,
                           a=0.4, b=0.6)
    match = f"potential {re.escape(lag.label)} overflows float64"
    for run in (propagate_transfer_matrix, propagate_enumerate,
                lambda cfg: propagate_monte_carlo_euclidean(cfg, 200, seed=0)):
        with pytest.raises(InvalidParameter, match=match):
            run(cfg)


def _flat(c):
    return LagrangianSpec(mass=1.0, potential=lambda r, t: np.full_like(r, c))


# (potential, [lo, hi], sites, k, T, hbar), a = b = 0: the state of the
# sweep, and the enumeration's norm^k dx^(k-1), leave float range
_PAST_RANGE = {
    "flat": (_flat(1.0), 1.21, 5, 4, 1.95e-107, 6.21e-145),
    "linear": (linear_potential(1.0, -2.9e165), 1.0, 3, 8, 6e-82, 1.4e-92),
}


@pytest.mark.parametrize("case", sorted(_PAST_RANGE))
def test_sweep_and_enumeration_values_past_float_range_are_refused(case):
    # both warned `overflow encountered in matmul` in the sweep; the
    # enumeration raised OverflowError (complex exponentiation) on the
    # first and returned NaN on the second
    lag, half, sites, k, t_b, hbar = _PAST_RANGE[case]
    cfg = PropagatorConfig(grid=TimeGrid(0.0, t_b, k),
                           space=SpaceGrid(-half, half, sites), lag=lag,
                           hbar=hbar, a=0.0, b=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (propagate_transfer_matrix, propagate_enumerate):
            with pytest.raises(InvalidParameter, match="past float range"):
                run(cfg)
        psi = np.ones(sites, dtype=complex)
        with pytest.raises(InvalidParameter, match="past float range"):
            Sweep(cfg)(psi, keep=True)


def test_step_phases_past_float_range_are_refused_with_no_warning():
    # the FFT step's D (linear g = 2^1000 at hbar = 1e-10) and its scalar
    # e^{-i eps c0 / hbar} (V = 1e300 at hbar = 1e-100) overflowed with a
    # numpy warning; a fit on a grid about 5e-191 wide, where half * half
    # underflows to 0, divided by zero
    narrow = PropagatorConfig(
        grid=TimeGrid(0.0, 6.2e155, 4),
        space=SpaceGrid(-6.5e-192, 4.9e-191, 4),
        lag=LagrangianSpec(mass=6.4e123, potential=lambda r, t: np.full_like(r, -8.4e80)),
        hbar=4.7e-62, a=0.0, b=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg in (_at_zero(linear_potential(1.0, 2.0 ** 1000).potential,
                             1e-10, 1.0, 4, 65),
                    _at_zero(_flat(1e300).potential, 1e-100, 1.0, 4, 3),
                    narrow):
            with pytest.raises(InvalidParameter, match="phase is not finite"):
                propagate_transfer_matrix(cfg)


def _signed(magnitudes):
    return st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]),
                     magnitudes)


# finite positive floats from 1e-320 to 1e308, by decade, and at the edges
_EXTREME = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
              st.integers(-320, 307)),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, sys.float_info.max]))
_FAMILIES = {
    "free": lambda c, wall: lambda r, t: np.zeros_like(r),
    "constant": lambda c, wall: lambda r, t: np.full_like(r, c),
    "linear": lambda c, wall: lambda r, t: c * r,
    "harmonic": lambda c, wall: lambda r, t: c * r * r,
    "quartic": lambda c, wall: lambda r, t: c * r ** 4,
    "wall": lambda c, wall: lambda r, t: np.where(r < wall, c, np.inf),
}


@given(family=st.sampled_from(sorted(_FAMILIES)), coef=_signed(_EXTREME),
       mass=_EXTREME, hbar=_EXTREME, t_b=_EXTREME,
       ends=st.tuples(_signed(_EXTREME), _signed(_EXTREME)),
       sites=st.integers(2, 9), k=st.integers(1, 4),
       where=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       time_dependent=st.booleans())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_lattice_engines_compute_or_refuse_extreme_inputs(
        family, coef, mass, hbar, t_b, ends, sites, k, where,
        time_dependent):
    # any finite input gives the sweep and the enumeration a finite value
    # or a CardpathError, with no numpy warning on the way; the wall family
    # is +inf above the middle of the grid
    lo, hi = min(ends), max(ends)
    width = hi - lo  # inf is refused by SpaceGrid
    potential = _FAMILIES[family](coef, lo + 0.5 * width)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (propagate_transfer_matrix, propagate_enumerate):
            try:
                cfg = PropagatorConfig(
                    grid=TimeGrid(0.0, t_b, k), space=SpaceGrid(lo, hi, sites),
                    lag=LagrangianSpec(mass=mass, potential=potential,
                                       time_dependent=time_dependent),
                    hbar=hbar, a=lo + where[0] * width, b=lo + where[1] * width)
                value = run(cfg).value.to_complex()
            except CardpathError:
                continue
            assert cmath.isfinite(value), (run.__name__, value)


def test_fast_len_is_scipys_complex_fast_length():
    import scipy.fft
    assert [propagator._fast_len(n) for n in range(1, 20_000)] \
        == [scipy.fft.next_fast_len(n) for n in range(1, 20_000)]


def test_time_dependent_potential_rebuilds_steps():
    # ramp potential V = c(t) independent of r: contributes a pure phase
    # exp(-i * integral(c) / hbar) relative to the free kernel
    lag = LagrangianSpec(mass=1.0, potential=lambda r, t: t * np.ones_like(np.asarray(r)),
                         time_dependent=True, label="ramp")
    cfg = _small_cfg(lag, k=4, sites=7)
    free_cfg = _small_cfg(free_particle(), k=4, sites=7)
    kt = propagate_transfer_matrix(cfg).value.to_complex()
    kf = propagate_transfer_matrix(free_cfg).value.to_complex()
    # the potential only subtracts integral(t dt) = T^2/2 from the action,
    # which the midpoint rule integrates exactly (hbar = 1)
    expect = kf * cmath.exp(-1j * 0.5)
    assert abs(kt - expect) / abs(kf) < 1e-12
    ke = propagate_enumerate(cfg).value.to_complex()
    assert abs(kt - ke) / abs(ke) < 1e-12
