import cmath
import math

import numpy as np
import pytest

from cardpath import propagator
from cardpath.errors import GridMismatch, TooLarge, UnboundedPotential
from cardpath.lattice import (LagrangianSpec, SpaceGrid, TimeGrid,
                              free_particle, harmonic_oscillator,
                              linear_potential)
from cardpath.oracles import (AnalyticKernel, analytic_propagator,
                              euclidean_harmonic_kernel, naive_enumeration)
from cardpath.propagator import (PropagatorConfig, compose,
                                 convergence_recipe, gaussian_window,
                                 propagate_enumerate,
                                 propagate_monte_carlo_euclidean,
                                 propagate_transfer_matrix,
                                 result_to_json_record, step_matrix, sweep,
                                 transfer_matrix_vector)


def _small_cfg(lag=None, k=4, sites=7, hbar=1.0, a=-0.3, b=0.4):
    return PropagatorConfig(grid=TimeGrid(0.0, 1.0, k),
                            space=SpaceGrid(-1.0, 1.0, sites),
                            lag=lag or free_particle(), hbar=hbar, a=a, b=b)


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
    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return step_matrix(*args, **kwargs)

    monkeypatch.setattr(propagator, "step_matrix", counted)
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
        got = sweep(cfg, psi)
        assert not builds, "a quadratic potential built a dense matrix"
        want = _dense_sweep(cfg, psi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), trial


def test_non_quadratic_potentials_take_the_dense_path(monkeypatch):
    builds = _count_builds(monkeypatch)
    quartic = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.1 * r ** 4)
    walled = LagrangianSpec(mass=1.0, potential=_walled, label="box")
    for lag in (quartic, walled):
        cfg = _small_cfg(lag, k=4, sites=40)
        psi = gaussian_window(cfg.space.points(), 0.0, 0.3, 0.5, 1.0)
        builds.clear()
        assert np.array_equal(sweep(cfg, psi), _dense_sweep(cfg, psi))
        assert len(builds) == 1


def test_dense_step_matrix_guard():
    # refused from the site count alone, before anything is allocated
    space = SpaceGrid(-1.0, 1.0, 100_000)
    quartic = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.1 * r ** 4)
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 1), space=space,
                           lag=quartic, hbar=1.0, a=0.0, b=0.5)
    with pytest.raises(TooLarge):
        step_matrix(cfg, 1)
    with pytest.raises(TooLarge):
        propagate_transfer_matrix(cfg)
    # a quadratic potential on the same grid never needs the matrix
    free = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 1), space=space,
                            lag=free_particle(), hbar=1.0, a=0.0, b=0.5)
    assert math.isfinite(abs(propagate_transfer_matrix(free).value.to_complex()))


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


def test_json_record_shape():
    res = propagate_transfer_matrix(_small_cfg())
    rec = result_to_json_record(res)
    assert set(rec) == {"method", "k", "sites", "re", "im", "runtime_ms"}
    mc = propagate_monte_carlo_euclidean(_small_cfg(), 200, seed=1)
    rec = result_to_json_record(mc)
    assert "stderr" in rec and rec["method"] == "monte_carlo"


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
        Tm = step_matrix(cfg, 1, phase_free=True)
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
    from_a = transfer_matrix_vector(cfg_half, a, source_width=sw,
                                    source_momentum=p)
    to_b = transfer_matrix_vector(cfg_half, b, source_width=sw,
                                  source_momentum=p)
    # sink window enters conjugated, and T is symmetric, so the "to b" run
    # starts from the conjugate window
    x = space.points()
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


def test_monte_carlo_matches_harmonic_kernel():
    lag = harmonic_oscillator(1.0, 1.0)
    cfg = _small_cfg(lag, k=16, sites=41, a=0.0, b=0.5)
    res = propagate_monte_carlo_euclidean(cfg, samples=20000, seed=5)
    exact = euclidean_harmonic_kernel(1.0, 1.0, 1.0, 1.0, 0.0, 0.5)
    # Trotter bias ~ (omega*eps)^2 plus statistical error
    assert abs(res.value.re - exact) < 3.0 * res.stderr + 2e-3
    assert res.stderr > 0.0


def test_monte_carlo_guards():
    with pytest.raises(ValueError):
        propagate_monte_carlo_euclidean(_small_cfg(), samples=50, seed=0)

    def bottomless(r, t):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0.9, -np.inf, 0.0)

    lag = LagrangianSpec(mass=1.0, potential=bottomless, label="sink")
    with pytest.raises(UnboundedPotential):
        propagate_monte_carlo_euclidean(_small_cfg(lag), samples=200, seed=0)


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
