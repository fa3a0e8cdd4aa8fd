import cmath
import itertools
import math
import sys

import numpy as np
import pytest

from cardpath import propagator
from cardpath.classical_limit import concentration_scan
from cardpath.errors import (CardpathError, GridMismatch, InvalidParameter,
                             TooLarge, UnboundedPotential)
from cardpath.lattice import (LagrangianSpec, SpaceGrid, TimeGrid,
                              free_particle, harmonic_oscillator,
                              linear_potential)
from cardpath.oracles import (AnalyticKernel, analytic_propagator,
                              euclidean_harmonic_kernel, naive_enumeration)
from cardpath.propagator import (PropagatorConfig, StepOperator, compose,
                                 convergence_recipe, gaussian_window,
                                 propagate_enumerate,
                                 propagate_monte_carlo_euclidean,
                                 propagate_transfer_matrix, site_count,
                                 step_matrix, sweep, transfer_matrix_vector)


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
            propagator.StepOperator(cfg, 1)
        with pytest.raises(TooLarge):
            propagate_transfer_matrix(cfg)


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
                op = StepOperator(cfg, i)
                assert op._matrix is None
                psi = rng.standard_normal(sites) + 1j * rng.standard_normal(sites)
                n, size = sites, op._work.size
                want = op._d_out * scipy.fft.ifft(
                    scipy.fft.fft(op._d_in * psi, size) * op._g_hat)[:n]
                assert np.array_equal(op.apply(psi), want), (lag.label, sites, i)
                # the buffer's padding is cleared on every call
                assert np.array_equal(op.apply(psi), want)


def test_sweep_keep_returns_distinct_arrays():
    for lag in _quadratic_lags()[:2]:
        cfg = _small_cfg(lag, k=5, sites=64)
        step = StepOperator(cfg, 1)
        psi = gaussian_window(cfg.space.points(), 0.0, 0.3, 0.5, 1.0)
        states = sweep(cfg, psi, step, keep=True)
        assert len(states) == cfg.grid.k + 1
        for j, s in enumerate(states):
            assert not np.shares_memory(s, step._work)
            for t in states[j + 1:]:
                assert not np.shares_memory(s, t)
        assert np.array_equal(states[-1], sweep(cfg, psi, step))


def test_fft_apply_allocates_no_padded_temporary():
    import tracemalloc
    cfg = _small_cfg(harmonic_oscillator(1.0, 1.0), k=2, sites=3000)
    op = StepOperator(cfg, 1)
    psi = gaussian_window(cfg.space.points(), 0.0, 0.3, 0.5, 1.0)
    op.apply(psi)  # first call: anything scipy sets up once per length
    tracemalloc.start()
    try:
        for _ in range(3):
            op.apply(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the sites-long result only: one padded complex array alone is 16 L
    assert peak < 16 * op._work.size, peak


def test_site_count_guard():
    assert site_count(10.0) == 11
    assert site_count(10.2) == 12
    for bad in (math.inf, math.nan, 1e300, float(propagator._DENSE_GUARD)):
        with pytest.raises(TooLarge):
            site_count(bad)


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
    # weights added in mixed-radix order of the slow sites
    k, sites, eps = cfg.grid.k, cfg.space.sites, cfg.grid.epsilon
    x = cfg.space.points()
    tmids = cfg.grid.midpoint_times()

    def step_action(i, r0, r1):
        drv = (r1 - r0) / eps
        vm = cfg.lag.v(0.5 * (r1 + r0), tmids[i - 1])
        return (0.5 * cfg.lag.mass * drv * drv - vm) * eps

    def weight(S):
        return np.sum(np.exp(1j * S[np.isfinite(S)] / cfg.hbar))

    n_int = k - 1
    ja, jb = cfg.space.nearest_index(cfg.a), cfg.space.nearest_index(cfg.b)
    xa, xb = x[ja:ja + 1], x[jb:jb + 1]
    pairs = [step_action(i, x[:, None], x[None, :]) for i in range(2, k)]
    last = step_action(k, x, xb)
    fast = 1
    while fast < n_int and sites ** (fast + 1) <= propagator._ENUM_CHUNK:
        fast += 1
    head = step_action(1, xa, x)
    for block in pairs[:fast - 1]:
        head = head[..., None] + block
    if fast == n_int:
        acc = weight(head + last)
    else:
        acc = 0.0 + 0.0j
        for slow in itertools.product(range(sites), repeat=n_int - fast):
            S = head + pairs[fast - 1][:, slow[0]]
            for i in range(1, len(slow)):
                S = S + pairs[fast - 1 + i][slow[i - 1], slow[i]]
            acc += weight(S + last[slow[-1]])
    return complex(cfg.norm_per_step ** k * cfg.space.dx ** n_int * acc)


@pytest.mark.parametrize("chunk", [1, 40])
def test_enumeration_pool_bits_match_serial_blocks(monkeypatch, chunk):
    # chunk 1 and 40 leave one or two slow sites, so the blocks go through
    # the pool; every pool size must give the serial loop's bits
    monkeypatch.setattr(propagator, "_ENUM_CHUNK", chunk)
    td = LagrangianSpec(mass=1.0, potential=lambda r, t: 0.5 * r * r
                        + 0.7 * np.sin(3.0 * t) + 0.3 * r * t,
                        time_dependent=True, label="td")
    walled = LagrangianSpec(mass=1.0, potential=_walled, label="box")
    cases = []
    for lag in (free_particle(), harmonic_oscillator(1.0, 1.3), td, walled):
        for k in (3, 4):
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


def _serial_monte_carlo(cfg, samples, seed):
    # one chunk after another on one thread, sums added in chunk order
    k, eps = cfg.grid.k, cfg.grid.epsilon
    mass, hbar = cfg.lag.mass, cfg.hbar
    tmids = cfg.grid.midpoint_times()
    T = cfg.grid.duration
    kfree = math.sqrt(mass / (2.0 * math.pi * hbar * T)) \
        * math.exp(-mass * (cfg.b - cfg.a) ** 2 / (2.0 * hbar * T))
    n_chunks = (samples + 4095) // 4096
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sum_w = sum_w2 = 0.0
    done = 0
    for c in range(n_chunks):
        n = min(4096, samples - done)
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


@pytest.mark.parametrize("lag", [
    harmonic_oscillator(1.0, 1.0),
    LagrangianSpec(mass=1.0, potential=lambda r, t: (1.0 + t) * r * r + 0.3 * t,
                   time_dependent=True, label="td_harmonic")],
    ids=["harmonic", "time_dependent"])
@pytest.mark.parametrize("samples", [
    3 * 4096 + 17, 8 * 4096 + 17,
    2 * propagator._MC_BLOCK * 4096 + 3 * 4096 + 17])
def test_monte_carlo_pool_bits_match_serial_chunks(monkeypatch, lag, samples):
    # 4, 9 and 2 * _MC_BLOCK + 4 chunks, the last one short: every pool
    # size gives the serial bits, also over three blocks of chunks with the
    # short chunk in the last block.  Under seed 2, chunk sums added in
    # reverse order change the last bits in five of the six cases, and
    # blocks added in reverse order change both three-block cases, so the
    # order is checked too.
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
