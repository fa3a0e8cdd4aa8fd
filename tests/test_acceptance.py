"""Acceptance gate: ten numbered end-to-end checks at fixed tolerances.

Each test prints one summary line; run with `pytest tests/test_acceptance.py
-v -s` to see all ten lines regardless of outcome.
"""
import cmath
import math
import time

import numpy as np

from cardpath.amplitude import (Amplitude, WaveSample, born_probability,
                                interference_cross_term, phase_from_count,
                                shift_winding, superpose)
from cardpath.classical_limit import (classical_path, concentration_scan,
                                      finite_difference_action_gradient)
from cardpath.lattice import (LatticePath, SpaceGrid, TimeGrid,
                              discretized_action, free_particle,
                              harmonic_oscillator, linear_potential,
                              path_probability_product)
from cardpath.oracles import (AnalyticKernel, analytic_propagator,
                              euclidean_harmonic_kernel,
                              shooting_euler_lagrange)
from cardpath.propagator import (PropagatorConfig, Sweep, compose,
                                 convergence_recipe, gaussian_window,
                                 propagate_enumerate,
                                 propagate_monte_carlo_euclidean,
                                 propagate_transfer_matrix, step_matrix)


def _report(num: int, desc: str, ok: bool, detail: str):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_transfer_matrix_equals_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    lags = [free_particle(1.0), harmonic_oscillator(1.0, 1.1),
            linear_potential(1.0, 0.9)]
    worst = 0.0
    for trial in range(50):
        k = int(rng.integers(1, 7))
        sites = int(rng.integers(3, 10))
        lag = lags[trial % 3]
        hbar = float(rng.uniform(0.5, 2.0))
        lo = float(rng.uniform(-1.5, -0.5))
        hi = float(rng.uniform(0.5, 1.5))
        a, b = (float(v) for v in rng.uniform(lo, hi, size=2))
        cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, k),
                               space=SpaceGrid(lo, hi, sites),
                               lag=lag, hbar=hbar, a=a, b=b)
        ke = propagate_enumerate(cfg).value.to_complex()
        kt = propagate_transfer_matrix(cfg).value.to_complex()
        rel = abs(ke - kt) / max(abs(ke), 1e-30)
        worst = max(worst, rel)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 10.0
    _report(1, "transfer matrix reproduces exact enumeration on 50 instances",
            ok, f"worst rel diff {worst:.2e}, {dt:.1f}s")


def test_criterion_02_free_kernel_convergence():
    t0 = time.perf_counter()
    lag = free_particle(1.0)
    pairs = [(0.0, 0.5), (0.0, 1.0), (-0.4, 0.8), (0.3, -0.6), (0.1, 0.1)]
    worst = 0.0
    for a, b in pairs:
        grid, space, sw = convergence_recipe(lag, 1.0, 1.0, a, b)
        cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=1.0,
                               a=a, b=b)
        got = propagate_transfer_matrix(cfg, source_width=sw).value.to_complex()
        want = analytic_propagator(AnalyticKernel("free", 1.0, 1.0, 1.0),
                                   a, b, source_width=sw).to_complex()
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - t0
    ok = worst < 1e-2 and dt < 30.0
    _report(2, "free-particle kernel matches the closed form on 5 pairs",
            ok, f"worst rel error {worst:.2e}, {dt:.1f}s")


def test_criterion_03_harmonic_kernel_convergence():
    t0 = time.perf_counter()
    lag = harmonic_oscillator(1.0, 1.0)  # omega * T = 1
    kernel = AnalyticKernel("harmonic", 1.0, 1.0, 1.0, omega=1.0)
    worst = 0.0
    for a, b in [(0.0, 0.5), (0.2, 1.0), (-0.5, 0.4)]:
        grid, space, sw = convergence_recipe(lag, 1.0, 1.0, a, b)
        cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=1.0,
                               a=a, b=b)
        got = propagate_transfer_matrix(cfg, source_width=sw).value.to_complex()
        want = analytic_propagator(kernel, a, b, source_width=sw).to_complex()
        worst = max(worst, abs(got - want) / abs(want))
    dt = time.perf_counter() - t0
    ok = worst < 1e-2 and dt < 30.0
    _report(3, "harmonic kernel at omega*T=1 matches the closed form",
            ok, f"worst rel error {worst:.2e}, {dt:.1f}s")


def test_criterion_04_probability_product_telescopes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        mods = rng.uniform(0.1, 10.0, size=n)
        winds = rng.uniform(-100.0, 100.0, size=n)
        samples = [WaveSample(float(A), float(w)) for A, w in zip(mods, winds)]
        prod = path_probability_product(samples)
        expect = (mods[-1] / mods[0]) ** 2
        worst = max(worst, abs(prod - expect) / max(expect, 1.0))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1.0
    _report(4, "chained transition ratios telescope over 1000 sequences",
            ok, f"worst rel diff {worst:.2e}, {dt:.2f}s")


def test_criterion_05_superposition_interference_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        ar, ai, br, bi = rng.uniform(-10, 10, size=4)
        a, b = Amplitude(ar, ai), Amplitude(br, bi)
        total = born_probability(superpose(a, b))
        split = born_probability(a) + born_probability(b) \
            + interference_cross_term(a, b)
        worst = max(worst, abs(total - split) / max(abs(total), 1.0))
    ok = worst <= 1e-12
    _report(5, "superposed probability splits into terms plus cross term",
            ok, f"worst rel diff {worst:.2e}")


def test_criterion_06_winding_shift_rotates_phase():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        A = float(rng.uniform(0.0, 10.0))
        n = float(rng.uniform(-100.0, 100.0))
        c = float(rng.uniform(-50.0, 50.0))
        base = phase_from_count(WaveSample(A, n)).to_complex()
        shifted = phase_from_count(shift_winding(WaveSample(A, n), c)).to_complex()
        expect = base * cmath.exp(2j * math.pi * c)
        worst = max(worst, abs(shifted - expect) / max(A, 1.0))
    ok = worst <= 1e-12
    _report(6, "shifting the winding rotates the amplitude by whole turns",
            ok, f"worst abs diff {worst:.2e}")


def test_criterion_07_concentration_tightens_as_hbar_shrinks():
    t0 = time.perf_counter()
    hbars = [1.0, 0.5, 0.25, 0.125, 0.0625]
    scan = concentration_scan(free_particle(1.0), 1.0, 0.0, 1.0,
                              hbars, delta=0.2, k=16)
    fr = scan.mass_fraction
    nondec = all(fr[i + 1] >= fr[i] - 1e-3 for i in range(len(fr) - 1))
    in_range = all(0.0 <= f <= 1.0 for f in fr)
    off_ok = scan.argmax_offset[-1] <= 2.0 * scan.dx_values[-1]
    dt = time.perf_counter() - t0
    ok = nondec and in_range and off_ok and dt < 120.0
    _report(7, "tube mass fraction is nondecreasing as hbar drops 1 -> 1/16",
            ok, f"fractions {[round(f, 3) for f in fr]}, "
                f"argmax offset {scan.argmax_offset[-1]:.2e} "
                f"vs 2dx {2 * scan.dx_values[-1]:.2e}, {dt:.1f}s")


def test_criterion_08_stationary_path_checks():
    lag = harmonic_oscillator(1.0, 1.0)
    grid = TimeGrid(0.0, 1.0, 16)
    path = classical_path(lag, grid, 0.0, 1.0)
    s_cl = abs(discretized_action(path, grid, lag))
    _, space, _ = convergence_recipe(lag, 1.0, 1.0, 0.0, 1.0, k=16)
    fd = finite_difference_action_gradient(path, lag, grid, dx=space.dx)
    grad_ok = float(np.max(np.abs(fd))) <= 1e-6 * max(s_cl, 1.0)
    shot = shooting_euler_lagrange(lag, 0.0, 1.0, grid)
    dev = float(np.max(np.abs(path.as_array() - shot.as_array())))
    shoot_ok = dev <= 2.0 * space.dx
    ok = grad_ok and shoot_ok
    _report(8, "stationary path passes gradient and shooting cross-checks",
            ok, f"max |dS/dr| {float(np.max(np.abs(fd))):.2e} vs "
                f"{1e-6 * max(s_cl, 1.0):.2e}, path dev {dev:.2e} "
                f"vs 2dx {2 * space.dx:.2e}")


def test_criterion_09_euclidean_monte_carlo():
    t0 = time.perf_counter()
    lag = harmonic_oscillator(1.0, 1.0)
    # k large enough that the midpoint-rule bias sits well under the
    # statistical resolution of 1e4 samples
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 128),
                           space=SpaceGrid(-3.0, 3.0, 121),
                           lag=lag, hbar=1.0, a=0.0, b=0.5)
    r1 = propagate_monte_carlo_euclidean(cfg, samples=10000, seed=909)
    r2 = propagate_monte_carlo_euclidean(cfg, samples=10000, seed=909)
    exact = euclidean_harmonic_kernel(1.0, 1.0, 1.0, 1.0, 0.0, 0.5)
    dev = abs(r1.value.re - exact)
    within = dev <= 3.0 * r1.stderr
    replay = (r1.value == r2.value) and (r1.stderr == r2.stderr)
    dt = time.perf_counter() - t0
    ok = within and replay and dt < 20.0
    _report(9, "imaginary-time sampler hits the harmonic kernel and replays",
            ok, f"dev {dev:.2e} vs 3*stderr {3 * r1.stderr:.2e}, "
                f"bitwise replay {replay}, {dt:.1f}s")


def test_criterion_10_kernel_composition():
    lag = free_particle(1.0)
    hbar, T, a, b = 1.0, 1.0, 0.0, 0.5
    grid, space, sw = convergence_recipe(lag, hbar, T, a, b, k=16)
    cfg = PropagatorConfig(grid=grid, space=space, lag=lag, hbar=hbar, a=a, b=b)
    whole = propagate_transfer_matrix(cfg, source_width=sw).value.to_complex()
    half = TimeGrid(0.0, T / 2.0, grid.k // 2)
    cfg_half = PropagatorConfig(grid=half, space=space, lag=lag, hbar=hbar,
                                a=a, b=b)
    p = lag.mass * (b - a) / T
    x = space.points()
    from_a = Sweep(cfg_half)(gaussian_window(x, a, sw, p, hbar))
    chi = np.conj(gaussian_window(x, b, sw, p, hbar))
    Tm = step_matrix(cfg_half, 1)
    for _ in range(half.k):
        chi = Tm @ chi
    glued = compose(from_a, chi, space.dx).to_complex()
    rel = abs(glued - whole) / abs(whole)
    ok = rel <= 1e-8
    _report(10, "kernel composes exactly across an intermediate time slice",
            ok, f"rel diff {rel:.2e}")
