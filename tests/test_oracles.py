import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from cardpath.errors import (CardpathError, CausticSingularity, ShootingFailure,
                             TooLarge)
from cardpath.lattice import (LagrangianSpec, SpaceGrid, TimeGrid,
                              free_particle, harmonic_oscillator,
                              linear_potential)
from cardpath.oracles import (AnalyticKernel, analytic_propagator,
                              euclidean_harmonic_kernel, naive_enumeration,
                              shooting_euler_lagrange)
from cardpath.propagator import PropagatorConfig


def test_free_kernel_modulus_and_phase():
    k = AnalyticKernel("free", mass=1.0, hbar=1.0, T=1.0)
    z = analytic_propagator(k, 0.0, 0.5).to_complex()
    assert math.isclose(abs(z), 1.0 / math.sqrt(2.0 * math.pi), rel_tol=1e-14)
    # phase = m(b-a)^2/(2 hbar T) minus the pi/4 from sqrt(1/i)
    assert math.isclose(cmath.phase(z), 0.125 - math.pi / 4.0, rel_tol=1e-12)


def test_free_kernel_scales_with_mass_and_time():
    for m, T in ((2.0, 1.0), (1.0, 3.0), (0.5, 0.25)):
        k = AnalyticKernel("free", mass=m, hbar=1.0, T=T)
        z = analytic_propagator(k, -0.2, 0.9).to_complex()
        assert math.isclose(abs(z), math.sqrt(m / (2.0 * math.pi * T)), rel_tol=1e-13)


def test_euclidean_free_kernel_is_normalized():
    k = AnalyticKernel("euclidean_free", mass=1.3, hbar=0.7, T=0.9)
    total, _ = integrate.quad(
        lambda b: analytic_propagator(k, 0.2, b).re, -30.0, 30.0)
    assert math.isclose(total, 1.0, rel_tol=1e-9)
    assert analytic_propagator(k, 0.0, 1.0).im == 0.0


def test_harmonic_kernel_approaches_free_as_omega_vanishes():
    free = analytic_propagator(AnalyticKernel("free", 1.0, 1.0, 1.0), 0.1, 0.8)
    harm = analytic_propagator(
        AnalyticKernel("harmonic", 1.0, 1.0, 1.0, omega=1e-5), 0.1, 0.8)
    assert abs(free.to_complex() - harm.to_complex()) < 1e-8


def test_harmonic_caustic_raises():
    k = AnalyticKernel("harmonic", 1.0, 1.0, 1.0, omega=math.pi)
    with pytest.raises(CausticSingularity):
        analytic_propagator(k, 0.0, 0.5)


def test_harmonic_requires_omega():
    with pytest.raises(ValueError):
        AnalyticKernel("harmonic", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        AnalyticKernel("airy", 1.0, 1.0, 1.0)


def _brute_windowed(kernel, a, b, s, p):
    """Direct 2D quadrature of the windowed matrix element."""
    def K(y, x):
        return analytic_propagator(kernel, x, y).to_complex()

    def wsrc(x):
        return math.exp(-(x - a) ** 2 / (2 * s * s)) \
            / math.sqrt(2 * math.pi * s * s) * cmath.exp(1j * p * x / kernel.hbar)

    def wsnk(y):
        return math.exp(-(y - b) ** 2 / (2 * s * s)) \
            / math.sqrt(2 * math.pi * s * s) * cmath.exp(1j * p * y / kernel.hbar)

    def f(y, x, part):
        val = wsnk(y).conjugate() * K(y, x) * wsrc(x)
        return val.real if part == "re" else val.imag

    lim = 8.0 * s
    re, _ = integrate.dblquad(f, a - lim, a + lim, b - lim, b + lim,
                              args=("re",), epsabs=1e-12, epsrel=1e-12)
    im, _ = integrate.dblquad(f, a - lim, a + lim, b - lim, b + lim,
                              args=("im",), epsabs=1e-12, epsrel=1e-12)
    return re + 1j * im


@pytest.mark.parametrize("family,omega", [("free", None), ("harmonic", 0.9)])
def test_windowed_oracle_matches_quadrature(family, omega):
    kernel = AnalyticKernel(family, mass=1.0, hbar=1.0, T=1.0, omega=omega)
    s, a, b = 0.3, -0.1, 0.6
    p = 1.0 * (b - a) / 1.0
    got = analytic_propagator(kernel, a, b, source_width=s).to_complex()
    want = _brute_windowed(kernel, a, b, s, p)
    assert abs(got - want) / abs(want) < 1e-9


@pytest.mark.parametrize("shift", [1e3, 1e5, 1e10, -1e10])
def test_free_windowed_oracle_is_shift_invariant(shift):
    # the free kernel depends on b - a only, and the windows' momentum
    # phases cancel under a common shift; far from the origin the value
    # neither loses digits nor overflows
    kernel = AnalyticKernel("free", mass=1.0, hbar=1.0, T=1.0)
    want = analytic_propagator(kernel, 0.0, 0.5, source_width=0.4).to_complex()
    got = analytic_propagator(kernel, shift, shift + 0.5,
                              source_width=0.4).to_complex()
    assert abs(got - want) <= 1e-12 * abs(want)
    half = AnalyticKernel("free", mass=1.0, hbar=0.5, T=1.0)
    want = analytic_propagator(half, 0.0, 0.0, source_width=0.3).to_complex()
    got = analytic_propagator(half, shift, shift, source_width=0.3).to_complex()
    assert abs(got - want) <= 1e-12 * abs(want)


def test_windowed_value_converges_to_pointwise_kernel():
    # with zero boost the windows tend to plain delta spikes, so the
    # matrix element recovers the pointwise kernel as the width shrinks
    kernel = AnalyticKernel("free", 1.0, 1.0, 1.0)
    K = analytic_propagator(kernel, 0.0, 0.5).to_complex()
    errs = []
    for s in (0.2, 0.05, 0.0125):
        M = analytic_propagator(kernel, 0.0, 0.5, source_width=s,
                                source_momentum=0.0).to_complex()
        errs.append(abs(M - K) / abs(K))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_windowed_rejects_bad_width_and_euclidean():
    kernel = AnalyticKernel("free", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        analytic_propagator(kernel, 0.0, 1.0, source_width=-0.1)
    eu = AnalyticKernel("euclidean_free", 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        analytic_propagator(eu, 0.0, 1.0, source_width=0.3)


def test_bad_kernels_and_windows_are_cardpath_errors():
    free = AnalyticKernel("free", 1.0, 1.0, 1.0)
    eu = AnalyticKernel("euclidean_free", 1.0, 1.0, 1.0)
    for refuse in (lambda: AnalyticKernel("harmonic", 1.0, 1.0, 1.0),
                   lambda: AnalyticKernel("airy", 1.0, 1.0, 1.0),
                   lambda: AnalyticKernel("free", 1.0, 1.0, 0.0),
                   lambda: analytic_propagator(free, 0.0, 1.0, source_width=-0.1),
                   lambda: analytic_propagator(eu, 0.0, 1.0, source_width=0.3)):
        with pytest.raises(CardpathError):
            refuse()


def test_euclidean_harmonic_approaches_euclidean_free():
    free = analytic_propagator(
        AnalyticKernel("euclidean_free", 1.0, 1.0, 1.0), 0.0, 0.7).re
    harm = euclidean_harmonic_kernel(1.0, 1e-6, 1.0, 1.0, 0.0, 0.7)
    assert math.isclose(free, harm, rel_tol=1e-9)


def test_shooting_free_particle_is_straight():
    grid = TimeGrid(0.0, 2.0, 10)
    path = shooting_euler_lagrange(free_particle(1.0), -1.0, 3.0, grid)
    expect = np.linspace(-1.0, 3.0, 11)
    assert np.max(np.abs(path.as_array() - expect)) < 1e-9


def test_shooting_harmonic_matches_closed_form():
    m, w, T = 1.0, 1.0, 1.0
    a, b = 0.2, 1.0
    grid = TimeGrid(0.0, T, 16)
    path = shooting_euler_lagrange(harmonic_oscillator(m, w), a, b, grid)
    t = grid.times()
    expect = (b - a * math.cos(w * T)) * np.sin(w * t) / math.sin(w * T) \
        + a * np.cos(w * t)
    assert np.max(np.abs(path.as_array() - expect)) < 1e-6
    assert abs(path.sites[-1] - b) <= 1e-9


def test_shooting_linear_potential_is_parabolic():
    g, m = 2.0, 1.5
    grid = TimeGrid(0.0, 1.0, 8)
    a, b = 0.0, 1.0
    path = shooting_euler_lagrange(linear_potential(m, g), a, b, grid)
    t = grid.times()
    v0 = (b - a) / 1.0 + g / (2.0 * m)
    expect = a + v0 * t - g * t * t / (2.0 * m)
    assert np.max(np.abs(path.as_array() - expect)) < 1e-7


def test_naive_enumeration_guard():
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 6),
                           space=SpaceGrid(-1.0, 1.0, 21),
                           lag=free_particle(), hbar=1.0, a=0.0, b=0.5)
    with pytest.raises(TooLarge):
        naive_enumeration(cfg)


def test_naive_enumeration_single_step():
    cfg = PropagatorConfig(grid=TimeGrid(0.0, 1.0, 1),
                           space=SpaceGrid(-1.0, 1.0, 5),
                           lag=free_particle(), hbar=1.0, a=-0.5, b=0.5)
    got = naive_enumeration(cfg).to_complex()
    norm = cmath.sqrt(1.0 / (2j * math.pi))
    expect = norm * cmath.exp(1j * 0.5)
    assert abs(got - expect) < 1e-14
