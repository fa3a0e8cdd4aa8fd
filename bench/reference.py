"""Independent references, written from the documented formulas with numpy
and scipy only.  Nothing here calls into ``cardpath.propagator`` or
``cardpath.classical_limit``.

  lattice_kernel        the pinned lattice sum by a dense transfer matrix
                        T[j', j] = norm * dx * e^{i S_step / hbar}, built
                        row block by row block and applied with BLAS
  euclidean_harmonic    the discrete-time Euclidean harmonic kernel under
                        the midpoint rule, as a (k-1)-dimensional Gaussian
                        integral with a tridiagonal matrix
  classical_path        the continuum classical paths (free, harmonic)
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

_ROW_BLOCK = 256


def window(x, center, width, momentum, hbar):
    """Unit-weight Gaussian of the given width, boosted by the momentum."""
    g = np.exp(-(x - center) ** 2 / (2.0 * width * width)) \
        / math.sqrt(2.0 * math.pi * width * width)
    return g * np.exp(1j * momentum * x / hbar)


def lattice_kernel(potential, time_dependent, mass, hbar, t_total, k,
                   lo, hi, sites, a, b, source_width=None):
    """K(b, a) on the uniform grid lo..hi (sites points) after k steps.

    source_width=None pins the endpoints to the nearest sites (start vector
    delta_a / dx, value psi_k at b); otherwise the value is the windowed
    matrix element sum conj(w_b) * T^k w_a * dx with the classical
    momentum m (b - a) / T on both windows.
    """
    x = np.linspace(lo, hi, sites)
    dx = (hi - lo) / (sites - 1)
    eps = t_total / k
    norm = complex(np.sqrt(np.complex128(mass / (2j * math.pi * hbar * eps))))

    def step(i):
        t_mid = (i - 0.5) * eps
        tm = np.empty((sites, sites), dtype=complex)
        for r0 in range(0, sites, _ROW_BLOCK):
            xr = x[r0:r0 + _ROW_BLOCK, None]
            s = 0.5 * mass * (xr - x) ** 2 / eps \
                - eps * potential(0.5 * (xr + x), t_mid)
            tm[r0:r0 + _ROW_BLOCK] = norm * dx * np.exp(1j * s / hbar)
        return tm

    def nearest(r):
        return min(max(int(round((r - lo) / dx)), 0), sites - 1)

    if source_width is None:
        psi = np.zeros(sites, dtype=complex)
        psi[nearest(a)] = 1.0 / dx
    else:
        p = mass * (b - a) / t_total
        psi = window(x, a, source_width, p, hbar)
    tm = None
    for i in range(1, k + 1):
        if tm is None or time_dependent:
            tm = step(i)
        psi = tm @ psi
    if source_width is None:
        return complex(psi[nearest(b)])
    return complex(np.sum(np.conj(window(x, b, source_width, p, hbar)) * psi) * dx)


def euclidean_harmonic(mass, omega, hbar, t_total, k, a, b):
    """Imaginary-time kernel of V = m w^2 r^2 / 2 under the midpoint rule.

    K = (m / (2 pi hbar eps))^{k/2} * integral over x_1..x_{k-1} of
    exp(-Q / hbar), with Q = sum_i [m (x_i - x_{i-1})^2 / (2 eps)
    + eps V((x_i + x_{i-1}) / 2)] = x^T M x + 2 g^T x + q0, M tridiagonal.
    The integral is (pi hbar)^{(k-1)/2} det(M)^{-1/2} exp((g^T M^-1 g - q0) / hbar).
    """
    if k < 2:
        raise ValueError("need at least one interior slice")
    eps = t_total / k
    kin = mass / (2.0 * eps)
    pot = eps * mass * omega * omega / 8.0
    n = k - 1
    upper = np.zeros((2, n))
    upper[0, 1:] = pot - kin
    upper[1] = 2.0 * (kin + pot)
    g = np.zeros(n)
    g[0] += (pot - kin) * a
    g[-1] += (pot - kin) * b
    q0 = (kin + pot) * (a * a + b * b)
    chol = cholesky_banded(upper)
    logdet = 2.0 * float(np.sum(np.log(chol[1])))
    quad = float(g @ cho_solve_banded((chol, False), g))
    log_k = (0.5 * k * math.log(mass / (2.0 * math.pi * hbar * eps))
             + 0.5 * n * math.log(math.pi * hbar) - 0.5 * logdet
             + (quad - q0) / hbar)
    return math.exp(log_k)


def classical_path(family, mass, omega, t_total, a, b, times):
    """Continuum classical path r(t) with r(0) = a and r(T) = b."""
    t = np.asarray(times, dtype=float)
    if family == "free":
        return a + (b - a) * t / t_total
    if family == "harmonic":
        return (a * np.sin(omega * (t_total - t)) + b * np.sin(omega * t)) \
            / math.sin(omega * t_total)
    raise ValueError(f"no closed-form path for {family!r}")
