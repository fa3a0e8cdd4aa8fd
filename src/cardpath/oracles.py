"""Independent ground truth: closed-form kernels, an Euler-Lagrange shooting
solver, and a deliberately separate path enumerator.

Nothing here shares summation or sweep code with the propagator module;
the enumerator below walks paths by recursive descent in plain Python so
that agreement with the vectorized engine is a genuine cross-check.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .amplitude import Amplitude
from .errors import (CausticSingularity, InvalidParameter, NoConvergence,
                     ShootingFailure, TooLarge, UnboundedPotential)
from .lattice import LagrangianSpec, LatticePath, TimeGrid

if TYPE_CHECKING:
    from .propagator import PropagatorConfig

_NAIVE_GUARD = 10 ** 5
_SHOOT_SUBSTEPS = 8  # RK4 sub-intervals per grid step
_SHOOT_TOL = 1e-9  # |r(t_b) - b| at which bisection stops


@dataclass(frozen=True)
class AnalyticKernel:
    """Closed-form kernel family: free, harmonic, or euclidean_free."""

    family: str
    mass: float
    hbar: float
    T: float
    omega: Optional[float] = None

    def __post_init__(self):
        if self.family not in ("free", "harmonic", "euclidean_free"):
            raise InvalidParameter(f"unknown kernel family {self.family!r}")
        if self.family == "harmonic" and self.omega is None:
            raise InvalidParameter("harmonic family requires omega")
        if self.T <= 0:
            raise InvalidParameter("T must be positive")


def _free_quadratic(kernel: AnalyticKernel):
    """Coefficients of the free kernel as exp(qxx x^2 + qyy y^2 + qxy x y)."""
    q = 1j * kernel.mass / (2.0 * kernel.hbar * kernel.T)
    pref = cmath.sqrt(kernel.mass / (2j * math.pi * kernel.hbar * kernel.T))
    return pref, q, q, -2.0 * q


def _harmonic_quadratic(kernel: AnalyticKernel):
    wt = kernel.omega * kernel.T
    sn = math.sin(wt)
    if abs(sn) < 1e-12:
        raise CausticSingularity(f"sin(omega*T) = {sn} at omega*T = {wt}")
    cs = math.cos(wt)
    g = 1j * kernel.mass * kernel.omega / (2.0 * kernel.hbar * sn)
    pref = cmath.sqrt(kernel.mass * kernel.omega / (2j * math.pi * kernel.hbar * sn))
    return pref, g * cs, g * cs, -2.0 * g


def _windowed_value(pref, qxx, qyy, qxy, c0, c1, c2, s) -> complex:
    """Gaussian-windowed matrix element of a quadratic-phase kernel.

    Windows are unit-weight Gaussians of width s centered at a (source)
    and b (sink), both boosted by momentum p; the sink enters conjugated.
    In window-centred coordinates x = a + u, y = b + v the integrand's
    exponent is c0 + c1 u + c2 v - [u v] A [u v]^T: c0 is the kernel's
    phase at the centres with the windows' momentum phases, c1 and c2 are
    imaginary, and Re A is positive definite.  So the exact 2x2 complex
    Gaussian integral exponentiates the imaginary c0 and a term whose real
    part is at most 0, and nothing large is cancelled far from the origin.
    """
    a11 = 1.0 / (2.0 * s * s) - qxx
    a22 = 1.0 / (2.0 * s * s) - qyy
    a12 = -qxy / 2.0
    det = a11 * a22 - a12 * a12
    if det == 0:
        raise InvalidParameter(
            f"the window integral's determinant underflows to 0 at width {s!r}")
    # 0.25 * c^T A^{-1} c for the symmetric 2x2 inverse
    quad = 0.25 * (a22 * c1 * c1 - 2.0 * a12 * c1 * c2 + a11 * c2 * c2) / det
    return pref * cmath.exp(quad) / (2.0 * s * s) / cmath.sqrt(det) * cmath.exp(c0)


def analytic_propagator(kernel: AnalyticKernel, a: float, b: float,
                        source_width: Optional[float] = None,
                        source_momentum: Optional[float] = None) -> Amplitude:
    """Closed-form kernel value, pointwise or Gaussian-windowed.

    With source_width=None this is the textbook kernel K(b, a).  With a
    width s it is the matrix element <w_b| K |w_a> between unit-weight
    Gaussian windows of width s carrying momentum source_momentum
    (default: the classical momentum mass*(b-a)/T), which is the object
    the lattice engine converges to.  Raises NoConvergence when a free or
    harmonic value underflows to exactly 0, where no relative error can be
    formed; a Euclidean tail that underflows to 0 is the rounded density.
    """
    m, hb, T = kernel.mass, kernel.hbar, kernel.T
    if source_width is None:
        if kernel.family == "free":
            z = cmath.sqrt(m / (2j * math.pi * hb * T)) \
                * cmath.exp(1j * m * (b - a) ** 2 / (2.0 * hb * T))
        elif kernel.family == "euclidean_free":
            z = math.sqrt(m / (2.0 * math.pi * hb * T)) \
                * math.exp(-m * (b - a) ** 2 / (2.0 * hb * T))
        else:
            pref, qxx, qyy, qxy = _harmonic_quadratic(kernel)
            z = pref * cmath.exp(qxx * a * a + qyy * b * b + qxy * a * b)
    elif kernel.family == "euclidean_free":
        raise InvalidParameter(
            "windowed evaluation is defined for free and harmonic only")
    else:
        s = float(source_width)
        if s <= 0:
            raise InvalidParameter("source_width must be positive")
        d = b - a
        p = m * d / T if source_momentum is None else float(source_momentum)
        # the kernel's phase and its gradient at the window centres
        if kernel.family == "free":
            pref, qxx, qyy, qxy = _free_quadratic(kernel)
            phase, du, dv = qxx * d * d, -2.0 * qxx * d, 2.0 * qxx * d
        else:
            pref, qxx, qyy, qxy = _harmonic_quadratic(kernel)
            phase = qxx * a * a + qyy * b * b + qxy * a * b
            du, dv = 2.0 * qxx * a + qxy * b, 2.0 * qyy * b + qxy * a
        z = _windowed_value(pref, qxx, qyy, qxy, phase - 1j * p * d / hb,
                            du + 1j * p / hb, dv - 1j * p / hb, s)
    if z == 0 and kernel.family != "euclidean_free":
        raise NoConvergence(f"the {kernel.family} kernel underflows to 0")
    return Amplitude.from_complex(z)


def euclidean_harmonic_kernel(mass: float, omega: float, hbar: float,
                              T: float, a: float, b: float) -> float:
    """Imaginary-time harmonic kernel; used to check the stochastic engine."""
    sh = math.sinh(omega * T)
    ch = math.cosh(omega * T)
    pref = math.sqrt(mass * omega / (2.0 * math.pi * hbar * sh))
    expo = -mass * omega * ((a * a + b * b) * ch - 2.0 * a * b) / (2.0 * hbar * sh)
    return pref * math.exp(expo)


def shooting_euler_lagrange(lag: LagrangianSpec, a: float, b: float,
                            grid: TimeGrid) -> LatticePath:
    """Solve mass * r'' = -V'(r, t) with r(t_a)=a, shooting on r'(t_a).

    RK4 integration with _SHOOT_SUBSTEPS sub-intervals per grid step;
    bisection on the initial velocity until |r(t_b) - b| <= _SHOOT_TOL.
    """
    eps = grid.epsilon
    dt = eps / _SHOOT_SUBSTEPS

    def accel(r, t):
        return -float(lag.v_prime(np.asarray([r]), t)[0]) / lag.mass

    def integrate(v0, record=False):
        r, v = a, v0
        t = grid.t_a
        rec = [r]
        for i in range(grid.k):
            for _ in range(_SHOOT_SUBSTEPS):
                k1r, k1v = v, accel(r, t)
                k2r, k2v = v + 0.5 * dt * k1v, accel(r + 0.5 * dt * k1r, t + 0.5 * dt)
                k3r, k3v = v + 0.5 * dt * k2v, accel(r + 0.5 * dt * k2r, t + 0.5 * dt)
                k4r, k4v = v + dt * k3v, accel(r + dt * k3r, t + dt)
                r += dt * (k1r + 2 * k2r + 2 * k3r + k4r) / 6.0
                v += dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
                t += dt
            if record:
                rec.append(r)
        return (r, rec) if record else (r, None)

    def miss(v0):
        return integrate(v0)[0] - b

    v_straight = (b - a) / grid.duration
    span = max(1.0, abs(v_straight))
    v_lo, v_hi = v_straight - span, v_straight + span
    f_lo, f_hi = miss(v_lo), miss(v_hi)
    grow = 0
    while f_lo * f_hi > 0:
        span *= 2.0
        v_lo, v_hi = v_straight - span, v_straight + span
        f_lo, f_hi = miss(v_lo), miss(v_hi)
        grow += 1
        if grow > 60:
            raise ShootingFailure("no bracketing initial velocity found")
    for _ in range(200):
        v_mid = 0.5 * (v_lo + v_hi)
        f_mid = miss(v_mid)
        if abs(f_mid) <= _SHOOT_TOL:
            break
        if f_lo * f_mid <= 0:
            v_hi, f_hi = v_mid, f_mid
        else:
            v_lo, f_lo = v_mid, f_mid
    else:
        raise ShootingFailure(f"bisection stalled; residual {f_mid:.3e}")
    _, rec = integrate(v_mid, record=True)
    return LatticePath(tuple(rec))


def naive_enumeration(cfg: "PropagatorConfig") -> Amplitude:
    """Sum over all interior site assignments by plain recursive descent.

    Independent re-derivation of the pinned path sum: no arrays, no shared
    helpers; per-step phases recomputed from scratch with scalar math.
    The result is norm^k * dx^(k-1) * sum over paths of e^{i S / hbar}.
    A step whose midpoint V is +inf (a wall) gives its paths weight 0;
    V = -inf or NaN at a midpoint a path visits raises UnboundedPotential.
    """
    k = cfg.grid.k
    sites = cfg.space.sites
    if sites ** max(k - 1, 0) > _NAIVE_GUARD:
        raise TooLarge(f"{sites}^{k - 1} interior assignments exceed {_NAIVE_GUARD}")
    eps = cfg.grid.epsilon
    dx = cfg.space.dx
    xs = [cfg.space.lo + j * dx for j in range(sites)]
    xa = xs[cfg.space.nearest_index(cfg.a)]
    xb = xs[cfg.space.nearest_index(cfg.b)]
    mass, hbar = cfg.lag.mass, cfg.hbar
    norm_per_step = cmath.sqrt(mass / (2j * math.pi * hbar * eps))
    tmids = [cfg.grid.t_a + (i - 0.5) * eps for i in range(1, k + 1)]

    def step_phase(r0, r1, i):
        vmid = float(cfg.lag.v(np.asarray([(r0 + r1) / 2.0]), tmids[i])[0])
        if vmid == math.inf:
            return None
        if not vmid > -math.inf:
            raise UnboundedPotential(f"V = {vmid!r} at r = {(r0 + r1) / 2.0!r}")
        S = (0.5 * mass * ((r1 - r0) / eps) ** 2 - vmid) * eps
        return cmath.exp(1j * S / hbar)

    def descend(prev, depth):
        if depth == k - 1:
            w = step_phase(prev, xb, depth)
            return w if w is not None else 0.0
        total = 0.0 + 0.0j
        for xj in xs:
            w = step_phase(prev, xj, depth)
            if w is None:
                continue
            total += w * descend(xj, depth + 1)
        return total

    if k == 1:
        w = step_phase(xa, xb, 0)
        acc = w if w is not None else 0.0
    else:
        acc = descend(xa, 0)
    value = (norm_per_step ** k) * (dx ** (k - 1)) * acc
    return Amplitude.from_complex(complex(value))
