"""Time partitions, spatial grids, lattice paths, and the discretized action.

The action uses the midpoint rule on each step:

    S = sum_i [ m/2 * ((r_i - r_{i-1}) / eps)^2 - V((r_i + r_{i-1})/2, t_{i-1/2}) ] * eps

with eps = (t_b - t_a)/k and t_{i-1/2} = t_a + (i - 1/2)*eps.  A path with
a midpoint potential of +inf, or a kinetic term past float range, gets a
nonfinite action; the path sums give paths through a wall zero weight.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .amplitude import WaveSample, born_probability, phase_from_count
from .errors import (GridMismatch, InvalidParameter, NonpositiveUnit,
                     ZeroDenominator)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of (t_a, t_b) into k steps."""

    t_a: float
    t_b: float
    k: int

    def __post_init__(self):
        if not (isinstance(self.k, numbers.Integral) and self.k >= 1):
            raise InvalidParameter(f"k = {self.k!r} must be a positive integer")
        # compared while still an int: float(k) overflows past this
        if self.k > sys.float_info.max:
            raise InvalidParameter("k is beyond float64 range")
        # the duration is finite only when both endpoints are
        if not (math.isfinite(self.t_b - self.t_a) and self.t_b > self.t_a):
            raise InvalidParameter(f"t_a = {self.t_a!r} and t_b = {self.t_b!r} "
                                   "must be finite with t_b > t_a")
        if not self.epsilon > 0:
            raise InvalidParameter(f"the step (t_b - t_a) / k underflows to 0 "
                                   f"at t_b - t_a = {self.duration!r}, k = {self.k}")

    @property
    def epsilon(self) -> float:
        return (self.t_b - self.t_a) / self.k

    @property
    def duration(self) -> float:
        return self.t_b - self.t_a

    def times(self) -> np.ndarray:
        return self.t_a + self.epsilon * np.arange(self.k + 1)

    def midpoint_times(self) -> np.ndarray:
        """t_{i-1/2} for i = 1..k, where the step potential is evaluated."""
        return self.t_a + (np.arange(1, self.k + 1) - 0.5) * self.epsilon


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform spatial grid with sites points from lo to hi inclusive."""

    lo: float
    hi: float
    sites: int

    def __post_init__(self):
        if not (isinstance(self.sites, numbers.Integral) and self.sites >= 2):
            raise InvalidParameter(
                f"sites = {self.sites!r} must be an integer, at least 2")
        # the width is finite only when both ends are
        if not (math.isfinite(self.hi - self.lo) and self.hi > self.lo):
            raise InvalidParameter(f"lo = {self.lo!r} and hi = {self.hi!r} "
                                   "must be finite with hi > lo")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / (self.sites - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.sites)

    def nearest_index(self, r: float) -> int:
        j = int(round((r - self.lo) / self.dx))
        return min(max(j, 0), self.sites - 1)


@dataclass(frozen=True)
class LatticePath:
    """Site sequence r_0..r_k aligned with a TimeGrid."""

    sites: tuple[float, ...]

    def __post_init__(self):
        if len(self.sites) < 2:
            raise InvalidParameter("a path needs at least two sites")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.sites, dtype=float)


@dataclass(frozen=True)
class LagrangianSpec:
    """Mass and V(r, t), dV/dr optional; v, v_prime give arrays of r's shape."""

    mass: float
    potential: Callable[[np.ndarray, float], np.ndarray]
    label: str = ""
    potential_deriv: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    time_dependent: bool = False

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise InvalidParameter(
                f"mass = {self.mass!r} must be positive and finite")

    def v(self, r, t):
        return _shaped(self.potential, r, t)

    def v_prime(self, r, t):
        if self.potential_deriv is None:
            return central_difference(self.v, r, t)
        return _shaped(self.potential_deriv, r, t)

    def _at_midpoints(self, fn, r: np.ndarray, grid: TimeGrid) -> np.ndarray:
        """fn at each step's midpoint (r_{i-1} + r_i)/2 and midpoint time
        t_{i-1/2}, i = 1..k, for the k+1 sites r of a path on grid.

        A time-dependent potential calls fn once per step; any other calls
        it once on all k midpoints at t_{1/2}.
        """
        mids = 0.5 * (r[1:] + r[:-1])
        tmids = grid.midpoint_times()
        if self.time_dependent:
            return np.array([float(fn(m, t)) for m, t in zip(mids, tmids)])
        return fn(mids, tmids[0])


def _shaped(fn, r, t) -> np.ndarray:
    """fn(r, t) as a float array of r's shape, with no copy if it is one."""
    r = np.asarray(r, dtype=float)
    values = np.asarray(fn(r, t), dtype=float)
    return values if values.shape == r.shape else np.broadcast_to(values, r.shape)


def central_difference(f, r, t) -> np.ndarray:
    """df/dr at (r, t) as (f(r + h, t) - f(r - h, t)) / 2h, h = 1e-6 max(1, |r|)."""
    h = 1e-6 * np.maximum(1.0, np.abs(r))
    return (f(r + h, t) - f(r - h, t)) / (2.0 * h)


def free_particle(mass: float = 1.0) -> LagrangianSpec:
    return LagrangianSpec(mass=mass, potential=lambda r, t: np.zeros_like(r),
                          potential_deriv=lambda r, t: np.zeros_like(r),
                          label="free")


def harmonic_oscillator(mass: float = 1.0, omega: float = 1.0) -> LagrangianSpec:
    """V = m omega^2 r^2 / 2.  Where V passes float range it raises
    InvalidParameter, in every caller (the sweep, the enumeration, the
    Euclidean Monte Carlo and discretized_action): the overflow is not
    read as a wall, as an explicit V = +inf is."""
    # the potential's omega ** 2 raises OverflowError where omega * omega
    # is inf
    if not math.isfinite(mass * (omega * omega)):
        raise InvalidParameter(f"mass * omega**2 must be finite at mass = "
                               f"{mass!r}, omega = {omega!r}")
    half_k = 0.5 * mass * omega ** 2

    def potential(r, t):
        # r * r past float range is refused, not read as a wall
        try:
            with np.errstate(over="raise"):
                return half_k * r * r
        except FloatingPointError:
            raise InvalidParameter(
                f"the harmonic potential overflows at mass = {mass!r}, "
                f"omega = {omega!r}") from None

    return LagrangianSpec(mass=mass, potential=potential,
                          potential_deriv=lambda r, t: mass * omega ** 2 * r,
                          label=f"harmonic(omega={omega:g})")


def linear_potential(mass: float = 1.0, g: float = 1.0) -> LagrangianSpec:
    return LagrangianSpec(mass=mass,
                          potential=lambda r, t: g * r,
                          potential_deriv=lambda r, t: np.full_like(r, g),
                          label=f"linear(g={g:g})")


def discretized_action(path: LatticePath, grid: TimeGrid, lag: LagrangianSpec) -> float:
    """Midpoint-rule action of one lattice path."""
    r = path.as_array()
    if r.size != grid.k + 1:
        raise GridMismatch(f"path has {r.size} sites but grid has k={grid.k}")
    eps = grid.epsilon
    dr = np.diff(r)
    with np.errstate(over="ignore"):  # past float range: a nonfinite action
        kinetic = 0.5 * lag.mass * (dr / eps) ** 2
    pot = lag._at_midpoints(lag.v, r, grid)
    return float(np.sum((kinetic - pot) * eps))


def winding_of(S: float, h: float) -> float:
    """Winding m = S/h; the phase downstream is 2*pi*m."""
    if h <= 0:
        raise NonpositiveUnit(f"h={h} must be positive")
    return S / h


def transition_ratio(prev: WaveSample, next: WaveSample) -> float:
    """P(next)/P(prev); the phase factor drops out of the modulus."""
    p_prev = born_probability(phase_from_count(prev))
    if p_prev == 0.0:
        raise ZeroDenominator("conditioning sample has zero probability")
    p_next = born_probability(phase_from_count(next))
    return p_next / p_prev


def path_probability_product(samples: Sequence[WaveSample]) -> float:
    """Product of successive transition ratios along a sample path.

    Telescopes to (A_k/A_0)^2 up to floating rounding; windings never enter.
    """
    if len(samples) < 2:
        raise InvalidParameter("need at least two samples")
    prod = 1.0
    for prev, next in zip(samples[:-1], samples[1:]):
        prod *= transition_ratio(prev, next)
    return prod
