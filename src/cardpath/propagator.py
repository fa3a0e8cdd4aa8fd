"""Pinned path sums K(b, a) by exact enumeration, transfer-matrix sweep,
and Euclidean Monte Carlo.

Normalization: each time step carries norm_per_step = sqrt(mass/(2*pi*i*hbar*eps))
(principal branch), the unique choice under which the free-particle lattice
kernel reproduces the continuum kernel.  The k-step pinned sum is

    K = norm^k * dx^(k-1) * sum over interior assignments of e^{i S / hbar}

which the transfer matrix evaluates by sweeping the one-step kernel
matrix T[j', j] = norm * dx * e^{i S_step / hbar}.

Cost.  `Sweep(cfg)` applies the k steps.  On the uniform grid the kinetic
phase of T depends only on j' - j and the midpoint potential only on
j + j', so T is a Toeplitz matrix times a Hankel matrix, elementwise.  A
quadratic fit c0 + c1 r + c2 r^2 to V at the midpoints moves into two
diagonals and the Toeplitz factor, and what it leaves is a Hankel factor
e^{-i eps (V - fit) / hbar} of rank r under adaptive cross approximation.
A step is then r Toeplitz products applied with numpy.fft by circulant
embedding at padded length L ~ 2 * sites, in blocks of _ROW_BLOCK = 8:
O(r * sites log sites) time and about 16 * (2 * r * sites + min(r, 8) * L)
bytes, the factors and one block's work rows.  A quadratic V (free, linear,
harmonic, or quadratic in r at each step's midpoint time) is the exact
case r = 1; a quartic on a 2,986-site recipe grid has r = 28.  The dense
matrix, built from 3*sites - 1 exponentials and applied with BLAS in
O(sites^2) time and 16 * sites^2 bytes, is kept for a V that is +inf at
some midpoint (a hard wall makes the Hankel factor an indicator, of
full rank) and for ranks whose build and products are measured to take
longer than its own, as every rank does on small grids; the cross
approximation stops at that rank, so a V of high rank costs about two
dense builds.  Either step's arrays are held to one size guard, and
either reads V once per step.  Every step factor, the enumeration's
included, is 0 where V is +inf (no path crosses a wall), V = -inf or NaN
is refused with UnboundedPotential (a potential unbounded below or
undefined has no path sum), and a phase is refused with InvalidParameter
where it is not finite at a finite V.  A Sweep builds step 1 when it is
made and reuses it for every step when V is time-independent.

Exact enumeration visits all sites^(k-1) paths, up to a guard of 1e7.
It takes each step's pair factors from the dense step's kin and pot (with
norm * dx left out): V at the 2*sites - 1 midpoints and 3*sites - 1
exponentials per step, a row out of a for step 1, a column into b for
step k and a sites x sites block for each interior step; a
time-independent V is read and exponentiated once, and its interior
steps share one block.  It then spends one complex multiply per path per
step and no exponential per path, in blocks of at most about 2^16 paths
(or one site's worth): O(k * sites^(k-1)) time and O(CPUs * 2^16 +
k * sites^2) memory (sites^2 for a time-independent V), and O(sites) per
step at k <= 2.  The blocks run on the process's CPUs, one thread each,
and their sums are added in block order, so the value has the same bits
on any number of CPUs.  V is evaluated on the calling
thread before the blocks start.

The Euclidean Monte Carlo draws k - 1 normals per sample, in chunks of
_MC_CHUNK samples with one seed each.  It carries half the bridge's
deviation from the straight line a -> b, h_i = alpha_i h_{i-1} +
(sd_i / 2) z_i with h_0 = h_k = 0, so that step i's midpoint is the
line's plus h_{i-1} + h_i; it sums V over a sample's midpoints and scales
the sum by -eps / hbar once per chunk.  Each chunk is one job on the
process's CPUs, one thread each, and the chunks' weight sums are added in
chunk order, so the estimate and its stderr have the same bits on any
number of CPUs.  The potential is called from several threads at once, so
it must be pure.

Grid stability (the convergence recipe).  The all-pairs step matrix is a
sampled Fresnel chirp: its phase m d^2 / (2 hbar eps) advances by
m d dx / (hbar eps) per grid spacing at a distance d, up to
m W dx / (hbar eps) at the farthest site pair, with W the full grid width.
At 2 pi per spacing the chirp's first alias, whose stationary point lies
2 pi hbar eps / (m dx) from the source, enters the grid, and the sweep
grows exponentially instead of converging (a free packet on a grid of
width 4, k = 8 and 24, stayed bounded at 1.9 pi and grew from 2.1 pi).
Well before that, a step's sum over sites multiplies the kernel's chirp
by the state's own, which one step from a point source reaches as far, so
its summand advances by up to twice the kernel's phase per spacing; the
recipe keeps that sum under pi, the Nyquist limit of the sampled sum:

    mass * W * dx / (hbar * eps) <= pi / 2,  i.e.
    sites >= 2 * mass * W^2 * k * safety / (pi * hbar * T)

`convergence_recipe` applies this bound with safety 1.25, half-width
6*sqrt(hbar*T/mass) beyond the endpoints, and k=24; the interference
experiment applies the same pi / 2 to its one step, with W the farthest
distance its windows reach.

Endpoint windows.  A point source radiates a constant-modulus wave that
reaches the hard-wall grid edges at O(1) amplitude, and the resulting edge
diffraction decays only algebraically with wall distance, so pointwise
pinning cannot reach percent accuracy on desk-scale grids.  The converged
kernel values are therefore computed as matrix elements between narrow
Gaussian windows (width source_width, boosted by the classical momentum);
the analytic oracles provide the identically windowed closed forms, and
the pointwise kernel is recovered as source_width -> 0.
"""
from __future__ import annotations

import itertools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .amplitude import Amplitude, born_probability
from .errors import (GridMismatch, InvalidParameter, TooLarge,
                     UnboundedPotential)
from .lattice import LagrangianSpec, SpaceGrid, TimeGrid

RECIPE_K = 24
RECIPE_HALF_WIDTH_FACTOR = 6.0
RECIPE_ALIAS_SAFETY = 1.25
RECIPE_SOURCE_WIDTH_FACTOR = 0.4

_ENUM_GUARD = 10 ** 7
_DENSE_GUARD = 1 << 30  # bytes of one step operator: its dense matrix or FFT arrays
_ENUM_CHUNK = 1 << 16
_MC_CHUNK = 1 << 15  # Monte Carlo samples per seed and per pool job
# A quadratic fit to V within this step phase (rad) makes the FFT step
# agree with the dense matrix to rounding.
_FIT_PHASE_TOL = 1e-12
# ACA stops after two terms in a row below this fraction of the Hankel
# factor's norm.  A sweep's error adds up over its steps: stopping at one
# term below 1e-14, a quartic sweep of 16 steps came within 2x of the 1e-12
# gate against the dense steps; as set, the gated instances stay 10x
# inside it.
_ACA_TOL = 3e-15
# Pseudo-random vectors that check a stop of ACA, and the tolerance they
# check: the FFT's rounding of H x alone reads 0.1 to 0.25 of _ACA_TOL at 5
# to 3,000 sites.
_ACA_PROBES = 2
_ACA_PROBE_TOL = 10 * _ACA_TOL
# Rows of a rank-r step transformed at once, the height of its work buffer:
# on the 2,986-site quartic (r = 28) 8 rows hold 1.9 MB less than all r and
# a step took 2.6 ms against 2.7 to 4.2 ms (2-core x86, numpy 2.4.6).  The
# height does not change a step's bits.
_ROW_BLOCK = 8


@dataclass(frozen=True)
class PropagatorConfig:
    grid: TimeGrid
    space: SpaceGrid
    lag: LagrangianSpec
    hbar: float
    a: float
    b: float

    def __post_init__(self):
        if not 0 < self.hbar < math.inf:
            raise InvalidParameter(
                f"hbar = {self.hbar!r} must be positive and finite")
        # norm_per_step divides by 2 pi i hbar eps
        if not 2.0 * np.pi * self.hbar * self.grid.epsilon > 0:
            raise InvalidParameter(f"2 pi hbar eps underflows to 0 at hbar = "
                                   f"{self.hbar!r}, eps = {self.grid.epsilon!r}")
        # snapping to the nearest site is by design; an endpoint farther
        # than half a spacing off the grid would be clamped to its edge
        half = 0.5 * self.space.dx
        if not (self.space.lo - half <= self.a <= self.space.hi + half
                and self.space.lo - half <= self.b <= self.space.hi + half):
            raise InvalidParameter(
                f"a = {self.a!r} and b = {self.b!r} must be finite and within "
                f"half a spacing of [{self.space.lo!r}, {self.space.hi!r}]")

    @property
    def norm_per_step(self) -> complex:
        return complex(np.sqrt(
            np.complex128(self.lag.mass / (2j * np.pi * self.hbar * self.grid.epsilon))))


@dataclass(frozen=True)
class PropagatorResult:
    value: Amplitude
    method: str
    k: int
    sites: int
    stderr: Optional[float] = None
    snap_a: float = 0.0
    snap_b: float = 0.0

    @property
    def probability(self) -> float:
        """Transition probability |K|^2 (squared-modulus rule)."""
        return born_probability(self.value)


def convergence_recipe(lag: LagrangianSpec, hbar: float, t_total: float,
                       a: float, b: float, k: int = RECIPE_K):
    """Grid, step count, and window width for percent-level kernel runs.

    Returns (TimeGrid, SpaceGrid, source_width).  The spatial site count
    follows the chirp-resolution bound documented in the module docstring;
    it grows like W^2 * k, so k and sites are coupled rather than
    independent knobs.
    """
    scale = math.sqrt(hbar * t_total / lag.mass)
    source_width = RECIPE_SOURCE_WIDTH_FACTOR * scale
    # then hbar * t_total, and pi * hbar * t_total below, are nonzero too
    if not source_width > 0:
        raise InvalidParameter(
            f"the recipe's window width underflows to 0 at hbar = {hbar!r}, "
            f"t_total = {t_total!r}, mass = {lag.mass!r}")
    hw = RECIPE_HALF_WIDTH_FACTOR * scale
    lo, hi = min(a, b) - hw, max(a, b) + hw
    W = hi - lo
    grid = TimeGrid(0.0, t_total, k)  # refuses a k beyond float range
    sites = site_count(2.0 * lag.mass * W * W * k * RECIPE_ALIAS_SAFETY
                       / (math.pi * hbar * t_total))
    space = SpaceGrid(lo, hi, sites)
    return grid, space, source_width


def guard_bytes(nbytes, what: str) -> None:
    """Raise TooLarge unless nbytes, the size of what, is at most
    _DENSE_GUARD; a count that is not finite is refused too."""
    if not nbytes <= _DENSE_GUARD:
        raise TooLarge(f"{what} needs {nbytes:.3g} bytes, "
                       f"over the {_DENSE_GUARD}-byte guard")


def _fft_bytes(sites, size, rank=1):
    """Bytes of the arrays of an FFT step of the given rank: the midpoints
    and V there, g's transform at padded length size, a work buffer of
    min(rank, _ROW_BLOCK) rows of that length, and per rank its two
    sites-long factors."""
    return (16 * (2 * sites - 1) + 16 * size * (1 + min(rank, _ROW_BLOCK))
            + 32 * rank * sites)


def _fast_len(target: int) -> int:
    """The least 2^a 3^b 5^c 7^d 11^e >= target, a length at which numpy's
    FFT (pocketfft) is fast: scipy.fft.next_fast_len's for a complex
    transform.  Each odd 11-smooth m below the best so far is tried with
    the least power of 2 that lifts it to target."""
    best = 1 << (target - 1).bit_length()
    m11 = 1
    while m11 < best:
        m7 = m11
        while m7 < best:
            m5 = m7
            while m5 < best:
                m3 = m5
                while m3 < best:
                    m = m3 << ((target - 1) // m3).bit_length()
                    if m < best:
                        best = m
                    m3 *= 3
                m5 *= 5
            m7 *= 7
        m11 *= 11
    return best


def _max_rank(sites, size, applies):
    """The largest rank whose FFT step arrays at padded length size
    (_fft_bytes), with the probes of _aca and their transforms, are within
    _DENSE_GUARD bytes and, when the dense sites x sites matrix is within
    the guard too, whose cross approximation and `applies` products take
    less time than the matrix's build and as many products.  On grids of
    up to 60 to 107 sites, by applies, that is no rank."""
    spare = (_DENSE_GUARD - _fft_bytes(sites, size, 0)
             - 16 * _ACA_PROBES * (sites + size))
    # a rank adds its two factors and, up to _ROW_BLOCK, a work row
    rank = spare // (32 * sites + 16 * size)
    if rank > _ROW_BLOCK:
        rank = (spare - 16 * _ROW_BLOCK * size) // (32 * sites)
    if 16 * sites * sites <= _DENSE_GUARD:
        # per apply, in ns, measured at 500-6,000 sites (2-core x86, numpy
        # 2.4.6, with scipy.fft, whose batched transforms numpy.fft's
        # match to 5% at rank 27): rank r takes 4e4 r + 0.9 r^2 sites to
        # approximate and 18 r L to apply, the matrix 3.2 sites^2 to build
        # and 0.6 sites^2 to apply; the root of a r^2 + b r = c
        m = float(applies)
        a, b = 0.9 * sites / m, 4e4 / m + 18.0 * size
        c = (3.2 / m + 0.6) * sites * sites
        rank = min(rank, int(2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))))
    return rank


def site_count(intervals: float) -> int:
    """ceil(intervals) + 1 sites, for a grid of at least intervals spacings.

    Raises TooLarge while the count is still a float, when it is not finite
    or when even the FFT step's arrays for that many sites would exceed
    _DENSE_GUARD bytes (the dense step is larger still).
    """
    guard_bytes(_fft_bytes(intervals + 1.0, 2.0 * intervals + 1.0),
                f"the step operator of a grid of {intervals:.3g} spacings")
    return int(math.ceil(intervals)) + 1


def _midpoint_potential(cfg: PropagatorConfig, step_index: int):
    """The 2*sites - 1 distinct midpoints r_s = lo + s*dx/2 of site pairs,
    and V there at the step's midpoint time t_{i-1/2}."""
    r = cfg.space.lo + 0.5 * cfg.space.dx * np.arange(2 * cfg.space.sites - 1)
    return r, cfg.lag.v(r, cfg.grid.midpoint_times()[step_index - 1])


def _refuse_unbounded(v, what: str) -> None:
    """Raise UnboundedPotential where v, values of V named by what, is -inf
    or NaN: +inf is a wall, which no path crosses, but a potential
    unbounded below or undefined has no path sum."""
    if not np.all(v > -np.inf):
        raise UnboundedPotential(f"{what} is -inf or NaN")


def _exp_phase(cfg: PropagatorConfig, exponent, v=None) -> np.ndarray:
    """e^z, a new array, for the exponent z = exponent() of a step factor,
    formed with no float warning: 0 where V (v, of z's shape) is +inf,
    UnboundedPotential where V is -inf or NaN, and InvalidParameter where
    z is not finite at a finite V."""
    if v is not None:
        _refuse_unbounded(v, "the potential at a step's midpoints")
    with np.errstate(all="ignore"):
        z = exponent()
    ok = np.isfinite(z)
    if not np.all(ok if v is None else ok | np.isposinf(v)):
        raise InvalidParameter(f"a step's phase is not finite at eps = "
                               f"{cfg.grid.epsilon!r}, hbar = {cfg.hbar!r}")
    w = np.zeros(z.shape, dtype=complex)
    w[ok] = np.exp(z[ok])
    return w


_WHOLE = (slice(None), slice(None))


def _step_factor(cfg: PropagatorConfig, step_index: int, scale,
                 blocks=(_WHOLE,), v=None) -> list:
    """The blocks [rows, cols] (pairs of slices) of scale * e^{i S_step /
    hbar} on site pairs at step step_index, one array each, from one kin
    and one pot: kin[|j' - j|] * pot[j + j'] with kin[d] = scale *
    e^{i m (d dx)^2 / (2 eps hbar)} and pot[s] = e^{-i eps V(r_s) / hbar}
    at the midpoints (V = v when the caller has read it); TooLarge before
    V is read when the blocks together would exceed _DENSE_GUARD bytes."""
    n = cfg.space.sites
    shapes = [(len(range(n)[rows]), len(range(n)[cols])) for rows, cols in blocks]
    guard_bytes(16 * sum(a * b for a, b in shapes), "a step factor of " +
                " and ".join("%d x %d" % shape for shape in shapes))
    if v is None:
        _, v = _midpoint_potential(cfg, step_index)
    eps, hbar = cfg.grid.epsilon, cfg.hbar
    pot = _exp_phase(cfg, lambda: -1j * eps * v / hbar, v)
    d = cfg.space.dx * np.arange(n)
    kin = scale * _exp_phase(
        cfg, lambda: 1j * cfg.lag.mass * d * d / (2.0 * eps * hbar))
    toeplitz = sliding_window_view(np.concatenate([kin[:0:-1], kin]), n)[::-1]
    hankel = sliding_window_view(pot, n)
    return [toeplitz[rows, cols] * hankel[rows, cols] for rows, cols in blocks]


def step_matrix(cfg: PropagatorConfig, step_index: int = 1) -> np.ndarray:
    """One-step kernel matrix T[j', j] = norm * dx * e^{i S_step / hbar}.

    step_index selects the midpoint time t_{i-1/2} for time-dependent
    potentials.

    On the uniform grid T = kin[|j' - j|] * pot[j + j'] (_step_factor), so
    the build takes 3*sites - 1 exponentials and one sites x sites array; V
    = +inf gives zero weight.  Raises TooLarge, before V is read, over
    _DENSE_GUARD bytes, UnboundedPotential where V is -inf or NaN, and
    InvalidParameter where a factor's phase is not finite at a finite V.
    """
    return _step_factor(cfg, step_index, cfg.norm_per_step * cfg.space.dx)[0]


def _quadratic_fit(r: np.ndarray, v: np.ndarray):
    """(c0, c1, c2), the least-squares fit V ~ c0 + c1 r + c2 r^2 to finite
    V at the midpoints r, and the residual V - fit there.

    The midpoints are uniform, so in u = (r - center) / half, on [-1, 1]
    and symmetric about 0, the functions 1, u and p = u^2 - mean(u^2) are
    orthogonal, and the fit is V's projection onto each: a few pairwise
    sums, no LAPACK call."""
    center, half = 0.5 * (r[-1] + r[0]), 0.5 * (r[-1] - r[0])
    u = (r - center) / half
    p = u * u
    mean_p = np.mean(p)
    p -= mean_p
    a1 = np.sum(v * u) / np.sum(u * u)
    a2 = np.sum(v * p) / np.sum(p * p)
    a0 = np.mean(v) - a2 * mean_p
    c2 = a2 / (half * half)
    c1 = a1 / half - 2.0 * c2 * center
    c0 = a0 - a1 * center / half + c2 * center * center
    return (c0, c1, c2), v - (c0 + (c1 + c2 * r) * r)


def _probes(n: int) -> np.ndarray:
    """_ACA_PROBES x n fourth roots of unity, a fixed function of the index:
    entry [p, j] is i^k for k the top two bits of the splitmix64 hash of
    p n + j + 1 (in numpy uint64 arithmetic, which wraps), so that, as for
    independent uniform draws, E|x_j|^2 = 1 and E x_j conj(x_l) = 0 at
    j != l, and no random number generator is needed."""
    z = np.arange(1, _ACA_PROBES * n + 1, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return np.array([1, 1j, -1, -1j])[z >> 62].reshape(_ACA_PROBES, n)


def _aca(h: np.ndarray, max_rank: int, size: int):
    """(U, V), rank x sites arrays with sum_q U[q, i] V[q, j] equal to the
    Hankel matrix H[i, j] = h[i + j] to about _ACA_TOL of its Frobenius
    norm, which is sites as every |h[s]| = 1, or None when that takes more
    than max_rank terms.  U and V are the first rank rows of the two
    buffers the terms were written into, which grow by doubling, and
    nothing else refers to them, so the caller may scale them in place.

    Partially pivoted adaptive cross approximation (Bebendorf, Numer.
    Math. 86, 565 (2000)): each term is a residual row and column of H,
    i.e. slices of h, so it reads O(rank * sites) entries of H.  Its
    pivots may never reach a feature of h confined to a corner of H, such
    as a finite step at the first few midpoints, so a stop is checked by
    probing: for the _ACA_PROBES vectors x of _probes, whose |E x|^2 has
    the mean |E|_F^2 for the residual E, E x must be within the tolerance
    too (H x by FFT at padded length size, at least 2 sites - 1, once, at
    the first stop).  Where it is not, the row of its largest entry is the
    next pivot.
    """
    n = (h.size + 1) // 2
    x = None
    us = vs = np.empty((0, n), dtype=complex)
    free = np.ones(n, dtype=bool)  # rows not yet pivoted on
    norm2 = n * n  # squared Frobenius norm of H
    i = q = small = 0
    while q < max_rank:
        free[i] = False
        row = h[i:i + n] - us[:q, i] @ vs[:q]
        j = int(np.argmax(np.abs(row)))
        if row[j] == 0:  # row i is already exact; try the next free one
            if not free.any():
                break
            i = int(np.argmax(free))
            continue
        if q == len(us):
            grown = min(max(2 * q, 16), max_rank)
            us, vs = (np.concatenate([a, np.empty((grown - q, n), dtype=complex)])
                      for a in (us, vs))
        vs[q] = row / row[j]
        us[q] = h[j:j + n] - vs[:q, j] @ us[:q]
        uu = np.vdot(us[q], us[q]).real
        vv = np.vdot(vs[q], vs[q]).real
        q += 1
        small = small + 1 if uu * vv <= _ACA_TOL * _ACA_TOL * norm2 else 0
        if small < 2:
            i = int(np.argmax(np.where(free, np.abs(us[q - 1]), -1.0)))
            continue
        if x is None:
            x = _probes(n)
            # (H x)_i = sum_j h[i + j] x_j, a correlation that does not wrap
            # at a length of at least 2n - 1
            hx = np.fft.fft(x.conj(), size).conj()
            hx *= np.fft.fft(h, size)
            hx = np.fft.ifft(hx, out=hx)[:, :n]
        ex = hx - (x @ vs[:q].T) @ us[:q]
        if np.max(np.einsum("ij,ij->i", ex, ex.conj()).real) \
                <= _ACA_PROBE_TOL * _ACA_PROBE_TOL * norm2:
            break
        i = int(np.argmax(np.where(free, np.abs(ex).max(axis=0), -1.0)))
        small = 0
    else:
        return None
    return us[:q], vs[:q]


def _step(cfg: PropagatorConfig, step_index: int):
    """Step i of cfg: step @ psi is T psi, a new array, for T =
    step_matrix(cfg, i).

    An _FftStep of rank 1 when V at the 2*sites - 1 midpoints is
    c0 + c1 r + c2 r^2 to within _FIT_PHASE_TOL of step phase, and
    otherwise of the rank r that _aca finds for the Hankel factor
    e^{-i eps (V - fit) / hbar}; both transform at the one padded length
    L = _fast_len(2 sites - 1).  The dense matrix, from the V read
    here, when V is not finite at some midpoint (a wall makes that factor
    an indicator, of full rank), and when the rank-r step, built once and
    applied k times (once if V depends on time), would take longer than
    the matrix, as every rank would on small grids, or its arrays, about
    16 (2 r sites + min(r, _ROW_BLOCK) L) bytes, would exceed _DENSE_GUARD
    (_max_rank): then _aca stops at that rank.

    Raises TooLarge before V is evaluated when even the rank-1 arrays at
    their least padded length would exceed _DENSE_GUARD bytes, and
    InvalidParameter when a phase of the step it builds is not finite.
    """
    n = cfg.space.sites
    guard_bytes(_fft_bytes(n, 2 * n - 1), f"a {n}-site step operator")
    r, v = _midpoint_potential(cfg, step_index)
    if np.all(np.isfinite(v)):
        size = _fast_len(2 * n - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            fit, resid = _quadratic_fit(r, v)
            phase = cfg.grid.epsilon * resid / cfg.hbar
        if np.max(np.abs(phase)) <= _FIT_PHASE_TOL:  # False at inf or nan
            return _FftStep(cfg, fit, None, size)
        applies = 1 if cfg.lag.time_dependent else cfg.grid.k
        factors = _aca(_exp_phase(cfg, lambda: -1j * phase),
                       _max_rank(n, size, applies), size)
        if factors is not None:
            return _FftStep(cfg, fit, factors, size)
    return _step_factor(cfg, step_index, cfg.norm_per_step * cfg.space.dx,
                        v=v)[0]


class _FftStep:
    """The step T = scale * D * (Toeplitz(g) o Hankel(h)) * D, applied by
    FFT, where the fit V ~ c0 + c1 r + c2 r^2 at the midpoints gives

        g(d) = e^{i (m/(2 eps) + eps c2/4) d^2 / hbar},
        D(x) = e^{-i eps (c2 x^2/2 + c1 x/2) / hbar},
        scale = norm * dx * e^{-i eps c0 / hbar},

    and h[j + j'] = e^{-i eps (V - fit)(r_{j+j'}) / hbar} is the Hankel
    factor of what the fit leaves.  With h = sum_q U[q] V[q]^T (rank 1
    and U = V = 1 for a quadratic V),

        T psi = sum_q scale D U[q] * ifft(g_hat * fft(D V[q] psi)),

    r Toeplitz products with g by circulant embedding at padded length
    L = size, at least 2 sites - 1, with no sites x sites array.

    It keeps the factors that _aca returns, with D and scale multiplied
    into them in place, and owns one complex work buffer of
    min(r, _ROW_BLOCK) rows of length L (one row of length L at r = 1).
    @ runs the rows through it in blocks of that many: both numpy.fft
    transforms in place (out= gives the bits of out-of-place calls) and
    the factors multiplied in, each block's rows added to the running sum
    one after another, as one sum over all r rows adds them.  So a step
    holds its factors and one block, allocates only its sites-long result,
    and must not be applied twice at once.
    The reused buffer keeps a step's cost independent of the state of the
    heap, where fresh L-long arrays on every step may be faulted in anew.
    Raises TooLarge, before allocating, when the arrays at the padded
    length would exceed _DENSE_GUARD bytes, and InvalidParameter when the
    phase of g is not finite.
    """

    def __init__(self, cfg: PropagatorConfig, fit, factors, size):
        n = cfg.space.sites
        rank = 1 if factors is None else len(factors[0])
        guard_bytes(_fft_bytes(n, size, rank), f"a {n}-site step operator")
        eps, hbar = cfg.grid.epsilon, cfg.hbar
        c0, c1, c2 = fit
        chirp = cfg.lag.mass / (2.0 * eps) + 0.25 * eps * c2
        d = cfg.space.dx * np.arange(n)
        g = np.zeros(size, dtype=complex)
        g[:n] = _exp_phase(cfg, lambda: 1j * (chirp * d * d / hbar))
        g[size - n + 1:] = g[n - 1:0:-1]
        self._g_hat = np.fft.fft(g, out=g)
        x = cfg.space.points()
        self._d_in = np.exp(-1j * eps * (0.5 * c2 * x + 0.5 * c1) * x / hbar)
        scale = cfg.norm_per_step * cfg.space.dx
        self._d_out = scale * np.exp(-1j * eps * c0 / hbar) * self._d_in
        # rank 1 keeps 1-D arrays: (1, L) ones made the CLI's default
        # kernels about 10% slower
        self.rank = rank
        if factors is None:
            self._v_in, self._u_out = self._d_in, self._d_out
        else:
            self._u_out, self._v_in = factors
            self._u_out *= self._d_out
            self._v_in *= self._d_in
        self._work = np.empty((size,) if rank == 1
                              else (min(rank, _ROW_BLOCK), size), dtype=complex)

    def _convolve(self, v_in, psi, w):
        """The Toeplitz products of g with v_in * psi (a row or rows), in
        w, one such row or rows of padded length; returns the first sites
        entries of each."""
        n = psi.size
        np.multiply(v_in, psi, out=w[..., :n])
        w[..., n:] = 0.0
        np.fft.fft(w, out=w)
        w *= self._g_hat
        np.fft.ifft(w, out=w)
        return w[..., :n]

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        if self.rank == 1:
            return self._u_out * self._convolve(self._v_in, psi, self._work)
        height = len(self._work)
        for lo in range(0, self.rank, height):
            u = self._u_out[lo:lo + height]
            rows = self._convolve(self._v_in[lo:lo + height], psi,
                                  self._work[:len(u)])
            np.multiply(u, rows, out=rows)
            # the rows are added one after another, the running sum first,
            # as one sum over all r rows would add them
            if lo == 0:
                out = rows.sum(axis=0)
            else:
                rows[0] += out
                rows.sum(axis=0, out=out)
        return out


class Sweep:
    """The k steps of cfg as one operator, psi -> T_k ... T_1 psi.

    Building it builds step 1, so the size guard refuses a grid before the
    caller makes anything grid-sized.  A time-independent potential reuses
    that build for every step of every call, so that the sweeps of one
    configuration share it; a time-dependent one builds step i at step i.
    """

    def __init__(self, cfg: PropagatorConfig):
        self.cfg = cfg
        self._first = _step(cfg, 1)

    def __call__(self, psi: np.ndarray, keep: bool = False):
        """psi after the k steps; with keep=True the list psi_0 .. psi_k."""
        step = self._first
        states = [psi]
        for i in range(1, self.cfg.grid.k + 1):
            if i > 1 and self.cfg.lag.time_dependent:
                step = _step(self.cfg, i)
            psi = step @ psi
            if keep:
                states.append(psi)
        return states if keep else psi


def gaussian_window(x: np.ndarray, center: float, width: float,
                    momentum: float, hbar: float) -> np.ndarray:
    """Unit-weight Gaussian window with a momentum boost."""
    with np.errstate(over="ignore"):  # a square past float range weighs 0
        g = np.exp(-(x - center) ** 2 / (2.0 * width * width)) \
            / math.sqrt(2.0 * math.pi * width * width)
    return g * np.exp(1j * momentum * x / hbar)


def _endpoints(cfg: PropagatorConfig):
    """(ja, jb, snap_a, snap_b): the sites nearest a and b, and their
    distances from a and b."""
    x = cfg.space.points()
    ja = cfg.space.nearest_index(cfg.a)
    jb = cfg.space.nearest_index(cfg.b)
    return ja, jb, abs(x[ja] - cfg.a), abs(x[jb] - cfg.b)


def propagate_transfer_matrix(cfg: PropagatorConfig,
                              source_width: Optional[float] = None,
                              ) -> PropagatorResult:
    """Pinned path sum via k applications of the one-step kernel matrix.

    source_width=None: delta endpoints snapped to the grid, initial vector
    delta_a / dx, result psi_k at the b site.  This is the form that agrees
    with enumeration on any grid.

    source_width=s: Gaussian-windowed matrix element <w_b| T^k |w_a> * dx
    with windows of width s and momentum boost mass*(b-a)/T.  Use with
    `convergence_recipe` grids; compare against
    oracles.analytic_propagator(..., source_width=s).
    """
    evolve = Sweep(cfg)  # size guard before any grid-sized array
    ja, jb, snap_a, snap_b = _endpoints(cfg)
    if source_width is None:
        psi = np.zeros(cfg.space.sites, dtype=complex)
        psi[ja] = 1.0 / cfg.space.dx
        value = complex(evolve(psi)[jb])
    else:
        momentum = cfg.lag.mass * (cfg.b - cfg.a) / cfg.grid.duration
        x = cfg.space.points()
        psi = evolve(gaussian_window(x, cfg.a, source_width, momentum, cfg.hbar))
        wb = gaussian_window(x, cfg.b, source_width, momentum, cfg.hbar)
        value = complex((np.conj(wb) * psi).sum() * cfg.space.dx)
    return PropagatorResult(
        value=Amplitude.from_complex(value), method="transfer_matrix",
        k=cfg.grid.k, sites=cfg.space.sites, snap_a=snap_a, snap_b=snap_b)


def compose(kernel_from_a: np.ndarray, kernel_to_b: np.ndarray, dx: float) -> Amplitude:
    """Chapman-Kolmogorov glue: K(b,a) = sum_c K(b,c) K(c,a) dx."""
    if kernel_from_a.shape != kernel_to_b.shape:
        raise GridMismatch("kernel vectors live on different grids")
    return Amplitude.from_complex(complex((kernel_to_b * kernel_from_a).sum() * dx))


def _workers() -> int:
    """CPUs this process may run on; the pool runs one thread on each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_sum(fn, jobs):
    """The sum of fn(job) over the jobs, added in job order; the jobs run
    on a pool of min(_workers(), len(jobs)) threads.

    The work must be numpy calls that release the interpreter lock for the
    pool to gain anything.  The results are added in job order, not in the
    order they finish, so the sum has the same bits on any number of CPUs.
    """
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(_workers(), len(jobs))) as pool:
        return sum(pool.map(fn, jobs))


def propagate_enumerate(cfg: PropagatorConfig) -> PropagatorResult:
    """Exact sum over all sites^(k-1) interior assignments, endpoints pinned.

    Each step's factor e^{i S_step / hbar} is the dense step's less
    norm * dx (_step_factor) on a row out of a for step 1, a column into b
    for step k and a sites x sites block for each interior step, by the
    sweep's rule for V (module docstring).  A time-independent V is read
    once, and its interior steps share one block.  The products of factors
    over the fastest interior sites are broadcast into one block of at most
    about _ENUM_CHUNK paths (at least one site's worth), the remaining
    sites are looped over in mixed radix, and each block's path weights are
    summed with one np.sum.  Every path's weight is the product of its factors in
    step order, ((w_1 w_2) ...) w_k, so its bits do not depend on the
    blocking, and it is finite even where the sum of its actions is not.

    The blocks run on a thread pool with one thread per CPU of the process,
    and their weights are added in mixed-radix order, so the value has the
    same bits on any number of CPUs.  Every call of the potential happens
    before the pool starts, on the calling thread.
    """
    k = cfg.grid.k
    sites = cfg.space.sites
    n_int = k - 1
    total = sites ** n_int
    if total > _ENUM_GUARD:
        raise TooLarge(f"{sites}^{n_int} = {total} interior assignments exceed {_ENUM_GUARD}")
    ja, jb, snap_a, snap_b = _endpoints(cfg)
    # steps[i - 1][p, q]: e^{i S / hbar} of step i from site p to site q,
    # where step 1 leaves a and step k enters b, each as index 0
    blocks = [(slice(ja, ja + 1) if i == 1 else slice(None),
               slice(jb, jb + 1) if i == k else slice(None))
              for i in range(1, k + 1)]
    if cfg.lag.time_dependent:
        steps = [_step_factor(cfg, i, 1.0, [block])[0]
                 for i, block in enumerate(blocks, 1)]
    elif k <= 2:
        steps = _step_factor(cfg, 1, 1.0, blocks)
    else:  # step 1, the interior steps' one block, step k
        first, inner, last = _step_factor(cfg, 1, 1.0, blocks[:2] + blocks[-1:])
        steps = [first] + [inner] * (k - 2) + [last]
    fast = 1
    while fast < n_int and sites ** (fast + 1) <= _ENUM_CHUNK:
        fast += 1
    # head[j_1, .., j_fast]: the factors of steps 1 .. fast, multiplied
    head = steps[0][0]
    for step in steps[1:fast]:
        head = head[..., None] * step

    def block_weight(rest):
        # rest: the sites j_{fast+1} .. j_k of one block, j_k being b's 0
        w, prev = head, slice(None)
        for step, j in zip(steps[fast:], rest):
            w = w * step[prev, j]
            prev = j
        return np.sum(w)

    sizes = [sites] * n_int + [1]
    blocks = list(itertools.product(*map(range, sizes[fast:])))
    acc = _ordered_sum(block_weight, blocks)
    value = (cfg.norm_per_step ** k) * (cfg.space.dx ** n_int) * acc
    return PropagatorResult(
        value=Amplitude.from_complex(complex(value)), method="enumeration",
        k=k, sites=sites, snap_a=snap_a, snap_b=snap_b)


def propagate_monte_carlo_euclidean(cfg: PropagatorConfig, samples: int,
                                    seed: int) -> PropagatorResult:
    """Imaginary-time kernel estimate by exact Brownian-bridge sampling.

    Paths are drawn from the free Euclidean bridge measure between a and b
    (sequential Gaussian conditionals, no accept/reject step), and each
    carries the weight e^{-(eps/hbar) * sum_i V(midpoint_i)}, 0 through a
    wall (V = +inf).  V = -inf or NaN on the space grid at t_a, or a
    sampled path's summed V that is -inf or NaN (a -inf or NaN midpoint,
    or finite values so negative that the sum overflows), raises
    UnboundedPotential, and a weight whose value, square or sum over the
    samples is past float range raises InvalidParameter.  A potential that
    refuses its own overflow, as lattice.harmonic_oscillator's does, raises
    its InvalidParameter here too, on the grid or at a sampled midpoint,
    where it is not read as a wall.  The estimator is the free Euclidean kernel times the mean
    weight, so for V = 0 it is exact with zero variance.

    A sample is drawn as half its deviation from the straight line
    a -> b, h_i = alpha_i h_{i-1} + (sd_i / 2) z_i with alpha_i =
    tau_i / (tau_i + eps), tau_i = (k - i) eps and h_0 = h_k = 0: the same
    normals z_i, in the same order, give the same paths as the conditionals
    of the positions.  Step i's midpoint is the line's plus h_{i-1} + h_i,
    V is summed over the midpoints, and the sum is scaled by -eps / hbar
    once per chunk.

    The samples come in chunks of _MC_CHUNK, and each chunk is one job on
    a thread pool with one thread per CPU of the process (numpy's normal
    draws and array loops release the interpreter lock).  Job c seeds its
    draws with SeedSequence(seed, spawn_key=(c,)), the c-th child of
    SeedSequence(seed).spawn, so no list of seeds is built up front; it
    allocates its arrays once and updates the bridge in place.  The chunks' weight sums are added in
    chunk order, so the estimate and its stderr are bitwise reproducible
    and do not depend on the number of threads.  seed must be a
    nonnegative integer (InvalidParameter otherwise: None would draw fresh
    entropy from the OS).  The potential is called from several threads at
    once and must be a pure, elementwise function.
    """
    if not (isinstance(samples, numbers.Integral) and samples >= 100):
        raise InvalidParameter(
            f"samples = {samples!r} must be an integer, at least 100")
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
            and seed >= 0):
        raise InvalidParameter(
            f"seed = {seed!r} must be a nonnegative integer")
    k = cfg.grid.k
    eps = cfg.grid.epsilon
    mass, hbar = cfg.lag.mass, cfg.hbar
    _refuse_unbounded(cfg.lag.v(cfg.space.points(), cfg.grid.t_a),
                      "the potential on the space grid")
    tmids = cfg.grid.midpoint_times()
    T = cfg.grid.duration
    kfree = math.sqrt(mass / (2.0 * math.pi * hbar * T)) \
        * math.exp(-mass * (cfg.b - cfg.a) ** 2 / (2.0 * hbar * T))
    n_chunks = (samples + _MC_CHUNK - 1) // _MC_CHUNK
    # per step i: the straight line a -> b at its midpoint time, and per
    # interior step its alpha = tau_rest / (tau_rest + eps) and half its sd
    line = [cfg.a + (cfg.b - cfg.a) * (i - 0.5) / k for i in range(1, k + 1)]
    bridge = []
    for i in range(1, k):
        tau_rest = (k - i) * eps
        var = (hbar / mass) * eps * tau_rest / (eps + tau_rest)
        bridge.append((tau_rest / (tau_rest + eps), 0.5 * math.sqrt(var)))

    def chunk_sums(c):
        n = min(_MC_CHUNK, samples - c * _MC_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))
        # prev, cur: h_{i-1} and h_i, half the bridge's deviation from the
        # line, 0 at a and at b
        prev, cur = np.zeros(n), np.empty(n)
        mid, vsum = np.empty(n), np.zeros(n)
        for i in range(1, k + 1):
            if i < k:
                alpha, half_sd = bridge[i - 1]
                rng.standard_normal(out=cur)
                cur *= half_sd
                np.multiply(prev, alpha, out=mid)
                cur += mid
            else:
                cur.fill(0.0)
            np.add(prev, cur, out=mid)
            mid += line[i - 1]
            v = cfg.lag.v(mid, tmids[i - 1])
            with np.errstate(over="ignore"):  # -inf is refused below
                vsum += v
            prev, cur = cur, prev
        _refuse_unbounded(vsum, "the potential summed over a sampled path")
        with np.errstate(over="ignore"):  # the weights, then their squares, in vsum
            np.multiply(vsum, -eps / hbar, out=vsum)
            np.exp(vsum, out=vsum)
            sum_w = vsum.sum()
            np.multiply(vsum, vsum, out=vsum)
            return np.array([sum_w, vsum.sum()])

    with np.errstate(over="ignore"):
        sums = _ordered_sum(chunk_sums, range(n_chunks))
    if not np.all(np.isfinite(sums)):
        raise InvalidParameter(
            "a Monte Carlo weight e^{-(eps/hbar) sum V}, or its square, "
            f"overflows float64 at eps = {eps!r}, hbar = {hbar!r}")
    sum_w, sum_w2 = sums.tolist()
    mean_w = sum_w / samples
    var_w = max(0.0, (sum_w2 - samples * mean_w * mean_w) / max(samples - 1, 1))
    est = kfree * mean_w
    stderr = kfree * math.sqrt(var_w / samples)
    return PropagatorResult(
        value=Amplitude(est, 0.0), method="monte_carlo",
        k=k, sites=cfg.space.sites, stderr=stderr)
