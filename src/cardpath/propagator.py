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
A step is then r Toeplitz products applied with scipy.fft by circulant
embedding at padded length L ~ 2 * sites: O(r * sites log sites) time and
about 16 * r * (L + 2 * sites) bytes.  A quadratic V (free, linear,
harmonic, or quadratic in r at each step's midpoint time) is the exact
case r = 1; a quartic on a 2,986-site recipe grid has r = 33.  The dense
matrix, built from 3*sites exponentials and applied with BLAS in
O(sites^2) time and 16 * sites^2 bytes, is kept for a V that is not finite
at some midpoint (a hard wall makes the Hankel factor an indicator, of
full rank) and for ranks whose build and products are measured to take
longer than its own, as every rank does on small grids; the cross
approximation stops at that rank, so a V of high rank costs about two
dense builds.  Either step's arrays are held to one size guard.  A Sweep
builds step 1 when it is made and reuses it for every step when V is
time-independent.

Exact enumeration visits all sites^(k-1) paths, up to a guard of 1e7.
It evaluates V on about (k-2) * sites^2 site pairs, once per step, and
spends one addition per step and one complex exponential per path, in
blocks of at most about 2^16 paths (or one site's worth): O(k * sites^(k-1))
time and O(CPUs * 2^16 + k * sites^2) memory.  The blocks run on the
process's CPUs, one thread each, and their sums are added in block order,
so the value has the same bits on any number of CPUs.  V is evaluated on
the calling thread before the blocks start.

The Euclidean Monte Carlo draws k - 1 normals per sample, in chunks of
4096 samples with one seed each.  Blocks of _MC_BLOCK chunks run on the
process's CPUs, one thread each, each block updating its own arrays in
place.  The chunk sums are combined in chunk order, so the estimate and
its stderr have the same bits on any number of CPUs.  The potential is
called from several threads at once, so it must be pure.

Grid stability (the convergence recipe).  The all-pairs step matrix is a
sampled Fresnel chirp; if the phase between the farthest site pair advances
more than pi per grid spacing, the discrete sum acquires aliased images
inside the domain and the sweep grows exponentially instead of converging.
Resolving the chirp everywhere requires

    mass * W * dx / (hbar * eps) <= pi,  i.e.
    sites >= 2 * mass * W^2 * k * safety / (pi * hbar * T)

with W the full grid width.  `convergence_recipe` applies this bound with
safety 1.25, half-width 6*sqrt(hbar*T/mass) beyond the endpoints, and k=24.

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
_MC_CHUNK = 4096
_MC_BLOCK = 8  # Monte Carlo chunks per pool job; 4 to 16 time the same
# A quadratic fit to V within this step phase (rad) makes the FFT step
# agree with the dense matrix to rounding.
_FIT_PHASE_TOL = 1e-12
# ACA stops after two terms in a row below this fraction of the Hankel
# factor's norm.  A sweep's error adds up over its steps: stopping at one
# term below 1e-14, a quartic sweep of 16 steps came within 2x of the 1e-12
# gate against the dense steps; as set, the gated instances stay 10x
# inside it.
_ACA_TOL = 3e-15
# Random vectors that check a stop of ACA, and the tolerance they check:
# the FFT's rounding of H x alone reads 0.1 to 0.25 of _ACA_TOL at 5 to
# 3,000 sites.
_ACA_PROBES = 2
_ACA_PROBE_TOL = 10 * _ACA_TOL


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
    and V there, g's transform at padded length size, and per rank a work
    row of that length and its two sites-long factors."""
    return 16 * (2 * sites - 1) + 16 * size + 16 * rank * (size + 2 * sites)


def _max_rank(sites, size, applies):
    """The largest rank whose FFT step arrays at padded length size, with
    the probes of _aca, of about the size of _ACA_PROBES more ranks, are
    within _DENSE_GUARD bytes and, when the dense sites x sites matrix is
    within the guard too, whose cross approximation and `applies` products
    take less time than the matrix's build and as many products.  On
    grids of up to 60 to 107 sites, by applies, that is no rank."""
    per_rank = _fft_bytes(sites, size, 1) - _fft_bytes(sites, size, 0)
    rank = (_DENSE_GUARD - _fft_bytes(sites, size, _ACA_PROBES)) // per_rank
    if 16 * sites * sites <= _DENSE_GUARD:
        # per apply, in ns, measured at 500-6,000 sites (2-core x86, numpy
        # 2.4.6, scipy 1.17.1): rank r takes 4e4 r + 0.9 r^2 sites to
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
    t_mid = cfg.grid.t_a + (step_index - 0.5) * cfg.grid.epsilon
    return r, np.broadcast_to(cfg.lag.v(r, t_mid), r.shape)


def step_matrix(cfg: PropagatorConfig, step_index: int = 1) -> np.ndarray:
    """One-step kernel matrix T[j', j] = norm * dx * e^{i S_step / hbar}.

    step_index selects the midpoint time t_{i-1/2} for time-dependent
    potentials.

    On the uniform grid T = norm * dx * kin[|j' - j|] * pot[j + j'], so the
    build takes 3*sites exponentials and one sites x sites allocation; a
    midpoint where V is not finite gives zero weight.  Raises TooLarge,
    before allocating, when the matrix would exceed _DENSE_GUARD bytes.
    """
    n = cfg.space.sites
    guard_bytes(n * n * 16, f"a {n} x {n} step matrix")
    dx = cfg.space.dx
    d = dx * np.arange(n)
    norm = cfg.norm_per_step
    kin = norm * dx * np.exp(1j * cfg.lag.mass * d * d
                             / (2.0 * cfg.grid.epsilon * cfg.hbar))
    _, v = _midpoint_potential(cfg, step_index)
    ok = np.isfinite(v)
    pot = np.zeros(v.size, dtype=complex)
    pot[ok] = np.exp(-1j * cfg.grid.epsilon * v[ok] / cfg.hbar)
    toeplitz = sliding_window_view(np.concatenate([kin[:0:-1], kin]), n)[::-1]
    hankel = sliding_window_view(pot, n)
    return toeplitz * hankel


def _quadratic_fit(r: np.ndarray, v: np.ndarray):
    """(c0, c1, c2), the least-squares fit V ~ c0 + c1 r + c2 r^2 to finite
    V at the midpoints r, and the residual V - fit there."""
    center, half = 0.5 * (r[-1] + r[0]), 0.5 * (r[-1] - r[0])
    u = (r - center) / half
    a0, a1, a2 = np.linalg.lstsq(np.stack([np.ones_like(u), u, u * u], axis=1),
                                 v, rcond=None)[0]
    c2 = a2 / (half * half)
    c1 = a1 / half - 2.0 * c2 * center
    c0 = a0 - a1 * center / half + c2 * center * center
    return (c0, c1, c2), v - (c0 + (c1 + c2 * r) * r)


def _aca(h: np.ndarray, max_rank: int, size: int):
    """(U, V), rank x sites arrays with sum_q U[q, i] V[q, j] equal to the
    Hankel matrix H[i, j] = h[i + j] to about _ACA_TOL of its Frobenius
    norm, which is sites as every |h[s]| = 1, or None when that takes more
    than max_rank terms.

    Partially pivoted adaptive cross approximation (Bebendorf, Numer.
    Math. 86, 565 (2000)): each term is a residual row and column of H,
    i.e. slices of h, so it reads O(rank * sites) entries of H.  Its
    pivots may never reach a feature of h confined to a corner of H, such
    as a finite step at the first few midpoints, so a stop is checked by
    probing: for _ACA_PROBES seeded random vectors x with E|x_j|^2 = 1,
    whose |E x|^2 has the mean |E|_F^2 for the residual E, E x must be
    within the tolerance too (H x by FFT at padded length size, at least
    2 sites - 1, once, at the first stop).  Where it is not, the row of
    its largest entry is the next pivot.
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
            import scipy.fft
            rng = np.random.default_rng(0)
            x = (rng.standard_normal((_ACA_PROBES, n))
                 + 1j * rng.standard_normal((_ACA_PROBES, n))) / math.sqrt(2.0)
            # (H x)_i = sum_j h[i + j] x_j, a correlation that does not wrap
            # at a length of at least 2n - 1
            hx = scipy.fft.fft(x.conj(), size).conj()
            hx *= scipy.fft.fft(h, size)
            hx = scipy.fft.ifft(hx, overwrite_x=True)[:, :n]
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
    L = next_fast_len(2 sites - 1).  The dense matrix itself when V is not
    finite at some midpoint (a hard wall makes that factor an indicator,
    of full rank), and when the rank-r step, built once and applied k
    times (once if V depends on time), would take longer than the matrix,
    as every rank would on small grids, or its arrays, about
    16 r (L + 2 sites) bytes, would exceed _DENSE_GUARD (_max_rank): then
    _aca stops at that rank.

    Raises TooLarge before V is evaluated when even the rank-1 arrays at
    their least padded length would exceed _DENSE_GUARD bytes, and
    InvalidParameter when eps (V - fit) / hbar is not finite.
    """
    n = cfg.space.sites
    guard_bytes(_fft_bytes(n, 2 * n - 1), f"a {n}-site step operator")
    r, v = _midpoint_potential(cfg, step_index)
    if not np.all(np.isfinite(v)):
        return step_matrix(cfg, step_index)
    import scipy.fft
    size = scipy.fft.next_fast_len(2 * n - 1)
    eps, hbar = cfg.grid.epsilon, cfg.hbar
    with np.errstate(over="ignore", invalid="ignore"):
        fit, resid = _quadratic_fit(r, v)
        phase = eps * resid / hbar
    if not np.all(np.isfinite(phase)):
        raise InvalidParameter(
            f"the step phase eps (V - fit) / hbar of step {step_index} is not "
            f"finite at eps = {eps!r}, hbar = {hbar!r}")
    if np.max(np.abs(phase)) <= _FIT_PHASE_TOL:
        return _FftStep(cfg, fit, None, size)
    applies = 1 if cfg.lag.time_dependent else cfg.grid.k
    factors = _aca(np.exp(-1j * phase), _max_rank(n, size, applies), size)
    if factors is None:
        return step_matrix(cfg, step_index)
    return _FftStep(cfg, fit, factors, size)


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

    It owns one complex r x L work buffer (of length L at r = 1), and @
    runs both transforms in it in place (scipy's overwrite_x gives the
    bits of out-of-place calls) and multiplies the factors into it, so a
    step allocates only its sites-long result and one step must not be
    applied twice at once.
    The reused buffer keeps a step's cost independent of the state of the
    heap, where fresh L-long arrays on every step may be faulted in anew.

    The transform is scipy.fft, which _step imports only for a finite V,
    so that a run with dense steps only loads no scipy: numpy.fft gives
    the same bits but measured 8-14% slower at L = 2,000-8,064 (numpy
    2.4.6, also with out=).  Raises TooLarge, before allocating, when the
    arrays at the padded length would exceed _DENSE_GUARD bytes.
    """

    def __init__(self, cfg: PropagatorConfig, fit, factors, size):
        import scipy.fft
        n = cfg.space.sites
        rank = 1 if factors is None else len(factors[0])
        guard_bytes(_fft_bytes(n, size, rank), f"a {n}-site step operator")
        eps, hbar = cfg.grid.epsilon, cfg.hbar
        c0, c1, c2 = fit
        chirp = cfg.lag.mass / (2.0 * eps) + 0.25 * eps * c2
        self._fft, self._ifft = scipy.fft.fft, scipy.fft.ifft
        g = np.zeros(size, dtype=complex)
        d = cfg.space.dx * np.arange(n)
        g[:n] = np.exp(1j * chirp * d * d / hbar)
        g[size - n + 1:] = g[n - 1:0:-1]
        self._g_hat = self._fft(g, overwrite_x=True)
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
            self._u_out = factors[0] * self._d_out
            self._v_in = factors[1] * self._d_in
        self._work = np.empty((size,) if rank == 1 else (rank, size),
                              dtype=complex)

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        n, w = self._d_in.size, self._work
        np.multiply(self._v_in, psi, out=w[..., :n])
        w[..., n:] = 0.0
        w = self._fft(w, overwrite_x=True)
        w *= self._g_hat
        w = self._ifft(w, overwrite_x=True)
        if self.rank == 1:
            return self._u_out * w[:n]
        return np.multiply(self._u_out, w[:, :n], out=w[:, :n]).sum(axis=0)


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
    g = np.exp(-(x - center) ** 2 / (2.0 * width * width)) \
        / math.sqrt(2.0 * math.pi * width * width)
    return g * np.exp(1j * momentum * x / hbar)


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
    momentum = cfg.lag.mass * (cfg.b - cfg.a) / cfg.grid.duration
    x = cfg.space.points()
    ja = cfg.space.nearest_index(cfg.a)
    jb = cfg.space.nearest_index(cfg.b)
    if source_width is None:
        psi = np.zeros(cfg.space.sites, dtype=complex)
        psi[ja] = 1.0 / cfg.space.dx
        value = complex(evolve(psi)[jb])
    else:
        psi = evolve(gaussian_window(x, cfg.a, source_width, momentum, cfg.hbar))
        wb = gaussian_window(x, cfg.b, source_width, momentum, cfg.hbar)
        value = complex((np.conj(wb) * psi).sum() * cfg.space.dx)
    return PropagatorResult(
        value=Amplitude.from_complex(value), method="transfer_matrix",
        k=cfg.grid.k, sites=cfg.space.sites,
        snap_a=abs(x[ja] - cfg.a), snap_b=abs(x[jb] - cfg.b))


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


def _ordered_map(fn, jobs):
    """fn(job) for each job, on a pool of min(_workers(), len(jobs))
    threads, yielded in job order.

    The work must be numpy calls that release the interpreter lock for the
    pool to gain anything.  Callers that add up what it yields in job order
    get the same bits on any number of CPUs.
    """
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(_workers(), len(jobs))) as pool:
        yield from pool.map(fn, jobs)


def propagate_enumerate(cfg: PropagatorConfig) -> PropagatorResult:
    """Exact sum over all sites^(k-1) interior assignments, endpoints pinned.

    Each step's action is evaluated once on site pairs at the step's
    midpoint time: a row out of a for step 1, a column into b for step k,
    and a sites x sites block for each interior step.  The partial actions
    over the fastest interior sites are broadcast into one block of at most
    about _ENUM_CHUNK paths (at least one site's worth), and the remaining
    sites are looped over in mixed radix.  Every path's action is summed in
    step order, ((S_1 + S_2) + ...) + S_k, so its bits do not depend on the
    blocking.  Paths through a midpoint where the potential is +inf carry
    zero weight.

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
    x = cfg.space.points()
    dx = cfg.space.dx
    eps = cfg.grid.epsilon
    ja = cfg.space.nearest_index(cfg.a)
    jb = cfg.space.nearest_index(cfg.b)
    tmids = cfg.grid.midpoint_times()
    mass, hbar = cfg.lag.mass, cfg.hbar

    def step_action(i, r0, r1):
        drv = (r1 - r0) / eps
        vm = cfg.lag.v(0.5 * (r1 + r0), tmids[i - 1])
        return (0.5 * mass * drv * drv - vm) * eps

    def weight(S):
        return np.sum(np.exp(1j * S[np.isfinite(S)] / hbar))

    xa, xb = x[ja:ja + 1], x[jb:jb + 1]
    if n_int == 0:
        acc = weight(step_action(1, xa, xb))
    else:
        # pairs[i - 2][p, q]: action of step i from site p to site q
        pairs = [step_action(i, x[:, None], x[None, :]) for i in range(2, k)]
        last = step_action(k, x, xb)
        fast = 1
        while fast < n_int and sites ** (fast + 1) <= _ENUM_CHUNK:
            fast += 1
        # head[j_1, .., j_fast]: actions of steps 1 .. fast
        head = step_action(1, xa, x)
        for block in pairs[:fast - 1]:
            head = head[..., None] + block
        if fast == n_int:
            acc = weight(head + last)
        else:
            def block_weight(slow):
                S = head + pairs[fast - 1][:, slow[0]]
                for i in range(1, len(slow)):
                    S = S + pairs[fast - 1 + i][slow[i - 1], slow[i]]
                return weight(S + last[slow[-1]])

            acc = 0.0 + 0.0j
            blocks = list(itertools.product(range(sites), repeat=n_int - fast))
            for w in _ordered_map(block_weight, blocks):
                acc += w
    value = (cfg.norm_per_step ** k) * (dx ** n_int) * acc
    return PropagatorResult(
        value=Amplitude.from_complex(complex(value)), method="enumeration",
        k=k, sites=sites, snap_a=abs(x[ja] - cfg.a), snap_b=abs(x[jb] - cfg.b))


def propagate_monte_carlo_euclidean(cfg: PropagatorConfig, samples: int,
                                    seed: int) -> PropagatorResult:
    """Imaginary-time kernel estimate by exact Brownian-bridge sampling.

    Paths are drawn from the free Euclidean bridge measure between a and b
    (sequential Gaussian conditionals, no accept/reject step), and each
    carries the weight e^{-(eps/hbar) * sum_i V(midpoint_i)}.  The
    estimator is the free Euclidean kernel times the mean weight, so for
    V = 0 it is exact with zero variance.

    The samples come in chunks of _MC_CHUNK, each drawn from its own
    SeedSequence child.  Blocks of _MC_BLOCK chunks run on a thread pool
    with one thread per CPU of the process (numpy's normal draws and array
    loops release the interpreter lock).  A block allocates its arrays
    once, at its width, draws each chunk's normals into that chunk's slice
    and updates the bridge in place, in the operation order of one chunk
    at a time, so every sample keeps its bits.  Each chunk's weight sums
    are added in chunk order, so the estimate and its stderr are bitwise
    reproducible and do not depend on the number of threads.  The
    potential is called from several threads at once and must be a pure,
    elementwise function.
    """
    if not (isinstance(samples, numbers.Integral) and samples >= 100):
        raise InvalidParameter(
            f"samples = {samples!r} must be an integer, at least 100")
    k = cfg.grid.k
    eps = cfg.grid.epsilon
    mass, hbar = cfg.lag.mass, cfg.hbar
    vgrid = cfg.lag.v(cfg.space.points(), cfg.grid.t_a)
    if np.any(np.isneginf(vgrid)) or np.any(np.isnan(vgrid)):
        raise UnboundedPotential("potential is not bounded below on the space grid")
    tmids = cfg.grid.midpoint_times()
    T = cfg.grid.duration
    kfree = math.sqrt(mass / (2.0 * math.pi * hbar * T)) \
        * math.exp(-mass * (cfg.b - cfg.a) ** 2 / (2.0 * hbar * T))
    n_chunks = (samples + _MC_CHUNK - 1) // _MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    # per interior step i: tau_rest, its mean's divisor and its sd
    bridge = []
    for i in range(1, k):
        tau_rest = (k - i) * eps
        var = (hbar / mass) * eps * tau_rest / (eps + tau_rest)
        bridge.append((tau_rest, tau_rest + eps, math.sqrt(var)))
    eps_b, eps_over_hbar = eps * cfg.b, eps / hbar

    def block_sums(first):
        chunks = range(first, min(first + _MC_BLOCK, n_chunks))
        width = min(len(chunks) * _MC_CHUNK, samples - first * _MC_CHUNK)
        rngs = [np.random.default_rng(children[c]) for c in chunks]
        slices = [slice(j * _MC_CHUNK, (j + 1) * _MC_CHUNK)
                  for j in range(len(chunks))]
        prev, cur = np.full(width, cfg.a), np.empty(width)
        mid, z, logw = np.empty(width), np.empty(width), np.zeros(width)
        for i in range(1, k + 1):
            if i < k:
                tau_rest, denom, sd = bridge[i - 1]
                for rng, s in zip(rngs, slices):
                    rng.standard_normal(out=z[s])
                np.multiply(prev, tau_rest, out=cur)
                cur += eps_b
                cur /= denom
                z *= sd
                cur += z
            else:
                cur.fill(cfg.b)
            np.add(prev, cur, out=mid)
            mid *= 0.5
            logw -= eps_over_hbar * cfg.lag.v(mid, tmids[i - 1])
            prev, cur = cur, prev
        w = np.where(np.isfinite(logw), np.exp(logw), 0.0)
        return [(float(w[s].sum()), float((w[s] * w[s]).sum())) for s in slices]

    sum_w = 0.0
    sum_w2 = 0.0
    for sums in _ordered_map(block_sums, range(0, n_chunks, _MC_BLOCK)):
        for s_w, s_w2 in sums:
            sum_w += s_w
            sum_w2 += s_w2
    mean_w = sum_w / samples
    var_w = max(0.0, (sum_w2 - samples * mean_w * mean_w) / max(samples - 1, 1))
    est = kfree * mean_w
    stderr = kfree * math.sqrt(var_w / samples)
    return PropagatorResult(
        value=Amplitude(est, 0.0), method="monte_carlo",
        k=k, sites=cfg.space.sites, stderr=stderr)
