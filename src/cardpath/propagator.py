"""Pinned path sums K(b, a) by exact enumeration, transfer-matrix sweep,
and Euclidean Monte Carlo.

Normalization: each time step carries norm_per_step = sqrt(mass/(2*pi*i*hbar*eps))
(principal branch), the unique choice under which the free-particle lattice
kernel reproduces the continuum kernel.  The k-step pinned sum is

    K = norm^k * dx^(k-1) * sum over interior assignments of e^{i S / hbar}

which the transfer matrix evaluates by sweeping the one-step kernel
matrix T[j', j] = norm * dx * e^{i S_step / hbar}.

Cost.  On the uniform grid the kinetic phase of T depends only on j' - j
and the midpoint potential only on j + j'.  When V is quadratic on the
grid (free, linear, harmonic, or any potential that is quadratic in r at
each step's midpoint time) the step factors exactly as D * Toeplitz * D
and `StepOperator` applies it by FFT through circulant embedding, in
O(k * sites log sites) time and O(sites) memory.  Otherwise it applies
the dense matrix, built from 3*sites exponentials, with BLAS: O(k *
sites^2) time and 16 * sites^2 bytes, capped by a size guard.

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

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .amplitude import Amplitude, born_probability
from .errors import GridMismatch, TooLarge, UnboundedPotential
from .lattice import LagrangianSpec, SpaceGrid, TimeGrid

RECIPE_K = 24
RECIPE_HALF_WIDTH_FACTOR = 6.0
RECIPE_ALIAS_SAFETY = 1.25
RECIPE_SOURCE_WIDTH_FACTOR = 0.4

_ENUM_GUARD = 10 ** 7
_DENSE_GUARD = 1 << 30  # bytes of one dense step matrix
_ENUM_CHUNK = 1 << 16
_MC_CHUNK = 4096
# A quadratic fit to V within this step phase (rad) makes the FFT step
# agree with the dense matrix to rounding.
_FIT_PHASE_TOL = 1e-12


@dataclass(frozen=True)
class PropagatorConfig:
    grid: TimeGrid
    space: SpaceGrid
    lag: LagrangianSpec
    hbar: float
    a: float
    b: float

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

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
    norm_per_step: Amplitude
    stderr: Optional[float] = None
    runtime_ms: float = 0.0
    snap_a: float = 0.0
    snap_b: float = 0.0
    source_width: Optional[float] = None
    source_momentum: Optional[float] = None

    @property
    def probability(self) -> float:
        """Transition probability |K|^2 (squared-modulus rule)."""
        return born_probability(self.value)


def result_to_json_record(res: PropagatorResult) -> dict:
    rec = {
        "method": res.method,
        "k": res.k,
        "sites": res.sites,
        "re": res.value.re,
        "im": res.value.im,
        "runtime_ms": res.runtime_ms,
    }
    if res.stderr is not None:
        rec["stderr"] = res.stderr
    return rec


def convergence_recipe(lag: LagrangianSpec, hbar: float, t_total: float,
                       a: float, b: float, k: int = RECIPE_K,
                       half_width_factor: float = RECIPE_HALF_WIDTH_FACTOR,
                       safety: float = RECIPE_ALIAS_SAFETY):
    """Grid, step count, and window width for percent-level kernel runs.

    Returns (TimeGrid, SpaceGrid, source_width).  The spatial site count
    follows the chirp-resolution bound documented in the module docstring;
    it grows like W^2 * k, so k and sites are coupled rather than
    independent knobs.
    """
    hw = half_width_factor * math.sqrt(hbar * t_total / lag.mass)
    lo, hi = min(a, b) - hw, max(a, b) + hw
    W = hi - lo
    sites = int(math.ceil(2.0 * lag.mass * W * W * k * safety
                          / (math.pi * hbar * t_total))) + 1
    grid = TimeGrid(0.0, t_total, k)
    space = SpaceGrid(lo, hi, sites)
    source_width = RECIPE_SOURCE_WIDTH_FACTOR * math.sqrt(hbar * t_total / lag.mass)
    return grid, space, source_width


def _midpoint_potential(cfg: PropagatorConfig, step_index: int):
    """The 2*sites - 1 distinct midpoints r_s = lo + s*dx/2 of site pairs,
    and V there at the step's midpoint time t_{i-1/2}."""
    r = cfg.space.lo + 0.5 * cfg.space.dx * np.arange(2 * cfg.space.sites - 1)
    t_mid = cfg.grid.t_a + (step_index - 0.5) * cfg.grid.epsilon
    return r, np.broadcast_to(cfg.lag.v(r, t_mid), r.shape)


def step_matrix(cfg: PropagatorConfig, step_index: int = 1,
                phase_free: bool = False) -> np.ndarray:
    """One-step kernel matrix T[j', j] = norm * dx * e^{i S_step / hbar}.

    step_index selects the midpoint time t_{i-1/2} for time-dependent
    potentials.  With phase_free=True the step action is forced to zero and
    only the modulus |norm| * dx remains (counting-measure mode).

    On the uniform grid T = norm * dx * kin[|j' - j|] * pot[j + j'], so the
    build takes 3*sites exponentials and one sites x sites allocation; a
    midpoint where V is not finite gives zero weight.  Raises TooLarge,
    before allocating, when the matrix would exceed _DENSE_GUARD bytes.
    """
    n = cfg.space.sites
    nbytes = n * n * (8 if phase_free else 16)
    if nbytes > _DENSE_GUARD:
        raise TooLarge(f"a {n} x {n} step matrix needs {nbytes} bytes, "
                       f"over the {_DENSE_GUARD}-byte guard")
    dx = cfg.space.dx
    norm = cfg.norm_per_step
    if phase_free:
        return np.full((n, n), abs(norm) * dx)
    d = dx * np.arange(n)
    kin = norm * dx * np.exp(1j * cfg.lag.mass * d * d
                             / (2.0 * cfg.grid.epsilon * cfg.hbar))
    _, v = _midpoint_potential(cfg, step_index)
    ok = np.isfinite(v)
    pot = np.zeros(v.size, dtype=complex)
    pot[ok] = np.exp(-1j * cfg.grid.epsilon * v[ok] / cfg.hbar)
    toeplitz = sliding_window_view(np.concatenate([kin[:0:-1], kin]), n)[::-1]
    hankel = sliding_window_view(pot, n)
    return toeplitz * hankel


def _quadratic_fit(r: np.ndarray, v: np.ndarray, phase_per_v: float):
    """(c0, c1, c2) with V = c0 + c1 r + c2 r^2 at every r to within
    _FIT_PHASE_TOL of step phase phase_per_v * V, or None."""
    if not np.all(np.isfinite(v)):
        return None
    center, half = 0.5 * (r[-1] + r[0]), 0.5 * (r[-1] - r[0])
    u = (r - center) / half
    a0, a1, a2 = np.linalg.lstsq(np.stack([np.ones_like(u), u, u * u], axis=1),
                                 v, rcond=None)[0]
    c2 = a2 / (half * half)
    c1 = a1 / half - 2.0 * c2 * center
    c0 = a0 - a1 * center / half + c2 * center * center
    if phase_per_v * np.max(np.abs(v - (c0 + (c1 + c2 * r) * r))) > _FIT_PHASE_TOL:
        return None
    return c0, c1, c2


class StepOperator:
    """Step i of the sweep: psi -> T psi with T = step_matrix(cfg, i).

    Built once per (config, step index); how a step is applied is chosen
    from the potential at the 2*sites - 1 midpoints.  When V there is
    c0 + c1 r + c2 r^2, the midpoint-rule step factors exactly as

        T[j', j] = scale * D(x_j') * g(x_j' - x_j) * D(x_j),
        g(d) = e^{i (m/(2 eps) + eps c2/4) d^2 / hbar},
        D(x) = e^{-i eps (c2 x^2/2 + c1 x/2) / hbar},
        scale = norm * dx * e^{-i eps c0 / hbar},

    and the Toeplitz product with g is an FFT by circulant embedding, with
    no sites x sites array.  Any other potential, including one that is not
    finite somewhere on the grid, applies the dense step_matrix with BLAS.
    phase_free=True is the counting-measure step of step_matrix.
    """

    def __init__(self, cfg: PropagatorConfig, step_index: int = 1,
                 phase_free: bool = False):
        eps, hbar = cfg.grid.epsilon, cfg.hbar
        scale = cfg.norm_per_step * cfg.space.dx
        self._matrix = None
        if phase_free:
            chirp, (c0, c1, c2), scale = 0.0, (0.0, 0.0, 0.0), abs(scale)
        else:
            fit = _quadratic_fit(*_midpoint_potential(cfg, step_index), eps / hbar)
            if fit is None:
                self._matrix = step_matrix(cfg, step_index)
                return
            c0, c1, c2 = fit
            chirp = cfg.lag.mass / (2.0 * eps) + 0.25 * eps * c2
        n = cfg.space.sites
        self._size = scipy.fft.next_fast_len(2 * n - 1)
        d = cfg.space.dx * np.arange(n)
        g = np.zeros(self._size, dtype=complex)
        g[:n] = np.exp(1j * chirp * d * d / hbar)
        g[self._size - n + 1:] = g[n - 1:0:-1]
        self._g_hat = scipy.fft.fft(g)
        x = cfg.space.points()
        self._d_in = np.exp(-1j * eps * (0.5 * c2 * x + 0.5 * c1) * x / hbar)
        self._d_out = scale * np.exp(-1j * eps * c0 / hbar) * self._d_in

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """T psi for a vector psi over the grid sites."""
        if self._matrix is not None:
            return self._matrix @ psi
        u = scipy.fft.fft(self._d_in * psi, self._size)
        return self._d_out * scipy.fft.ifft(u * self._g_hat)[:self._d_in.size]


def sweep(cfg: PropagatorConfig, psi: np.ndarray,
          step: Optional[StepOperator] = None, keep: bool = False):
    """psi after the k steps of cfg, T_k ... T_1 psi; with keep=True the
    list psi_0 .. psi_k.

    By default a time-independent potential builds one StepOperator for
    the sweep and a time-dependent one builds one per step.  A given step
    operator is applied at every step, so that several sweeps of one
    time-independent configuration share one build.
    """
    rebuild = cfg.lag.time_dependent
    if step is not None and rebuild:
        raise ValueError("a shared step operator needs a time-independent potential")
    states = [psi]
    for i in range(1, cfg.grid.k + 1):
        if step is None or (rebuild and i > 1):
            step = StepOperator(cfg, i)
        psi = step.apply(psi)
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
                              source_momentum: Optional[float] = None,
                              ) -> PropagatorResult:
    """Pinned path sum via k applications of the one-step kernel matrix.

    source_width=None: delta endpoints snapped to the grid, initial vector
    delta_a / dx, result psi_k at the b site.  This is the form that agrees
    with enumeration on any grid.

    source_width=s: Gaussian-windowed matrix element <w_b| T^k |w_a> * dx
    with windows of width s and momentum boost (default mass*(b-a)/T).
    Use with `convergence_recipe` grids; compare against
    oracles.analytic_propagator(..., source_width=s).
    """
    t0 = time.perf_counter()
    x = cfg.space.points()
    dx = cfg.space.dx
    ja = cfg.space.nearest_index(cfg.a)
    jb = cfg.space.nearest_index(cfg.b)
    if source_width is None:
        psi = np.zeros(x.size, dtype=complex)
        psi[ja] = 1.0 / dx
        momentum = None
    else:
        momentum = (cfg.lag.mass * (cfg.b - cfg.a) / cfg.grid.duration
                    if source_momentum is None else source_momentum)
        psi = gaussian_window(x, cfg.a, source_width, momentum, cfg.hbar)
    psi = sweep(cfg, psi)
    if source_width is None:
        value = complex(psi[jb])
    else:
        wb = gaussian_window(x, cfg.b, source_width, momentum, cfg.hbar)
        value = complex((np.conj(wb) * psi).sum() * dx)
    dt = (time.perf_counter() - t0) * 1e3
    return PropagatorResult(
        value=Amplitude.from_complex(value), method="transfer_matrix",
        k=cfg.grid.k, sites=cfg.space.sites,
        norm_per_step=Amplitude.from_complex(cfg.norm_per_step),
        runtime_ms=dt,
        snap_a=abs(x[ja] - cfg.a), snap_b=abs(x[jb] - cfg.b),
        source_width=source_width, source_momentum=momentum)


def transfer_matrix_vector(cfg: PropagatorConfig, start: float,
                           source_width: Optional[float] = None,
                           source_momentum: float = 0.0) -> np.ndarray:
    """Vector of kernel values K(x_j, start) over the whole grid.

    With the symmetric step matrix this also serves as K(start, x_j), which
    is how composition over an intermediate time slice is checked.
    """
    x = cfg.space.points()
    psi = np.zeros(x.size, dtype=complex)
    if source_width is None:
        psi[cfg.space.nearest_index(start)] = 1.0 / cfg.space.dx
    else:
        psi = gaussian_window(x, start, source_width, source_momentum, cfg.hbar)
    return sweep(cfg, psi)


def compose(kernel_from_a: np.ndarray, kernel_to_b: np.ndarray, dx: float) -> Amplitude:
    """Chapman-Kolmogorov glue: K(b,a) = sum_c K(b,c) K(c,a) dx."""
    if kernel_from_a.shape != kernel_to_b.shape:
        raise GridMismatch("kernel vectors live on different grids")
    return Amplitude.from_complex(complex((kernel_to_b * kernel_from_a).sum() * dx))


def _interior_digits(indices: np.ndarray, n_digits: int, base: int) -> np.ndarray:
    digits = np.empty((indices.size, n_digits), dtype=np.int64)
    rem = indices.copy()
    for d in range(n_digits):
        digits[:, d] = rem % base
        rem //= base
    return digits


def propagate_enumerate(cfg: PropagatorConfig) -> PropagatorResult:
    """Exact sum over all sites^(k-1) interior assignments, endpoints pinned.

    Vectorized mixed-radix enumeration in chunks; paths through a midpoint
    where the potential is +inf carry zero weight.
    """
    t0 = time.perf_counter()
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
    acc = 0.0 + 0.0j
    for c0 in range(0, total, _ENUM_CHUNK):
        c1 = min(c0 + _ENUM_CHUNK, total)
        idx = np.arange(c0, c1, dtype=np.int64)
        pos = np.empty((idx.size, k + 1))
        pos[:, 0] = x[ja]
        pos[:, k] = x[jb]
        if n_int:
            pos[:, 1:k] = x[_interior_digits(idx, n_int, sites)]
        S = np.zeros(idx.size)
        for i in range(1, k + 1):
            drv = (pos[:, i] - pos[:, i - 1]) / eps
            vm = cfg.lag.v(0.5 * (pos[:, i] + pos[:, i - 1]), tmids[i - 1])
            S += (0.5 * mass * drv * drv - vm) * eps
        ok = np.isfinite(S)
        acc += np.sum(np.exp(1j * S[ok] / hbar))
    norm = cfg.norm_per_step
    value = (norm ** k) * (dx ** n_int) * acc
    dt = (time.perf_counter() - t0) * 1e3
    return PropagatorResult(
        value=Amplitude.from_complex(complex(value)), method="enumeration",
        k=k, sites=sites, norm_per_step=Amplitude.from_complex(norm),
        runtime_ms=dt, snap_a=abs(x[ja] - cfg.a), snap_b=abs(x[jb] - cfg.b))


def propagate_monte_carlo_euclidean(cfg: PropagatorConfig, samples: int,
                                    seed: int) -> PropagatorResult:
    """Imaginary-time kernel estimate by exact Brownian-bridge sampling.

    Paths are drawn from the free Euclidean bridge measure between a and b
    (sequential Gaussian conditionals, no accept/reject step), and each
    carries the weight e^{-(eps/hbar) * sum_i V(midpoint_i)}.  The
    estimator is the free Euclidean kernel times the mean weight, so for
    V = 0 it is exact with zero variance.  Chunked with per-chunk child
    seeds and fixed-order combination, hence bitwise reproducible.
    """
    if samples < 100:
        raise ValueError("samples must be at least 100")
    t0 = time.perf_counter()
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
    sum_w = 0.0
    sum_w2 = 0.0
    done = 0
    for c in range(n_chunks):
        n = min(_MC_CHUNK, samples - done)
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
            vm = cfg.lag.v(0.5 * (prev + cur), tmids[i - 1])
            logw -= (eps / hbar) * vm
            prev = cur
        w = np.where(np.isfinite(logw), np.exp(logw), 0.0)
        sum_w += float(w.sum())
        sum_w2 += float((w * w).sum())
    mean_w = sum_w / samples
    var_w = max(0.0, (sum_w2 - samples * mean_w * mean_w) / max(samples - 1, 1))
    est = kfree * mean_w
    stderr = kfree * math.sqrt(var_w / samples)
    dt = (time.perf_counter() - t0) * 1e3
    return PropagatorResult(
        value=Amplitude(est, 0.0), method="monte_carlo",
        k=k, sites=cfg.space.sites,
        norm_per_step=Amplitude.from_complex(cfg.norm_per_step),
        stderr=stderr, runtime_ms=dt)
