"""Stationary lattice paths and the small-hbar concentration of the path sum.

The concentration diagnostic uses the forward-backward slice decomposition:
with psi_i = T^i w_a and chi_j = T^j conj(w_b) (T is the symmetric one-step
kernel matrix), the pointwise product

    beta_i(x) = psi_i(x) * chi_{k-i}(x) * dx

sums to the full kernel value K at every slice i.  beta_i is the net
amplitude routed through site x at slice i, so

    f_i = sum_{|x - c_i| <= delta} |beta_i(x)| / sum_x |beta_i(x)|

is a genuine fraction in [0, 1] of the slice's amplitude mass lying inside
the tube of half-width delta around the classical position c_i.  The scan
reports the mean of f_i over interior slices; as hbar shrinks (equivalently
as the action in hbar units m = S_cl / (2 pi hbar) grows) the fraction
rises toward 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NoConvergence
from .lattice import (LagrangianSpec, LatticePath, TimeGrid,
                      discretized_action)
from .propagator import (PropagatorConfig, StepOperator, convergence_recipe,
                         gaussian_window, sweep)


def action_gradient(path: LatticePath, lag: LagrangianSpec,
                    grid: TimeGrid) -> np.ndarray:
    """Analytic gradient of the midpoint-rule action at the interior sites."""
    r = path.as_array()
    if r.size != grid.k + 1:
        raise ValueError("path length does not match the time grid")
    eps = grid.epsilon
    vp = lag._at_midpoints(lag.v_prime, r, grid)
    kin = lag.mass * (2.0 * r[1:-1] - r[:-2] - r[2:]) / eps
    return kin - 0.5 * eps * (vp[:-1] + vp[1:])


def finite_difference_action_gradient(path: LatticePath, lag: LagrangianSpec,
                                      grid: TimeGrid, dx: float) -> np.ndarray:
    """Central-difference action gradient, step 1e-6 * dx per interior site."""
    h = 1e-6 * dx
    r = path.as_array()
    out = np.empty(grid.k - 1)
    for j in range(1, grid.k):
        rp = r.copy()
        rp[j] += h
        rm = r.copy()
        rm[j] -= h
        sp = discretized_action(LatticePath(tuple(rp)), grid, lag)
        sm = discretized_action(LatticePath(tuple(rm)), grid, lag)
        out[j - 1] = (sp - sm) / (2.0 * h)
    return out


def classical_path(lag: LagrangianSpec, grid: TimeGrid, a: float, b: float,
                   tol: float = 1e-10, max_iter: int = 200) -> LatticePath:
    """Stationary point of the lattice action with pinned endpoints.

    Damped Newton iteration on the interior sites; the Hessian of the
    midpoint-rule action is tridiagonal, so each step is a banded solve.
    Starts from the straight line and stops when the max-norm of the
    gradient falls below tol.
    """
    k = grid.k
    if k == 1:
        return LatticePath((float(a), float(b)))
    from scipy.linalg import solve_banded

    def v_second(r, t):
        h = 1e-6 * np.maximum(1.0, np.abs(r))
        return (lag.v_prime(r + h, t) - lag.v_prime(r - h, t)) / (2.0 * h)

    eps = grid.epsilon
    r = np.linspace(a, b, k + 1)
    for _ in range(max_iter):
        g = action_gradient(LatticePath(tuple(r)), lag, grid)
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= tol:
            return LatticePath(tuple(r))
        vpp = lag._at_midpoints(v_second, r, grid)
        diag = 2.0 * lag.mass / eps - 0.25 * eps * (vpp[:-1] + vpp[1:])
        off = -lag.mass / eps - 0.25 * eps * vpp[1:-1]
        ab = np.zeros((3, k - 1))
        ab[1] = diag
        if k > 2:
            ab[0, 1:] = off
            ab[2, :-1] = off
        step = solve_banded((1, 1), ab, -g)
        alpha = 1.0
        while alpha > 1e-6:
            trial = r.copy()
            trial[1:-1] += alpha * step
            gt = action_gradient(LatticePath(tuple(trial)), lag, grid)
            if float(np.max(np.abs(gt))) < gnorm:
                r = trial
                break
            alpha *= 0.5
        else:
            raise NoConvergence("Newton step failed to reduce the action gradient")
    raise NoConvergence(f"gradient still above {tol:g} after {max_iter} iterations")


@dataclass(frozen=True)
class ConcentrationScan:
    """Tube-mass fractions of the pinned path sum across an hbar sweep.

    m_scale is the classical action in units of 2*pi*hbar (the number of
    full phase turns along the stationary path); mass_fraction entries are
    guaranteed fractions in [0, 1].
    """

    hbar_values: tuple
    delta: float
    mass_fraction: tuple
    classical_path: LatticePath
    m_scale: tuple
    argmax_offset: tuple
    dx_values: tuple

    def __post_init__(self):
        for f in self.mass_fraction:
            if not (-1e-9 <= f <= 1.0 + 1e-9):
                raise ValueError(f"mass fraction {f} outside [0, 1]")


def slice_tube_fractions(cfg: PropagatorConfig, delta: float,
                         centers: Sequence[float], source_width: float,
                         step: Optional[StepOperator] = None) -> np.ndarray:
    """Per-slice tube fractions f_1 .. f_{k-1} of the windowed path sum.

    centers must hold the k+1 slice positions of the reference path.
    Time-independent potentials only (one step operator, reused forward
    and backward); step may pass in StepOperator(cfg, 1) when the caller
    has built it already.
    """
    if cfg.lag.time_dependent:
        raise ValueError("slice fractions need a time-independent potential")
    k = cfg.grid.k
    if k < 2:
        raise ValueError("need at least one interior slice")
    if len(centers) != k + 1:
        raise ValueError("centers must have k + 1 entries")
    x = cfg.space.points()
    dx = cfg.space.dx
    p = cfg.lag.mass * (cfg.b - cfg.a) / cfg.grid.duration
    wa = gaussian_window(x, cfg.a, source_width, p, cfg.hbar)
    wb = gaussian_window(x, cfg.b, source_width, p, cfg.hbar)
    if step is None:
        step = StepOperator(cfg, 1)
    fwd = sweep(cfg, wa, step, keep=True)
    bwd = sweep(cfg, np.conj(wb), step, keep=True)
    fracs = np.empty(k - 1)
    for i in range(1, k):
        beta = np.abs(fwd[i] * bwd[k - i]) * dx
        total = float(beta.sum())
        inside = float(beta[np.abs(x - centers[i]) <= delta].sum())
        fracs[i - 1] = inside / total if total > 0 else 0.0
    return fracs


def packet_argmax_offset(cfg: PropagatorConfig, target: float,
                         step: Optional[StepOperator] = None,
                         path: Optional[LatticePath] = None) -> float:
    """Distance (in grid units of length) from the propagated packet's
    peak-probability site to the target position.

    The initial packet is a Gaussian of width sqrt(hbar*T/(2*mass)) at a,
    boosted by the lattice momentum at a of the stationary path from a to b,

        p0 = mass * (r_1 - r_0) / eps + (eps / 2) * V'((r_0 + r_1) / 2, t_{1/2}),

    so that it heads for b under any potential.  path and step may pass in
    that stationary path and the operator StepOperator(cfg, 1) when the
    caller has them already.
    """
    if path is None:
        path = classical_path(cfg.lag, cfg.grid, cfg.a, cfg.b)
    eps = cfg.grid.epsilon
    r0, r1 = path.sites[0], path.sites[1]
    p0 = cfg.lag.mass * (r1 - r0) / eps + 0.5 * eps * float(
        cfg.lag.v_prime(0.5 * (r0 + r1), cfg.grid.t_a + 0.5 * eps))
    x = cfg.space.points()
    sigma = math.sqrt(cfg.hbar * cfg.grid.duration / (2.0 * cfg.lag.mass))
    psi = sweep(cfg, gaussian_window(x, cfg.a, sigma, p0, cfg.hbar), step)
    amax = int(np.argmax(np.abs(psi) ** 2))
    return abs(float(x[amax]) - target)


def concentration_scan(lag: LagrangianSpec, t_total: float, a: float, b: float,
                       hbar_values: Sequence[float], delta: float,
                       k: int = 16) -> ConcentrationScan:
    """Sweep hbar and record how sharply the path sum hugs the classical path.

    For each hbar the grid and window come from `convergence_recipe` (the
    alias-safe site count changes with hbar).  Each hbar builds one step
    operator, shared by the forward and backward slice sweeps and the
    packet sweep.
    """
    grid = TimeGrid(0.0, t_total, k)
    hbars = tuple(float(h) for h in hbar_values)
    # every recipe's site-count guard runs before the k-sized Newton solve
    windows = [convergence_recipe(lag, hbar, t_total, a, b, k=k)[1:]
               for hbar in hbars]
    cl = classical_path(lag, grid, a, b)
    centers = cl.as_array()
    s_cl = discretized_action(cl, grid, lag)

    rows = []
    for hbar, (sp, sw) in zip(hbars, windows):
        cfg = PropagatorConfig(grid=grid, space=sp, lag=lag, hbar=hbar, a=a, b=b)
        step = StepOperator(cfg, 1)
        frac = float(np.mean(slice_tube_fractions(cfg, delta, centers, sw,
                                                  step=step)))
        off = packet_argmax_offset(cfg, b, step=step, path=cl)
        rows.append((frac, off, sp.dx))
    return ConcentrationScan(
        hbar_values=hbars, delta=delta,
        mass_fraction=tuple(r[0] for r in rows),
        classical_path=cl,
        m_scale=tuple(s_cl / (2.0 * math.pi * h) for h in hbars),
        argmax_offset=tuple(r[1] for r in rows),
        dx_values=tuple(r[2] for r in rows))
