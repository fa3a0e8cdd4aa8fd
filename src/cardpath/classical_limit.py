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
from typing import Sequence

import numpy as np

from .errors import InvalidParameter, NoConvergence
from .lattice import (LagrangianSpec, LatticePath, TimeGrid,
                      central_difference, discretized_action)
from .propagator import (PropagatorConfig, Sweep, convergence_recipe,
                         gaussian_window)

_NEWTON_TOL = 1e-10  # max-norm of the action gradient at a stationary path
_NEWTON_ITERATIONS = 200
_TINY = np.finfo(float).tiny  # below it a probability mass has underflowed


def action_gradient(path: LatticePath, lag: LagrangianSpec,
                    grid: TimeGrid) -> np.ndarray:
    """Analytic gradient of the midpoint-rule action at the interior sites."""
    r = path.as_array()
    if r.size != grid.k + 1:
        raise InvalidParameter("path length does not match the time grid")
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


def _tridiagonal_solve(diag, off, rhs) -> np.ndarray:
    """x with A x = rhs for the symmetric tridiagonal A of diagonal diag
    and off-diagonal off, by LU with no pivoting.

    The operations are those of LAPACK's dgtsv where it exchanges no rows
    (|d_i| >= |off_i| at every pivot, as in a diagonally dominant A): the
    pivots d_{i+1} -= (off_i / d_i) off_i with rhs eliminated alongside,
    then back substitution x_i = (rhs_i - off_i x_{i+1}) / d_i.  Raises
    NoConvergence at a pivot that is zero or not finite.
    """
    d, b, u = diag.tolist(), rhs.tolist(), off.tolist()
    for i in range(len(d)):
        if not (d[i] != 0.0 and math.isfinite(d[i])):
            raise NoConvergence(f"the Newton solve's pivot {i} is {d[i]!r}")
        if i < len(u):
            fact = u[i] / d[i]
            d[i + 1] -= fact * u[i]
            b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        b[i] = (b[i] - u[i] * b[i + 1]) / d[i]
    return np.array(b)


@np.errstate(over="ignore", invalid="ignore")
def classical_path(lag: LagrangianSpec, grid: TimeGrid, a: float,
                   b: float) -> LatticePath:
    """Stationary point of the lattice action with pinned endpoints.

    Damped Newton iteration on the interior sites; the Hessian of the
    midpoint-rule action is symmetric tridiagonal, so each step is one
    _tridiagonal_solve.  Starts from the straight line and stops when the
    max-norm of the gradient falls below _NEWTON_TOL.  A trial step at which
    lattice refuses V or V' as an overflow fails and is halved, as one that
    does not reduce the gradient is.  Raises NoConvergence, not a float
    warning, when the gradient or the Hessian leaves float64 range or the
    solve meets a zero pivot.
    """
    k = grid.k
    if k == 1:
        return LatticePath((float(a), float(b)))
    eps = grid.epsilon
    r = np.linspace(a, b, k + 1)
    for _ in range(_NEWTON_ITERATIONS):
        g = action_gradient(LatticePath(tuple(r)), lag, grid)
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= _NEWTON_TOL:
            return LatticePath(tuple(r))
        vpp = lag._at_midpoints(
            lambda s, t: central_difference(lag.v_prime, s, t), r, grid)
        diag = 2.0 * lag.mass / eps - 0.25 * eps * (vpp[:-1] + vpp[1:])
        off = -lag.mass / eps - 0.25 * eps * vpp[1:-1]
        if not (math.isfinite(gnorm) and np.isfinite(diag).all()
                and np.isfinite(off).all()):
            raise NoConvergence("the action's gradient or Hessian is not "
                                "finite in float64")
        step = _tridiagonal_solve(diag, off, -g)
        alpha = 1.0
        while alpha > 1e-6:
            trial = r.copy()
            trial[1:-1] += alpha * step
            try:
                gt = action_gradient(LatticePath(tuple(trial)), lag, grid)
            except InvalidParameter:  # V or V' overflows at the trial
                gt = np.inf
            if float(np.max(np.abs(gt))) < gnorm:
                r = trial
                break
            alpha *= 0.5
        else:
            raise NoConvergence("Newton step failed to reduce the action gradient")
    raise NoConvergence(f"no stationary path in {_NEWTON_ITERATIONS} Newton iterations")


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
                raise InvalidParameter(f"mass fraction {f} outside [0, 1]")


def slice_tube_fractions(evolve: Sweep, delta: float,
                         centers: Sequence[float],
                         source_width: float) -> np.ndarray:
    """Per-slice tube fractions f_1 .. f_{k-1} of the windowed path sum of
    evolve.cfg, from one forward and one backward call of evolve.

    centers must hold the k+1 slice positions of the reference path.
    Time-independent potentials only: the backward sweep applies the same
    steps as the forward one.  Raises NoConvergence where a slice's
    amplitude mass is below the smallest normal float, where it has
    underflowed, or where its tube holds no grid site: either fraction
    would read 0 whatever the path sum does.
    """
    cfg = evolve.cfg
    if cfg.lag.time_dependent:
        raise InvalidParameter("slice fractions need a time-independent potential")
    k = cfg.grid.k
    if k < 2:
        raise InvalidParameter("need at least one interior slice")
    if len(centers) != k + 1:
        raise InvalidParameter("centers must have k + 1 entries")
    x = cfg.space.points()
    dx = cfg.space.dx
    p = cfg.lag.mass * (cfg.b - cfg.a) / cfg.grid.duration
    wa = gaussian_window(x, cfg.a, source_width, p, cfg.hbar)
    wb = gaussian_window(x, cfg.b, source_width, p, cfg.hbar)
    fwd = evolve(wa, keep=True)
    bwd = evolve(np.conj(wb), keep=True)
    fracs = np.empty(k - 1)
    for i in range(1, k):
        beta = np.abs(fwd[i] * bwd[k - i]) * dx
        total = float(beta.sum())
        if not total >= _TINY:
            raise NoConvergence(f"slice {i}'s amplitude mass underflows to "
                                f"{total!r}: no tube fraction can be read")
        tube = np.abs(x - centers[i]) <= delta
        if not tube.any():
            raise NoConvergence(
                f"the tube of half-width {delta!r} around slice {i}'s "
                f"classical position {float(centers[i])!r} holds no site "
                f"of a grid of spacing {dx!r}")
        inside = float(beta[tube].sum())
        fracs[i - 1] = inside / total
    return fracs


def packet_argmax_offset(evolve: Sweep, path: LatticePath) -> float:
    """Distance (in grid units of length) from b to the peak-probability
    site of the packet that evolve propagates.

    The initial packet is a Gaussian of width sqrt(hbar*T/(2*mass)) at a,
    boosted by the lattice momentum at a of the stationary path from a to b,

        p0 = mass * (r_1 - r_0) / eps + (eps / 2) * V'((r_0 + r_1) / 2, t_{1/2}),

    so that it heads for b under any potential; path is that stationary path.
    Raises NoConvergence where the peak |psi|^2 is below the smallest
    normal float: it has underflowed, and its site says nothing of the
    packet (all zeros read as site 0).
    """
    cfg = evolve.cfg
    eps = cfg.grid.epsilon
    r0, r1 = path.sites[0], path.sites[1]
    p0 = cfg.lag.mass * (r1 - r0) / eps + 0.5 * eps * float(
        cfg.lag.v_prime(0.5 * (r0 + r1), cfg.grid.midpoint_times()[0]))
    x = cfg.space.points()
    sigma = math.sqrt(cfg.hbar * cfg.grid.duration / (2.0 * cfg.lag.mass))
    psi = evolve(gaussian_window(x, cfg.a, sigma, p0, cfg.hbar))
    prob = np.abs(psi) ** 2
    amax = int(np.argmax(prob))
    if not prob[amax] >= _TINY:
        raise NoConvergence(f"the packet's peak |psi|^2 underflows to "
                            f"{float(prob[amax])!r}: it has no peak site")
    return abs(float(x[amax]) - cfg.b)


def concentration_scan(lag: LagrangianSpec, t_total: float, a: float, b: float,
                       hbar_values: Sequence[float], delta: float,
                       k: int = 16) -> ConcentrationScan:
    """Sweep hbar and record how sharply the path sum hugs the classical path.

    For each hbar the grid and window come from `convergence_recipe` (the
    alias-safe site count changes with hbar).  Each hbar builds one Sweep,
    shared by the forward and backward slice sweeps and the packet sweep.
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
        evolve = Sweep(cfg)
        frac = float(np.mean(slice_tube_fractions(evolve, delta, centers, sw)))
        off = packet_argmax_offset(evolve, cl)
        rows.append((frac, off, sp.dx))
    return ConcentrationScan(
        hbar_values=hbars, delta=delta,
        mass_fraction=tuple(r[0] for r in rows),
        classical_path=cl,
        m_scale=tuple(s_cl / (2.0 * math.pi * h) for h in hbars),
        argmax_offset=tuple(r[1] for r in rows),
        dx_values=tuple(r[2] for r in rows))
