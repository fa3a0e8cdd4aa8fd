"""Experiment runner.

Config files are flat ``key = value`` text; ``#`` starts a comment, blank
lines are ignored, keys may not repeat, and unknown keys are rejected so a
typo cannot silently fall back to a default.  Every run needs an
``experiment`` key naming one of: propagator_convergence, interference,
concentration_scan, mapping_demo.

Output files (JSON, CSV) are byte-identical across reruns with the same
seed; timing is only ever printed to stdout, never written to the files.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classical_limit as cl_mod
from .errors import CardpathError, ConfigError, NoConvergence, TooLarge
from .intermediate_set import MappingDistribution, realize_images
from .lattice import SpaceGrid, TimeGrid, free_particle, harmonic_oscillator
from .oracles import AnalyticKernel, analytic_propagator
from .propagator import (_DENSE_GUARD, RECIPE_K, PropagatorConfig,
                         StepOperator, convergence_recipe, gaussian_window,
                         propagate_transfer_matrix, site_count, sweep)

_EXPERIMENTS = ("propagator_convergence", "interference",
                "concentration_scan", "mapping_demo")

# bytes per point that mapping_demo holds at its peak: about 300 measured
# with tracemalloc at 1e5 and 4e5 points, most of it the 32-bit limb
# arrays of the seeded draw
_MAPPING_POINT_BYTES = 320


def _as_float_list(v: str) -> tuple:
    parts = [p.strip() for p in v.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _as_choice(*options):
    def conv(v: str) -> str:
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return v
    return conv


# key -> (converter, default); defaults of None mean "derived later"
_SCHEMAS = {
    "propagator_convergence": {
        "family": (_as_choice("free", "harmonic"), "free"),
        "mass": (float, 1.0),
        "hbar": (float, 1.0),
        "omega": (float, 1.0),
        "t_total": (float, 1.0),
        "a": (float, 0.0),
        "b": (float, 0.5),
        "k": (int, RECIPE_K),
    },
    "interference": {
        "mass": (float, 1.0),
        "hbar": (float, 1.0),
        "t_total": (float, 1.0),
        "slit_separation": (float, 2.0),
        "slit_width": (float, 0.15),
        "screen_half_width": (float, 10.0),
        "sites": (int, 0),
    },
    "concentration_scan": {
        "family": (_as_choice("free", "harmonic"), "free"),
        "mass": (float, 1.0),
        "omega": (float, 1.0),
        "t_total": (float, 1.0),
        "a": (float, 0.0),
        "b": (float, 1.0),
        "delta": (float, 0.2),
        "k": (int, 16),
        "hbar_values": (_as_float_list, (1.0, 0.5, 0.25, 0.125, 0.0625)),
    },
    "mapping_demo": {
        "count": (int, 1000),
        "units": (int, 4),
        "lo": (float, 0.0),
        "hi": (float, 1.0),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run: experiment name, seed, and typed parameters."""

    experiment: str
    seed: int
    params: dict


def parse_config_text(text: str) -> dict:
    """Raw key -> string-value mapping from a flat config file body."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = val
    return out


def resolve_config(raw: dict, seed_override=None) -> ExperimentConfig:
    """Typed parameters from raw strings; rejects unknown keys."""
    raw = dict(raw)
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    experiment = raw.pop("experiment")
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(_EXPERIMENTS)}")
    seed_raw = raw.pop("seed", "0")
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"key 'seed': {seed_raw!r} is not an integer")
    if seed_override is not None:
        seed = int(seed_override)
    schema = _SCHEMAS[experiment]
    params = {}
    for key, (conv, default) in schema.items():
        if key in raw:
            val = raw.pop(key)
            try:
                params[key] = conv(val)
            except ValueError as e:
                raise ConfigError(f"key {key!r}: bad value {val!r} ({e})")
        else:
            params[key] = default
    if raw:
        bad = ", ".join(sorted(raw))
        raise ConfigError(f"unknown key(s) for {experiment}: {bad}")
    _validate(experiment, params)
    return ExperimentConfig(experiment=experiment, seed=seed, params=params)


def _require(cond: bool, key: str, why: str):
    if not cond:
        raise ConfigError(f"key {key!r}: {why}")


def _validate(experiment: str, p: dict):
    for key, val in p.items():
        if isinstance(val, float):
            _require(math.isfinite(val), key, "must be finite")
    for key in ("mass", "hbar", "t_total", "omega", "delta",
                "slit_separation", "slit_width", "screen_half_width"):
        if key in p:
            _require(p[key] > 0, key, "must be positive")
    if "k" in p:
        _require(p["k"] >= 1, "k", "must be at least 1")
    if experiment == "concentration_scan":
        _require(p["k"] >= 2, "k", "needs at least one interior slice (k >= 2)")
        _require(all(math.isfinite(h) and h > 0 for h in p["hbar_values"]),
                 "hbar_values", "entries must be finite and positive")
    if experiment == "interference":
        _require(p["sites"] == 0 or p["sites"] >= 2, "sites",
                 "must be 0 (derived) or at least 2")
        _require(p["screen_half_width"] > p["slit_separation"],
                 "screen_half_width", "screen must be wider than the slit pair")
    if experiment == "mapping_demo":
        _require(p["count"] >= 0, "count", "must be nonnegative")
        _require(p["units"] >= 1, "units", "must be at least 1")
        _require(p["hi"] > p["lo"], "hi", "must exceed lo")
        # past 2**53 a coordinate units * i / count is not exact in float64
        _require(p["units"] * p["count"] < 2 ** 53, "count",
                 "units * count must be below 2**53")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _lag_of(p: dict):
    if p.get("family", "free") == "harmonic":
        return harmonic_oscillator(mass=p["mass"], omega=p["omega"])
    return free_particle(mass=p["mass"])


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {"experiment": cfg.experiment, "seed": cfg.seed}
    for key, val in cfg.params.items():
        echo[key] = list(val) if isinstance(val, tuple) else val
    return echo


def run_propagator_convergence(cfg: ExperimentConfig, out_dir: Path,
                               quiet: bool) -> None:
    p = cfg.params
    lag = _lag_of(p)
    grid, space, sw = convergence_recipe(lag, p["hbar"], p["t_total"],
                                         p["a"], p["b"], k=p["k"])
    pcfg = PropagatorConfig(grid=grid, space=space, lag=lag,
                            hbar=p["hbar"], a=p["a"], b=p["b"])
    t0 = time.perf_counter()
    res = propagate_transfer_matrix(pcfg, source_width=sw)
    kernel = AnalyticKernel(family=p["family"], mass=p["mass"], hbar=p["hbar"],
                            T=p["t_total"],
                            omega=p["omega"] if p["family"] == "harmonic" else None)
    oracle = analytic_propagator(kernel, p["a"], p["b"], source_width=sw).to_complex()
    rel = abs(res.value.to_complex() - oracle) / abs(oracle)
    dt = (time.perf_counter() - t0) * 1e3
    record = {
        "experiment": cfg.experiment,
        "config": _config_echo(cfg),
        "grid": {"k": grid.k, "sites": space.sites, "dx": space.dx,
                 "lo": space.lo, "hi": space.hi, "source_width": sw},
        "result": {"method": res.method, "k": res.k, "sites": res.sites,
                   "re": res.value.re, "im": res.value.im},
        "oracle": {"re": oracle.real, "im": oracle.imag},
        "rel_error": rel,
    }
    _write_json(out_dir / "convergence.json", record)
    _say(quiet, f"propagator_convergence[{p['family']}]: rel_error={rel:.3e} "
         f"k={grid.k} sites={space.sites} ({dt:.0f} ms)")
    _say(quiet, f"  wrote {out_dir / 'convergence.json'}")


def run_interference(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> None:
    """Two Gaussian slits, one exact step to the screen, fringe readout."""
    p = cfg.params
    mass, hbar, T = p["mass"], p["hbar"], p["t_total"]
    d, w, L = p["slit_separation"], p["slit_width"], p["screen_half_width"]
    spacing_pred = 2.0 * math.pi * hbar * T / (mass * d)
    dx_need = min(w / 4.0, spacing_pred / 8.0,
                  math.pi * hbar * T / (2.0 * mass * (L + 0.5 * d + 5.0 * w)))
    intervals = 2.0 * L / dx_need if dx_need > 0 else math.inf
    sites = p["sites"] or site_count(intervals)
    space = SpaceGrid(-L, L, sites)
    if space.dx > dx_need:
        need = (f"need at least {math.ceil(intervals) + 1}"
                if math.isfinite(intervals) else "no site count resolves them")
        raise ConfigError(
            f"key 'sites': {sites} is too coarse for these slits; {need}")
    grid = TimeGrid(0.0, T, 1)
    pcfg = PropagatorConfig(grid=grid, space=space, lag=free_particle(mass),
                            hbar=hbar, a=-0.5 * d, b=0.5 * d)
    t0 = time.perf_counter()
    step = StepOperator(pcfg, 1)  # size guard before any grid-sized array
    x = space.points()
    src = (gaussian_window(x, -0.5 * d, w, 0.0, hbar)
           + gaussian_window(x, 0.5 * d, w, 0.0, hbar))
    psi = sweep(pcfg, src, step)
    intensity = np.abs(psi) ** 2
    thr = 0.02 * intensity.max()
    interior = (intensity[1:-1] > intensity[:-2]) \
        & (intensity[1:-1] >= intensity[2:]) & (intensity[1:-1] > thr)
    peaks = np.where(interior)[0] + 1
    if peaks.size < 2:
        raise NoConvergence("fewer than two fringe maxima on the screen")
    spacing_meas = float(np.median(np.diff(x[peaks])))
    rel_dev = abs(spacing_meas - spacing_pred) / spacing_pred
    dt = (time.perf_counter() - t0) * 1e3
    lines = ["y,intensity"]
    for yi, ii in zip(x, intensity):
        lines.append(f"{yi:.17g},{ii:.17g}")
    (out_dir / "interference.csv").write_text("\n".join(lines) + "\n")
    record = {
        "experiment": cfg.experiment,
        "config": _config_echo(cfg),
        "sites": sites,
        "dx": space.dx,
        "predicted_spacing": spacing_pred,
        "measured_spacing": spacing_meas,
        "rel_deviation": rel_dev,
        "n_maxima": int(peaks.size),
    }
    _write_json(out_dir / "interference.json", record)
    _say(quiet, f"interference: spacing {spacing_meas:.4f} vs predicted "
         f"{spacing_pred:.4f} (dev {rel_dev:.2%}, {peaks.size} maxima, {dt:.0f} ms)")
    _say(quiet, f"  wrote {out_dir / 'interference.json'}, {out_dir / 'interference.csv'}")


def run_concentration_scan(cfg: ExperimentConfig, out_dir: Path,
                           quiet: bool) -> None:
    p = cfg.params
    lag = _lag_of(p)
    t0 = time.perf_counter()
    scan = cl_mod.concentration_scan(lag, p["t_total"], p["a"], p["b"],
                                     p["hbar_values"], p["delta"], k=p["k"])
    dt = (time.perf_counter() - t0) * 1e3
    fr = scan.mass_fraction
    nondecreasing = all(fr[i + 1] >= fr[i] - 1e-3 for i in range(len(fr) - 1))
    lines = ["hbar,m_scale,mass_fraction"]
    for h, m, f in zip(scan.hbar_values, scan.m_scale, scan.mass_fraction):
        lines.append(f"{h:.17g},{m:.17g},{f:.17g}")
    (out_dir / "concentration.csv").write_text("\n".join(lines) + "\n")
    record = {
        "experiment": cfg.experiment,
        "config": _config_echo(cfg),
        "hbar_values": list(scan.hbar_values),
        "m_scale": list(scan.m_scale),
        "mass_fraction": list(scan.mass_fraction),
        "argmax_offset": list(scan.argmax_offset),
        "dx": list(scan.dx_values),
        "classical_path": list(scan.classical_path.sites),
        "nondecreasing": nondecreasing,
    }
    _write_json(out_dir / "concentration.json", record)
    frac_str = ", ".join(f"{f:.3f}" for f in fr)
    _say(quiet, f"concentration_scan: fractions [{frac_str}] "
         f"nondecreasing={nondecreasing} ({dt:.0f} ms)")
    _say(quiet, f"  wrote {out_dir / 'concentration.json'}, {out_dir / 'concentration.csv'}")


def mapping_demo(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> None:
    """Realize a population of points under a uniform mapping and report
    how uniform the realized coordinates look (KS statistic).

    The countable coordinates are spread over `units` unit sets so the
    partition is visible in the output; the realized images are checked
    against the target distribution.  Raises TooLarge, before any
    population-sized array exists, when its arrays would exceed
    _DENSE_GUARD bytes at their peak.
    """
    p = cfg.params
    count, units = p["count"], p["units"]
    nbytes = count * _MAPPING_POINT_BYTES
    if nbytes > _DENSE_GUARD:
        raise TooLarge(f"{count} points need about {nbytes} bytes, "
                       f"over the {_DENSE_GUARD}-byte guard")
    from scipy import stats

    dist = MappingDistribution.uniform(p["lo"], p["hi"])
    t0 = time.perf_counter()
    # the bits of units * i / count: _validate keeps units * count below 2**53
    ns = np.arange(count) * units / count if count else np.empty(0)
    images = realize_images(ns, dist, cfg.seed)
    if count:
        ks = stats.kstest(images, stats.uniform(loc=p["lo"],
                                                scale=p["hi"] - p["lo"]).cdf)
        ks_stat, ks_pval = float(ks.statistic), float(ks.pvalue)
    else:
        # An empty population still produces output files; the KS test is
        # undefined so its fields are null in the record.
        ks_stat = ks_pval = None
    unit_ids, unit_sizes = np.unique(np.floor(ns), return_counts=True)
    dt = (time.perf_counter() - t0) * 1e3
    lines = ["n,r"]
    for n, r in zip(ns.tolist(), images.tolist()):
        lines.append(f"{n:.17g},{r:.17g}")
    (out_dir / "mapping.csv").write_text("\n".join(lines) + "\n")
    record = {
        "experiment": cfg.experiment,
        "config": _config_echo(cfg),
        "ks_statistic": ks_stat,
        "ks_pvalue": ks_pval,
        "unit_set_counts": {str(int(idx)): size for idx, size
                            in zip(unit_ids.tolist(), unit_sizes.tolist())},
    }
    _write_json(out_dir / "mapping.json", record)
    if ks_stat is None:
        _say(quiet, f"mapping_demo: 0 points, KS skipped ({dt:.0f} ms)")
    else:
        _say(quiet, f"mapping_demo: {count} points, KS={ks_stat:.4f} "
             f"(p={ks_pval:.3f}, {dt:.0f} ms)")
    _say(quiet, f"  wrote {out_dir / 'mapping.json'}, {out_dir / 'mapping.csv'}")


_RUNNERS = {
    "propagator_convergence": run_propagator_convergence,
    "interference": run_interference,
    "concentration_scan": run_concentration_scan,
    "mapping_demo": mapping_demo,
}


def run(config_path, out_dir=".", seed=None, quiet=False) -> int:
    """Execute one experiment config.  Returns the process exit code."""
    try:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        cfg = resolve_config(parse_config_text(path.read_text()), seed_override=seed)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _RUNNERS[cfg.experiment](cfg, out, quiet)
        return 0
    except ConfigError as e:
        print(f"cardpath: config error: {e}", file=sys.stderr)
        return 2
    except CardpathError as e:
        print(f"cardpath: numerical failure: {e}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cardpath",
        description="Run a path-sum experiment from a key=value config file.")
    ap.add_argument("--config", required=True, help="path to the config file")
    ap.add_argument("--out", default=".", help="output directory (default: .)")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the seed from the config")
    ap.add_argument("--quiet", action="store_true", help="suppress stdout summary")
    args = ap.parse_args(argv)
    return run(args.config, out_dir=args.out, seed=args.seed, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
