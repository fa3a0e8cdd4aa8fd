"""Experiment runner.

Config files are flat ``key = value`` text; ``#`` starts a comment, blank
lines are ignored, keys may not repeat, and unknown keys are rejected so a
typo cannot silently fall back to a default.  Every run needs an
``experiment`` key naming one of: propagator_convergence, interference,
concentration_scan, mapping_demo.

Output files (JSON, CSV) are byte-identical across reruns with the same
seed; timing is only ever printed to stdout, never written to the files.

Exit codes: 0 success, 2 config error, 3 numerical failure, which
includes a result that is not finite: it is refused before any file is
written.
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
from .errors import CardpathError, ConfigError, NoConvergence
from .intermediate_set import (_BLOCK, MappingDistribution, _ks_uniform,
                               realize_images, unit_set_counts)
from .lattice import SpaceGrid, TimeGrid, free_particle, harmonic_oscillator
from .oracles import AnalyticKernel, analytic_propagator
from .propagator import (RECIPE_K, PropagatorConfig, Sweep, convergence_recipe,
                         gaussian_window, guard_bytes,
                         propagate_transfer_matrix, site_count)

# bytes that mapping_demo may hold at its peak, per point and per unit
# set.  With 4 unit sets tracemalloc measures 25.5 bytes a point at 4e5
# points, 24.5 at 1.2e6 and 24.1 at 4e6: the coordinates, the images and
# the KS test's sorted copy (24), next to one block (_BLOCK points) of the
# draw's limb arrays, the KS steps and gaps or the CSV rows.  A unit set
# adds up to 298 bytes (4e5 points in as many sets, 11-digit indices): its
# count in a dict and in the record, and its share of the record's text,
# which is built whole.  The guard takes 1.5 times each.
_MAPPING_POINT_BYTES = 40
_UNIT_SET_BYTES = 450
_CSV_BLOCK = _BLOCK  # rows that _write_csv formats at a time


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
    if experiment not in _RUNNERS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {', '.join(_RUNNERS)}")
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


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write header and one row per index of the equal-length columns,
    each value as %.17g, _CSV_BLOCK rows at a time with one % each, so
    that the text of the whole table never exists at once."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with path.open("w") as f:
        f.write(header + "\n")
        for lo in range(0, cols[0].size, _CSV_BLOCK):
            block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in cols])
            f.write((row * len(block)) % tuple(block.ravel().tolist()))


def _lag_of(p: dict):
    if p.get("family", "free") == "harmonic":
        return harmonic_oscillator(mass=p["mass"], omega=p["omega"])
    return free_particle(mass=p["mass"])


# Each runner takes (params, seed) and returns (stem, record, table,
# summary): the output file stem, the JSON record without its experiment
# and config header, None or a CSV table (header, *columns), and a line
# for stdout.  run times, writes and reports them.

def run_propagator_convergence(p: dict, seed: int):
    lag = _lag_of(p)
    grid, space, sw = convergence_recipe(lag, p["hbar"], p["t_total"],
                                         p["a"], p["b"], k=p["k"])
    pcfg = PropagatorConfig(grid=grid, space=space, lag=lag,
                            hbar=p["hbar"], a=p["a"], b=p["b"])
    res = propagate_transfer_matrix(pcfg, source_width=sw)
    kernel = AnalyticKernel(family=p["family"], mass=p["mass"], hbar=p["hbar"],
                            T=p["t_total"],
                            omega=p["omega"] if p["family"] == "harmonic" else None)
    oracle = analytic_propagator(kernel, p["a"], p["b"], source_width=sw).to_complex()
    rel = abs(res.value.to_complex() - oracle) / abs(oracle)
    record = {
        "grid": {"k": grid.k, "sites": space.sites, "dx": space.dx,
                 "lo": space.lo, "hi": space.hi, "source_width": sw},
        "result": {"method": res.method, "k": res.k, "sites": res.sites,
                   "re": res.value.re, "im": res.value.im},
        "oracle": {"re": oracle.real, "im": oracle.imag},
        "rel_error": rel,
    }
    return "convergence", record, None, (
        f"propagator_convergence[{p['family']}]: rel_error={rel:.3e} "
        f"k={grid.k} sites={space.sites}")


def run_interference(p: dict, seed: int):
    """Two Gaussian slits, one exact step to the screen, fringe readout."""
    mass, hbar, T = p["mass"], p["hbar"], p["t_total"]
    d, w, L = p["slit_separation"], p["slit_width"], p["screen_half_width"]
    if not mass * d > 0:
        raise ConfigError(f"keys 'mass' and 'slit_separation': their product "
                          f"underflows to 0 at {mass!r} * {d!r}")
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
    evolve = Sweep(pcfg)  # size guard before any grid-sized array
    x = space.points()
    psi = evolve(gaussian_window(x, -0.5 * d, w, 0.0, hbar)
                 + gaussian_window(x, 0.5 * d, w, 0.0, hbar))
    intensity = np.abs(psi) ** 2
    thr = 0.02 * intensity.max()
    interior = (intensity[1:-1] > intensity[:-2]) \
        & (intensity[1:-1] >= intensity[2:]) & (intensity[1:-1] > thr)
    peaks = np.where(interior)[0] + 1
    if peaks.size < 2:
        raise NoConvergence("fewer than two fringe maxima on the screen")
    spacing_meas = float(np.median(np.diff(x[peaks])))
    rel_dev = abs(spacing_meas - spacing_pred) / spacing_pred
    record = {
        "sites": sites,
        "dx": space.dx,
        "predicted_spacing": spacing_pred,
        "measured_spacing": spacing_meas,
        "rel_deviation": rel_dev,
        "n_maxima": int(peaks.size),
    }
    return "interference", record, ("y,intensity", x, intensity), (
        f"interference: spacing {spacing_meas:.4f} vs predicted "
        f"{spacing_pred:.4f} (dev {rel_dev:.2%}, {peaks.size} maxima)")


def run_concentration_scan(p: dict, seed: int):
    scan = cl_mod.concentration_scan(_lag_of(p), p["t_total"], p["a"], p["b"],
                                     p["hbar_values"], p["delta"], k=p["k"])
    fr = scan.mass_fraction
    nondecreasing = all(fr[i + 1] >= fr[i] - 1e-3 for i in range(len(fr) - 1))
    record = {
        "hbar_values": list(scan.hbar_values),
        "m_scale": list(scan.m_scale),
        "mass_fraction": list(fr),
        "argmax_offset": list(scan.argmax_offset),
        "dx": list(scan.dx_values),
        "classical_path": list(scan.classical_path.sites),
        "nondecreasing": nondecreasing,
    }
    table = ("hbar,m_scale,mass_fraction", scan.hbar_values, scan.m_scale, fr)
    frac_str = ", ".join(f"{f:.3f}" for f in fr)
    return "concentration", record, table, (
        f"concentration_scan: fractions [{frac_str}] "
        f"nondecreasing={nondecreasing}")


def mapping_demo(p: dict, seed: int):
    """Realize a population of points under a uniform mapping and report
    how uniform the realized coordinates look (KS statistic).

    The countable coordinates are spread over `units` unit sets so the
    partition is visible in the output; the realized images are checked
    against the target distribution by a two-sided one-sample KS test in
    numpy, with the statistic and p-value of scipy.stats.kstest, so no
    scipy module is loaded.  Raises TooLarge, before any population-sized
    array exists, when its arrays and its record of the unit sets would
    exceed the size guard at their peak.
    """
    count, units = p["count"], p["units"]
    sets = min(count, units)  # the distinct floor(units * i / count)
    guard_bytes(count * _MAPPING_POINT_BYTES + sets * _UNIT_SET_BYTES,
                f"a population of {count} points in {sets} unit sets")
    dist = MappingDistribution.uniform(p["lo"], p["hi"])
    # the bits of units * i / count: _validate keeps units * count below 2**53
    ns = np.arange(count) * units / count if count else np.empty(0)
    images = realize_images(ns, dist, seed)
    if count:
        ks_stat, ks_pval = _ks_uniform(images, p["lo"], p["hi"])
        summary = f"mapping_demo: {count} points, KS={ks_stat:.4f} (p={ks_pval:.3f})"
    else:
        # An empty population still produces output files; the KS test is
        # undefined so its fields are null in the record.
        ks_stat = ks_pval = None
        summary = "mapping_demo: 0 points, KS skipped"
    record = {
        "ks_statistic": ks_stat,
        "ks_pvalue": ks_pval,
        "unit_set_counts": {str(idx): size
                            for idx, size in unit_set_counts(ns).items()},
    }
    return "mapping", record, ("n,r", ns, images), summary


_RUNNERS = {
    "propagator_convergence": run_propagator_convergence,
    "interference": run_interference,
    "concentration_scan": run_concentration_scan,
    "mapping_demo": mapping_demo,
}


def run(config_path, out_dir=".", seed=None, quiet=False) -> int:
    """Execute one experiment config.  Returns the process exit code.

    Times the runner, refuses a record that is not finite before any file
    is written, then writes <stem>.json and, with a table, <stem>.csv.
    """
    try:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        cfg = resolve_config(parse_config_text(path.read_text()), seed_override=seed)
        t0 = time.perf_counter()
        stem, record, table, summary = _RUNNERS[cfg.experiment](cfg.params, cfg.seed)
        dt = (time.perf_counter() - t0) * 1e3
        config = {"experiment": cfg.experiment, "seed": cfg.seed, **cfg.params}
        record = {"experiment": cfg.experiment, "config": config, **record}
        try:
            text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            raise NoConvergence(f"{cfg.experiment}: the result is not finite")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written = [out / f"{stem}.json"]
        written[0].write_text(text + "\n")
        if table is not None:
            written.append(out / f"{stem}.csv")
            _write_csv(written[1], *table)
        if not quiet:
            print(f"{summary} ({dt:.0f} ms)")
            print(f"  wrote {', '.join(map(str, written))}")
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
