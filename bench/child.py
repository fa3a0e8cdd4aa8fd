"""Workload process: imports cardpath from the checkout, builds the
workload's inputs, then runs whole rounds of its operations until the
requested seconds have passed.  Started by ``run.py``; writes its raw
results to ``<out>/result.json`` and nothing to stdout that matters.

With --trace 1 the rounds alternate untraced and traced, starting
untraced, for at least three rounds: the tracing overhead is measured
within one process, leaving out the first round, which runs cold.
"""
from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
import time
from pathlib import Path

import cardpath  # through PYTHONPATH=<checkout>/src, checked in main()
from cardpath import cli, propagator
from cardpath.lattice import LagrangianSpec, SpaceGrid, TimeGrid

import tracer as tr
import workloads as W

ROOT = Path(__file__).resolve().parent.parent


def _lag(name):
    potential, time_dependent = W.POTENTIALS[name]
    return LagrangianSpec(mass=W.MASS, potential=potential, label=name,
                          time_dependent=time_dependent)


def _complex_out(res):
    return {"re": res.value.re, "im": res.value.im}


def prepare(op, cfg_dir: Path):
    """Everything an operation needs before the clock starts; returns the
    callable that runs it once and reports its raw output."""
    kind = op["kind"]
    if kind == "cli":
        path = cfg_dir / f"{op['id']}.cfg"
        path.write_text("".join(f"{key} = {val!r}\n" if isinstance(val, float)
                                else f"{key} = {val}\n"
                                for key, val in op["config"].items()))

        def run(round_dir):
            out = round_dir / op["id"]
            return {"rc": cli.run(str(path), out_dir=str(out), quiet=True),
                    "dir": str(out)}
        return run
    lag = _lag(op["potential"])
    if kind == "transfer":
        grid, space, width = propagator.convergence_recipe(
            lag, W.HBAR, W.T_TOTAL, op["a"], op["b"], k=op["k"])
        cfg = propagator.PropagatorConfig(grid=grid, space=space, lag=lag,
                                          hbar=W.HBAR, a=op["a"], b=op["b"])

        def run(round_dir):
            res = propagator.propagate_transfer_matrix(cfg, source_width=width)
            return dict(_complex_out(res), lo=space.lo, hi=space.hi,
                        sites=space.sites, source_width=width)
        return run
    if kind == "enumerate":
        cfg = propagator.PropagatorConfig(
            grid=TimeGrid(0.0, W.T_TOTAL, op["k"]),
            space=SpaceGrid(op["lo"], op["hi"], op["sites"]),
            lag=lag, hbar=W.HBAR, a=op["a"], b=op["b"])
        return lambda round_dir: _complex_out(propagator.propagate_enumerate(cfg))
    if kind == "mc":
        cfg = propagator.PropagatorConfig(
            grid=TimeGrid(0.0, W.T_TOTAL, op["k"]), space=SpaceGrid(-3.0, 3.0, 121),
            lag=lag, hbar=W.HBAR, a=op["a"], b=op["b"])

        def run(round_dir):
            res = propagator.propagate_monte_carlo_euclidean(
                cfg, samples=op["samples"], seed=op["seed"])
            return {"re": res.value.re, "stderr": res.stderr}
        return run
    raise ValueError(f"unknown operation kind {kind!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    src = (ROOT / "src").resolve()
    if src not in Path(cardpath.__file__).resolve().parents:
        print(f"cardpath imported from {cardpath.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    inputs = json.loads((out / "inputs.json").read_text())
    cfg_dir = out / "configs"
    cfg_dir.mkdir(exist_ok=True)
    ops = [(op["id"], prepare(op, cfg_dir)) for op in inputs["ops"]]
    tracer = tr.Tracer() if args.trace else None

    t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
    rounds, layers, spans_out = [], [], None
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            span_names = tracer.install(cardpath)
        round_dir = out / f"round{len(rounds)}"
        t0 = time.perf_counter()
        outputs = {op_id: run(round_dir) for op_id, run in ops}
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            spans = tracer.take()
            layers.append(tr.reduce_spans(spans))
            if spans_out is None:
                spans_out = {"names": span_names, "fields": tr.SPAN_FIELDS,
                             "spans": spans}
        rounds.append({"traced": traced, "wall_s": wall, "outputs": outputs})
        elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - t_first
        if elapsed >= args.seconds and (tracer is None or len(rounds) >= 3):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"t_first_op": t_first, "peak_rss_kib": peak_kib, "rounds": rounds,
              "layers": layers,
              "counter_errors": sorted(tracer.counter_errors) if tracer else []}
    if spans_out is not None:
        with gzip.open(out / "spans.json.gz", "wt") as fh:
            json.dump(spans_out, fh)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
