"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(``child.py``) that imports ``cardpath`` from ``src/``; this process stays
small while the child runs, so the child's ``ru_maxrss`` is its own.
After the child exits its outputs are checked (``checks.py``) and the last
line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  Check failures and count mismatches go to
stderr; a summary (and, when traced, the spans) stays in .bench_out/.
"""
from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 165


def _child(out: Path, seconds: float, trace: int):
    """Runs the workload child; returns (spawn time, result) or None."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--out", str(out),
             "--seconds", repr(seconds), "--trace", str(trace)],
            env=env, cwd=ROOT, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: workload child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"bench: workload child exited with {proc.returncode}", file=sys.stderr)
        return None
    return t_spawn, json.loads((out / "result.json").read_text())


def _layer_metrics(spec, result, names):
    """Per-layer values: medians over the traced rounds of each round's
    totals; a function that no longer exists reads 0 and is listed."""
    absent = set()
    values = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_s":
            # the first round runs cold (allocator, caches) and is left out
            walls = {flag: [r["wall_s"] for r in result["rounds"][1:]
                            if r["traced"] == flag]
                     for flag in (True, False)}
            values[name] = statistics.median(walls[True]) - statistics.median(walls[False])
            continue
        func, quantity = name.rsplit(".", 1)
        if func not in names:
            absent.add(func)
        per_round = []
        for layer in result["layers"]:
            agg = layer.get(func, {})
            if quantity == "busy_ratio":
                per_round.append(agg["child_s"] / agg["s"] if agg.get("s") else 0.0)
            else:
                per_round.append(agg.get(quantity, 0))
        values[name] = statistics.median(per_round)
    return values, sorted(absent)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "cardpath" / "__init__.py").is_file():
        print(f"bench: no cardpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = base / f"{tag}-{os.getpid()}"
    out.mkdir(parents=True)
    inputs = W.make_inputs(args.workload, args.seed)
    (out / "inputs.json").write_text(json.dumps(inputs, indent=1))
    try:
        ran = _child(out, args.seconds, args.trace)
        if ran is None:
            return 1
        t_spawn, result = ran

        sys.path.insert(0, str(ROOT / "src"))
        import checks  # numpy, scipy and cardpath.oracles load only now

        checker = checks.Checker(inputs)
        attempted = failed = 0
        unexpected = []
        accuracy = []
        for i, rnd in enumerate(result["rounds"]):
            results, acc = checker.check_round(rnd["outputs"])
            accuracy.append(acc)
            attempted += len(results)
            for op_id, fails in results.items():
                if fails:
                    failed += 1
                    known = op_id in checks.KNOWN_FAULTS
                    if not known:
                        unexpected.append(op_id)
                    print(f"bench: round {i}: {op_id} failed"
                          f"{' (known fault)' if known else ''}: " + "; ".join(fails),
                          file=sys.stderr)
        if args.trace:
            with gzip.open(out / "spans.json.gz", "rt") as fh:
                names = set(json.load(fh)["names"])
            metrics, absent = _layer_metrics(spec["per_layer"], result, names)
            for func in absent:
                print(f"bench: {func} is absent from cardpath; its metrics read 0",
                      file=sys.stderr)
            mismatched = {}
            for name, want in W.expected_counts(inputs).items():
                if metrics.get(name) != want:
                    mismatched[name] = {"expected": want, "traced": metrics.get(name)}
                    print(f"bench: {name} traced {metrics.get(name)}, "
                          f"make-up gives {want}", file=sys.stderr)
            for name in result["counter_errors"]:
                print(f"bench: could not count the work of {name}", file=sys.stderr)
            extra = {"absent": absent, "count_mismatches": mismatched}
            shutil.copyfile(out / "spans.json.gz",
                            base / f"spans-{args.workload}-seed{args.seed}.json.gz")
        else:
            walls = [r["wall_s"] for r in result["rounds"]]
            metrics = {"setup_s": result["t_first_op"] - t_spawn,
                       "wall_s": statistics.median(walls),
                       "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
                       "kernel_rel_error": statistics.median(accuracy)}
            extra = {"round_walls_s": walls}
        bad = [name for name, val in metrics.items() if not math.isfinite(val)]
        if bad:
            print(f"bench: no value for {', '.join(bad)}", file=sys.stderr)
            return 1
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        line = {"correct": not unexpected, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": val, "unit": units[name]}
                            for name, val in metrics.items()}}
        (base / f"{tag}.json").write_text(json.dumps(dict(line, **extra), indent=1))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
