"""Byte-identity self-check of the CLI outputs across BLAS/OpenMP thread
counts.  Not part of the timed runs.

    python3 bench/byte_identity.py

Runs each of the four CLI experiments at its defaults twice, each time in
a fresh process: first with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, then
with 2, and compares every output file of the two runs byte for byte.

It does so for two matvecs: the program as it is (``apply_step``, a
chunked fixed-order reduction), and the program with ``apply_step``
replaced from outside by the BLAS product ``Tm @ psi``.  The second pass
answers whether BLAS would break byte-identical output; the single-thread
files of the two passes are compared too, which shows whether a switch to
BLAS would change the output bytes once.  Exits 0 when the program as it
is writes identical files, 1 otherwise.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = ("propagator_convergence", "interference", "concentration_scan",
               "mapping_demo")
THREADS = (1, 2)

_BLAS_LAUNCHER = """
import sys
from cardpath import classical_limit, cli, propagator
for mod in (propagator, classical_limit, cli):
    mod.apply_step = lambda tm, psi: tm @ psi
sys.exit(cli.main(sys.argv[1:]))
"""
MATVECS = {"chunked": ["-m", "cardpath.cli"], "blas": ["-c", _BLAS_LAUNCHER]}


def run_cli(matvec: str, experiment: str, threads: int, base: Path) -> Path:
    out = base / f"{matvec}-{experiment}-threads{threads}"
    out.mkdir(parents=True)
    cfg = base / f"{experiment}.cfg"
    cfg.write_text(f"experiment = {experiment}\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, *MATVECS[matvec], "--config", str(cfg),
                    "--out", str(out), "--quiet"], env=env, cwd=ROOT, check=True)
    return out


def main() -> int:
    base = ROOT / ".bench_out" / "byte_identity"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    same = {}
    try:
        for matvec in MATVECS:
            same[matvec] = True
            for experiment in EXPERIMENTS:
                one, two = (run_cli(matvec, experiment, n, base) for n in THREADS)
                for path in sorted(one.iterdir()):
                    identical = path.read_bytes() == (two / path.name).read_bytes()
                    same[matvec] &= identical
                    print(f"{matvec:8s} {experiment:24s} {path.name:20s} "
                          f"{'identical' if identical else 'DIFFERENT'}")
        for experiment in EXPERIMENTS:
            chunked, blas = (base / f"{m}-{experiment}-threads{THREADS[0]}"
                             for m in MATVECS)
            for path in sorted(chunked.iterdir()):
                identical = path.read_bytes() == (blas / path.name).read_bytes()
                print(f"chunked vs blas, {THREADS[0]} thread: {experiment:24s} "
                      f"{path.name:20s} {'identical' if identical else 'DIFFERENT'}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for matvec, ok in same.items():
        print(f"{matvec}: outputs {'identical' if ok else 'differ'} between "
              f"{THREADS[0]} and {THREADS[1]} BLAS/OpenMP threads")
    return 0 if same["chunked"] else 1


if __name__ == "__main__":
    sys.exit(main())
