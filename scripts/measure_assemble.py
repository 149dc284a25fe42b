#!/usr/bin/env python3
"""Measure one Hamiltonian assembly: wall time, process peak, traced peak, nnz, CSR bytes.

Usage: python scripts/measure_assemble.py CONFIG [--n-max N]

The bundle of CONFIG (its base lattice, n_max, polynomial, potential and
coupling, as `spectrum` builds it) is assembled in a child process whose
BLAS pools are pinned to one thread.  The child times the bundle built on an
enumerated basis (`cli._bundle`: the polynomial's certificate, which takes
milliseconds, and `hamiltonian.assemble`); the peak is the child's whole-process maximum RSS as `wait4` reports
it, imports and basis included.  A second child, run after the first, builds
the same bundle under tracemalloc, with the basis's raise table built
beforehand, and reports the peak of the bytes numpy and Python allocate
during the build: unlike the RSS it reproduces to 0.1 MiB from run to run,
and the timed child stays untraced.  --n-max replaces the config's particle cap:
perfbench/configs/m17_spectrum.json has dim 7,770 and reaches dim 73,815 with
--n-max 4.  Measure one configuration at a time; two processes on a two-core
machine slow each other down.

Example:
    python scripts/measure_assemble.py configs/desk_bundle.json
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

BASIS = """
import dataclasses, sys, time, tracemalloc
from chargedphi2 import cli
from chargedphi2.config import load_config

cfg = load_config(sys.argv[1])
if sys.argv[2]:
    cfg = dataclasses.replace(cfg, n_max=int(sys.argv[2]))
basis = cli._basis(cfg, cfg.base_lattice())
"""
TIMED = BASIS + """
t0 = time.perf_counter()
h = cli._bundle(cfg, basis).h.matrix
wall = time.perf_counter() - t0
print(basis.dim, h.nnz, h.data.nbytes + h.indices.nbytes + h.indptr.nbytes, wall)
"""
TRACED = BASIS + """
basis.raise_table
tracemalloc.start()
cli._bundle(cfg, basis)
print(tracemalloc.get_traced_memory()[1])
"""


def run_child(code: str, args: list, env: dict):
    """(exit code, stdout, the child's own wait4 resource usage) of one child process."""
    child = subprocess.Popen([sys.executable, "-c", code, *args], env=env, stdout=subprocess.PIPE, text=True)
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)  # its own ru_maxrss; RUSAGE_CHILDREN is a running maximum
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="path to the JSON experiment config")
    parser.add_argument("--n-max", type=int, default=None, help="particle cap to use instead of the config's")
    args = parser.parse_args(argv)

    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child_args = [args.config, "" if args.n_max is None else str(args.n_max)]
    code, out, usage = run_child(TIMED, child_args, env)
    if code == 0:
        code, traced, _ = run_child(TRACED, child_args, env)
    if code != 0:
        print(f"assembly failed with exit code {code}", file=sys.stderr)
        return 1
    dim, nnz, csr_bytes, wall = out.split()
    peak_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    print(f"{args.config} n_max {args.n_max if args.n_max is not None else 'as configured'}: "
          f"dim {int(dim):,}  nnz {int(nnz):,}  CSR {int(csr_bytes) / 2**20:.1f} MiB  "
          f"assemble {float(wall):.2f} s  wait4 peak {peak_mib:.1f} MiB  "
          f"traced peak {int(traced) / 2**20:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
