#!/usr/bin/env python3
"""Measure one assembly and the gap probe on it: wall times, process and traced peaks, nnz, bytes of T and d.

Usage: python scripts/measure_assemble.py CONFIG [--n-max N]

The bundle of CONFIG (its base lattice, n_max, polynomial, potential and
coupling, as `spectrum` builds it) is assembled in a child process whose
BLAS pools are pinned to one thread.  The child times the bundle built on an
enumerated basis (`cli._bundle`: the polynomial's certificate, which takes
milliseconds, and `hamiltonian.assemble`), then `spectrum`'s gap probe on it
(`cli._gap_probe`), and reads its running maximum RSS after the basis, after
the bundle and after the probe, so the phase that sets the peak shows; the
peak is the child's whole-process maximum RSS as `wait4` reports it, imports
and basis included.  A second child, run after the first, builds the same
bundle under tracemalloc, with the basis's raise table built beforehand, and
reports the peak of the bytes numpy and Python allocate during the build,
then restarts tracemalloc and reports the gap probe's peak the same way:
unlike the RSS these reproduce to 0.1 MiB from run to run, and the timed
child stays untraced.  The bundle holds H as its strictly upper triangle T
(CSC) and real diagonal d, and neither child builds H's full matrix: nnz is
H's as `metadata()` counts it, the bytes are those of T's arrays and d, and
the assembly's peaks are also given over those bytes.  --n-max replaces the
config's particle cap: perfbench/configs/m17_spectrum.json has dim 7,770 and
reaches dim 73,815 with --n-max 4.  Measure one configuration at a time; two
processes on a two-core machine slow each other down.

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
import resource
maxrss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
t0 = time.perf_counter()
bundle = cli._bundle(cfg, basis)
wall = time.perf_counter() - t0
maxrss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
t0 = time.perf_counter()
cli._gap_probe(cfg, bundle)
probe_wall = time.perf_counter() - t0
maxrss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
t, d = bundle.h.t, bundle.h.d
print(basis.dim, bundle.metadata()["nnz"], t.data.nbytes + t.indices.nbytes + t.indptr.nbytes + d.nbytes, wall,
      probe_wall, *maxrss)
"""
TRACED = BASIS + """
basis.raise_table
tracemalloc.start()
bundle = cli._bundle(cfg, basis)
print(tracemalloc.get_traced_memory()[1])
tracemalloc.stop()
tracemalloc.start()
cli._gap_probe(cfg, bundle)
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
    dim, nnz, kept_bytes, wall, probe_wall, *maxrss = out.split()
    traced, traced_probe = (int(x) / 2**20 for x in traced.split())
    peak_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    kept_mib = int(kept_bytes) / 2**20
    basis_mib, bundle_mib, probe_mib = (int(x) / 1024 for x in maxrss)
    print(f"{args.config} n_max {args.n_max if args.n_max is not None else 'as configured'}: "
          f"dim {int(dim):,}  nnz {int(nnz):,}  T and d {kept_mib:.1f} MiB  "
          f"assemble {float(wall):.2f} s  wait4 peak {peak_mib:.1f} MiB ({peak_mib / kept_mib:.2f}x)  "
          f"traced peak {traced:.1f} MiB ({traced / kept_mib:.2f}x)")
    print(f"  gap probe {float(probe_wall):.2f} s, traced peak {traced_probe:.1f} MiB; running maxrss "
          f"after the basis {basis_mib:.1f}, the bundle {bundle_mib:.1f}, the probe {probe_mib:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
