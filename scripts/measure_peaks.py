#!/usr/bin/env python3
"""Measure CLI subcommands one at a time: wall time and process peak of each.

Usage: python scripts/measure_peaks.py [--repeat N] [SUBCOMMAND INPUT ...]

Each (subcommand, input) pair runs `python -m chargedphi2 SUBCOMMAND INPUT` in
a child process whose BLAS pools are pinned to one thread, with its output
written to a temporary directory.  The peak is the child's whole-process
maximum RSS as `wait4` reports it, imports included; each child's stage log
(`chargedphi2.cli`) passes through to stderr.  Without arguments the nine
operations of the benchmark's solver suite run on its inputs, as
perfbench/workloads.py lists them (`WORKLOADS["solver_suite"]`, `SOURCES`).
With --repeat N the whole list runs N times in turn, and each operation's
median and quartiles of the wall time and the peak follow.  The exit status
is 1 if any child failed.  Run nothing else meanwhile; two processes on a
two-core machine slow each other.

Example:
    python scripts/measure_peaks.py --repeat 5 quantize configs/quantize.json
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import SOURCES, WORKLOADS  # noqa: E402

SUITE = [(sub, str(SOURCES[name])) for sub, name in WORKLOADS["solver_suite"]]


def measure(sub: str, path: str, env: dict) -> tuple[int, float, float]:
    """(exit code, wall seconds, wait4 peak in MiB) of one CLI run."""
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "chargedphi2", sub, path],
                                 env=dict(env, CHARGEDPHI2_OUTDIR=out), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)  # its own ru_maxrss; RUSAGE_CHILDREN is a running maximum
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def spread(values: list[float]) -> str:
    """median [lower quartile, upper quartile] of two or more values."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs of each operation (default 1)")
    parser.add_argument("operations", nargs="*", help="SUBCOMMAND INPUT pairs (default: the solver suite)")
    args = parser.parse_args(argv)
    if len(args.operations) % 2 or args.repeat < 1:
        parser.error("give SUBCOMMAND INPUT pairs and a positive --repeat")
    ops = args.operations
    pairs = list(zip(ops[::2], ops[1::2])) or SUITE
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = {pair: [] for pair in pairs}
    failed = False
    for _ in range(args.repeat):
        for sub, path in pairs:
            code, wall, peak = measure(sub, path, env)
            runs[sub, path].append((wall, peak))
            failed |= code != 0
            print(f"{sub:16s} {Path(path).name:20s} exit {code}  {wall:7.2f} s  wait4 peak {peak:6.1f} MiB", flush=True)
    if args.repeat > 1:
        print(f"median [quartiles] of {args.repeat} runs")
        for (sub, path), rows in runs.items():
            walls, peaks = zip(*rows)
            print(f"{sub:16s} {Path(path).name:20s} {spread(list(walls))} s  wait4 peak {spread(list(peaks))} MiB")
    print(f"max wait4 peak {max(peak for rows in runs.values() for _, peak in rows):.1f} MiB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
