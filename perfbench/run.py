"""Benchmark of chargedphi2: CLI workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of workloads.py, or `all` to run each in turn.  The
harness writes the seed's inputs, then runs whole passes over the workload's
operations: at least one, and another while one more pass of the last pass's
length would end within S seconds of the first pass's start.  An operation
is one `python -m chargedphi2` process.  Operations run one at a time, a
closed loop with one client: each starts after the previous one has exited.
Every child gets OPENBLAS/OMP/MKL_NUM_THREADS=1 before its interpreter
starts and a fresh CHARGEDPHI2_OUTDIR; the package is imported from src/ of
the checkout.

--trace 0 reports the end-to-end metrics:
  wall_s       median over passes of the summed wall time of the processes
  setup_s      median over SETUP_REPS fresh processes of the time to import
               the CLI stack and parse the workload's inputs (setup_child.py),
               half before the passes and half after
  peak_rss_mb  largest peak RSS of any one process: its own ru_maxrss, read
               with wait4, since RUSAGE_CHILDREN is a running maximum
  ok_frac      operations that succeeded over operations attempted; this is
               1 - fail_frac, the form that is never 0
--trace 1 runs each operation untraced and then through traced_cli.py and
reports the per-layer metrics of layer_metrics(), plus trace.overhead_s:
traced minus untraced wall time of the same operations.

An operation fails when it exits nonzero, when its output misses a check of
workloads.py (pinned references at seed 0, invariants at every seed), or, in
a traced run, when an eigenpair misses the residual contract or H is not
exactly Hermitian.  `correct` is false when a completed operation's output
misses a check; `failed` counts every failed operation.

The exact work counts (basis dims, nnz of H, Lanczos k, report bytes) are
kept per source tree in .bench_state/identity.json; a run whose counts differ
from an earlier run of the same sources exits with status 3.  Each result,
with the machine and library versions, is saved under .bench_state/results/.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import BENCH, ROOT, WORKLOADS, check_golden_table, check_report, make_inputs, work_of  # noqa: E402

STATE = ROOT / ".bench_state"
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 4
# A run must end within 180 s: a child still running RUN_TIMEOUT_S after its
# workload started is killed and the run fails without a result.
RUN_TIMEOUT_S = 170
RUN_DEADLINE = time.monotonic() + RUN_TIMEOUT_S  # reset as each workload starts
EXIT_IDENTITY = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio"}


def child_env(outdir: Path) -> dict:
    env = dict(os.environ, **THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CHARGEDPHI2_OUTDIR"] = str(outdir)
    return env


def run_process(argv: list, outdir: Path) -> dict:
    """Run one child to completion; its wall time, own peak RSS and output."""
    outdir.mkdir(parents=True)
    out_path, err_path = outdir.parent / f"{outdir.name}.out", outdir.parent / f"{outdir.name}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(outdir), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        signal.alarm(max(1, math.ceil(RUN_DEADLINE - time.monotonic())))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "stdout": out_path.read_text(),
        "stderr": err_path.read_text(),
    }


def deterministic_bytes(outdir: Path) -> int:
    """Bytes of the reports written, without the created_utc timestamp line."""
    total = 0
    for path in sorted(outdir.iterdir()):
        for line in path.read_bytes().splitlines(keepends=True):
            if b'"created_utc"' not in line:
                total += len(line)
    return total


def run_op(sub: str, name: str, inputs: dict, seed: int, workdir: Path, tag: str, traced: bool) -> dict:
    """One CLI operation, untraced or traced, with its output checks."""
    outdir = workdir / tag
    path = inputs[name]
    if traced:
        spans_path = workdir / f"{tag}.spans.json"
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), sub, str(path)]
    else:
        argv = [sys.executable, "-m", "chargedphi2", sub, str(path)]
    res = run_process(argv, outdir)
    op = {"sub": sub, "input": name, "traced": traced, "wall_s": res["wall_s"],
          "rss_mb": res["rss_mb"], "exit": res["exit"], "output_problems": [],
          "trace_problems": [], "report_bytes": deterministic_bytes(outdir), "work": []}
    if traced:
        op["spans"] = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else []
        for span in op["spans"]:
            if span.get("residual", 0.0) > 1e-8:
                op["trace_problems"].append(f"{span['name']}: eigen residual {span['residual']:.3e}")
            if span.get("herm_asym_nnz"):
                op["trace_problems"].append(
                    f"{span['name']}: H not exactly Hermitian at {span['herm_asym_nnz']} entries "
                    f"(max |H - H^H| = {span['herm_asym_max']:.3e})"
                )
    if res["exit"] != 0:
        last = (res["stderr"].strip().splitlines() or ["(no stderr)"])[-1]
        op["crash"] = f"exit {res['exit']}: {last}"
    if sub == "golden-check":
        op["output_problems"] = check_golden_table(res["stdout"], path)
    elif res["exit"] == 0:
        reports = sorted(outdir.glob("*.json"))
        if len(reports) != 1:
            op["output_problems"] = [f"expected one JSON report, found {len(reports)}"]
        else:
            report = json.loads(reports[0].read_text())["report"]
            cfg = json.loads(path.read_text())
            try:
                op["output_problems"] = check_report(sub, name, seed, report, cfg)
            except (KeyError, TypeError, IndexError) as exc:
                op["output_problems"] = [f"report does not have the expected form: {exc!r}"]
            op["work"] = work_of(report)
    op["failed"] = bool(op.get("crash") or op["output_problems"] or op["trace_problems"])
    return op


def run_pass(ops: list, inputs: dict, seed: int, workdir: Path, index: int, trace: bool) -> list:
    results = []
    for i, (sub, name) in enumerate(ops):
        for traced in ([False, True] if trace else [False]):
            tag = f"p{index}-op{i}-{'traced' if traced else 'cli'}"
            op = run_op(sub, name, inputs, seed, workdir, tag, traced)
            op["pass"] = index
            results.append(op)
            print(describe(op), flush=True)
    return results


def describe(op: dict) -> str:
    mode = "traced" if op["traced"] else "cli"
    problems = ([op["crash"]] if op.get("crash") else []) + op["output_problems"] + op["trace_problems"]
    verdict = "ok" if not op["failed"] else "FAIL: " + "; ".join(problems)
    return (f"  pass {op['pass']} {mode:6s} {op['sub']:16s} {op['input']:20s} "
            f"{op['wall_s']:9.3f} s {op['rss_mb']:9.1f} MiB  {verdict}")


def measure_setup(ops: list, inputs: dict, workdir: Path, reps: range) -> list:
    args = []
    for sub, name in dict.fromkeys(ops):
        args += ["suite" if sub == "golden-check" else "config", str(inputs[name])]
    times = []
    for rep in reps:
        res = run_process([sys.executable, str(BENCH / "setup_child.py"), *args], workdir / f"setup{rep}")
        if res["exit"] != 0:
            raise RuntimeError(f"set-up probe failed: {res['stderr'].strip()}")
        times.append(res["wall_s"])
    return times


# -- per-layer metrics ----------------------------------------------------------

# Per-layer metric -> unit, with the end-to-end metric and workload each one
# should move.  Times are summed over the spans of a pass; "self" is a span's
# time minus its direct children.
PER_LAYER_UNITS = {
    "fock.dim": "count",  # largest basis: work identity
    "fock.enumerate_basis_s": "s",
    "fock.wick_operator_s": "s",  # HI kernels: wall_s on m17_spectrum, about flat on solver_suite
    "fock.wick_ns_per_nnz": "ns",  # the same per stored entry
    "fock.field_operator_s": "s",  # wall_s on solver_suite (probe)
    "fock.fock_embedding_s": "s",  # wall_s on solver_suite (ladder)
    "fock.self_s": "s",
    "hamiltonian.assemble_s": "s",  # wall_s on m17_spectrum
    "hamiltonian.interaction_kernels_s": "s",
    "hamiltonian.charge_operator_s": "s",
    "hamiltonian.sum_s": "s",  # assemble minus its timed parts: sparse sums, Hermiticity check
    "hamiltonian.nnz": "count",  # largest H: work identity
    "hamiltonian.csr_mb": "MiB",  # computed bytes of that H
    "hamiltonian.assemble_rss_mb": "MiB",  # RSS high-water growth: peak_rss_mb on m17_spectrum
    "hamiltonian.peak_over_csr": "ratio",  # that growth over csr bytes: the same
    "hamiltonian.herm_asym_nnz": "count",  # entries where H != H^H bitwise; 0 when exact
    "hamiltonian.self_s": "s",
    "oneparticle.lambda_quant_s": "s",  # wall_s on solver_suite
    "oneparticle.weyl_quantize_s": "s",  # wall_s on solver_suite
    "oneparticle.omega_block_s": "s",  # wall_s on solver_suite
    "oneparticle.self_s": "s",
    "quantization.quantize_report_s": "s",  # wall_s on solver_suite
    "quantization.self_s": "s",
    "spectral.low_lying_s": "s",  # wall_s, peak_rss_mb on solver_suite
    "spectral.low_lying_k": "count",  # eigenpairs requested, summed: work identity
    "spectral.dense_calls": "count",  # dim <= DENSE_EIG_LIMIT
    "spectral.sparse_calls": "count",
    "spectral.hvz_gap_probe_s": "s",  # wall_s on m17_spectrum
    "spectral.hvz_frame_s": "s",  # gap probe minus its low_lying
    "spectral.resolvent_convergence_s": "s",  # wall_s on solver_suite (ladder)
    "spectral.higher_order_norm_s": "s",  # wall_s on solver_suite (ladder)
    "spectral.heisenberg_probe_s": "s",  # wall_s on solver_suite (probe)
    "spectral.eig_residual_max": "ratio",  # recomputed ||H v - E v|| / max(1, |E|): ok_frac
    "spectral.self_s": "s",
    "cli.run_s": "s",  # runner in-process: wall_s everywhere, small
    "cli.report_bytes": "bytes",  # report payload without timestamps: work identity
    "cli.self_s": "s",
    "trace.traced_s": "s",  # wall time of the traced processes
    "trace.overhead_s": "s",  # traced minus untraced wall time of the same operations
}
LAYERS = ("fock", "hamiltonian", "oneparticle", "quantization", "spectral", "cli")


def _with_self_times(spans: list) -> list:
    """Spans of one process with duration, self time and parent name.

    Self time is the duration minus that of the direct children, so a
    `trace.check` span counts against no layer.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["t1"] - s["t0"]
    out = []
    for i, s in enumerate(spans):
        dur = s["t1"] - s["t0"]
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
        out.append(dict(s, dur=dur, self=dur - child[i], parent_name=parent))
    return out


def layer_metrics(traced_ops: list, cli_ops: list) -> dict:
    """Per-layer metrics of one pass; a layer the workload never calls reads 0."""
    spans = [s for op in traced_ops for s in _with_self_times(op["spans"])]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["dur"] for s in named(name))

    m = {}
    m["fock.dim"] = max((s["dim"] for s in named("fock.enumerate_basis")), default=0)
    m["fock.enumerate_basis_s"] = total("fock.enumerate_basis")
    hi = [s for s in named("fock.wick_operator") if s["parent_name"] == "hamiltonian.assemble"]
    m["fock.wick_operator_s"] = sum(s["dur"] for s in hi)
    hi_nnz = sum(s["nnz"] for s in hi)
    m["fock.wick_ns_per_nnz"] = 1e9 * m["fock.wick_operator_s"] / hi_nnz if hi_nnz else 0.0
    m["fock.field_operator_s"] = total("fock.field_operator")
    m["fock.fock_embedding_s"] = total("fock.fock_embedding")

    assembles = named("hamiltonian.assemble")
    for piece in ("assemble", "interaction_kernels", "charge_operator"):
        m[f"hamiltonian.{piece}_s"] = total(f"hamiltonian.{piece}")
    m["hamiltonian.sum_s"] = sum(s["self"] for s in assembles)
    largest = max(assembles, key=lambda s: s["nnz"], default=None)
    if largest is None:
        m.update({"hamiltonian.nnz": 0, "hamiltonian.csr_mb": 0.0,
                  "hamiltonian.assemble_rss_mb": 0.0, "hamiltonian.peak_over_csr": 0.0})
    else:
        growth = (largest["rss1_kb"] - largest["rss0_kb"]) * 1024
        m["hamiltonian.nnz"] = largest["nnz"]
        m["hamiltonian.csr_mb"] = largest["csr_bytes"] / 2**20
        m["hamiltonian.assemble_rss_mb"] = growth / 2**20
        m["hamiltonian.peak_over_csr"] = growth / largest["csr_bytes"]
    m["hamiltonian.herm_asym_nnz"] = sum(s["herm_asym_nnz"] for s in assembles)

    for name in ("lambda_quant", "weyl_quantize", "omega_block"):
        m[f"oneparticle.{name}_s"] = total(f"oneparticle.{name}")
    m["quantization.quantize_report_s"] = total("quantization.quantize_report")

    eig = named("spectral.low_lying")
    m["spectral.low_lying_s"] = total("spectral.low_lying")
    m["spectral.low_lying_k"] = sum(s["k"] for s in eig)
    m["spectral.dense_calls"] = sum(1 for s in eig if s["dense"] is True)
    m["spectral.sparse_calls"] = sum(1 for s in eig if s["dense"] is False)
    m["spectral.hvz_gap_probe_s"] = total("spectral.hvz_gap_probe")
    m["spectral.hvz_frame_s"] = sum(s["self"] for s in named("spectral.hvz_gap_probe"))
    for name in ("resolvent_convergence", "higher_order_norm", "heisenberg_probe"):
        m[f"spectral.{name}_s"] = total(f"spectral.{name}")
    m["spectral.eig_residual_max"] = max((s["residual"] for s in eig), default=0.0)

    m["cli.run_s"] = total("cli.run")
    m["cli.report_bytes"] = sum(op["report_bytes"] for op in traced_ops)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self"] for s in spans if s["name"].startswith(layer + "."))
    m["trace.traced_s"] = sum(op["wall_s"] for op in traced_ops)
    m["trace.overhead_s"] = m["trace.traced_s"] - sum(op["wall_s"] for op in cli_ops)
    return m


def end_to_end_metrics(ops: list, setup_times: list) -> dict:
    passes = sorted({op["pass"] for op in ops})
    walls = [sum(op["wall_s"] for op in ops if op["pass"] == p) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
        "ok_frac": sum(not op["failed"] for op in ops) / len(ops),
    }


# -- environment and work identity -------------------------------------------------


def source_hash() -> str:
    h = hashlib.sha256()
    for top in ("src", "configs", "goldens", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(loadavg: str) -> dict:
    """Machine, library and source identity of a run."""
    os.environ.update(THREADS)
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
        "loadavg_at_start": loadavg,
    }


def check_identity(src: str, workload: str, counts: dict) -> list:
    """Compare exact work counts with earlier runs and passes of the same sources."""
    path = STATE / "identity.json"
    db = json.loads(path.read_text()) if path.exists() else {}
    entry = db.setdefault(src, {}).setdefault(workload, {})
    problems = []
    for key, value in counts.items():
        old = entry.setdefault(key, value)
        if old != value:
            problems.append(f"{key}: {value} now, {old} in an earlier run of these sources")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(db, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def work_counts(ops: list, seed: int) -> dict:
    """Exact counts of one pass: the same for every seed, except report bytes."""
    counts = {
        "cli_work": [op["work"] for op in ops if not op["traced"]],
        f"report_bytes/seed={seed}": sum(op["report_bytes"] for op in ops if not op["traced"]),
    }
    traced = [op for op in ops if op["traced"]]
    if traced:
        spans = [s for op in traced for s in op["spans"]]
        counts["trace_work"] = {
            "fock.dim": [s["dim"] for s in spans if s["name"] == "fock.enumerate_basis"],
            "hamiltonian.nnz": [s["nnz"] for s in spans if s["name"] == "hamiltonian.assemble"],
            "spectral.low_lying_k": [s["k"] for s in spans if s["name"] == "spectral.low_lying"],
        }
        counts[f"traced_report_bytes/seed={seed}"] = sum(op["report_bytes"] for op in traced)
    return counts


# -- entry point ----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    global RUN_DEADLINE
    RUN_DEADLINE = time.monotonic() + RUN_TIMEOUT_S
    ops = WORKLOADS[name]
    inputs = make_inputs(dict.fromkeys(n for _, n in ops), seed, workdir / "inputs")
    print(f"workload {name}  seed {seed}  trace {int(trace)}", flush=True)
    half = SETUP_REPS // 2
    setup_times = [] if trace else measure_setup(ops, inputs, workdir, range(half))
    results = []
    start = time.perf_counter()
    index = 0
    while True:
        index += 1
        pass_start = time.perf_counter()
        results += run_pass(ops, inputs, seed, workdir, index, trace)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    if not trace:
        setup_times += measure_setup(ops, inputs, workdir, range(half, SETUP_REPS))
    if trace:
        per_pass = [
            layer_metrics([o for o in results if o["pass"] == p and o["traced"]],
                          [o for o in results if o["pass"] == p and not o["traced"]])
            for p in range(1, index + 1)
        ]
        metrics = {k: (statistics.median(d[k] for d in per_pass), unit) for k, unit in PER_LAYER_UNITS.items()}
    else:
        e2e = end_to_end_metrics(results, setup_times)
        metrics = {k: (e2e[k], unit) for k, unit in END_TO_END_UNITS.items()}
    failed = sum(op["failed"] for op in results)
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value!r} {unit}")
    if not trace:
        print(f"  {'fail_frac':34s} {failed / len(results)!r} ({failed}/{len(results)} operations)")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": index,
        "setup_times_s": setup_times,
        "correct": not any(op["output_problems"] for op in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": results,
    }


def save_result(result: dict, env: dict):
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    out = STATE / "results" / f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}-{stamp}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(dict(result, environment=env), indent=1))


def _terminate(signum, frame):
    # Unwinds through run_process, which kills and reaps the running child.
    if signum == signal.SIGALRM:
        raise TimeoutError(f"the workload ran longer than {RUN_TIMEOUT_S} s")
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/chargedphi2/cli.py", "configs", "goldens") if not (ROOT / p).exists()]
    if missing:
        print(f"not a chargedphi2 checkout: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = "unknown"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    results = []
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), workdir / name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(loadavg)
    print("environment " + json.dumps(env, sort_keys=True))
    problems = []
    for res in results:
        save_result(res, env)
        for index in range(1, res["passes"] + 1):
            counts = work_counts([op for op in res["ops"] if op["pass"] == index], res["seed"])
            problems += [f"{res['workload']}: {p}" for p in
                         check_identity(env["source_sha256"], res["workload"], counts)]
    if problems:
        print("work identity error:\n  " + "\n  ".join(problems), file=sys.stderr)
        return EXIT_IDENTITY
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
