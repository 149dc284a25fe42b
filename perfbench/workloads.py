"""Workloads, seeded inputs and output checks of the chargedphi2 benchmark.

A workload is a fixed list of CLI operations (subcommand, input file).  The
program only ever sees input files generated here: seed 0 copies the shipped
files byte for byte, other seeds jitter continuous parameters only, so the
basis dimension, the nonzero count of H and the solver path stay fixed and
every seed does the same work.
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Input name -> shipped source.  The two bench-owned configs differ from a
# shipped one in the lattice only: m17_spectrum is configs/desk_bundle.json
# with v = 4 (17 modes, dim 7,770); probe_m9 is configs/probe.json with
# kappa = 1.0 (9 modes, dim 1,330), about 10 s a run where the shipped dim
# 2,300 takes about 60 s.
SOURCES = {
    "m17_spectrum.json": BENCH / "configs" / "m17_spectrum.json",
    "probe_m9.json": BENCH / "configs" / "probe_m9.json",
    "ladder.json": ROOT / "configs" / "ladder.json",
    "free.json": ROOT / "configs" / "free.json",
    "lambda_quant.json": ROOT / "configs" / "lambda_quant.json",
    "quantize.json": ROOT / "configs" / "quantize.json",
    "desk_bundle.json": ROOT / "configs" / "desk_bundle.json",
    "desk_suite.json": ROOT / "goldens" / "desk_suite.json",
}
GOLDENS = ROOT / "goldens" / "desk_suite.json"
REFERENCES = BENCH / "references.json"

# Two workloads, so that each run can time 40 to 50 s of work and all the runs
# of a benchmark check still fit their time limit.  On a shared host whose
# speed wanders by up to a third over seconds to minutes, runs of 10 to 20 s
# spread past the bounds.  m17_spectrum is assembly-bound; solver_suite holds
# every other operation (the desk suite, the probe and the resolvent ladder),
# whose time goes to dense solvers.
WORKLOADS = {
    "m17_spectrum": [("spectrum", "m17_spectrum.json")],
    "solver_suite": [
        ("lambda-quant", "lambda_quant.json"),
        ("quantize", "quantize.json"),
        ("spectrum", "desk_bundle.json"),
        ("golden-check", "desk_suite.json"),
        ("probe-scattering", "probe_m9.json"),
        ("hvz", "ladder.json"),
        ("convergence", "ladder.json"),
        ("hvz", "free.json"),
        ("convergence", "free.json"),
    ],
}

# Relative half-width of the jitter on couplings, amplitudes and widths.  At
# +10% the largest coupling (0.55 in lambda_quant.json) stays well below its
# threshold (0.87 at seed 0); the CLI refuses a coupling at or above it.
REL_JITTER = 0.1
# Absolute half-width of the jitter on the probe centre.
CENTRE_JITTER = 0.1

RESIDUAL_RTOL = 1e-8


def jitter(cfg: dict, rng: random.Random) -> dict:
    """Copy of a config with its continuous parameters perturbed.

    Touches the coupling lambda (a zero coupling stays zero), the amplitude
    and width of a nonzero potential V, and the probe centre.  The lattice,
    particle cap, polynomial, profile g and solver settings are left alone.
    """
    out = copy.deepcopy(cfg)
    coupling = out.get("coupling", {})
    if coupling.get("lambda"):
        coupling["lambda"] *= rng.uniform(1 - REL_JITTER, 1 + REL_JITTER)
    pot = out.get("potential", {})
    if pot.get("kind", "zero") != "zero":
        for key in ("amplitude", "width"):
            pot[key] *= rng.uniform(1 - REL_JITTER, 1 + REL_JITTER)
    probe = out.get("probe", {})
    if "f_center" in probe:
        probe["f_center"] += rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
    return out


def make_inputs(names, seed: int, dest: Path) -> dict:
    """Write the named inputs for a seed into dest; return name -> path."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = dest / name
        if seed == 0 or name == "desk_suite.json":
            shutil.copyfile(SOURCES[name], path)
        else:
            cfg = json.loads(SOURCES[name].read_text())
            cfg = jitter(cfg, random.Random(f"{seed}/{name}"))
            path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths[name] = path
    return paths


# -- output checks ------------------------------------------------------------


def _close(value, ref, rtol=0.0, atol=0.0) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def _field(report: dict, key: str):
    """report[key], or the list of item[sub] over report[head] for 'head.sub'."""
    if "." in key:
        head, sub = key.split(".", 1)
        return [item[sub] for item in report[head]]
    return report[key]


def _golden_values() -> dict:
    suite = json.loads(GOLDENS.read_text())
    return {e["name"]: (float(e["value"]), float(e["tol"])) for e in suite["entries"]}


# Seed-0 values pinned by the shipped goldens: report key -> golden name.
GOLDEN_REFS = {
    ("spectrum", "desk_bundle.json"): {"e0": "desk_bundle_e0"},
    ("lambda-quant", "lambda_quant.json"): {
        "lambda_quant": "lambda_quant_gaussian_v8_k32",
        "c0": "c0_gaussian_v8_k32",
        "c1": "c1_gaussian_v8_k32",
    },
}


def check_references(sub: str, name: str, report: dict) -> list:
    """Seed-0 comparison against the goldens and perfbench/references.json."""
    problems = []
    golden = _golden_values()
    for key, gname in GOLDEN_REFS.get((sub, name), {}).items():
        pinned, tol = golden[gname]
        value = report[key]
        if not abs(value - pinned) <= tol * max(1.0, abs(pinned)):
            problems.append(f"{key} = {value!r} misses golden {gname} = {pinned!r} (tol {tol:g})")
    for group in json.loads(REFERENCES.read_text()).get(name, {}).get(sub, []):
        rtol, atol = group.get("rtol", 0.0), group.get("atol", 0.0)
        for key, ref in group["values"].items():
            value = _field(report, key)
            if isinstance(ref, list) and len(value) != len(ref):
                problems.append(f"{key} has {len(value)} entries, reference {len(ref)}")
                continue
            pairs = zip(value, ref) if isinstance(ref, list) else [(value, ref)]
            for v, r in pairs:
                if v is None or r is None:
                    if v is not r:
                        problems.append(f"{key} = {v!r}, reference {r!r}")
                elif not _close(v, r, rtol, atol):
                    problems.append(f"{key} = {v!r} misses reference {r!r}")
    return problems


def _finite(xs) -> bool:
    return all(x is not None and math.isfinite(x) for x in xs)


def _check_spectrum(report):
    ev = report["eigenvalues"]
    problems = []
    if not _finite(ev) or any(b < a for a, b in zip(ev, ev[1:])):
        problems.append("eigenvalues not finite and ascending")
    if report["e0"] != ev[0]:
        problems.append("e0 differs from the lowest eigenvalue")
    if len(ev) > 1 and report["gap"] != ev[1] - ev[0]:
        problems.append("gap differs from e1 - e0")
    if not all(-1e-12 <= x <= 1 + 1e-12 for x in report["onset_overlaps"]):
        problems.append("onset overlap outside [0, 1]")
    return problems


def _check_hvz(report, free):
    problems = []
    for lvl in report["levels"]:
        if not _finite([lvl["e0"]]):
            problems.append(f"level v={lvl['v']}: e0 not finite")
        elif lvl["onset"] is not None and lvl["onset"] < lvl["e0"]:
            problems.append(f"level v={lvl['v']}: onset below e0")
        if free and (lvl["e0"] != 0.0 or lvl["onset"] != report["mass"] or lvl["onset_mismatch"] != 0.0):
            problems.append(f"free level v={lvl['v']}: e0, onset - m not exactly 0")
    return problems


def _check_convergence(report, free):
    gaps = report["resolvent_gaps"]
    problems = []
    if len(gaps) != len(report["levels"]) - 1 or not _finite(gaps):
        problems.append("resolvent gaps missing or not finite")
    elif free and any(g != 0.0 for g in gaps):
        problems.append(f"free resolvent gaps not exactly 0: {gaps}")
    elif not free and not all(g > 0.0 for g in gaps):
        problems.append(f"resolvent gaps not positive: {gaps}")
    if not _finite(report["e0_trace"]) or not report["beta"] > -min(report["e0_trace"]):
        problems.append("shift beta does not clear the spectrum bottom")
    return problems


def _check_probe(report, cfg):
    problems = []
    if report["times"] != [float(t) for t in cfg["probe"]["times"]]:
        problems.append("probe times differ from the config")
    if not _finite(report["values_re"]) or any(abs(x) > 1e-12 for x in report["values_im"]):
        problems.append("field expectations not finite and real")
    rec = report["recurrence_time"]
    if not rec > 0.0 or report["trusted"] != [t < rec for t in report["times"]]:
        problems.append("recurrence time or trusted flags inconsistent")
    return problems


def _check_lambda_quant(report, cfg):
    mass = cfg.get("lattice", {}).get("mass", 1.0)
    lq, c0, c1 = report["lambda_quant"], report["c0"], report["c1"]
    problems = []
    if not (c0 > 0 and c1 >= 0 and _close(lq, 1.0 / (c0 + c1 / mass), rtol=1e-12)):
        problems.append("lambda_quant differs from 1 / (c0 + c1/m)")
    if not abs(report["lambda"]) < lq or not report["min_eig_omega"] > 0.0:
        problems.append("coupling not below threshold or dressed energy not positive")
    return problems


def _check_quantize(report):
    problems = []
    for key in ("j_square_residual", "reconstruction_residual", "free_check_error"):
        if not report[key] <= RESIDUAL_RTOL:
            problems.append(f"{key} = {report[key]!r} above {RESIDUAL_RTOL:g}")
    if not (report["delta"] > 0.0 and report["min_spec_hV"] > 0.0):
        problems.append("energy form not positive")
    return problems


def check_golden_table(stdout: str, suite_path: Path) -> list:
    """Every entry of the suite printed once, with status 'pass'."""
    entries = [e["name"] for e in json.loads(suite_path.read_text())["entries"]]
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in entries:
            rows[parts[0]] = parts[-1]
    return [f"golden {n}: {rows.get(n, 'missing')}" for n in entries if rows.get(n) != "pass"]


def check_report(sub: str, name: str, seed: int, report: dict, cfg: dict) -> list:
    """Problems with one subcommand's report; an empty list means correct."""
    free = name == "free.json"
    if sub == "spectrum":
        problems = _check_spectrum(report)
    elif sub == "hvz":
        problems = _check_hvz(report, free)
    elif sub == "convergence":
        problems = _check_convergence(report, free)
    elif sub == "probe-scattering":
        problems = _check_probe(report, cfg)
    elif sub == "lambda-quant":
        problems = _check_lambda_quant(report, cfg)
    elif sub == "quantize":
        problems = _check_quantize(report)
    else:
        raise ValueError(f"no check for subcommand {sub}")
    if seed == 0:
        problems += check_references(sub, name, report)
    return problems


def work_of(report: dict) -> list:
    """(dim, nnz) of every bundle a report describes; the same for every seed."""
    if "bundle" in report:
        bundles = [report["bundle"]]
    elif "bundles" in report:
        bundles = report["bundles"]
    elif "levels" in report:
        bundles = report["levels"]
    else:
        return []
    return [[b["dim"], b.get("nnz")] for b in bundles]
