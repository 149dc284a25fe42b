"""Command-line entry point: experiment orchestration and persistence.

One run is one process reading one config file; artifacts are a JSON report
(machine readable, deterministic payload) and CSV traces for per-level or
per-time data.  Exit codes: 0 success, 2 config validation error, 3 stability
error, 4 solver failure, 5 missing golden suite, 6 dimension over a resource
cap, 7 any other violated contract (an odd or unbounded polynomial, say), 1
anything else.

Environment overrides (the only ones honored): CHARGEDPHI2_OUTDIR replaces
the configured output directory, CHARGEDPHI2_THREADS pins BLAS thread counts
when set before interpreter start (see __main__).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_SOLVER = 4
EXIT_GOLDEN = 5
EXIT_RESOURCE = 6
EXIT_CONTRACT = 7


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


def _write_report(outdir: Path, name: str, record: dict) -> Path:
    path = outdir / f"{name}.json"
    _atomic_write(path, json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return path


def _write_csv(outdir: Path, name: str, header: list, rows: list) -> Path:
    path = outdir / f"{name}.csv"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())
    return path


def _jsonable(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def _record(cfg, subcommand: str, report: dict, quantities: dict) -> dict:
    from . import __version__

    return {
        "subcommand": subcommand,
        "config_hash": cfg.hash(),
        "version": __version__,
        "created_utc": _utc_now(),
        "report": report,
        "quantities": quantities,
    }


def _outdir(cfg) -> Path:
    return Path(os.environ.get("CHARGEDPHI2_OUTDIR", cfg.output.dir))


def _base_basis(cfg):
    from .fock import enumerate_basis

    return enumerate_basis(cfg.base_lattice(), cfg.n_max, cap=cfg.solver.basis_cap)


def _single_level_bundle(cfg, basis=None):
    """The bundle of the config's base lattice, on basis when the caller has enumerated it."""
    from .hamiltonian import assemble, interaction_spec

    if basis is None:
        basis = _base_basis(cfg)
    spec = interaction_spec(cfg.polynomial.coeffs, cfg.make_cutoff())
    return assemble(spec, cfg.make_potential(), cfg.coupling.lam, basis, cfg.override_stability)


# -- subcommand runners ------------------------------------------------------


def run_validate(cfg, outdir: Path) -> dict:
    return _record(cfg, "validate", {"valid": True, "canonical": cfg.canonical()}, {})


def run_lambda_quant(cfg, outdir: Path) -> dict:
    from .oneparticle import lambda_quant, omega_bottom

    lattice = cfg.base_lattice()
    pot = cfg.make_potential()
    report = lambda_quant(pot, lattice).as_dict()
    report["min_eig_omega"] = omega_bottom(cfg.coupling.lam, pot, lattice)
    report["lambda"] = cfg.coupling.lam
    quantities = {
        "c0": "half operator norm of eps^-1 V + V eps^-1",
        "c1": "Hilbert-Schmidt norm of eps^-1/2 [V, eps] eps^-1/2",
        "lambda_quant": "stability threshold 1 / (c0 + c1/m)",
        "min_eig_omega": "bottom of the dressed one-particle energy at the configured coupling",
    }
    record = _record(cfg, "lambda-quant", report, quantities)
    _write_report(outdir, f"lambda_quant_{cfg.hash()[:8]}", record)
    return record


def run_quantize(cfg, outdir: Path) -> dict:
    from .quantization import phase_space_grid, quantize_report

    grid = phase_space_grid(cfg.grid.points, cfg.grid.length, cfg.lattice.mass, cfg.make_potential())
    report = quantize_report(grid)
    quantities = {
        "delta": "positivity margin of the cross energy form against the free form",
        "min_spec_hV": "bottom of the one-particle energy from the polar decomposition",
        "j_square_residual": "norm of j^2 + identity",
        "reconstruction_residual": "relative norm of j h - generator",
        "free_check_error": "worst V=0 cross-check error on the same grid",
    }
    record = _record(cfg, "quantize", report, quantities)
    _write_report(outdir, f"quantize_{cfg.hash()[:8]}", record)
    return record


def run_spectrum(cfg, outdir: Path) -> dict:
    from .spectral import hvz_gap_probe

    bundle = _single_level_bundle(cfg)
    rep = hvz_gap_probe(
        bundle,
        report_depth=cfg.solver.num_eigenvalues,
        overlap_threshold=cfg.solver.overlap_threshold,
    )
    report = rep.as_dict()
    report["bundle"] = bundle.metadata()
    quantities = {
        "e0": "ground state energy",
        "gap": "first spectral gap e1 - e0",
        "hvz_onset_estimate": "onset of the ground-state-plus-free-particle branch",
    }
    record = _record(cfg, "spectrum", report, quantities)
    tag = cfg.hash()[:8]
    _write_report(outdir, f"spectrum_{tag}", record)
    _write_csv(
        outdir,
        f"spectrum_{tag}",
        ["index", "eigenvalue"],
        list(enumerate(report["eigenvalues"])),
    )
    return record


def _ladder_bundles(cfg):
    from .hamiltonian import interaction_spec, nested_bundles

    lattices = cfg.lattice_ladder()
    spec = interaction_spec(cfg.polynomial.coeffs, cfg.make_cutoff())
    return nested_bundles(
        spec,
        cfg.make_potential(),
        cfg.coupling.lam,
        lattices,
        cfg.n_max,
        cfg.override_stability,
        cap=cfg.solver.basis_cap,
    )


def run_hvz(cfg, outdir: Path) -> dict:
    from .spectral import hvz_gap_probe

    bundles = _ladder_bundles(cfg)
    rows = []
    per_level = []
    for b in bundles:
        rep = hvz_gap_probe(
            b,
            report_depth=cfg.solver.num_eigenvalues,
            overlap_threshold=cfg.solver.overlap_threshold,
        )
        onset = rep.hvz_onset_estimate
        mism = None if onset is None else abs(onset - (rep.e0 + b.lattice.m))
        per_level.append(
            {
                "v": str(b.lattice.v),
                "kappa": b.lattice.kappa,
                "dim": b.basis.dim,
                "e0": rep.e0,
                "onset": onset,
                "onset_mismatch": mism,
            }
        )
        rows.append([str(b.lattice.v), b.lattice.kappa, b.basis.dim, rep.e0, onset, mism])
    report = {"levels": per_level, "mass": cfg.lattice.mass}
    quantities = {
        "onset": "lowest excited level dominated by one extra particle over the ground state",
        "onset_mismatch": "|onset - (e0 + m)|, shrinking under refinement",
    }
    record = _record(cfg, "hvz", report, quantities)
    tag = cfg.hash()[:8]
    _write_report(outdir, f"hvz_{tag}", record)
    _write_csv(outdir, f"hvz_{tag}", ["v", "kappa", "dim", "e0", "onset", "onset_mismatch"], rows)
    return record


def run_convergence(cfg, outdir: Path) -> dict:
    from .spectral import higher_order_norm, resolvent_convergence

    bundles = _ladder_bundles(cfg)
    trace = resolvent_convergence(bundles)
    higher = [higher_order_norm(b, trace.beta, solve) for b, solve in zip(bundles, trace.solves)]
    report = trace.as_dict()
    report["number_resolvent_norms"] = higher
    report["bundles"] = [b.metadata() for b in bundles]
    quantities = {
        "resolvent_gaps": "norm of coarse resolvent minus compressed fine resolvent",
        "number_resolvent_norms": "norm of N (H + beta)^-1 per level (uniformity probe)",
    }
    record = _record(cfg, "convergence", report, quantities)
    tag = cfg.hash()[:8]
    _write_report(outdir, f"convergence_{tag}", record)
    rows = [
        [lvl["v"], lvl["kappa"], lvl["dim"], e0, hi]
        for lvl, e0, hi in zip(report["levels"], report["e0_trace"], higher)
    ]
    _write_csv(outdir, f"convergence_levels_{tag}", ["v", "kappa", "dim", "e0", "number_resolvent_norm"], rows)
    _write_csv(
        outdir,
        f"convergence_gaps_{tag}",
        ["pair", "resolvent_gap"],
        list(enumerate(report["resolvent_gaps"])),
    )
    return record


def run_probe(cfg, outdir: Path) -> dict:
    import numpy as np

    from .spectral import check_probe_ceiling, heisenberg_probe

    # refuse an oversized parity block from the basis alone, before assembly
    basis = _base_basis(cfg)
    check_probe_ceiling(basis)
    bundle = _single_level_bundle(cfg, basis)
    modes = bundle.lattice.modes
    f = np.exp(-((modes - cfg.probe.f_center) ** 2) / (2 * cfg.probe.f_width**2))
    full = np.concatenate([f, np.zeros_like(f)]).astype(complex)
    result = heisenberg_probe(bundle, full, cfg.probe.times)
    report = result.as_dict()
    report["bundle"] = bundle.metadata()
    diffs = [
        abs(result.values[i + 1] - result.values[i]) for i in range(len(result.values) - 1)
    ]
    report["cauchy_differences"] = diffs
    quantities = {
        "values_re": "Heisenberg-picture field expectation, real part",
        "recurrence_time": "2 pi over the smallest positive level spacing",
        "cauchy_differences": "successive differences along the time grid",
    }
    record = _record(cfg, "probe-scattering", report, quantities)
    tag = cfg.hash()[:8]
    _write_report(outdir, f"probe_{tag}", record)
    rows = [
        [t, v.real, v.imag, tr]
        for t, v, tr in zip(result.times, result.values, result.trusted())
    ]
    _write_csv(outdir, f"probe_{tag}", ["t", "re", "im", "trusted"], rows)
    return record


RUNNERS = {
    "validate": run_validate,
    "lambda-quant": run_lambda_quant,
    "quantize": run_quantize,
    "spectrum": run_spectrum,
    "hvz": run_hvz,
    "convergence": run_convergence,
    "probe-scattering": run_probe,
}


# -- golden suite ------------------------------------------------------------


def _golden_registry() -> dict:
    """Recomputation recipes for every pinned value in a golden suite."""
    import numpy as np

    def weyl_gaussian_hs_sq():
        from .oneparticle import hs_norm_squared, weyl_grid, weyl_quantize

        grid = weyl_grid(256, 32.0)
        mat = weyl_quantize(lambda x, k: np.exp(-(x**2 + k**2) / 2.0), grid)
        return hs_norm_squared(mat)

    def _gaussian_coupling():
        from .lattice import build_lattice
        from .oneparticle import lambda_quant
        from .potentials import gaussian_potential

        lat = build_lattice(8, 32.0, 1.0)
        return lambda_quant(gaussian_potential(1.0, 1.0), lat)

    def pair_kernel_frobenius():
        from .lattice import build_lattice
        from .oneparticle import pair_kernel
        from .potentials import gaussian_potential

        lat = build_lattice(4, 8.0, 1.0)
        return float(np.linalg.norm(pair_kernel(gaussian_potential(1.0, 1.0), lat)))

    def desk_bundle_e0():
        from .spectral import ground_state

        return ground_state(_single_level_bundle(desk_bundle_config()).h)[0]

    return {
        "weyl_gaussian_hs_sq": weyl_gaussian_hs_sq,
        "lambda_quant_gaussian_v8_k32": lambda: _gaussian_coupling().lambda_quant,
        "c0_gaussian_v8_k32": lambda: _gaussian_coupling().c0,
        "c1_gaussian_v8_k32": lambda: _gaussian_coupling().c1,
        "pair_kernel_frobenius_gaussian_v4_k8": pair_kernel_frobenius,
        "desk_bundle_e0": desk_bundle_e0,
    }


def desk_bundle_config():
    """The shipped desk-scale bundle: 9 modes, quartic polynomial, weak charge."""
    from .config import parse_config

    return parse_config(
        {
            "lattice": {"v": "2", "kappa": 2.0, "mass": 1.0},
            "potential": {"kind": "gaussian", "amplitude": 1.0, "width": 1.0},
            "cutoff": {"kind": "gaussian", "amplitude": 0.25, "width": 1.0},
            "polynomial": {"coeffs": [[4, 0, 1.0], [0, 4, 1.0]]},
            "coupling": {"lambda": 0.1},
            "n_max": 3,
        }
    )


def golden_check(suite_path: str | Path) -> int:
    """Recompute every pinned value and compare within its tolerance.

    Prints one table row per entry; returns the CLI exit code.
    """
    from .errors import MissingGoldenError

    path = Path(suite_path)
    if not path.exists():
        raise MissingGoldenError(f"golden suite not found: {path}")
    suite = json.loads(path.read_text())
    entries = suite.get("entries", [])
    if not entries:
        raise MissingGoldenError(f"golden suite is empty: {path}")
    registry = _golden_registry()
    failures = 0
    print(f"{'name':44s} {'pinned':>16s} {'recomputed':>16s} {'tol':>10s} status")
    for entry in entries:
        name = entry["name"]
        pinned = float(entry["value"])
        tol = float(entry["tol"])
        if name not in registry:
            print(f"{name:44s} {'-':>16s} {'-':>16s} {'-':>10s} UNKNOWN")
            failures += 1
            continue
        value = float(registry[name]())
        ok = abs(value - pinned) <= tol * max(1.0, abs(pinned))
        status = "pass" if ok else "FAIL"
        print(f"{name:44s} {pinned:16.10g} {value:16.10g} {tol:10.2g} {status}")
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else 1


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargedphi2",
        description="Lattice-truncated charged scalar field experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("config", help="path to the JSON experiment config")
    g = sub.add_parser("golden-check", help="recompute pinned golden values")
    g.add_argument("suite", help="path to the golden suite JSON")
    return parser


def main(argv=None) -> int:
    from . import errors

    exits = (
        (errors.ConfigError, "config", EXIT_CONFIG),
        ((errors.StabilityError, errors.UnstableConfigurationError), "stability", EXIT_STABILITY),
        (errors.SolverError, "solver", EXIT_SOLVER),
        (errors.MissingGoldenError, "golden", EXIT_GOLDEN),
        (errors.ResourceLimitError, "resource", EXIT_RESOURCE),
        (
            (errors.ContractError, errors.ParameterError, errors.ShapeError, errors.IllConditionedError),
            "contract",
            EXIT_CONTRACT,
        ),
    )
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "golden-check":
            return golden_check(args.suite)
        from .config import load_config

        cfg = load_config(args.config)
        outdir = _outdir(cfg)
        record = RUNNERS[args.subcommand](cfg, outdir)
        if args.subcommand == "validate":
            print(f"config valid; hash {cfg.hash()}")
        else:
            summary = {k: _jsonable(v) for k, v in record["report"].items()}
            print(json.dumps(summary, default=str, sort_keys=True)[:2000])
        return EXIT_OK
    except errors.ChargedPhi2Error as exc:
        for kinds, label, code in exits:
            if isinstance(exc, kinds):
                print(f"{label} error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
