"""Command-line entry point: experiment orchestration and persistence.

One run is one process reading one config file.  Every runner builds its
report, the `quantities` that label it and its CSV tables, and hands them to
`_persist`, the one writer: a JSON record (machine readable, deterministic
apart from `created_utc`) and one CSV file per table, named by the first 8
hex digits of the config hash.  Exit codes: 0 success, 2 config validation
error, 3 stability error, 4 solver failure, 5 missing golden suite, 6 a size
over a resource cap (found before any array exists) or out of memory, 7 any
other violated contract (an odd or unbounded polynomial, say), 1 anything else.

Stderr gets one line per stage as it ends (`errors.stage`: basis, kernels, stream,
solve, overlaps, gap_norm, number_norm, probe, coupling, omega, free_check,
generator, polar, residuals, persist), after a line of numpy and scipy versions,
OPENBLAS_NUM_THREADS and CPU count, and before any error line.  Under
PYTHONTRACEMALLOC=1 each stage line adds the traced bytes held at its end and
their peak within it.

Environment override (the only one honored): CHARGEDPHI2_OUTDIR replaces the
configured output directory.  BLAS threads follow OMP/OPENBLAS/MKL_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import errors

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_SOLVER = 4
EXIT_GOLDEN = 5
EXIT_RESOURCE = 6
EXIT_CONTRACT = 7


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, newline="")
    os.replace(tmp, path)


def _inf_as_text(value):
    """value with every infinite float, at any depth, replaced by "inf" or "-inf"."""
    if isinstance(value, dict):
        return {key: _inf_as_text(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_inf_as_text(item) for item in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _persist(cfg, outdir: Path, subcommand: str, stem, report: dict, quantities: dict, tables=()) -> dict:
    """The run's record, written as `{stem}_{tag}.json` with each (suffix, header,
    rows) table as `{stem}{suffix}_{tag}.csv`; a stem of None writes nothing."""
    from . import __version__

    config_hash = cfg.hash()
    record = _inf_as_text(
        {
            "subcommand": subcommand,
            "config_hash": config_hash,
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "report": report,
            "quantities": quantities,
        }
    )
    if stem is not None:
        with errors.stage("persist"):
            tag = config_hash[:8]
            _atomic_write(outdir / f"{stem}_{tag}.json", json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n")
            for suffix, header, rows in tables:
                buf = io.StringIO()
                csv.writer(buf).writerows([header, *rows])
                _atomic_write(outdir / f"{stem}{suffix}_{tag}.csv", buf.getvalue())
    return record


def _checked(cfg, lattice):
    """lattice, refused before any array exists if the bundle's M x M one-particle
    matrices are over the dense ceiling or its Fock dimension is over the cap."""
    from .fock import check_dimension
    from .oneparticle import check_lattice

    check_lattice(lattice)
    check_dimension(lattice, cfg.n_max, cfg.solver.basis_cap)
    return lattice


def _basis(cfg, lattice):
    from .fock import enumerate_basis

    with errors.stage("basis") as counts:
        basis = enumerate_basis(_checked(cfg, lattice), cfg.n_max, cap=cfg.solver.basis_cap)
        counts.update(modes=lattice.size, dim=basis.dim)
    return basis


def _bundle(cfg, basis):
    """The config's Hamiltonian on basis; every bundle of every subcommand is built here."""
    from .hamiltonian import assemble, interaction_spec

    spec = functools.partial(interaction_spec, cfg.polynomial.coeffs, cfg.make_cutoff())
    return assemble(spec, cfg.make_potential(), cfg.coupling.lam, basis, cfg.override_stability)


def _single_level_bundle(cfg):
    return _bundle(cfg, _basis(cfg, cfg.base_lattice()))


def _ladder_bundles(cfg):
    """The ladder's bundles, coarsest first, each built when it is asked for; every
    level is `_checked` before the first, and no lattice past a refused one is made."""
    lattices = [_checked(cfg, lattice) for lattice in cfg.lattice_ladder()]
    return (_bundle(cfg, _basis(cfg, lattice)) for lattice in lattices)


def _gap_probe(cfg, bundle):
    from .spectral import hvz_gap_probe

    return hvz_gap_probe(
        bundle,
        report_depth=cfg.solver.num_eigenvalues,
        overlap_threshold=cfg.solver.overlap_threshold,
    )


# -- subcommand runners ------------------------------------------------------


def run_validate(cfg, outdir: Path) -> dict:
    return _persist(cfg, outdir, "validate", None, {"valid": True, "canonical": cfg.canonical()}, {})


def run_lambda_quant(cfg, outdir: Path) -> dict:
    from .oneparticle import lambda_quant, omega_bottom

    lattice = cfg.base_lattice()
    pot = cfg.make_potential()
    with errors.stage("coupling", modes=lattice.size):
        report = lambda_quant(pot, lattice).as_dict()
    with errors.stage("omega"):
        report["min_eig_omega"] = omega_bottom(cfg.coupling.lam, pot, lattice)
    report["lambda"] = cfg.coupling.lam
    quantities = {
        "c0": "half operator norm of eps^-1 V + V eps^-1",
        "c1": "Hilbert-Schmidt norm of eps^-1/2 [V, eps] eps^-1/2",
        "lambda_quant": "stability threshold 1 / (c0 + c1/m)",
        "min_eig_omega": "bottom of the dressed one-particle energy at the configured coupling",
    }
    return _persist(cfg, outdir, "lambda-quant", "lambda_quant", report, quantities)


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
    return _persist(cfg, outdir, "quantize", "quantize", report, quantities)


def run_spectrum(cfg, outdir: Path) -> dict:
    bundle = _single_level_bundle(cfg)
    report = _gap_probe(cfg, bundle).as_dict()
    report["bundle"] = bundle.metadata()
    quantities = {
        "e0": "ground state energy",
        "gap": "first spectral gap e1 - e0",
        "hvz_onset_estimate": "onset of the ground-state-plus-free-particle branch",
    }
    eigenvalues = ("", ["index", "eigenvalue"], list(enumerate(report["eigenvalues"])))
    return _persist(cfg, outdir, "spectrum", "spectrum", report, quantities, [eigenvalues])


def run_hvz(cfg, outdir: Path) -> dict:
    header = ["v", "kappa", "dim", "e0", "onset", "onset_mismatch"]
    levels = []
    for b in _ladder_bundles(cfg):
        rep = _gap_probe(cfg, b)
        onset = rep.hvz_onset_estimate
        mismatch = None if onset is None else abs(onset - (rep.e0 + b.lattice.m))
        levels.append(dict(zip(header, [str(b.lattice.v), b.lattice.kappa, b.basis.dim, rep.e0, onset, mismatch])))
    report = {"levels": levels, "mass": cfg.lattice.mass}
    quantities = {
        "onset": "lowest excited level dominated by one extra particle over the ground state",
        "onset_mismatch": "|onset - (e0 + m)| at this level's lattice and particle cap",
    }
    table = ("", header, [list(level.values()) for level in levels])
    return _persist(cfg, outdir, "hvz", "hvz", report, quantities, [table])


def run_convergence(cfg, outdir: Path) -> dict:
    from .spectral import resolvent_convergence

    report = resolvent_convergence(_ladder_bundles(cfg)).as_dict()
    quantities = {
        "resolvent_gaps": "norm of coarse resolvent minus compressed fine resolvent",
        "number_resolvent_norms": "norm of N (H + beta)^-1 per level (uniformity probe)",
    }
    per_level = zip(report["levels"], report["e0_trace"], report["number_resolvent_norms"])
    rows = [[*level.values(), e0, hi] for level, e0, hi in per_level]
    tables = [
        ("_levels", ["v", "kappa", "dim", "e0", "number_resolvent_norm"], rows),
        ("_gaps", ["pair", "resolvent_gap"], list(enumerate(report["resolvent_gaps"]))),
    ]
    return _persist(cfg, outdir, "convergence", "convergence", report, quantities, tables)


def run_probe(cfg, outdir: Path) -> dict:
    import numpy as np

    from .spectral import check_probe_ceiling, heisenberg_probe

    # refuse an oversized parity block from the basis alone, before assembly
    basis = _basis(cfg, cfg.base_lattice())
    check_probe_ceiling(basis)
    bundle = _bundle(cfg, basis)
    modes = bundle.lattice.modes
    f = np.exp(-((modes - cfg.probe.f_center) ** 2) / (2 * cfg.probe.f_width**2))
    full = np.concatenate([f, np.zeros_like(f)]).astype(complex)
    result = heisenberg_probe(bundle, full, cfg.probe.times)
    report = result.as_dict()
    report["bundle"] = bundle.metadata()
    report["cauchy_differences"] = [abs(b - a) for a, b in zip(result.values, result.values[1:])]
    quantities = {
        "values_re": "Heisenberg-picture field expectation, real part",
        "recurrence_time": "2 pi over the smallest positive level spacing",
        "cauchy_differences": "successive differences along the time grid",
    }
    rows = list(zip(report["times"], report["values_re"], report["values_im"], report["trusted"]))
    table = ("", ["t", "re", "im", "trusted"], rows)
    return _persist(cfg, outdir, "probe-scattering", "probe", report, quantities, [table])


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

    @functools.cache  # one coupling for the three goldens that read it
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
    try:
        suite = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # absent or unreadable, or not JSON text
        raise MissingGoldenError(f"golden suite {path} cannot be read as JSON: {exc}") from exc
    entries = suite.get("entries") if isinstance(suite, dict) else None
    if not entries or not isinstance(entries, list):
        raise MissingGoldenError(f"golden suite {path} is empty or has no 'entries' list")
    registry = _golden_registry()
    failures = 0
    print(f"{'name':44s} {'pinned':>16s} {'recomputed':>16s} {'tol':>10s} status")
    for i, entry in enumerate(entries):
        fields = entry if isinstance(entry, dict) else {}
        where = f"entry {fields.get('name', f'#{i}')!r} of {path}"
        try:
            name, pinned, tol = str(fields["name"]), float(fields["value"]), float(fields["tol"])
        except KeyError as exc:
            raise MissingGoldenError(f"{where} has no {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise MissingGoldenError(f"{where}: 'value' and 'tol' must be numbers ({exc})") from exc
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


class _StageLog(logging.StreamHandler):
    """Stage lines on stderr, the first of them preceded by the handler's `header`."""

    def emit(self, record):
        self.stream.write(vars(self).pop("header", ""))
        super().emit(record)


def main(argv=None) -> int:
    import numpy
    import scipy

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
    log, handler = logging.getLogger(__package__), _StageLog()
    handler.header = (f"numpy {numpy.__version__}, scipy {scipy.__version__}, OPENBLAS_NUM_THREADS "
                      f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, {os.cpu_count()} CPUs\n")
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        if args.subcommand == "golden-check":
            return golden_check(args.suite)
        from .config import load_config

        cfg = load_config(args.config)
        outdir = Path(os.environ.get("CHARGEDPHI2_OUTDIR", cfg.output.dir))
        record = RUNNERS[args.subcommand](cfg, outdir)
        if args.subcommand == "validate":
            print(f"config valid; hash {cfg.hash()}")
        else:
            print(json.dumps(record["report"], sort_keys=True)[:2000])
        return EXIT_OK
    except MemoryError:
        print(f"resource error: out of memory during {args.subcommand}", file=sys.stderr)
        return EXIT_RESOURCE
    except errors.ChargedPhi2Error as exc:
        for kinds, label, code in exits:
            if isinstance(exc, kinds):
                print(f"{label} error: {exc}", file=sys.stderr)
                return code
        raise
    finally:
        log.removeHandler(handler)
        log.setLevel(logging.NOTSET)


if __name__ == "__main__":
    sys.exit(main())
