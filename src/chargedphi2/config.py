"""Experiment configuration: strict schema, defaults, canonical hashing.

One JSON file describes one run.  Unknown keys anywhere are rejected so a
typo cannot silently fall back to a default, and the resolved config (with
all defaults materialized) canonicalizes to a stable hash that names the
run's artifacts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .fock import HARD_DIMENSION_CAP
from .lattice import MomentumLattice, build_lattice, refinement_ladder
from .potentials import Potential, make_potential


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _typed(name: str, value, default):
    """value checked against its default's type: a bool, an integral number or a finite number."""
    if isinstance(default, bool):
        _require(isinstance(value, bool), f"{name} must be true or false, got {value!r}")
    elif isinstance(default, (int, float)):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        _require(number and abs(value) <= sys.float_info.max, f"{name} must be a finite number, got {value!r}")
        _require(isinstance(default, float) or int(value) == value, f"{name} must be an integer, got {value!r}")
        return type(default)(value)
    return value


def _take(section: dict, name: str, allowed: dict) -> dict:
    """Pop known keys with defaults, each typed like its default; reject anything else."""
    _require(isinstance(section, dict), f"'{name}' must be an object")
    unknown = set(section) - set(allowed)
    _require(not unknown, f"unknown keys in '{name}': {sorted(unknown)}")
    return {k: _typed(f"{name}.{k}", section.get(k, v), v) for k, v in allowed.items()}


@dataclass(frozen=True)
class LatticeConfig:
    v: str = "1"
    kappa: float = 2.0
    mass: float = 1.0
    refinement_levels: int = 1


@dataclass(frozen=True)
class ProfileConfig:
    kind: str = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0


@dataclass(frozen=True)
class PolynomialConfig:
    coeffs: tuple = ((4, 0, 1.0), (0, 4, 1.0))


@dataclass(frozen=True)
class CouplingConfig:
    lam: float = 0.0


@dataclass(frozen=True)
class GridConfig:
    points: int = 128
    length: float = 32.0


@dataclass(frozen=True)
class SolverConfig:
    num_eigenvalues: int = 8
    overlap_threshold: float = 0.5
    basis_cap: int = HARD_DIMENSION_CAP


@dataclass(frozen=True)
class ProbeConfig:
    times: tuple = (4.0, 8.0, 16.0, 32.0)
    f_center: float = 1.0
    f_width: float = 0.35


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    lattice: LatticeConfig
    potential: ProfileConfig
    cutoff: ProfileConfig
    polynomial: PolynomialConfig
    coupling: CouplingConfig
    override_stability: bool
    n_max: int
    grid: GridConfig
    solver: SolverConfig
    probe: ProbeConfig
    output: OutputConfig

    # -- factories ---------------------------------------------------------

    def base_lattice(self) -> MomentumLattice:
        lc = self.lattice
        return build_lattice(Fraction(lc.v), lc.kappa, lc.mass)

    def lattice_ladder(self) -> list[MomentumLattice]:
        lc = self.lattice
        return refinement_ladder(Fraction(lc.v), lc.kappa, lc.mass, lc.refinement_levels)

    def make_potential(self) -> Potential:
        p = self.potential
        return make_potential(p.kind, amplitude=p.amplitude, width=p.width)

    def make_cutoff(self) -> Potential:
        c = self.cutoff
        return make_potential(c.kind, amplitude=c.amplitude, width=c.width)

    def canonical(self) -> dict:
        d = asdict(self)
        d["coupling"] = {"lambda": d["coupling"].pop("lam")}
        return d

    def hash(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw dict against the schema and fill defaults."""
    _require(isinstance(raw, dict), "config root must be an object")
    top_allowed = {
        "lattice": {},
        "potential": {},
        "cutoff": {},
        "polynomial": {},
        "coupling": {},
        "override_stability": False,
        "n_max": 3,
        "grid": {},
        "solver": {},
        "probe": {},
        "output": {},
    }
    top = _take(raw, "config", top_allowed)

    lat = _take(top["lattice"], "lattice", {"v": "1", "kappa": 2.0, "mass": 1.0, "refinement_levels": 1})
    try:
        v = Fraction(str(lat["v"]))
    except (ValueError, ZeroDivisionError):
        v = Fraction(0)
    _require(v > 0, f"lattice.v must be a positive rational, got {lat['v']!r}")
    _require(lat["kappa"] > 0, "lattice.kappa must be positive")
    _require(lat["mass"] > 0, "lattice.mass must be positive")
    _require(int(lat["refinement_levels"]) >= 1, "lattice.refinement_levels must be >= 1")

    pot = _take(top["potential"], "potential", {"kind": "gaussian", "amplitude": 1.0, "width": 1.0})
    cut = _take(top["cutoff"], "cutoff", {"kind": "gaussian", "amplitude": 1.0, "width": 1.0})
    for name, prof in (("potential", pot), ("cutoff", cut)):
        _require(prof["width"] > 0, f"{name}.width must be positive")

    poly = _take(top["polynomial"], "polynomial", {"coeffs": [[4, 0, 1.0], [0, 4, 1.0]]})
    _require(isinstance(poly["coeffs"], list), "polynomial.coeffs must be a list")
    coeffs = []
    for entry in poly["coeffs"]:
        _require(
            isinstance(entry, (list, tuple)) and len(entry) == 3,
            "polynomial.coeffs entries must be [alpha1, alpha2, value]",
        )
        a1, a2, val = (_typed("polynomial.coeffs", x, d) for x, d in zip(entry, (0, 0, 0.0)))
        _require(a1 >= 0 and a2 >= 0, "monomial powers must be nonnegative")
        coeffs.append((a1, a2, val))

    coup = _take(top["coupling"], "coupling", {"lambda": 0.0})
    grid = _take(top["grid"], "grid", {"points": 128, "length": 32.0})
    _require(int(grid["points"]) >= 2 and int(grid["points"]) % 2 == 0, "grid.points must be even")
    _require(grid["length"] > 0, "grid.length must be positive")

    solver = _take(
        top["solver"],
        "solver",
        {"num_eigenvalues": 8, "overlap_threshold": 0.5, "basis_cap": HARD_DIMENSION_CAP},
    )
    _require(int(solver["num_eigenvalues"]) >= 1, "solver.num_eigenvalues must be >= 1")
    _require(
        0.0 < solver["overlap_threshold"] <= 1.0, "solver.overlap_threshold must be in (0, 1]"
    )
    _require(
        1 <= int(solver["basis_cap"]) <= HARD_DIMENSION_CAP,
        f"solver.basis_cap must be in [1, {HARD_DIMENSION_CAP}]",
    )

    probe = _take(top["probe"], "probe", {"times": [4.0, 8.0, 16.0, 32.0], "f_center": 1.0, "f_width": 0.35})
    _require(isinstance(probe["times"], list) and probe["times"], "probe.times must be a nonempty list")
    probe["times"] = [_typed("probe.times", t, 0.0) for t in probe["times"]]
    _require(probe["f_width"] > 0, "probe.f_width must be positive")

    out = _take(top["output"], "output", {"dir": "out"})
    _require(int(top["n_max"]) >= 0, "n_max must be nonnegative")

    return ExperimentConfig(
        lattice=LatticeConfig(
            v=str(lat["v"]),
            kappa=float(lat["kappa"]),
            mass=float(lat["mass"]),
            refinement_levels=int(lat["refinement_levels"]),
        ),
        potential=ProfileConfig(
            kind=str(pot["kind"]), amplitude=float(pot["amplitude"]), width=float(pot["width"])
        ),
        cutoff=ProfileConfig(
            kind=str(cut["kind"]), amplitude=float(cut["amplitude"]), width=float(cut["width"])
        ),
        polynomial=PolynomialConfig(coeffs=tuple(coeffs)),
        coupling=CouplingConfig(lam=float(coup["lambda"])),
        override_stability=bool(top["override_stability"]),
        n_max=int(top["n_max"]),
        grid=GridConfig(points=int(grid["points"]), length=float(grid["length"])),
        solver=SolverConfig(
            num_eigenvalues=int(solver["num_eigenvalues"]),
            overlap_threshold=float(solver["overlap_threshold"]),
            basis_cap=int(solver["basis_cap"]),
        ),
        probe=ProbeConfig(
            times=tuple(float(t) for t in probe["times"]),
            f_center=float(probe["f_center"]),
            f_width=float(probe["f_width"]),
        ),
        output=OutputConfig(dir=str(out["dir"])),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)
