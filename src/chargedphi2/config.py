"""Experiment configuration: strict schema, defaults, canonical hashing.

One JSON file describes one run.  The section dataclasses are the schema:
their fields give every key, default and type.  Unknown keys anywhere are
rejected so a typo cannot silently fall back to a default, and the resolved
config (with all defaults materialized) canonicalizes to a stable hash that
names the run's artifacts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .errors import ConfigError
from .fock import HARD_DIMENSION_CAP
from .lattice import MomentumLattice, build_lattice, refinement_ladder
from .potentials import _BUILTINS, Potential, make_potential


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _typed(name: str, value, default):
    """value checked against its default's type: a bool, an integral number, a finite number or a string."""
    if isinstance(default, bool):
        _require(isinstance(value, bool), f"{name} must be true or false, got {value!r}")
    elif isinstance(default, (int, float)):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        _require(number and abs(value) <= sys.float_info.max, f"{name} must be a finite number, got {value!r}")
        _require(isinstance(default, float) or int(value) == value, f"{name} must be an integer, got {value!r}")
        return type(default)(value)
    elif isinstance(default, str):
        return str(value)
    return value


def _take(section: dict, name: str, cls) -> dict:
    """The field values of the dataclass cls read from one JSON object.

    The fields are the schema: a field's name (or its "key" metadata) is the
    JSON key, its default fills a missing key and types a given one, and a
    field whose default is itself a dataclass is a nested section.  Any other
    key is rejected.
    """
    _require(isinstance(section, dict), f"'{name}' must be an object")
    schema = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = set(section) - set(schema)
    _require(not unknown, f"unknown keys in '{name}': {sorted(unknown)}")
    return {
        f.name: _take(section.get(key, {}), key, type(f.default)) if is_dataclass(f.default)
        else _typed(f"{name}.{key}", section.get(key, f.default), f.default)
        for key, f in schema.items()
    }


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
    lam: float = field(default=0.0, metadata={"key": "lambda"})


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
    lattice: LatticeConfig = LatticeConfig()
    potential: ProfileConfig = ProfileConfig()
    cutoff: ProfileConfig = ProfileConfig()
    polynomial: PolynomialConfig = PolynomialConfig()
    coupling: CouplingConfig = CouplingConfig()
    override_stability: bool = False
    n_max: int = 3
    grid: GridConfig = GridConfig()
    solver: SolverConfig = SolverConfig()
    probe: ProbeConfig = ProbeConfig()
    output: OutputConfig = OutputConfig()

    # -- factories ---------------------------------------------------------

    def base_lattice(self) -> MomentumLattice:
        lc = self.lattice
        return build_lattice(Fraction(lc.v), lc.kappa, lc.mass)

    def lattice_ladder(self) -> Iterator[MomentumLattice]:
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
    """Validate a raw dict against the schema (the section dataclasses) and fill defaults."""
    _require(isinstance(raw, dict), "config root must be an object")
    top = _take(raw, "config", ExperimentConfig)

    lat = top["lattice"]
    try:
        v = Fraction(lat["v"])
    except (ValueError, ZeroDivisionError):
        v = Fraction(0)
    _require(v > 0, f"lattice.v must be a positive rational, got {lat['v']!r}")
    _require(lat["kappa"] > 0, "lattice.kappa must be positive")
    _require(lat["mass"] > 0, "lattice.mass must be positive")
    _require(lat["refinement_levels"] >= 1, "lattice.refinement_levels must be >= 1")

    for name in ("potential", "cutoff"):
        kind = top[name]["kind"]
        _require(kind in _BUILTINS, f"{name}.kind must be one of {sorted(_BUILTINS)}, got {kind!r}")
        _require(top[name]["width"] > 0, f"{name}.width must be positive")

    poly = top["polynomial"]
    _require(isinstance(poly["coeffs"], (list, tuple)), "polynomial.coeffs must be a list")
    coeffs = []
    for entry in poly["coeffs"]:
        _require(
            isinstance(entry, (list, tuple)) and len(entry) == 3,
            "polynomial.coeffs entries must be [alpha1, alpha2, value]",
        )
        a1, a2, val = (_typed("polynomial.coeffs", x, d) for x, d in zip(entry, (0, 0, 0.0)))
        _require(a1 >= 0 and a2 >= 0, "monomial powers must be nonnegative")
        coeffs.append((a1, a2, val))
    poly["coeffs"] = tuple(coeffs)

    grid = top["grid"]
    _require(grid["points"] >= 2 and grid["points"] % 2 == 0, "grid.points must be even")
    _require(grid["length"] > 0, "grid.length must be positive")

    solver = top["solver"]
    _require(solver["num_eigenvalues"] >= 1, "solver.num_eigenvalues must be >= 1")
    _require(
        0.0 < solver["overlap_threshold"] <= 1.0, "solver.overlap_threshold must be in (0, 1]"
    )
    _require(
        1 <= solver["basis_cap"] <= HARD_DIMENSION_CAP,
        f"solver.basis_cap must be in [1, {HARD_DIMENSION_CAP}]",
    )

    probe = top["probe"]
    _require(isinstance(probe["times"], (list, tuple)) and probe["times"], "probe.times must be a nonempty list")
    probe["times"] = tuple(_typed("probe.times", t, 0.0) for t in probe["times"])
    _require(probe["f_width"] > 0, "probe.f_width must be positive")

    _require(top["n_max"] >= 0, "n_max must be nonnegative")

    return ExperimentConfig(
        **{f.name: type(f.default)(**top[f.name]) if is_dataclass(f.default) else top[f.name]
           for f in fields(ExperimentConfig)}
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:  # absent, a directory, unreadable, or not UTF-8
        raise ConfigError(f"config {p} cannot be read as UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)
