from pathlib import Path

import numpy as np
import pytest

from chargedphi2 import cli
from chargedphi2.config import load_config

from chargedphi2.fock import enumerate_basis
from chargedphi2.hamiltonian import assemble, interaction_spec
from chargedphi2.lattice import build_lattice, refinement_ladder
from chargedphi2.potentials import gaussian_potential, zero_potential


@pytest.fixture(scope="session")
def gauss_v():
    return gaussian_potential(1.0, 1.0)


@pytest.fixture(scope="session")
def gauss_g():
    return gaussian_potential(0.25, 1.0)


@pytest.fixture(scope="session")
def lat3():
    # 3 modes: -1, 0, 1
    return build_lattice(1, 1.5, 1.0)


@pytest.fixture(scope="session")
def lat9():
    # 9 modes at spacing 1/2, the desk-bundle lattice
    return build_lattice(2, 2.0, 1.0)


@pytest.fixture(scope="session")
def basis3(lat3):
    return enumerate_basis(lat3, 3)


@pytest.fixture(scope="session")
def quartic_spec(gauss_g):
    return interaction_spec([(4, 0, 1.0), (0, 4, 1.0)], gauss_g)


@pytest.fixture(scope="session")
def desk_bundle(lat9, gauss_v, quartic_spec):
    """The pinned desk-scale bundle: M=9 modes, n_max=3, quartic, lambda=0.1."""
    basis = enumerate_basis(lat9, 3)
    return assemble(quartic_spec, gauss_v, 0.1, basis)


@pytest.fixture(scope="session")
def probe_m9_bundle():
    """The benchmark's probe input: the desk lattice with a cubic species-1 term, lambda=0.15."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "probe_m9.json")
    return cli._single_level_bundle(cfg)


@pytest.fixture(scope="session")
def free_spec():
    """Bounded-below polynomial against a vanishing profile: zero interaction."""
    return interaction_spec([(4, 0, 1.0), (0, 4, 1.0)], zero_potential())


@pytest.fixture(scope="session")
def ladder_lattices():
    return list(refinement_ladder(1, 2.0, 1.0, 3))


@pytest.fixture(scope="session")
def ladder_bundles(ladder_lattices, gauss_v):
    """Three nested interacting levels: quadratic polynomial plus charge term."""
    spec = interaction_spec([(2, 0, 0.4), (0, 2, 0.4)], gaussian_potential(0.3, 1.0))
    return [assemble(spec, gauss_v, 0.15, enumerate_basis(lat, 2)) for lat in ladder_lattices]


@pytest.fixture(scope="session")
def free_ladder_bundles(ladder_lattices, free_spec):
    return [assemble(free_spec, zero_potential(), 0.0, enumerate_basis(lat, 2)) for lat in ladder_lattices]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
