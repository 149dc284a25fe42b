"""The i^{N_2} gauge: H is real in the gauge frame, and nothing reported moves.

Lab-frame references are rebuilt independently: the phases come from
`oracles.lab_frame_phases`, and the lab-frame H from the public lab-frame
pieces (H0, HI and Q summed without the gauge).
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from chargedphi2 import cli
from chargedphi2.config import parse_config
from chargedphi2.fock import (WickKernel, enumerate_basis, fock_embedding, gauge_kernel, hermitian_operator,
                              wick_operator)
from chargedphi2.hamiltonian import assemble, charge_kernels, free_energies, interaction_spec
from chargedphi2.oneparticle import omega_bottom
from chargedphi2.potentials import gaussian_potential
from chargedphi2.spectral import heisenberg_probe, resolvent_convergence
from oracles import dense_probe, dense_resolvent_gap, interaction_kernels, lab_frame_phases, lab_omega

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _config(name, **lattice):
    raw = json.loads((CONFIGS / name).read_text())
    raw["lattice"].update(lattice)
    return parse_config(raw)


# desk (dim 1,330), probe_m9 (dim 1,330, a cubic species-1 term), m17 (dim 7,770)
SINGLE_LEVEL = {
    "desk": lambda: _config("desk_bundle.json"),
    "probe_m9": lambda: _config("probe.json", kappa=1.0),
    "m17": lambda: _config("desk_bundle.json", v="4"),
}


def _lab_h(bundle):
    """H0 + HI + lam Q from the lab-frame public functions, with no gauge."""
    basis, lat = bundle.basis, bundle.lattice
    return (
        sp.diags(free_energies(basis))
        + hermitian_operator(basis, interaction_kernels(bundle.spec, lat)).matrix
        + bundle.lam * hermitian_operator(basis, charge_kernels(bundle.pot, lat)).matrix
    )


def _assert_real_symmetric(h):
    assert h.dtype == np.float64
    diff = (h - h.T).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0


@pytest.mark.parametrize("name", sorted(SINGLE_LEVEL))
def test_h_is_float64_and_exactly_symmetric(name):
    _assert_real_symmetric(cli._single_level_bundle(SINGLE_LEVEL[name]()).h.matrix)


def test_ladder_h_is_float64_and_exactly_symmetric():
    for bundle in cli._ladder_bundles(_config("ladder.json")):
        _assert_real_symmetric(bundle.h.matrix)


@pytest.mark.parametrize("p, q, species", [(1, 0, (None,)), (1, 1, (None, None)), (2, 0, (1, 2)), (2, 1, (2, 1, None))])
def test_gauged_kernel_expands_to_the_gauged_matrix(basis3, p, q, species):
    # every entry of the Wick expansion gains the same quarter turn, so D^* A D is exact
    r = np.random.default_rng(3)
    shape = tuple(2 * basis3.n_modes if s is None else basis3.n_modes for s in species)
    kern = WickKernel(p=p, q=q, species=species, coeffs=r.standard_normal(shape) + 1j * r.standard_normal(shape))
    d = lab_frame_phases(basis3)
    lab = wick_operator(basis3, kern).dense()
    assert np.array_equal(wick_operator(basis3, gauge_kernel(kern)).dense(), d.conj()[:, None] * lab * d)


@pytest.mark.parametrize("name", ["desk", "probe_m9"])
def test_ungauged_h_is_the_lab_h_with_the_same_spectrum(name):
    bundle = cli._single_level_bundle(SINGLE_LEVEL[name]())
    d = lab_frame_phases(bundle.basis)
    ungauged = d[:, None] * bundle.h.matrix.toarray() * d.conj()
    lab = _lab_h(bundle).toarray()
    assert np.max(np.abs(ungauged - lab)) <= 1e-14
    spec = np.linalg.eigvalsh(bundle.h.matrix.toarray())
    assert np.max(np.abs(spec - np.linalg.eigvalsh(lab))) <= 1e-12


def test_mixed_monomial_keeps_h_complex(basis3, gauss_v):
    # phi_1 phi_2 has odd species-2 power: its kernels gain +-i under the gauge
    spec = interaction_spec([(4, 0, 1.0), (0, 4, 1.0), (1, 1, 0.1)], gaussian_potential(0.25, 1.0))
    bundle = assemble(spec, gauss_v, 0.1, basis3)
    h = bundle.h.matrix
    assert h.dtype == np.complex128 and np.any(h.data.imag)
    diff = (h - h.getH()).tocsr()
    diff.eliminate_zeros()
    assert diff.nnz == 0
    lab = _lab_h(bundle).toarray()
    assert np.max(np.abs(np.linalg.eigvalsh(bundle.h.matrix.toarray()) - np.linalg.eigvalsh(lab))) <= 1e-12


@pytest.mark.parametrize("weights", [(0.0, 1.0), (0.3, 1.0 - 0.5j)])
def test_probe_with_species2_components_matches_lab_oracle(desk_bundle, weights):
    # the ground state gives <phi> = 0 by field parity; a mixed state does not.
    # Its own generator (the seed of the shared `rng` fixture) keeps the
    # min |value| guard independent of the draws of earlier tests.
    rng = np.random.default_rng(20240811)
    modes = desk_bundle.lattice.modes
    f = np.exp(-((modes - 0.5) ** 2))
    full = np.concatenate([weights[0] * f, weights[1] * f])
    times = [0.0, 4.0, 32.0]
    psi = rng.standard_normal(desk_bundle.basis.dim) + 1j * rng.standard_normal(desk_bundle.basis.dim)
    psi /= np.linalg.norm(psi)
    res = heisenberg_probe(desk_bundle, full, times, psi)
    assert np.min(np.abs(res.values)) > 1e-3
    assert np.max(np.abs(np.array(res.values) - dense_probe(desk_bundle, full, times, psi))) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
def test_min_eig_equals_lab_frame_eigvalsh(lat9, gauss_v, lam):
    lab = np.linalg.eigvalsh(lab_omega(lam, gauss_v, lat9))[0]
    assert omega_bottom(lam, gauss_v, lat9) == pytest.approx(lab, abs=1e-12)


def test_dtype_follows_the_values(basis3, lat3, gauss_v):
    assert sp.diags(free_energies(basis3)).dtype == np.float64
    m = lat3.size
    real = WickKernel(p=1, q=1, species=(1, 2), coeffs=np.ones((m, m), dtype=complex))
    assert wick_operator(basis3, real).matrix.dtype == np.float64
    imag = WickKernel(p=1, q=1, species=(1, 2), coeffs=1j * np.ones((m, m)))
    assert wick_operator(basis3, imag).matrix.dtype == np.complex128
    assert hermitian_operator(basis3, charge_kernels(gauss_v, lat3)).matrix.dtype == np.complex128
    gauged_q = hermitian_operator(basis3, [gauge_kernel(k) for k in charge_kernels(gauss_v, lat3)])
    assert gauged_q.matrix.dtype == np.float64


def test_complex_h_runs_the_resolvent_path(ladder_lattices, gauss_v):
    # a mixed monomial keeps every level complex; the dtype picks complex LU and Lanczos
    spec = interaction_spec([(2, 0, 0.4), (0, 2, 0.4), (1, 1, 0.1)], gaussian_potential(0.3, 1.0))
    bundles = [assemble(spec, gauss_v, 0.15, enumerate_basis(lat, 2)) for lat in ladder_lattices[:2]]
    assert all(b.h.matrix.dtype == np.complex128 for b in bundles)
    trace = resolvent_convergence(bundles)
    emb = fock_embedding(bundles[0].basis, bundles[1].basis)
    assert trace.resolvent_gaps[0] == pytest.approx(dense_resolvent_gap(*bundles, emb, trace.beta), rel=1e-10)
    for b, norm in zip(bundles, trace.number_resolvent_norms):
        dense = np.diag(b.basis.totals()) @ np.linalg.inv(b.h.matrix.toarray() + trace.beta * np.eye(b.basis.dim))
        assert norm == pytest.approx(np.linalg.norm(dense, 2), rel=1e-10)
