"""Memory guards for the dense one-particle paths, the kernels, the assembly and the gap probe on the shipped configs.

The peak is tracemalloc's, which numpy reports its array buffers to; unlike
the process RSS it reproduces to 0.1 MiB from run to run.
"""

import dataclasses
import tracemalloc
from pathlib import Path

from chargedphi2 import cli
from chargedphi2.config import load_config
from chargedphi2.hamiltonian import hamiltonian_terms, interaction_spec
from chargedphi2.linalg import reflected_eigvalsh
from chargedphi2.oneparticle import lambda_quant, omega_bottom
from chargedphi2.quantization import phase_space_grid, quantize_report
from chargedphi2.spectral import hvz_gap_probe

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_quantize_report_peak():
    # 44.1 MiB with the full 4G x 4G polar decomposition and a stored Gram; 14.2 MiB
    # with the polar solved per charge sector from stored 4G x 4G matrices (G = 128);
    # 6.5 MiB building and keeping only the 2G x 2G sector blocks
    cfg = load_config(CONFIGS / "quantize.json")
    grid = phase_space_grid(cfg.grid.points, cfg.grid.length, cfg.lattice.mass, cfg.make_potential())
    assert _peak_mib(lambda: quantize_report(grid)) <= 7.0


def test_omega_bottom_peak():
    # 48.3 MiB with a complex lab-frame block and a CSR copy of it (2M = 1,026);
    # 18.2 MiB with the gauged 2M x 2M block and its parity split; 12.2 MiB with
    # the two M x M charge blocks (M = 513); 6.2 MiB with the gauged corner made
    # float64 for the even potential, with no complex temporary
    cfg = load_config(CONFIGS / "lambda_quant.json")
    lattice, pot = cfg.base_lattice(), cfg.make_potential()
    assert _peak_mib(lambda: omega_bottom(cfg.coupling.lam, pot, lattice)) <= 6.5


def test_lambda_quant_peak():
    # 18.2 MiB with a complex potential matrix and a complex temporary per step (M = 513);
    # 8.2 MiB with a complex transform cast to float64; 6.2 MiB with a real transform
    # and the commutator written over the spent symmetric sum
    cfg = load_config(CONFIGS / "lambda_quant.json")
    lattice, pot = cfg.base_lattice(), cfg.make_potential()
    assert _peak_mib(lambda: lambda_quant(pot, lattice)) <= 6.5


def test_reflected_eigvalsh_peak():
    # 21.7 MiB holding the previous dense parity block while the next one is built
    # (dim 2,300); 12.0 MiB dropping each after its eigvalsh
    cfg = load_config(CONFIGS / "probe.json")
    bundle = cli._bundle(cfg, cli._basis(cfg, cfg.base_lattice()))
    hmat, reflection = bundle.h.matrix, bundle.basis.reflection
    assert hmat.shape == (2_300, 2_300)
    assert _peak_mib(lambda: reflected_eigvalsh(hmat, reflection)) <= 12.5


def test_assemble_peak():
    # 9.0 MiB with a mirror to a full CSR and a Hermiticity check; 7.4 MiB, the raise
    # table and the Wick stream, with H kept as its triangle (dim 2,300, T and d 1.8 MiB);
    # 4.9 MiB with each kernel held once and the expansion in pieces
    cfg = load_config(CONFIGS / "probe.json")
    basis = cli._basis(cfg, cfg.base_lattice())
    assert _peak_mib(lambda: cli._bundle(cfg, basis)) <= 6.0


def _m17_bundle():
    cfg = load_config(CONFIGS / "desk_bundle.json")
    cfg = dataclasses.replace(cfg, lattice=dataclasses.replace(cfg.lattice, v="4"))
    basis = cli._basis(cfg, cfg.base_lattice())
    assert basis.dim == 7_770
    basis.raise_table
    return cfg, basis


def test_m17_assemble_peak():
    # 54.8 MiB with a global sort of every kernel's entries, a two-sum mirror and a
    # full CSC copy of H in the Hermiticity check; 37.2 MiB with a one-pass mirror
    # and a blockwise check; 28.7 MiB, the Wick stream's, with H kept as its
    # triangle (dim 7,770, T and d 11.5 MiB, CSR of H 23.0 MiB); 19.6 MiB with
    # each kernel held once, folded, and the expansion made in pieces of
    # TERM_BUDGET terms, T's buffers and the two (3, 1) kernels' Wick matrices
    cfg, basis = _m17_bundle()
    assert _peak_mib(lambda: cli._bundle(cfg, basis)) <= 21.0


def test_zero_cutoff_builds_no_kernel_tensor():
    # 544.8 MiB building every split's 65^4 complex tensors before finding g_hat
    # zero (65 modes, n_max 2, dim 8,646); 0.5 MiB deciding it from g_hat on the
    # possible total momenta, with the zero charge kernels
    cfg = load_config(CONFIGS / "free.json")
    cfg = dataclasses.replace(cfg, lattice=dataclasses.replace(cfg.lattice, v="16"))
    basis = cli._basis(cfg, cfg.base_lattice())
    assert (basis.lattice.size, basis.dim) == (65, 8_646)
    spec = interaction_spec(cfg.polynomial.coeffs, cfg.make_cutoff())
    assert _peak_mib(lambda: hamiltonian_terms(spec, cfg.make_potential(), cfg.coupling.lam, basis)) <= 1.0


def test_m17_kernel_phase_peak():
    # 17.3 MiB building all 10 complex quartic splits and gauging them; 7.2 MiB
    # building only the 4 that are streamed, one at a time, each held folded
    # and float64 (2.6 MiB)
    cfg, basis = _m17_bundle()
    spec = interaction_spec(cfg.polynomial.coeffs, cfg.make_cutoff())
    assert _peak_mib(lambda: hamiltonian_terms(spec, cfg.make_potential(), cfg.coupling.lam, basis)) <= 8.0


def test_m17_gap_probe_builds_no_matrix_of_h():
    # the probe applies T and d, far below H's CSR (23.0 MiB: int32 indices,
    # float64 values, dim + 1 int32 row pointers); 8.7 MiB with a QR frame of
    # dim x 2M columns, 3.3 MiB with the 2M x 2M Gram matrix of the raised
    # ground state
    cfg, basis = _m17_bundle()
    bundle = cli._bundle(cfg, basis)
    csr_mib = (bundle.metadata()["nnz"] * 12 + (basis.dim + 1) * 4) / 2**20
    assert 22.9 <= csr_mib <= 23.1
    assert _peak_mib(lambda: hvz_gap_probe(bundle, report_depth=cfg.solver.num_eigenvalues)) <= 4.0
