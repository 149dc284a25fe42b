"""Acceptance suite: one test per shipped claim, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL table.
Tolerances are pinned here and nowhere else; every expected value traces to
an oracle in the module tests (explicit ladder-matrix products, Hermite
smeared fields, dense eigensolves, quadrature transforms).
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chargedphi2.fock import enumerate_basis, hermitian_operator, wick_operator
from chargedphi2.hamiltonian import (
    charge_kernels,
    form_bound_constants,
    free_energies,
    interaction_spec,
)
from chargedphi2.lattice import build_lattice
from chargedphi2.linalg import shifted_solver
from chargedphi2.oneparticle import (
    b_matrix,
    hs_norm_squared,
    lambda_quant,
    omega_bottom,
    operator_norm,
    pair_kernel,
    pair_kernel_bound,
    weyl_grid,
    weyl_quantize,
)
from chargedphi2.potentials import gaussian_potential, lorentzian_potential, zero_potential
from chargedphi2.quantization import (
    build_generator,
    phase_space_grid,
    polar_decompose,
)
from chargedphi2.spectral import (
    ground_state,
    heisenberg_probe,
    higher_order_norm,
    hvz_gap_probe,
    resolvent_convergence,
)
from oracles import interaction_kernels, symmetrized

ACCEPTANCE_POTENTIALS = [
    gaussian_potential(1.0, 1.0),
    gaussian_potential(0.3, 2.0),
    lorentzian_potential(1.0, 1.0),
    lorentzian_potential(0.4, 0.8),
]
ACCEPTANCE_LATTICES = [
    build_lattice(1, 2.0, 1.0),
    build_lattice(2, 4.0, 1.0),
    build_lattice(4, 6.0, 0.5),
    build_lattice(2, 2.0, 1.0),
]


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_weyl_hilbert_schmidt_identity():
    t0 = time.time()
    grid = weyl_grid(256, 32.0)
    mat = weyl_quantize(lambda x, k: np.exp(-(x**2 + k**2) / 2.0), grid)
    hs2 = hs_norm_squared(mat)
    elapsed = time.time() - t0
    ok = 0.495 <= hs2 <= 0.505 and elapsed < 5.0
    _report(1, ok, f"gaussian symbol HS^2 = {hs2:.6f} in [0.495, 0.505], {elapsed:.2f}s < 5s")


def test_criterion_02_stable_quantization_residuals():
    t0 = time.time()
    grid = phase_space_grid(128, 32.0, 1.0, gaussian_potential(0.2, 1.0))
    gen = build_generator(grid)
    ks = polar_decompose(gen)
    j_sq = ks.j_square_residual()
    recon = ks.reconstruction_residual(gen)
    free_grid = phase_space_grid(128, 32.0, 1.0, zero_potential())
    ks0 = polar_decompose(build_generator(free_grid))
    expected = np.sort(np.repeat(np.sqrt(free_grid.fft_momenta() ** 2 + 1.0), 4))
    spec_err = float(np.max(np.abs(ks0.h_spectrum - expected)))
    elapsed = time.time() - t0
    ok = j_sq <= 1e-9 and recon <= 1e-9 and spec_err <= 1e-10 and elapsed < 30.0
    _report(
        2,
        ok,
        f"j^2 residual {j_sq:.2e} <= 1e-9, reconstruction {recon:.2e} <= 1e-9, "
        f"free spectrum error {spec_err:.2e} <= 1e-10, {elapsed:.1f}s < 30s",
    )


def test_criterion_03_coupling_threshold_form_bounds():
    t0 = time.time()
    lat = build_lattice(2, 4.0, 1.0)  # 17 modes
    basis = enumerate_basis(lat, 3)
    pot = gaussian_potential(1.0, 1.0)
    coup = lambda_quant(pot, lat)
    q = hermitian_operator(basis, charge_kernels(pot, lat)).matrix
    h0 = sp.diags(free_energies(basis))
    v0 = np.full(basis.dim, 1.0 / np.sqrt(basis.dim))
    worst_eig = np.inf
    worst_omega = np.inf
    for frac in (0.25, 0.5, 0.9):
        lam = frac * coup.lambda_quant
        worst_omega = min(worst_omega, omega_bottom(lam, pot, lat))
        delta, cshift = form_bound_constants(coup, lam)
        assert delta < 1
        for sign in (1.0, -1.0):
            mat = (delta * h0 + cshift * sp.identity(basis.dim, dtype=complex) + sign * lam * q).tocsr()
            w = spla.eigsh(mat, k=1, which="SA", v0=v0, maxiter=20000)[0][0]
            worst_eig = min(worst_eig, float(w))
    elapsed = time.time() - t0
    ok = worst_omega > 0 and worst_eig >= -1e-9 and elapsed < 120.0
    _report(
        3,
        ok,
        f"min eig(omega) = {worst_omega:.4f} > 0, min eig(delta H0 + C +- lam Q) = "
        f"{worst_eig:.3e} >= -1e-9 for 0.25/0.5/0.9 of threshold, {elapsed:.1f}s < 120s",
    )


def test_criterion_04_charge_operator_bound():
    worst_margin = np.inf
    for lat in ACCEPTANCE_LATTICES:
        basis = enumerate_basis(lat, 2)
        pot = gaussian_potential(1.0, 1.0)
        q = hermitian_operator(basis, charge_kernels(pot, lat)).matrix.toarray()
        inv_n1 = 1.0 / (basis.totals() + 1.0)
        norm = operator_norm(q * inv_n1[None, :])
        bound = operator_norm(b_matrix(pot, lat)) + 4 * np.linalg.norm(pair_kernel(pot, lat))
        worst_margin = min(worst_margin, bound - norm)
    ok = worst_margin >= 0
    _report(4, ok, f"||Q (N+1)^-1|| <= ||b|| + 4||R||_F on all lattices (min margin {worst_margin:.4f})")


def test_criterion_05_pair_kernel_entrywise_bound():
    violations = 0
    checked = 0
    for pot in ACCEPTANCE_POTENTIALS:
        for lat in ACCEPTANCE_LATTICES:
            r = pair_kernel(pot, lat)
            bound = pair_kernel_bound(pot, lat)
            violations += int(np.sum(np.abs(r) > bound))
            checked += r.size
    ok = violations == 0
    _report(5, ok, f"|R| <= (1/4pi)|Vp_hat| eps^-1/2 eps^-1/2: {violations} violations in {checked} entries")


def test_criterion_06_ccr_and_wick_suite(lat3, basis3, gauss_g):
    from chargedphi2.fock import WickKernel, annihilation, creation, ntau_check

    # canonical commutators on the safe sector
    safe = np.flatnonzero(basis3.totals() <= basis3.n_max - 1)
    eye = sp.identity(basis3.dim, format="csr")
    ccr_worst = 0.0
    for si in (1, 2):
        for sj in (1, 2):
            for gi in lat3.modes:
                for gj in lat3.modes:
                    a = annihilation(basis3, si, gi).matrix
                    bdag = creation(basis3, sj, gj).matrix
                    delta = 1.0 if (si == sj and gi == gj) else 0.0
                    resid = ((a @ bdag - bdag @ a) - delta * eye).toarray()[:, safe]
                    ccr_worst = max(ccr_worst, float(np.max(np.abs(resid))))

    # vacuum expectation of the interaction
    spec = interaction_spec([(4, 0, 1.0), (0, 4, 1.0), (2, 0, 0.3)], gauss_g)
    hi = sum(wick_operator(basis3, k).matrix for k in interaction_kernels(spec, lat3))
    vac_hi = abs(hi[0, 0])

    # structural adjoint of a generic kernel
    r = np.random.default_rng(7)
    m = basis3.n_modes
    coeffs = r.standard_normal((m, m, m)) + 1j * r.standard_normal((m, m, m))
    kern = symmetrized(WickKernel(p=2, q=1, species=(1, 2, 2), coeffs=coeffs))
    diff = wick_operator(basis3, kern).matrix.getH().tocsr() - wick_operator(basis3, kern.adjoint()).matrix
    adjoint_exact = diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    # annihilator bound on randomized draws
    ntau_ok = True
    for seed in range(100):
        rr = np.random.default_rng(seed)
        f = rr.standard_normal(basis3.n_slots) + 1j * rr.standard_normal(basis3.n_slots)
        b = rr.uniform(0.1, 5.0, basis3.n_slots)
        lhs, rhs = ntau_check(basis3, f, b)
        ntau_ok = ntau_ok and lhs <= rhs + 1e-12

    ok = ccr_worst <= 1e-13 and vac_hi <= 1e-13 and adjoint_exact and ntau_ok
    _report(
        6,
        ok,
        f"CCR residual {ccr_worst:.1e} <= 1e-13, <vac|HI|vac> = {vac_hi:.1e} <= 1e-13, "
        f"adjoint structural: {adjoint_exact}, annihilator bound on 100 draws: {ntau_ok}",
    )


def test_criterion_07_hvz_trend(free_ladder_bundles, ladder_bundles):
    t0 = time.time()
    free_rep = hvz_gap_probe(free_ladder_bundles[0])
    free_exact = free_rep.hvz_onset_estimate == free_ladder_bundles[0].lattice.m and free_rep.e0 == 0.0
    mismatches = []
    for bundle in ladder_bundles:
        rep = hvz_gap_probe(bundle)
        mismatches.append(abs(rep.hvz_onset_estimate - (rep.e0 + bundle.lattice.m)))
    decreasing = mismatches[0] > mismatches[1] > mismatches[2]
    final_ok = mismatches[-1] <= 0.1 * ladder_bundles[-1].lattice.m
    elapsed = time.time() - t0
    ok = free_exact and decreasing and final_ok and elapsed < 600.0
    _report(
        7,
        ok,
        f"free onset exact: {free_exact}; |onset - (e0+m)| = "
        f"{[f'{x:.5f}' for x in mismatches]} decreasing to <= 0.1 m, {elapsed:.1f}s < 600s",
    )


def test_criterion_08_resolvent_convergence(free_ladder_bundles, ladder_bundles):
    free_trace = resolvent_convergence(free_ladder_bundles)
    free_zero = free_trace.resolvent_gaps == (0.0, 0.0)
    trace = resolvent_convergence(ladder_bundles)
    decreasing = trace.resolvent_gaps[0] > trace.resolvent_gaps[1] > 0
    ok = free_zero and decreasing
    _report(
        8,
        ok,
        f"free gaps exactly {free_trace.resolvent_gaps}; interacting gaps "
        f"{tuple(f'{g:.6f}' for g in trace.resolvent_gaps)} strictly decreasing",
    )


def test_criterion_09_higher_order_uniformity(ladder_bundles):
    # the shift policy of `resolvent_convergence`: 1 + |e0| at the coarsest level
    beta = 1.0 + abs(ground_state(ladder_bundles[0].h)[0])
    norms = [higher_order_norm(b, shifted_solver(b.h, beta)) for b in ladder_bundles]
    spread = max(norms) / min(norms)
    ok = spread <= 1.1
    _report(9, ok, f"||N (H+beta)^-1|| across levels: {[f'{x:.5f}' for x in norms]}, spread {spread:.4f} <= 1.1")


def test_criterion_10_heisenberg_probe(free_spec):
    from chargedphi2.hamiltonian import assemble

    # free case: exact time independence on a deterministic mixed state
    lat_free = build_lattice(2, 2.0, 1.0)
    basis_free = enumerate_basis(lat_free, 2)
    free_bundle = assemble(free_spec, zero_potential(), 0.0, basis_free)
    rng = np.random.default_rng(11)
    psi = rng.standard_normal(basis_free.dim) + 1j * rng.standard_normal(basis_free.dim)
    psi /= np.linalg.norm(psi)
    f = np.exp(-((lat_free.modes - 1.0) ** 2))
    full = np.concatenate([f, np.zeros_like(f)]).astype(complex)
    res_free = heisenberg_probe(free_bundle, full, [0.0, 4.0, 8.0, 16.0, 32.0], psi)
    vals = np.array(res_free.values)
    free_spread = float(np.max(np.abs(vals - vals[0])))

    # interacting desk case: decreasing differences before recurrence
    lat = build_lattice(4, 1.25, 1.0)
    basis = enumerate_basis(lat, 3)
    spec = interaction_spec([(4, 0, 1.0), (0, 4, 1.0), (3, 0, 0.3)], gaussian_potential(0.25, 1.0))
    bundle = assemble(spec, gaussian_potential(1.0, 1.0), 0.15, basis)
    fprobe = np.exp(-((lat.modes - 0.75) ** 2) / (2 * 0.3**2))
    full_probe = np.concatenate([fprobe, np.zeros_like(fprobe)]).astype(complex)
    times = [4.0, 8.0, 16.0, 32.0]
    res = heisenberg_probe(bundle, full_probe, times)
    diffs = np.abs(np.diff(np.array(res.values)))
    decreasing = bool(np.all(np.diff(diffs) < 0))
    before_recurrence = all(t < res.recurrence_time for t in times)
    ok = free_spread <= 1e-10 and decreasing and before_recurrence
    _report(
        10,
        ok,
        f"free spread {free_spread:.1e} <= 1e-10; interacting differences "
        f"{[f'{d:.2e}' for d in diffs]} decreasing before recurrence ({before_recurrence})",
    )
