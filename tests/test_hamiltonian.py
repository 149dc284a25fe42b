import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from chargedphi2 import cli, fock, hamiltonian, linalg
from chargedphi2.config import load_config
from chargedphi2.errors import ContractError, ParameterError, StabilityError
from chargedphi2.fock import (FockOperator, WickKernel, enumerate_basis, gauge_kernel, hermitian_operator,
                              wick_operator)
from chargedphi2.hamiltonian import (
    assemble,
    charge_kernels,
    form_bound_constants,
    free_energies,
    interaction_spec,
    leading_form_minimum,
)
from chargedphi2.lattice import build_lattice, refinement_ladder
from chargedphi2.oneparticle import b_matrix, operator_norm, pair_kernel
from chargedphi2.potentials import gaussian_potential, zero_potential
from chargedphi2.spectral import ground_state
from oracles import (compress, interaction_kernels, lab_omega, monomial_kernels, safe_columns, smeared_interaction,
                     summed_mirror, symmetrized)

# Ground energy of the shipped desk bundle (M=9, n_max=3, quartic polynomial,
# unit gaussian potential, 0.25-gaussian profile, lambda = 0.1), pinned from a
# dense Hermitian eigensolve.  The n_max = 4 recomputation moves it by 3.2e-3,
# the documented truncation drift at this scale.
GOLDEN_DESK_E0 = -0.000060263174893
DESK_E0_DRIFT_NMAX4 = 3.2e-3

QUAD_NODES = np.linspace(-14.0, 14.0, 281)
QUAD_WEIGHTS = np.full(QUAD_NODES.size, QUAD_NODES[1] - QUAD_NODES[0])


class TestInteractionSpec:
    def test_quartic_certificate_value(self, quartic_spec):
        # min over the circle of cos^4 + sin^4 is 1/2
        assert quartic_spec.certificate == pytest.approx(0.5, abs=1e-12)
        assert quartic_spec.degree == 4

    def test_odd_degree_rejected(self, gauss_g):
        with pytest.raises(ContractError):
            interaction_spec([(3, 0, 1.0)], gauss_g)

    def test_indefinite_leading_form_rejected(self, gauss_g):
        # cos^4 + sin^4 - 3 cos^2 sin^2 dips below zero at pi/4
        with pytest.raises(ContractError):
            interaction_spec([(4, 0, 1.0), (0, 4, 1.0), (2, 2, -3.0)], gauss_g)

    def test_lower_order_terms_do_not_matter(self, gauss_g):
        spec = interaction_spec([(4, 0, 1.0), (0, 4, 1.0), (3, 0, 5.0), (1, 0, -2.0)], gauss_g)
        assert spec.certificate == pytest.approx(0.5, abs=1e-12)

    def test_constant_polynomial_allowed(self, gauss_g):
        spec = interaction_spec([(0, 0, -1.0)], gauss_g)
        assert spec.is_bounded_below()

    def test_negative_profile_rejected(self):
        neg = gaussian_potential(-1.0, 1.0)
        with pytest.raises(ContractError):
            interaction_spec([(2, 0, 1.0)], neg)

    def test_semidefinite_top_form_is_refused_for_either_species(self, gauss_g):
        # cos^4 and sin^4 both vanish on the circle, exactly
        assert leading_form_minimum([(4, 0, 1.0)], 4) == 0.0
        assert leading_form_minimum([(0, 4, 1.0)], 4) == 0.0
        with pytest.raises(ContractError):
            interaction_spec([(4, 0, 1.0), (0, 2, -1.0)], gauss_g)

    def test_leading_form_minimum_flat_form(self):
        # cos^2 + sin^2 = 1: derivative vanishes identically
        assert leading_form_minimum([(2, 0, 1.0), (0, 2, 1.0)], 2) == pytest.approx(1.0)
        # (cos^2 + sin^2)^4 = 1
        octic = [(8, 0, 1.0), (6, 2, 4.0), (4, 4, 6.0), (2, 6, 4.0), (0, 8, 1.0)]
        assert leading_form_minimum(octic, 8) == pytest.approx(1.0, abs=1e-12)

    def test_leading_form_minimum_analytic(self):
        # cos^4 - 1.5 cos^2 sin^2 + sin^4 = 1 - 3.5 x (1 - x) with x = cos^2: 1/8 at x = 1/2
        assert leading_form_minimum([(4, 0, 1.0), (2, 2, -1.5), (0, 4, 1.0)], 4) == pytest.approx(0.125, abs=1e-12)
        # cos^6 + sin^6 = 1 - 3 x (1 - x) with x = cos^2: 1/4 at x = 1/2
        assert leading_form_minimum([(6, 0, 1.0), (0, 6, 1.0)], 6) == pytest.approx(0.25, abs=1e-12)
        # an odd form takes both signs: cos^3 reaches -1 at pi
        assert leading_form_minimum([(3, 0, 1.0)], 3) == pytest.approx(-1.0, abs=1e-12)
        # cos^4 + eps sin^4 has minimum eps / (1 + eps) at tan^2 t = 1 / eps, where
        # (1 + tan^2)^2 overflows; the mirror form takes the same value
        eps = 1e-160
        assert leading_form_minimum([(4, 0, 1.0), (0, 4, eps)], 4) == pytest.approx(eps, rel=1e-12, abs=0.0)
        assert leading_form_minimum([(4, 0, eps), (0, 4, 1.0)], 4) == pytest.approx(eps, rel=1e-12, abs=0.0)
        # a quadratic form's minimum is the lower eigenvalue of its matrix; it
        # sits between grid nodes, where the nodes alone miss it by 3.4e-7
        form = np.array([[1.0, 0.35], [0.35, 3.0]])
        assert leading_form_minimum([(2, 0, 1.0), (1, 1, 0.7), (0, 2, 3.0)], 2) == pytest.approx(
            np.linalg.eigvalsh(form)[0], abs=1e-12
        )


class TestInteractionKernels:
    def test_mass_term_splits(self, lat3, gauss_g):
        kerns = monomial_kernels(2, 0, 1.0, gauss_g, lat3)
        assert sorted((k.p, k.q) for k in kerns) == [(0, 2), (1, 1), (2, 0)]

    def test_mass_term_one_particle_multiplier(self, lat3, gauss_g):
        # the (1,1) kernel is the positive multiplier ghat(g-g') /
        # (2 pi v sqrt(eps eps')), confirmed below against the smeared-field
        # assembly; no extra 1/2 appears
        k11 = next(k for k in monomial_kernels(2, 0, 1.0, gauss_g, lat3) if (k.p, k.q) == (1, 1))
        eps = lat3.dispersion()
        expected = gauss_g.V_hat(lat3.modes[:, None] - lat3.modes[None, :]) / (
            2 * np.pi * float(lat3.v) * np.sqrt(eps[:, None] * eps[None, :])
        )
        assert np.max(np.abs(k11.coeffs - expected)) < 1e-15

    def test_zero_profile_kills_kernels(self, lat3):
        spec = interaction_spec([(4, 0, 1.0), (0, 4, 1.0)], zero_potential())
        assert interaction_kernels(spec, lat3) == []

    def test_quadratic_against_smeared_field_oracle(self, lat3, gauss_g):
        basis = enumerate_basis(lat3, 3)
        mono = [(2, 0, 1.0), (0, 2, 0.5)]
        spec = interaction_spec(mono, gauss_g)
        hi = sum(wick_operator(basis, k).matrix for k in interaction_kernels(spec, lat3))
        oracle = smeared_interaction(basis, lat3, mono, gauss_g, QUAD_NODES, QUAD_WEIGHTS)
        cols = safe_columns(basis, 2)
        assert np.max(np.abs((hi - oracle).toarray()[:, cols])) < 1e-12

    def test_quartic_against_smeared_field_oracle(self, lat3, gauss_g):
        basis = enumerate_basis(lat3, 4)
        mono = [(4, 0, 1.0), (0, 4, 1.0)]
        spec = interaction_spec(mono, gauss_g)
        hi = sum(wick_operator(basis, k).matrix for k in interaction_kernels(spec, lat3))
        oracle = smeared_interaction(basis, lat3, mono, gauss_g, QUAD_NODES, QUAD_WEIGHTS)
        cols = safe_columns(basis, 4)
        assert np.max(np.abs((hi - oracle).toarray()[:, cols])) < 1e-12

    def test_kernel_species_symmetry(self, lat3, gauss_g):
        for kern in monomial_kernels(4, 0, 1.0, gauss_g, lat3):
            if kern.p >= 2:
                swapped = np.swapaxes(np.asarray(kern.coeffs), 0, 1)
                assert np.max(np.abs(swapped - kern.coeffs)) == 0.0


    @pytest.mark.parametrize("mono", [[(4, 0, 1.0), (0, 4, 1.0)], [(4, 0, 1.0), (0, 4, 1.0), (3, 0, 0.3)]])
    def test_raw_kernels_assemble_like_symmetrized_ones(self, basis3, lat3, gauss_g, mono):
        # only the fold in `wick_operator` sums leg orderings, so kernels built
        # as they come give HI with the same pattern, up to rounding
        kernels = interaction_kernels(interaction_spec(mono, gauss_g), lat3)
        raw = hermitian_operator(basis3, kernels).matrix
        sym = hermitian_operator(basis3, [symmetrized(k) for k in kernels]).matrix
        assert np.array_equal(raw.indptr, sym.indptr) and np.array_equal(raw.indices, sym.indices)
        assert np.max(np.abs(raw.data - sym.data)) <= 1e-15
        for mat in (raw, sym):
            diff = (mat - mat.getH()).tocsr()
            diff.eliminate_zeros()
            assert diff.nnz == 0


class TestFreeHamiltonian:
    # H0 is the diagonal matrix of the free energies
    def test_vacuum_energy_zero(self, basis3):
        assert free_energies(basis3)[0] == 0.0

    def test_one_particle_at_origin_has_mass_energy(self, basis3):
        state = [0] * basis3.n_slots
        state[1] = 1  # species 1, mode 0
        i = basis3.rank([state])[0]
        assert free_energies(basis3)[i] == pytest.approx(basis3.lattice.m)

    def test_two_particle_energy_is_sum(self, basis3):
        eps = basis3.lattice.dispersion()
        state = [0] * basis3.n_slots
        state[0] = 1
        state[5] = 1  # species 2, mode index 2
        i = basis3.rank([state])[0]
        assert free_energies(basis3)[i] == pytest.approx(eps[0] + eps[2])

    def test_gap_above_vacuum_is_mass(self, basis3):
        diag = np.sort(free_energies(basis3))
        assert diag[0] == 0.0
        assert diag[1] == pytest.approx(basis3.lattice.m)

    def test_matches_dgamma_of_dispersion(self, basis3):
        # summation order differs between the two routes: ulp-level agreement
        eps = basis3.lattice.dispersion()
        h = np.diag(np.concatenate([eps, eps]))
        via_dgamma = wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=h))
        diff = np.abs((sp.diags(free_energies(basis3)) - via_dgamma.matrix).toarray())
        assert diff.max() < 1e-13


def _mixer(pot, lat):
    b = b_matrix(pot, lat)
    m = lat.size
    block = np.zeros((2 * m, 2 * m), dtype=complex)
    block[:m, m:] = b
    block[m:, :m] = b.conj().T
    return block


def _pair_creator(pot, lat):
    return WickKernel(p=2, q=0, species=(1, 2), coeffs=pair_kernel(pot, lat))


def _split_by_number(basis, mat):
    """(number-preserving part, number-changing part) of a sparse matrix."""
    coo = mat.tocoo()
    totals = basis.totals()
    same = totals[coo.row] == totals[coo.col]
    parts = []
    for keep in (same, ~same):
        parts.append(sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=mat.shape))
    return parts


class TestChargeOperator:
    # the lab-frame Q is the Hermitian sum of its two charge kernels
    def test_zero_potential_gives_zero(self, basis3, lat3):
        assert hermitian_operator(basis3, charge_kernels(zero_potential(), lat3)).matrix.nnz == 0

    def test_one_particle_block_is_b(self, basis3, lat3, gauss_v):
        q = hermitian_operator(basis3, charge_kernels(gauss_v, lat3))
        b = b_matrix(gauss_v, lat3)
        m = lat3.size
        for i in range(m):
            for j in range(m):
                row = [0] * basis3.n_slots
                col = [0] * basis3.n_slots
                row[i] = 1
                col[m + j] = 1
                val = q.matrix[basis3.rank([row])[0], basis3.rank([col])[0]]
                assert val == b[i, j]

    def test_commutator_identity(self, basis3, lat3, gauss_v):
        # removing a species-1 particle from the mixer leaves the species-2
        # annihilator smeared with the matching row of b
        from oracles import annihilation, annihilator_of

        qd, _ = _split_by_number(basis3, hermitian_operator(basis3, charge_kernels(gauss_v, lat3)).matrix)
        b = b_matrix(gauss_v, lat3)
        m = lat3.size
        for idx in (0, 1):
            a1 = annihilation(basis3, 1, lat3.modes[idx]).matrix
            comm = a1 @ qd - qd @ a1
            frow = np.concatenate([np.zeros(m), np.conj(b[idx, :])])
            expected = annihilator_of(basis3, frow).matrix
            cols = safe_columns(basis3, 1)
            assert np.max(np.abs((comm - expected).toarray()[:, cols])) < 1e-14

    def test_parts_are_mixer_and_pair_with_adjoint(self, basis3, lat3, gauss_v):
        # bitwise: the number-preserving part is dGamma of the mixer, the
        # number-changing part is W(2,0) + W(2,0)^H for the pair kernel R
        q = hermitian_operator(basis3, charge_kernels(gauss_v, lat3))
        mixer, pair = _split_by_number(basis3, q.matrix)
        w = wick_operator(basis3, _pair_creator(gauss_v, lat3)).matrix
        dg = wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=_mixer(gauss_v, lat3)))
        assert np.array_equal(mixer.toarray(), dg.dense())
        assert np.array_equal(pair.toarray(), (w + w.getH()).toarray())

    def test_charge_bound_on_lattices(self, gauss_v):
        # || Q (N+1)^-1 || <= ||b|| + 4 ||R||_F on every test lattice
        for v, kap, n_max in [(1, 1.5, 3), (1, 2, 2), (2, 2, 2)]:
            lat = build_lattice(v, kap, 1.0)
            basis = enumerate_basis(lat, n_max)
            q = hermitian_operator(basis, charge_kernels(gauss_v, lat)).matrix.toarray()
            n1 = 1.0 / (basis.totals() + 1)
            norm = operator_norm(q * n1[None, :])
            bound = operator_norm(b_matrix(gauss_v, lat)) + 4 * np.linalg.norm(pair_kernel(gauss_v, lat))
            assert norm <= bound


def _desk_pieces(bundle):
    """(H0, HI, Q) of a bundle in its gauge frame, rebuilt with the public assembly functions."""
    basis, lat = bundle.basis, bundle.lattice
    return (
        sp.diags(free_energies(basis)),
        hermitian_operator(basis, [gauge_kernel(k) for k in interaction_kernels(bundle.spec, lat)]).matrix,
        hermitian_operator(basis, [gauge_kernel(k) for k in charge_kernels(bundle.pot, lat)]).matrix,
    )


class TestAssemble:
    def test_free_configuration_is_h0(self, basis3, free_spec):
        bundle = assemble(free_spec, zero_potential(), 0.0, basis3)
        assert (bundle.h.matrix - sp.diags(free_energies(basis3))).nnz == 0

    def test_zero_kernels_are_not_expanded(self, basis3, free_spec, gauss_v, monkeypatch):
        # the zero profile leaves no interaction kernel; only the three charge kernels are expanded
        seen = []
        blocks = fock._wick_blocks

        def record(basis, kern, **kwargs):
            seen.append(kern)
            return blocks(basis, kern, **kwargs)

        monkeypatch.setattr(fock, "_wick_blocks", record)
        bundle = assemble(free_spec, gauss_v, 0.0, basis3)
        assert [(k.p, k.q, k.species) for k in seen] == [(1, 1, (1, 2)), (1, 1, (2, 1)), (2, 0, (1, 2))]
        assert (bundle.h.matrix - sp.diags(free_energies(basis3))).nnz == 0

    def test_one_stream_and_no_full_matrix(self, basis3, quartic_spec, gauss_v, monkeypatch):
        # HI and lam Q share one Wick stream, and neither Q nor the full matrix of H is built
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(hamiltonian, "hermitian_parts", counted("stream", hamiltonian.hermitian_parts))
        monkeypatch.setattr(fock, "hermitian_operator", counted("hermitian_operator", fock.hermitian_operator))
        built = property(lambda self: pytest.fail("built the full matrix of H"))
        monkeypatch.setattr(linalg.HermitianTriangle, "matrix", built)
        assemble(quartic_spec, gauss_v, 0.1, basis3).metadata()
        assert calls == ["stream"]

    def test_assembled_matrices_hold_exact_buffers(self, desk_bundle):
        # a scipy sparse sum allocates nnz(A) + nnz(B) entries; assembly trims them
        def allocation_nbytes(arr):
            while arr.base is not None:
                arr = arr.base
            return arr.nbytes

        _, hi, q = _desk_pieces(desk_bundle)
        for mat in (hi, q, desk_bundle.h.matrix):
            assert allocation_nbytes(mat.data) == mat.nnz * mat.data.itemsize
            assert allocation_nbytes(mat.indices) == mat.nnz * mat.indices.itemsize

    def test_bundle_holds_only_h(self, desk_bundle):
        ops = [name for name, value in vars(desk_bundle).items()
               if isinstance(value, (FockOperator, linalg.HermitianTriangle))]
        assert ops == ["h"]

    def test_lower_cap_is_the_leading_block(self, desk_bundle, lat9, gauss_v, quartic_spec):
        # the basis is ordered by particle number, so H at cap 2 is bitwise the
        # leading 190 x 190 block of H at cap 3: a column prefix of T (upper, so its
        # rows stay inside) and a prefix of d
        low = assemble(quartic_spec, gauss_v, 0.1, enumerate_basis(lat9, 2))
        n = low.basis.dim
        assert n == 190 and np.array_equal(desk_bundle.basis.occ[:n], low.basis.occ)
        block = desk_bundle.h.t[:, :n]
        assert block.indices.max() < n
        for attr in ("indptr", "indices", "data"):
            x, y = getattr(block, attr), getattr(low.h.t, attr)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr
        assert desk_bundle.h.d[:n].tobytes() == low.h.d.tobytes()
        # an even polynomial keeps number parity, and cap 3 adds only odd-N
        # states, so e0 is the same (to 1.1e-15 here) within the residual contract
        e3, e2 = ground_state(desk_bundle.h)[0], ground_state(low.h)[0]
        assert abs(e3 - e2) <= linalg.RESIDUAL_RTOL * max(1.0, abs(e2))

    def test_metadata_counts_h_as_its_full_matrix(self, desk_bundle):
        # nnz and the diagonal range as a stored full H gave them (dims 1,330 and 7,770)
        m17 = cli._single_level_bundle(load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                                                   / "m17_spectrum.json"))
        for bundle, nnz, max_diag in ((desk_bundle, 110_537, 6.72010898923704), (m17, 2_009_657, 6.711180196683787)):
            ref = summed_mirror(bundle.h.t, bundle.h.d)
            meta = bundle.metadata()
            assert meta["nnz"] == ref.nnz == nnz
            assert (meta["min_diag"], meta["max_diag"]) == (ref.diagonal().min(), ref.diagonal().max()) == (0.0, max_diag)

    def test_h_is_the_sum_of_its_public_pieces(self, desk_bundle):
        h0, hi, q = _desk_pieces(desk_bundle)
        ref = (h0 + hi + desk_bundle.lam * q).tocsr()
        h = desk_bundle.h.matrix
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(h, attr), getattr(ref, attr))

    def test_m17_assembly_peak_within_three_csr(self):
        # the traced peak of building the m17 bundle, over the bytes of its H
        cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "m17_spectrum.json")
        lattice = cfg.base_lattice()
        basis = enumerate_basis(lattice, cfg.n_max, cap=cfg.solver.basis_cap)
        spec, pot = interaction_spec(cfg.polynomial.coeffs, cfg.make_cutoff()), cfg.make_potential()
        tracemalloc.start()
        try:
            h = assemble(spec, pot, cfg.coupling.lam, basis).h.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis.dim == 7770
        assert peak <= 3.0 * (h.data.nbytes + h.indices.nbytes + h.indptr.nbytes)

    def test_vacuum_expectation_zero_at_lambda_zero(self, basis3, quartic_spec):
        bundle = assemble(quartic_spec, zero_potential(), 0.0, basis3)
        assert bundle.h.matrix[0, 0] == 0.0

    def test_stability_gate(self, basis3, lat3, quartic_spec, gauss_v):
        from chargedphi2.oneparticle import lambda_quant

        lq = lambda_quant(gauss_v, lat3).lambda_quant
        with pytest.raises(StabilityError) as exc:
            assemble(quartic_spec, gauss_v, 1.1 * lq, basis3)
        assert exc.value.lambda_quant == pytest.approx(lq)
        bundle = assemble(quartic_spec, gauss_v, 1.1 * lq, basis3, override_stability=True)
        assert bundle.lam == pytest.approx(1.1 * lq)

    def test_desk_hamiltonian_exactly_hermitian(self, desk_bundle):
        h = desk_bundle.h.matrix
        diff = (h - h.getH()).tocsr()
        diff.eliminate_zeros()
        assert diff.nnz == 0

    def test_two_assembly_orders_agree(self, desk_bundle):
        basis = desk_bundle.basis
        _, hi, _ = _desk_pieces(desk_bundle)
        pair = hermitian_operator(basis, [gauge_kernel(_pair_creator(desk_bundle.pot, desk_bundle.lattice))]).matrix
        # dGamma(d^* A d) = D^* dGamma(A) D: the gauged one-particle block gives the gauged one-body part
        lab = WickKernel(p=1, q=1, species=(None, None), coeffs=lab_omega(desk_bundle.lam, desk_bundle.pot,
                                                                          desk_bundle.lattice))
        one_body = wick_operator(basis, gauge_kernel(lab)).matrix
        alt = one_body + hi + desk_bundle.lam * pair
        diff = np.abs((desk_bundle.h.matrix - alt).toarray()).max()
        assert diff <= 1e-12

    def test_desk_golden_ground_energy(self, desk_bundle):
        e0, _ = ground_state(desk_bundle.h)
        assert e0 == pytest.approx(GOLDEN_DESK_E0, abs=1e-9)

    @pytest.mark.slow
    def test_desk_truncation_drift_at_nmax4(self, lat9, gauss_v, quartic_spec):
        basis4 = enumerate_basis(lat9, 4)
        bundle4 = assemble(quartic_spec, gauss_v, 0.1, basis4)
        e0, _ = ground_state(bundle4.h)
        assert abs(e0 - GOLDEN_DESK_E0) < 1.1 * DESK_E0_DRIFT_NMAX4

    def test_metadata_fields(self, desk_bundle):
        meta = desk_bundle.metadata()
        assert meta["dim"] == desk_bundle.basis.dim
        assert meta["nnz"] == desk_bundle.h.matrix.nnz
        assert meta["min_diag"] <= meta["max_diag"]

    def test_form_bound_constants_recipe(self, desk_bundle):
        delta, cconst = form_bound_constants(desk_bundle.coupling, 0.5)
        c = desk_bundle.coupling
        assert delta == pytest.approx(0.5 * (c.c0 + c.c1 / c.lattice.m))
        assert cconst == pytest.approx(0.5 * c.c1)

    def test_form_bound_semidefinite(self, basis3, lat3, quartic_spec, gauss_v):
        bundle = assemble(quartic_spec, gauss_v, 0.1, basis3)
        lam = 0.9 * bundle.coupling.lambda_quant
        delta, cconst = form_bound_constants(bundle.coupling, lam)
        assert delta < 1
        q = hermitian_operator(basis3, charge_kernels(gauss_v, lat3)).matrix
        h0 = sp.diags(free_energies(basis3))
        for sign in (1.0, -1.0):
            mat = (delta * h0 + cconst * sp.identity(basis3.dim) + sign * lam * q).toarray()
            assert np.linalg.eigvalsh(mat)[0] >= -1e-9


@pytest.fixture(scope="module")
def nest():
    coarse_lattice, fine_lattice = refinement_ladder(1, 1.5, 1.0, 2)
    return enumerate_basis(coarse_lattice, 2), enumerate_basis(fine_lattice, 2)


class TestCompress:
    def test_identity_compresses_to_identity(self, nest):
        coarse, fine = nest
        out = compress(sp.identity(fine.dim, dtype=complex, format="csr"), fine, coarse)
        assert (out - sp.identity(coarse.dim)).nnz == 0

    def test_free_hamiltonian_compresses_exactly(self, nest):
        coarse, fine = nest
        out = compress(sp.diags(free_energies(fine)), fine, coarse)
        assert (out - sp.diags(free_energies(coarse))).nnz == 0

    def test_charge_compresses_to_reweighted_coarse(self, nest, gauss_v):
        coarse, fine = nest
        out = compress(hermitian_operator(fine, charge_kernels(gauss_v, fine.lattice)).matrix, fine, coarse)
        coarse_total = hermitian_operator(coarse, charge_kernels(gauss_v, coarse.lattice)).matrix
        diff = np.abs((2 * out - coarse_total).toarray()).max()  # the refinement ratio is 2
        assert diff < 1e-14

    def test_non_nested_rejected(self, nest):
        coarse, fine = nest
        other = enumerate_basis(build_lattice(1, 2.5, 1.0), 2)
        with pytest.raises(ParameterError):
            compress(sp.identity(fine.dim, dtype=complex, format="csr"), fine, other)


def test_nested_bundles_share_threshold_gate(ladder_lattices, gauss_v):
    spec = interaction_spec([(2, 0, 0.4), (0, 2, 0.4)], gaussian_potential(0.3, 1.0))
    bundles = [assemble(spec, gauss_v, 0.15, enumerate_basis(lat, 2)) for lat in ladder_lattices]
    assert len(bundles) == 3
    for b in bundles:
        assert abs(b.lam) < b.coupling.lambda_quant
