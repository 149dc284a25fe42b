import math
import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chargedphi2 import cli, fock, linalg
from chargedphi2.errors import ContractError, ParameterError, ResourceLimitError, ShapeError
from chargedphi2.fock import (
    FockOperator,
    HermitianOperator,
    WickKernel,
    annihilation,
    annihilator_of,
    creation,
    enumerate_basis,
    fock_dimension,
    fock_embedding,
    gauge_kernel,
    hermitian_operator,
    hermitian_parts,
    ntau_check,
    number_operator,
    wick_operator,
)
from chargedphi2.config import load_config
from chargedphi2.hamiltonian import charge_kernels, free_energies, interaction_spec
from chargedphi2.lattice import build_lattice, build_nested, refinement_ladder
from chargedphi2.potentials import zero_potential
from oracles import (dense_wick, interaction_kernels, safe_columns, smeared_field_coefficients, sorted_hermitian_parts,
                     summed_mirror, symmetrized, triangle_entries, two_particle_tensor)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestEnumeration:
    def test_dimension_examples(self, lat3):
        assert enumerate_basis(lat3, 2).dim == 28  # 1 + 6 + 21
        assert enumerate_basis(lat3, 0).dim == 1

    def test_single_mode_dimension(self):
        lat = build_lattice(1, 1, 1.0)  # hmm: 3 modes; need M=1
        assert lat.size == 3

    def test_two_slot_dimension(self):
        # M modes with both species: stars and bars over 2M slots
        assert fock_dimension(2, 3) == 10  # 1+2+3+4

    def test_ordering_number_major_then_lex(self, lat3):
        basis = enumerate_basis(lat3, 2)
        states = [tuple(row) for row in basis.occ.tolist()]
        totals = [sum(s) for s in states]
        assert totals == sorted(totals)
        for n in (1, 2):
            sector = [s for s in states if sum(s) == n]
            assert sector == sorted(sector)

    def test_vacuum_is_first(self, basis3):
        assert tuple(basis3.occ[0]) == (0,) * basis3.n_slots

    def test_rank_inverts_occupations(self, basis3):
        assert np.array_equal(basis3.rank(basis3.occ), np.arange(basis3.dim))
        with pytest.raises(ParameterError):
            basis3.rank([(4, 0, 0, 0, 0, 0)])

    def test_cap_enforced(self, lat9):
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_basis(lat9, 3, cap=100)
        assert exc.value.cap == 100

    def test_negative_cap_rejected(self, lat3):
        with pytest.raises(ParameterError):
            enumerate_basis(lat3, -1)


class TestLadderOperators:
    def test_create_from_vacuum(self, basis3):
        adag = creation(basis3, 1, 0.0)
        one = basis3.rank([(0, 1, 0, 0, 0, 0)])[0]
        assert adag.matrix[one, 0] == 1.0

    def test_annihilate_vacuum(self, basis3):
        a = annihilation(basis3, 1, 0.0)
        assert a.matrix.getcol(0).nnz == 0

    def test_bosonic_normalization(self, basis3):
        adag = creation(basis3, 1, 0.0)
        one, two = basis3.rank([(0, 1, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0)])
        assert adag.matrix[two, one] == pytest.approx(math.sqrt(2))

    def test_top_sector_killed(self, basis3):
        adag = creation(basis3, 2, 1.0)
        top = basis3.rank([(3, 0, 0, 0, 0, 0)])[0]
        assert adag.matrix.getcol(top).nnz == 0

    def test_unknown_mode_rejected(self, basis3):
        with pytest.raises(ParameterError):
            creation(basis3, 1, 0.3)
        with pytest.raises(ParameterError):
            creation(basis3, 3, 0.0)

    @pytest.mark.parametrize("species_pair", [(1, 1), (1, 2), (2, 2)])
    def test_ccr_on_safe_sector(self, basis3, species_pair):
        si, sj = species_pair
        lat = basis3.lattice
        safe = safe_columns(basis3, 1)
        eye = sp.identity(basis3.dim, format="csr")
        for gi in lat.modes:
            for gj in lat.modes:
                a = annihilation(basis3, si, gi).matrix
                bdag = creation(basis3, sj, gj).matrix
                comm = a @ bdag - bdag @ a
                delta = 1.0 if (si == sj and gi == gj) else 0.0
                resid = (comm - delta * eye).toarray()[:, safe]
                assert np.max(np.abs(resid)) <= 1e-13


class TestDgamma:
    # dGamma(h) is the Wick operator of the (1, 1) kernel h over all 2M slots
    def test_identity_gives_number(self, basis3):
        eye = np.eye(basis3.n_slots)
        dg = wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=eye))
        assert (dg.matrix - number_operator(basis3).matrix).nnz == 0

    def test_dispersion_eigenvalue_on_one_particle(self, basis3):
        lat = basis3.lattice
        eps = lat.dispersion()
        h = np.diag(np.concatenate([eps, eps]))
        dg = wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=h))
        for mode_idx, gamma in enumerate(lat.modes):
            state = [0] * basis3.n_slots
            state[mode_idx] = 1
            i = basis3.rank([state])[0]
            assert dg.matrix[i, i] == pytest.approx(eps[mode_idx])

    def test_two_particle_block_matches_tensor_oracle(self, basis3, rng):
        n = basis3.n_slots
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (h + h.conj().T)
        dg = wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=h)).dense()
        pairs = []
        rows = []
        for idx, state in enumerate(basis3.occ.tolist()):
            if sum(state) != 2:
                continue
            occupied = [s for s in range(n) for _ in range(state[s])]
            pairs.append((occupied[0], occupied[1]))
            rows.append(idx)
        block = dg[np.ix_(rows, rows)]
        oracle = two_particle_tensor(h, pairs)
        assert np.max(np.abs(block - oracle)) < 1e-12

    def test_number_commutes(self, basis3, rng):
        n = basis3.n_slots
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (h + h.conj().T)
        dg = wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=h)).matrix
        nop = number_operator(basis3).matrix
        assert np.max(np.abs((dg @ nop - nop @ dg).toarray())) == 0.0

    def test_vacuum_expectation_zero(self, basis3, rng):
        n = basis3.n_slots
        h = rng.standard_normal((n, n))
        h = 0.5 * (h + h.T)
        assert wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=h)).matrix[0, 0] == 0.0


class TestHermitianCheck:
    def test_asymmetric_pattern_rejected(self, basis3):
        mat = sp.csr_matrix(([1.0], ([0], [1])), shape=(basis3.dim, basis3.dim))
        with pytest.raises(ContractError):
            FockOperator(basis=basis3, matrix=mat, hermitian=True)

    @pytest.mark.parametrize("skew, ok", [(2e-12, False), (1e-13, True)])
    def test_value_skew_on_a_symmetric_pattern(self, basis3, skew, ok):
        mat = sp.csr_matrix(([1.0, 1.0 + skew, 0.5], ([0, 1, 2], [1, 0, 2])), shape=(basis3.dim, basis3.dim))
        if ok:
            assert FockOperator(basis=basis3, matrix=mat, hermitian=True).hermitian
        else:
            with pytest.raises(ContractError):
                FockOperator(basis=basis3, matrix=mat, hermitian=True)

    def test_complex_entries_are_conjugated(self, basis3):
        mat = sp.csr_matrix(([1j, -1j], ([0, 1], [1, 0])), shape=(basis3.dim, basis3.dim))
        assert FockOperator(basis=basis3, matrix=mat, hermitian=True).hermitian
        with pytest.raises(ContractError):
            FockOperator(basis=basis3, matrix=mat * 1j, hermitian=True)

    def test_nan_is_refused(self, basis3):
        mat = sp.csr_matrix(([1.0, np.nan, 2.0], ([0, 1, 2], [0, 1, 2])), shape=(3, 3))
        with pytest.raises(ContractError):
            FockOperator(basis=basis3, matrix=mat, hermitian=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_diagonal_must_be_real_and_finite(self, basis3, bad):
        t = sp.csc_matrix((basis3.dim, basis3.dim))
        d = free_energies(basis3)
        assert HermitianOperator(basis3, t, d).hermitian
        d[3] = bad
        with pytest.raises(ContractError):
            HermitianOperator(basis3, t, d)
        with pytest.raises(ContractError):
            HermitianOperator(basis3, t, free_energies(basis3) + 0j)


class TestWickOperator:
    def test_scalar_kernel(self, basis3):
        kern = WickKernel(p=0, q=0, species=(), coeffs=np.array(2.5 + 0j))
        op = wick_operator(basis3, kern)
        assert (op.matrix - 2.5 * sp.identity(basis3.dim)).nnz == 0

    def test_single_creator_equals_creation(self, basis3):
        m = basis3.n_modes
        coeffs = np.zeros(m, dtype=complex)
        coeffs[1] = 1.0
        kern = WickKernel(p=1, q=0, species=(1,), coeffs=coeffs)
        assert (wick_operator(basis3, kern).matrix - creation(basis3, 1, 0.0).matrix).nnz == 0

    def test_diagonal_pair_kernel_equals_dgamma(self, basis3, rng):
        m = basis3.n_modes
        d = rng.standard_normal(m)
        kern = WickKernel(p=1, q=1, species=(2, 2), coeffs=np.diag(d).astype(complex))
        h = np.zeros((2 * m, 2 * m), dtype=complex)
        h[m:, m:] = np.diag(d)
        dg = wick_operator(basis3, WickKernel(p=1, q=1, species=(None, None), coeffs=h))
        assert np.max(np.abs((wick_operator(basis3, kern).matrix - dg.matrix).toarray())) == 0.0

    def test_vacuum_expectation_vanishes(self, basis3, rng):
        m = basis3.n_modes
        coeffs = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        kern = WickKernel(p=2, q=1, species=(1, 2, 1), coeffs=coeffs)
        op = wick_operator(basis3, kern)
        assert op.matrix[0, 0] == 0.0

    def test_adjoint_is_structural(self, basis3, rng):
        m = basis3.n_modes
        coeffs = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        kern = WickKernel(p=1, q=2, species=(2, 1, 1), coeffs=coeffs)
        left = wick_operator(basis3, kern).matrix.getH().tocsr()
        right = wick_operator(basis3, kern.adjoint()).matrix
        diff = left - right
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_only_symmetric_part_contributes(self, basis3, rng):
        m = basis3.n_modes
        coeffs = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        kern = WickKernel(p=2, q=0, species=(1, 1), coeffs=coeffs)
        sym = symmetrized(kern)
        a = wick_operator(basis3, kern).matrix
        b = wick_operator(basis3, sym).matrix
        assert np.max(np.abs((a - b).toarray())) < 1e-14

    @given(
        p=st.integers(0, 2),
        q=st.integers(0, 2),
        labels=st.lists(st.sampled_from([1, 2]), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_ladder_oracle(self, basis3, p, q, labels, seed):
        r = np.random.default_rng(seed)
        shape = (basis3.n_modes,) * (p + q)
        coeffs = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        kern = symmetrized(WickKernel(p=p, q=q, species=tuple(labels[: p + q]), coeffs=coeffs))
        diff = wick_operator(basis3, kern).dense() - dense_wick(basis3, kern)
        assert np.max(np.abs(diff)) <= 1e-14

    @given(
        pq=st.sampled_from([(3, 1), (1, 3), (2, 2), (3, 0)]),
        labels=st.tuples(st.sampled_from([1, 2]), st.sampled_from([1, 2])),
        repeated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_unsymmetrized_runs_match_dense_ladder_oracle(self, basis3, pq, labels, repeated, seed):
        # each side is one run of equal labels, of length 2 or 3; with
        # `repeated` the kernel lives on c[i, ..., i, j, ..., j], the tuples
        # whose orderings coincide
        p, q = pq
        r = np.random.default_rng(seed)
        shape = (basis3.n_modes,) * (p + q)
        coeffs = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        if repeated:
            idx = np.indices(shape)
            same = np.all(idx[:p] == idx[0], axis=0) & np.all(idx[p:] == idx[-1], axis=0)
            coeffs = np.where(same, coeffs, 0)
        kern = WickKernel(p=p, q=q, species=(labels[0],) * p + (labels[1],) * q, coeffs=coeffs)
        diff = wick_operator(basis3, kern).dense() - dense_wick(basis3, kern)
        assert np.max(np.abs(diff)) <= 1e-14

    @pytest.mark.parametrize("p, species", [(2, (1, 1, 2, 2)), (2, (2, 2, 1, 1)), (3, (2, 2, 2, 1))])
    def test_adjoint_is_structural_with_runs(self, basis3, p, species):
        # unsymmetrized, so each folded coefficient is a sum of distinct entries;
        # its own generator leaves the shared `rng` fixture's draws to later tests
        rng = np.random.default_rng(11)
        shape = (basis3.n_modes,) * 4
        kern = WickKernel(p=p, q=4 - p, species=species,
                          coeffs=rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        left = wick_operator(basis3, kern).matrix.getH().tocsr()
        right = wick_operator(basis3, kern.adjoint()).matrix
        diff = left - right
        assert right.nnz and (diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0)

    def test_hermitian_rule_equals_all_splits(self, basis3, rng):
        # a kernel list closed under adjoints: (2,1) with its (1,2), a
        # Hermitian (1,1), and (2,0) with its (0,2)
        m = basis3.n_modes
        c3 = rng.standard_normal((m, m, m)) + 1j * rng.standard_normal((m, m, m))
        c2 = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        k21 = WickKernel(p=2, q=1, species=(1, 2, 1), coeffs=c3)
        k11 = WickKernel(p=1, q=1, species=(2, 2), coeffs=c2 + c2.conj().T)
        k20 = symmetrized(WickKernel(p=2, q=0, species=(1, 1), coeffs=c2))
        kernels = [k21, k21.adjoint(), k11, k20, k20.adjoint()]
        op = hermitian_operator(basis3, kernels)
        full = sum(wick_operator(basis3, k).matrix for k in kernels)
        assert op.hermitian
        assert np.max(np.abs((op.matrix - full).toarray())) <= 1e-14
        dense = op.dense()
        assert np.array_equal(dense, dense.conj().T)

    @given(
        labels=st.lists(
            st.sampled_from([((1, 1), (2, 2)), ((1, 2), (1, 2)), ((2,), (2,)), ((1, 2), (1,)), ((1, 1), ())]),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_stream_rule_matches_dense_oracle(self, labels, seed):
        # random adjoint-closed lists: each kernel with its adjoint, among them
        # balanced ones whose adjoint has other labels, (1,1|2,2) with (2,2|1,1)
        basis = enumerate_basis(build_lattice(1, 1.5, 1.0), 2)
        r = np.random.default_rng(seed)
        kernels = []
        for cre, ann in labels:
            shape = (basis.n_modes,) * (len(cre) + len(ann))
            kern = WickKernel(p=len(cre), q=len(ann), species=cre + ann,
                              coeffs=r.standard_normal(shape) + 1j * r.standard_normal(shape))
            kernels += [kern, kern.adjoint()]
        dense = hermitian_operator(basis, kernels).dense()
        assert np.max(np.abs(dense - sum(dense_wick(basis, k) for k in kernels))) <= 1e-14
        assert np.array_equal(dense, dense.conj().T)

    @given(
        labels=st.lists(
            st.sampled_from([((1, 1), (2, 2)), ((1, 2), (1, 2)), ((2,), (2,)), ((1, 2), (1,)), ((1, 1), ())]),
            min_size=2, max_size=4,
        ),
        split=st.integers(1, 3),
        weight=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_weighted_parts_equal_the_weighted_sum(self, labels, split, weight, seed):
        # one stream of A (weight 1) and B (weight w) against H(A) + w H(B), two streams
        basis = enumerate_basis(build_lattice(1, 1.5, 1.0), 2)
        r = np.random.default_rng(seed)
        pairs = []
        for cre, ann in labels:
            shape = (basis.n_modes,) * (len(cre) + len(ann))
            kern = WickKernel(p=len(cre), q=len(ann), species=cre + ann,
                              coeffs=r.standard_normal(shape) + 1j * r.standard_normal(shape))
            pairs.append([kern, kern.adjoint()])
        split = min(split, len(pairs) - 1)
        a = [k for pair in pairs[:split] for k in pair]
        b = [k for pair in pairs[split:] for k in pair]
        h = HermitianOperator(basis, *hermitian_parts(basis, [(1.0, k) for k in a] + [(weight, k) for k in b])).dense()
        ref = (hermitian_operator(basis, a).matrix + weight * hermitian_operator(basis, b).matrix).toarray()
        assert np.max(np.abs(h - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))
        assert np.array_equal(h, h.conj().T)

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_triangle_stream_is_exact(self, data, seed):
        # the stream skips creator slots below the lowest annihilated one and keeps
        # row <= col; every entry of the full conversion must still come, bitwise
        basis = enumerate_basis(build_lattice(1, 1, 1.0), 3)

        def side(legs):  # runs of 1-3 adjacent legs, each with one label
            labels = []
            while len(labels) < legs:
                run = data.draw(st.integers(1, min(3, legs - len(labels))))
                labels += [data.draw(st.sampled_from([1, 2, None]))] * run
            return tuple(labels)

        q = data.draw(st.integers(0, 3))
        p = q if q == 3 or data.draw(st.booleans()) else data.draw(st.integers(q + 1, 3))
        species = side(p) + side(q)
        r = np.random.default_rng(seed)
        shape = tuple(basis.n_slots if s is None else basis.n_modes for s in species)
        coeffs = r.standard_normal(shape) + 1j * r.standard_normal(shape) * data.draw(st.booleans())
        coeffs = coeffs * (r.random(shape) < data.draw(st.sampled_from([0.3, 1.0])))
        kern = WickKernel(p=p, q=q, species=species, coeffs=coeffs)
        key, val = (np.concatenate(part) for part in zip(*fock._triangle_ranges(basis, kern)))
        order = np.argsort(key)
        ref_key, ref_val = triangle_entries(basis, kern)
        assert np.array_equal(key[order], ref_key)
        assert val.dtype == ref_val.dtype and val[order].tobytes() == ref_val.tobytes()

    def test_single_term_weighted_entries_add_bitwise(self, basis3, lat3, gauss_v, gauss_g):
        # a phi_1 phi_2 monomial shares entries with the species mixer of Q; the
        # charge kernels reach each entry in one term, so lam Q adds exactly as in H(A) + lam Q
        spec = interaction_spec([(2, 0, 0.4), (0, 2, 0.4), (1, 1, 0.1)], gauss_g)
        a = [gauge_kernel(k) for k in interaction_kernels(spec, lat3)]
        b = [gauge_kernel(k) for k in charge_kernels(gauss_v, lat3)]
        lam = 0.15
        h = HermitianOperator(basis3, *hermitian_parts(basis3, [(1.0, k) for k in a] + [(lam, k) for k in b])).matrix
        ha, q = hermitian_operator(basis3, a).matrix, hermitian_operator(basis3, b).matrix
        assert ha.multiply(q).nnz  # entries that both reach
        ref = (ha + lam * q).tocsr()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(h, attr), getattr(ref, attr))

    def test_balanced_kernels_must_be_closed_under_adjoints(self, basis3):
        r = np.random.default_rng(5)
        shape = (basis3.n_modes,) * 4
        coeffs = r.standard_normal(shape) + 1j * r.standard_normal(shape)
        kern = WickKernel(p=2, q=2, species=(1, 1, 2, 2), coeffs=coeffs)
        assert hermitian_operator(basis3, [kern, kern.adjoint()]).hermitian
        with pytest.raises(ContractError):
            hermitian_operator(basis3, [kern])
        # its own labels are self-adjoint, but the tensor is not Hermitian
        with pytest.raises(ContractError):
            hermitian_operator(basis3, [WickKernel(p=2, q=2, species=(1, 2, 1, 2), coeffs=kern.coeffs)])

    def test_kernel_shape_validation(self, basis3):
        with pytest.raises(ShapeError):
            wick_operator(basis3, WickKernel(p=1, q=0, species=(1,), coeffs=np.zeros(5, dtype=complex)))


class TestStreamAndMirror:
    """The column-synchronous stream against the global sort it replaces, bitwise,
    and the operator of its (T, d) against H summed from them (`oracles`): its
    matrix bitwise, its products to 1e-14 relative and bitwise for any worker count."""

    @staticmethod
    def _assert_bitwise(a, b):
        assert a.format == b.format and a.shape == b.shape
        for attr in ("indptr", "indices", "data"):
            x, y = getattr(a, attr), getattr(b, attr)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), attr

    def _check(self, basis, terms, diagonal=None):
        t, d = hermitian_parts(basis, terms)
        ref_t, ref_d = sorted_hermitian_parts(basis, terms)
        self._assert_bitwise(t, ref_t)
        assert d.tobytes() == ref_d.tobytes()
        d = d if diagonal is None else diagonal
        h, ref = HermitianOperator(basis, t, d), summed_mirror(t, d)
        self._assert_bitwise(h.matrix, ref)
        with pytest.MonkeyPatch.context() as mp:  # the rule's second worker, at any nnz, on two CPUs
            mp.setattr(linalg, "TWO_WORKER_NNZ", 0)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            two = linalg.HermitianTriangle(t, d)
        assert (h.operator.workers, two.workers) == (1, 2)
        r = np.random.default_rng(7)
        x = r.standard_normal((basis.dim, 3))
        for x in (x, x + 1j * r.standard_normal(x.shape)):
            for v in (x[:, 0], x):  # matvec, matmat
                y = h.operator @ v
                assert np.linalg.norm(y - ref @ v) <= 1e-14 * np.linalg.norm(ref @ v)
                assert y.dtype == np.result_type(ref.dtype, v.dtype) and y.tobytes() == (two @ v).tobytes()
        return t, d

    @staticmethod
    def _gauged_terms(spec, pot, lam, lattice):
        # every kernel, the ones the stream skips included
        return ([(1.0, gauge_kernel(k)) for k in interaction_kernels(spec, lattice)]
                + [(lam, gauge_kernel(k)) for k in charge_kernels(pot, lattice)])

    def test_probe_cubic_kernels(self):
        cfg = load_config(CONFIGS / "probe.json")
        basis = cli._basis(cfg, cfg.base_lattice())
        spec = interaction_spec(cfg.polynomial.coeffs, cfg.make_cutoff())
        terms = self._gauged_terms(spec, cfg.make_potential(), cfg.coupling.lam, basis.lattice)
        assert {(k.p, k.q) for _, k in terms if fock.streamed(basis, k)} >= {(3, 0), (2, 1), (3, 1), (2, 2)}
        t, _ = self._check(basis, terms)
        assert t.dtype == np.float64

    def test_complex_mixed_monomial(self, basis3, lat3, gauss_v, gauss_g):
        spec = interaction_spec([(2, 0, 0.4), (0, 2, 0.4), (1, 1, 0.1)], gauss_g)
        t, d = self._check(basis3, self._gauged_terms(spec, gauss_v, 0.15, lat3))
        assert t.dtype == complex and np.any(t.data.real == 0) and d[0] == 0.0

    def test_free_case(self, basis3, lat3, free_spec):
        terms = self._gauged_terms(free_spec, zero_potential(), 0.0, lat3)
        t, d = self._check(basis3, terms, diagonal=free_energies(basis3))
        assert t.nnz == 0 and d[0] == 0.0

    def test_empty_triangle_dim_one_and_zeros_on_the_diagonal(self, lat3, basis3):
        self._check(enumerate_basis(lat3, 0), [])
        d = free_energies(basis3)
        d[1::3] = 0.0
        d[2::3] = -0.0
        self._check(basis3, [], diagonal=d)
        r = np.random.default_rng(11)
        shape = (basis3.n_modes,) * 2
        kern = WickKernel(p=2, q=0, species=(1, 2), coeffs=r.standard_normal(shape) + 1j * r.standard_normal(shape))
        self._check(basis3, [(0.5, kern)], diagonal=d)


class TestFieldOperator:
    # the Segal field (a*(f) + a(f)) / sqrt(2) is the Hermitian sum of the creator kernel f / sqrt(2)
    def test_vacuum_one_point_function_zero(self, basis3, rng):
        f = rng.standard_normal(basis3.n_modes) + 1j * rng.standard_normal(basis3.n_modes)
        phi = hermitian_operator(basis3, [WickKernel(p=1, q=0, species=(1,), coeffs=f / np.sqrt(2.0))])
        assert phi.matrix[0, 0] == 0.0

    def test_vacuum_two_point_function(self, basis3, rng):
        f = rng.standard_normal(basis3.n_modes) + 1j * rng.standard_normal(basis3.n_modes)
        phi = hermitian_operator(basis3, [WickKernel(p=1, q=0, species=(2,), coeffs=f / np.sqrt(2.0))]).matrix
        assert (phi @ phi)[0, 0] == pytest.approx(np.linalg.norm(f) ** 2 / 2)

    def test_species_commute_on_safe_sector(self, basis3, rng):
        f = rng.standard_normal(basis3.n_modes) + 1j * rng.standard_normal(basis3.n_modes)
        g = rng.standard_normal(basis3.n_modes) + 1j * rng.standard_normal(basis3.n_modes)
        phi1 = hermitian_operator(basis3, [WickKernel(p=1, q=0, species=(1,), coeffs=f / np.sqrt(2.0))]).matrix
        phi2 = hermitian_operator(basis3, [WickKernel(p=1, q=0, species=(2,), coeffs=g / np.sqrt(2.0))]).matrix
        comm = (phi1 @ phi2 - phi2 @ phi1).toarray()
        safe = safe_columns(basis3, 2)
        assert np.max(np.abs(comm[:, safe])) < 1e-13

    def test_hermitian_structurally(self, basis3, rng):
        f = rng.standard_normal(2 * basis3.n_modes) + 1j * rng.standard_normal(2 * basis3.n_modes)
        phi = hermitian_operator(basis3, [WickKernel(p=1, q=0, species=(None,), coeffs=f / np.sqrt(2.0))])
        assert (phi.matrix - phi.matrix.getH()).nnz == 0

    def test_smeared_coefficients_weights(self, lat9):
        from chargedphi2.potentials import gaussian_potential

        g = gaussian_potential(1.0, 1.0)
        f = smeared_field_coefficients(g.V_hat, lat9)
        expected = g.V_hat(lat9.modes) / np.sqrt(2 * np.pi * 2.0 * lat9.dispersion())
        assert np.allclose(f, expected, atol=0)


class TestNtau:
    def test_unit_vector_flat_weight(self, basis3):
        f = np.zeros(basis3.n_slots, dtype=complex)
        f[2] = 1.0
        lhs, rhs = ntau_check(basis3, f, np.ones(basis3.n_slots))
        assert rhs == pytest.approx(1.0)
        assert lhs <= rhs + 1e-12

    def test_dispersion_weight_oracle(self, basis3, rng):
        eps = basis3.lattice.dispersion()
        b = np.concatenate([eps, eps])
        f = rng.standard_normal(basis3.n_slots) + 1j * rng.standard_normal(basis3.n_slots)
        lhs, rhs = ntau_check(basis3, f, b)
        assert rhs == pytest.approx(np.linalg.norm(f / np.sqrt(b)))
        assert lhs <= rhs + 1e-12

    def test_zero_vector(self, basis3):
        lhs, rhs = ntau_check(basis3, np.zeros(basis3.n_slots), np.ones(basis3.n_slots))
        assert (lhs, rhs) == (0.0, 0.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_bound_holds_randomized(self, seed):
        lat = build_lattice(1, 1, 1.0)
        basis = enumerate_basis(lat, 2)
        r = np.random.default_rng(seed)
        f = r.standard_normal(basis.n_slots) + 1j * r.standard_normal(basis.n_slots)
        b = r.uniform(0.2, 3.0, basis.n_slots)
        lhs, rhs = ntau_check(basis, f, b)
        assert lhs <= rhs + 1e-12

    def test_positive_weights_required(self, basis3):
        with pytest.raises(ParameterError):
            ntau_check(basis3, np.zeros(basis3.n_slots), np.zeros(basis3.n_slots))


@pytest.fixture(scope="module")
def setup():
    ladder = refinement_ladder(1, 1.5, 1.0, 2)
    pair = build_nested(ladder[0], ladder[1])
    coarse = enumerate_basis(ladder[0], 2)
    fine = enumerate_basis(ladder[1], 2)
    return pair, coarse, fine


class TestEmbedding:
    def test_isometry(self, setup):
        pair, coarse, fine = setup
        emb = fock_embedding(coarse, fine)
        gram = (emb.T @ emb - sp.identity(coarse.dim)).toarray()
        assert np.max(np.abs(gram)) == 0.0

    def test_occupation_transport(self, setup):
        pair, coarse, fine = setup
        emb = fock_embedding(coarse, fine)
        state = [0] * coarse.n_slots
        state[1] = 2  # species 1, second coarse mode
        col = emb.getcol(coarse.rank([state])[0])
        target_row = col.nonzero()[0][0]
        fine_state = fine.occ[target_row]
        slot = pair.mode_injection[1]
        assert fine_state[slot] == 2 and sum(fine_state) == 2

    def test_cap_mismatch_rejected(self, setup):
        pair, coarse, _ = setup
        fine1 = enumerate_basis(pair.fine, 1)
        with pytest.raises(ParameterError):
            fock_embedding(coarse, fine1)

    def test_non_nested_bases_rejected(self, setup):
        # v = 1, kappa = 2.5 leaves its top cell uncovered by the v = 2 level
        _, coarse, fine = setup
        other = enumerate_basis(build_lattice(1, 2.5, 1.0), 2)
        for a, b in ((other, fine), (fine, coarse)):
            with pytest.raises(ParameterError):
                fock_embedding(a, b)

    def test_annihilator_shape_check(self, basis3):
        with pytest.raises(ShapeError):
            annihilator_of(basis3, np.ones(3))
