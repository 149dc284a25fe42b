import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chargedphi2 import cli, spectral
from chargedphi2.config import load_config
from chargedphi2.errors import ParameterError, ResourceLimitError
from chargedphi2.fock import enumerate_basis, fock_embedding
from chargedphi2.hamiltonian import assemble, interaction_spec
from chargedphi2.lattice import build_lattice
from chargedphi2.linalg import HermitianTriangle, operator_norm, reflected_eigvalsh, shifted_solver, start_vector
from chargedphi2.potentials import gaussian_potential, zero_potential
from chargedphi2.spectral import (
    _resolvent_difference,
    ground_state,
    heisenberg_probe,
    higher_order_norm,
    hvz_gap_probe,
    low_lying,
    recurrence_time,
    resolvent_convergence,
)
from oracles import creation, creation_frame, dense_probe, dense_resolvent_gap, raise_table_frame


def shifted(op, c):
    return HermitianTriangle(op.t, op.d + c)


class TestGroundState:
    def test_free_ground_is_vacuum(self, free_ladder_bundles):
        bundle = free_ladder_bundles[0]
        e0, psi = ground_state(bundle.h)
        assert e0 == 0.0
        assert abs(psi[0]) == pytest.approx(1.0)

    def test_constant_shift(self, free_ladder_bundles):
        bundle = free_ladder_bundles[0]
        e0, psi = ground_state(shifted(bundle.h, 2.5))  # the free bundle's H is H0
        assert e0 == 2.5
        assert abs(psi[0]) == pytest.approx(1.0)

    def test_residual_contract_on_desk_bundle(self, desk_bundle):
        e0, psi = ground_state(desk_bundle.h)
        res = np.linalg.norm(desk_bundle.h.matrix @ psi - e0 * psi)
        assert res <= 1e-8 * max(1.0, abs(e0))

    def test_variational_monotonicity_in_cap(self, lat3, gauss_v, quartic_spec):
        e0s = []
        for n_max in (2, 3, 4):
            basis = enumerate_basis(lat3, n_max)
            bundle = assemble(quartic_spec, gauss_v, 0.2, basis)
            e0s.append(ground_state(bundle.h)[0])
        assert e0s[1] <= e0s[0] + 1e-12
        assert e0s[2] <= e0s[1] + 1e-12

    def test_vacuum_overlap_nonzero_weak_coupling(self, desk_bundle):
        _, psi = ground_state(desk_bundle.h)
        assert abs(psi[0]) > 0.9


class TestLowLying:
    def test_sparse_path_matches_dense(self, desk_bundle, monkeypatch):
        import chargedphi2.linalg as linalg

        monkeypatch.setattr(linalg, "DENSE_RATIO", 10**6)
        w_dense, _ = low_lying(desk_bundle.h, 4)
        monkeypatch.setattr(linalg, "DENSE_RATIO", 0)
        w_sparse, _ = low_lying(desk_bundle.h, 4)
        assert np.allclose(w_sparse, w_dense, atol=1e-8)

    def test_gap_nonnegative(self, ladder_bundles):
        for bundle in ladder_bundles:
            w, _ = low_lying(bundle.h, 2)
            assert w[1] - w[0] >= 0

    def test_free_gap_is_mass(self, free_ladder_bundles):
        bundle = free_ladder_bundles[0]
        w, _ = low_lying(bundle.h, 2)
        assert w[1] - w[0] == bundle.lattice.m


def full_depth_reference(bundle, report_depth=8, overlap_threshold=0.5):
    """Levels, overlaps and onset index from one search at the full depth.

    The frame is an SVD basis of span{a*_s psi0}, not the probe's QR frame.
    """
    basis = bundle.basis
    k_full = min(basis.dim, max(report_depth + 1, 2 * basis.n_slots + 2))
    w, vecs = low_lying(bundle.h, k_full)
    cols = [creation(basis, s, g).matrix @ vecs[:, 0] for s in (1, 2) for g in bundle.lattice.modes]
    frame = sla.orth(np.column_stack(cols))
    overlaps = np.linalg.norm(frame.conj().T @ vecs, axis=0) ** 2
    overlaps[0] = 0.0
    passed = np.flatnonzero(overlaps[1:] >= overlap_threshold)
    return w, overlaps, (int(passed[0]) + 1 if passed.size else None)


@pytest.fixture(scope="module")
def m17_bundle():
    cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "m17_spectrum.json")
    return cli._single_level_bundle(cfg)


@pytest.fixture(scope="module")
def free_bundle(free_ladder_bundles):
    return free_ladder_bundles[0]


@pytest.fixture(scope="module")
def dim1_bundle(lat3, gauss_v, quartic_spec):
    return assemble(quartic_spec, gauss_v, 0.2, enumerate_basis(lat3, 0))


@pytest.fixture
def low_lying_calls(monkeypatch):
    """The k of every `low_lying` call the probe makes."""
    calls = []

    def record(op, k):
        calls.append(k)
        return low_lying(op, k)

    monkeypatch.setattr(spectral, "low_lying", record)
    return calls


class TestHvzProbe:
    @pytest.mark.parametrize(
        "name, level",
        [("desk_bundle", None), ("ladder_bundles", 0), ("ladder_bundles", 1), ("ladder_bundles", 2)],
    )
    def test_matches_full_depth_reference(self, request, name, level):
        bundle = request.getfixturevalue(name)
        bundle = bundle if level is None else bundle[level]
        rep = hvz_gap_probe(bundle)
        w, overlaps, onset = full_depth_reference(bundle)
        depth = len(rep.eigenvalues)
        assert depth == 9
        np.testing.assert_allclose(rep.eigenvalues, w[:depth], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.onset_overlaps, overlaps[:depth], rtol=0, atol=1e-12)
        assert rep.e0 == rep.eigenvalues[0] and rep.gap == rep.eigenvalues[1] - rep.eigenvalues[0]
        assert onset == np.flatnonzero(rep.onset_overlaps[1:] >= 0.5)[0] + 1
        assert rep.hvz_onset_estimate == pytest.approx(w[onset], abs=1e-12)

    @pytest.mark.parametrize(
        "name, level",
        [("desk_bundle", None), ("ladder_bundles", 0), ("ladder_bundles", 1), ("ladder_bundles", 2)],
    )
    def test_frame_equals_the_creation_matrices_frame(self, request, name, level):
        # one raise table gives every a*_s psi0 bitwise as the 2M creation matrices do
        bundle = request.getfixturevalue(name)
        bundle = bundle if level is None else bundle[level]
        psi0 = ground_state(bundle.h)[1]
        frame = raise_table_frame(bundle, psi0)
        assert frame.shape == (bundle.basis.dim, bundle.basis.n_slots)
        assert frame.tobytes() == creation_frame(bundle, psi0).tobytes()

    @pytest.mark.parametrize("name", ["desk_bundle", "probe_m9_bundle", "m17_bundle", "free_bundle", "dim1_bundle"])
    def test_gram_overlaps_match_the_qr_frame(self, request, name, low_lying_calls):
        # c^H G^+ c from the Gram matrix of the raise map equals |Q^H v|^2 for the
        # QR frame Q of the raised ground state, on the levels the probe reports
        bundle = request.getfixturevalue(name)
        rep = hvz_gap_probe(bundle)
        w, vecs = low_lying(bundle.h, low_lying_calls[-1])
        frame = raise_table_frame(bundle, vecs[:, 0])
        expected = np.linalg.norm(frame.conj().T @ vecs, axis=0) ** 2
        expected[0] = 0.0
        np.testing.assert_allclose(rep.onset_overlaps, expected[: len(rep.eigenvalues)], rtol=0, atol=1e-12)
        assert rep.hvz_onset_estimate is None or rep.hvz_onset_estimate == w[np.flatnonzero(expected >= 0.5)[0]]

    def test_onset_past_report_depth_widens_search(self, desk_bundle, low_lying_calls):
        # level 1 has overlap 0.99888, level 2 0.99963: the onset is past depth 1
        rep = hvz_gap_probe(desk_bundle, report_depth=1, overlap_threshold=0.9995)
        assert low_lying_calls == [2, 2 * desk_bundle.basis.n_slots + 2] == [2, 38]
        w, overlaps, onset = full_depth_reference(desk_bundle, 1, 0.9995)
        assert onset == 2
        assert rep.hvz_onset_estimate == pytest.approx(w[2], abs=1e-12)
        assert len(rep.eigenvalues) == 2
        np.testing.assert_allclose(rep.eigenvalues, w[:2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.onset_overlaps, overlaps[:2], rtol=0, atol=1e-12)

    def test_search_asks_only_for_reported_levels(self, desk_bundle, ladder_bundles, low_lying_calls):
        for bundle in (desk_bundle, *ladder_bundles):
            hvz_gap_probe(bundle)
        assert low_lying_calls == [9, 9, 9, 9]

    def test_no_onset_searches_full_depth_and_reports_none(self, desk_bundle, low_lying_calls):
        rep = hvz_gap_probe(desk_bundle, report_depth=1, overlap_threshold=1.5)
        assert rep.hvz_onset_estimate is None
        assert low_lying_calls == [2, 38]
        assert len(rep.eigenvalues) == 2

    def test_free_onset_exact(self, free_ladder_bundles):
        rep = hvz_gap_probe(free_ladder_bundles[0])
        assert rep.e0 == 0.0
        assert rep.hvz_onset_estimate == free_ladder_bundles[0].lattice.m

    def test_weak_coupling_onset_near_mass_gap(self, ladder_bundles):
        bundle = ladder_bundles[-1]
        rep = hvz_gap_probe(bundle)
        assert rep.hvz_onset_estimate is not None
        assert abs(rep.hvz_onset_estimate - (rep.e0 + bundle.lattice.m)) < 0.05

    def test_uncharged_weak_polynomial_onset(self, lat9):
        # lambda = 0, weak polynomial: onset within the finite-size tolerance
        spec = interaction_spec([(2, 0, 0.2), (0, 2, 0.2)], gaussian_potential(0.2, 1.0))
        bundle = assemble(spec, zero_potential(), 0.0, enumerate_basis(lat9, 2))
        rep = hvz_gap_probe(bundle)
        tau = 0.05
        assert rep.e0 + lat9.m - tau <= rep.hvz_onset_estimate <= rep.e0 + lat9.m + tau

    def test_mismatch_shrinks_under_refinement(self, ladder_bundles):
        mismatches = []
        for bundle in ladder_bundles:
            rep = hvz_gap_probe(bundle)
            mismatches.append(abs(rep.hvz_onset_estimate - (rep.e0 + bundle.lattice.m)))
        assert mismatches[0] > mismatches[1] > mismatches[2]

    def test_report_depth_truncates_output(self, free_ladder_bundles):
        rep = hvz_gap_probe(free_ladder_bundles[0], report_depth=1)
        assert len(rep.eigenvalues) == 2

    def test_as_dict_serializes(self, free_ladder_bundles):
        d = hvz_gap_probe(free_ladder_bundles[0]).as_dict()
        assert {"e0", "eigenvalues", "gap", "hvz_onset_estimate"} <= set(d)


class TestResolventConvergence:
    def test_identical_lattices_give_zero(self, lat9, gauss_v, quartic_spec):
        basis = enumerate_basis(lat9, 2)
        bundle = assemble(quartic_spec, gauss_v, 0.1, basis)
        trace = resolvent_convergence([bundle, bundle])
        assert trace.resolvent_gaps[0] == 0.0

    def test_free_case_exact_zero(self, free_ladder_bundles):
        trace = resolvent_convergence(free_ladder_bundles)
        assert trace.resolvent_gaps == (0.0, 0.0)

    def test_gaps_match_dense_oracle(self, ladder_bundles):
        # the first pair takes the dense SVD path, the second Lanczos
        trace = resolvent_convergence(ladder_bundles)
        for coarse, fine, gap in zip(ladder_bundles, ladder_bundles[1:], trace.resolvent_gaps):
            emb = fock_embedding(coarse.basis, fine.basis)
            assert gap == pytest.approx(dense_resolvent_gap(coarse, fine, emb, trace.beta), rel=1e-10)

    def test_free_difference_vanishes_before_arpack(self, free_ladder_bundles):
        # ARPACK refuses the zero operator, so the norm must return 0.0 first
        coarse, fine = free_ladder_bundles[1:]
        diff = _resolvent_difference(coarse, fine, *(shifted_solver(b.h, 1.0) for b in (coarse, fine)))
        with pytest.raises(spla.ArpackError, match="Starting vector is zero"):
            spla.eigsh(diff.H @ diff, k=1, which="LM", v0=start_vector(coarse.basis.dim))
        assert operator_norm(diff) == 0.0

    def test_interacting_gaps_strictly_decrease(self, ladder_bundles):
        trace = resolvent_convergence(ladder_bundles)
        assert trace.resolvent_gaps[0] > trace.resolvent_gaps[1] > 0

    def test_shift_policy(self, ladder_bundles):
        beta = resolvent_convergence(ladder_bundles).beta
        e0, _ = ground_state(ladder_bundles[0].h)
        assert beta == pytest.approx(1.0 + abs(e0))

    def test_rejects_shift_below_spectrum(self, ladder_bundles):
        with pytest.raises(ParameterError):
            resolvent_convergence(ladder_bundles, beta=-10.0)

    def test_needs_two_levels(self, ladder_bundles):
        with pytest.raises(ParameterError):
            resolvent_convergence(ladder_bundles[:1])


class TestHigherOrderNorm:
    def test_uniform_across_levels(self, ladder_bundles):
        trace = resolvent_convergence(ladder_bundles)
        norms = trace.number_resolvent_norms
        assert max(norms) / min(norms) <= 1.1

    def test_free_value_explicit(self, free_ladder_bundles):
        # for H0 and beta: max over states of n / (sum eps + beta) at m = 1 is
        # n_max / (n_max m + beta)
        bundle = free_ladder_bundles[0]
        val = higher_order_norm(bundle, shifted_solver(bundle.h, 1.0))
        n_max = bundle.basis.n_max
        assert val == pytest.approx(n_max / (n_max * 1.0 + 1.0), rel=1e-10)


class TestRecurrence:
    def test_min_gap_rule(self):
        assert recurrence_time(np.array([0.0, 0.25, 1.0])) == pytest.approx(2 * np.pi / 0.25)

    def test_degenerate_spectrum(self):
        assert math.isinf(recurrence_time(np.array([1.0, 1.0, 1.0])))


@pytest.fixture(scope="module")
def free_bundle():
    lat = build_lattice(2, 2.0, 1.0)
    spec = interaction_spec([(4, 0, 1.0), (0, 4, 1.0)], zero_potential())
    return assemble(spec, zero_potential(), 0.0, enumerate_basis(lat, 2))


class TestHeisenbergProbe:
    def test_free_case_time_independent(self, free_bundle, rng):
        psi = rng.standard_normal(free_bundle.basis.dim) + 1j * rng.standard_normal(free_bundle.basis.dim)
        psi /= np.linalg.norm(psi)
        modes = free_bundle.lattice.modes
        f = np.exp(-((modes - 1.0) ** 2))
        full = np.concatenate([f, np.zeros_like(f)]).astype(complex)
        res = heisenberg_probe(free_bundle, full, [0.0, 4.0, 8.0, 16.0, 32.0], psi)
        vals = np.array(res.values)
        assert np.max(np.abs(vals - vals[0])) < 1e-10

    def test_time_zero_matches_static_expectation(self, desk_bundle):
        from chargedphi2.fock import WickKernel, hermitian_operator

        modes = desk_bundle.lattice.modes
        f = np.exp(-((modes - 0.5) ** 2))
        full = np.concatenate([f, np.zeros_like(f)]).astype(complex)
        e0, psi = ground_state(desk_bundle.h)
        res = heisenberg_probe(desk_bundle, full, [0.0], psi)
        # the Segal field (a*(F) + a(F)) / sqrt(2), built from its creator kernel
        kern = WickKernel(p=1, q=0, species=(None,), coeffs=full / np.sqrt(2.0))
        field = hermitian_operator(desk_bundle.basis, [kern])
        static = np.vdot(psi, field.matrix @ psi)
        assert res.values[0] == pytest.approx(static, abs=1e-12)

    def test_matches_eigh_evolution(self, desk_bundle, rng):
        modes = desk_bundle.lattice.modes
        f = np.exp(-((modes - 0.5) ** 2))
        full = np.concatenate([f, np.zeros_like(f)]).astype(complex)
        times = [4.0, 32.0]
        # a mixed state, so psi_t is more than a phase times psi
        psi = rng.standard_normal(desk_bundle.basis.dim) + 1j * rng.standard_normal(desk_bundle.basis.dim)
        psi /= np.linalg.norm(psi)
        res = heisenberg_probe(desk_bundle, full, times, psi)
        assert np.max(np.abs(np.array(res.values) - dense_probe(desk_bundle, full, times, psi))) < 1e-12

    def test_values_are_exactly_real(self, desk_bundle):
        # the expectation of a Hermitian field, read as 2 Re <psi_t, a(F_t / sqrt 2) psi_t>
        modes = desk_bundle.lattice.modes
        f = np.exp(-((modes - 0.5) ** 2))
        full = np.concatenate([f, 1j * f]).astype(complex)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(desk_bundle.basis.dim) + 1j * rng.standard_normal(desk_bundle.basis.dim)
        psi /= np.linalg.norm(psi)
        res = heisenberg_probe(desk_bundle, full, [0.0, 4.0], psi)
        assert res.as_dict()["values_im"] == [0.0, 0.0]

    def test_requires_normalized_state(self, free_bundle):
        full = np.ones(free_bundle.basis.n_slots, dtype=complex)
        twice_vacuum = np.zeros(free_bundle.basis.dim, dtype=complex)
        twice_vacuum[0] = 2.0
        with pytest.raises(ParameterError):
            heisenberg_probe(free_bundle, full, [1.0], twice_vacuum)

    def test_dimension_cap(self, free_bundle, monkeypatch):
        import chargedphi2.linalg as linalg

        monkeypatch.setattr(linalg, "DENSE_CEILING", 10)
        full = np.ones(free_bundle.basis.n_slots, dtype=complex)
        with pytest.raises(ResourceLimitError):
            heisenberg_probe(free_bundle, full, [1.0])

    def test_trusted_flags(self, free_bundle):
        full = np.ones(free_bundle.basis.n_slots, dtype=complex)
        res = heisenberg_probe(free_bundle, full, [1.0])
        assert res.trusted() == (res.times[0] < res.recurrence_time,)


def probe_vector(bundle):
    """The probe config's field: a Gaussian bump at 0.75 of width 0.3 on species 1."""
    f = np.exp(-((bundle.lattice.modes - 0.75) ** 2) / (2 * 0.3**2))
    return np.concatenate([f, np.zeros_like(f)]).astype(complex)


@pytest.fixture
def expm_calls(monkeypatch):
    calls = []
    expm = spectral.spla.expm_multiply
    monkeypatch.setattr(spectral.spla, "expm_multiply", lambda *a, **kw: calls.append(1) or expm(*a, **kw))
    return calls


class TestProbeShortcuts:
    @pytest.mark.parametrize("name", ["desk_bundle", "probe_m9_bundle"])
    def test_default_state_is_not_evolved(self, request, name, expm_calls):
        # the ground state only gains a phase, which cancels in the expectation;
        # desk's polynomial is even, so its values are rounding-level zeros (atol)
        bundle = request.getfixturevalue(name)
        full, times = probe_vector(bundle), [4.0, 8.0, 16.0, 32.0]
        res = heisenberg_probe(bundle, full, times)
        assert expm_calls == []
        ref = dense_probe(bundle, full, times, ground_state(bundle.h)[1]).real
        assert np.all(np.abs(np.array(res.values) - ref) <= 1e-9 * np.abs(ref) + 1e-14)
        # 2 pi over the smallest spacing g_min: a level moved by dw moves g_min by
        # up to 2 dw, so the split and the full eigvalsh may disagree by 2 dw / g_min
        full_spectrum = np.linalg.eigvalsh(bundle.h.matrix.toarray())
        ref_time = recurrence_time(full_spectrum)
        split = reflected_eigvalsh(bundle.h.matrix, bundle.basis.reflection)
        rounding = 2 * np.max(np.abs(split - full_spectrum)) * ref_time / (2 * np.pi)
        assert res.recurrence_time == pytest.approx(ref_time, rel=1e-6 + rounding)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_expands_no_wick_kernel(self, desk_bundle, monkeypatch, explicit):
        # the values are gathers through the raise table, on either path
        from chargedphi2 import fock

        def refuse(*args, **kwargs):
            raise AssertionError("the probe expanded a Wick kernel")

        psi = ground_state(desk_bundle.h)[1] if explicit else None
        monkeypatch.setattr(fock, "_wick_blocks", refuse)
        res = heisenberg_probe(desk_bundle, probe_vector(desk_bundle), [4.0, 8.0], psi)
        assert len(res.values) == 2

    def test_explicit_state_is_evolved(self, desk_bundle, expm_calls):
        psi = ground_state(desk_bundle.h)[1]
        heisenberg_probe(desk_bundle, probe_vector(desk_bundle), [4.0, 8.0], psi)
        assert len(expm_calls) == 2

    def test_dense_ceiling_bounds_the_larger_block(self, desk_bundle, monkeypatch):
        import chargedphi2.linalg as linalg

        even, odd = linalg.reflection_isometries(desk_bundle.basis.reflection)
        assert odd.shape[1] < even.shape[1] < desk_bundle.basis.dim
        monkeypatch.setattr(linalg, "DENSE_CEILING", even.shape[1])
        res = heisenberg_probe(desk_bundle, probe_vector(desk_bundle), [4.0])
        assert math.isfinite(res.recurrence_time)
        monkeypatch.setattr(linalg, "DENSE_CEILING", even.shape[1] - 1)
        with pytest.raises(ResourceLimitError):
            heisenberg_probe(desk_bundle, probe_vector(desk_bundle), [4.0])
