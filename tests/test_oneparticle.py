import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargedphi2 import linalg
from chargedphi2.errors import ParameterError
from chargedphi2.lattice import build_lattice
from chargedphi2.oneparticle import (
    b_matrix,
    hs_norm_squared,
    lambda_quant,
    omega_blocks,
    omega_bottom,
    operator_norm,
    pair_kernel,
    pair_kernel_bound,
    potential_matrix,
    weyl_grid,
    weyl_quantize,
)
from chargedphi2.potentials import (
    Potential,
    gaussian_potential,
    lorentzian_potential,
    zero_potential,
)
from oracles import lab_omega, sampled_potential, scaled, shifted_gaussian, weyl_quantize_loop

BUILTIN_POTENTIALS = [
    gaussian_potential(1.0, 1.0),
    gaussian_potential(0.3, 2.0),
    lorentzian_potential(1.0, 1.0),
    lorentzian_potential(0.4, 0.8),
]
LATTICES = [build_lattice(1, 2, 1.0), build_lattice(2, 4, 1.0), build_lattice(4, 6, 0.5)]

# Pinned at (v=8, kappa=32, m=1) for the unit gaussian; the finer-lattice
# oracle (v=16, kappa=64) agrees to 4.4e-3 relative.
GOLDEN_LAMBDA_QUANT = 0.874684249893669
GOLDEN_C0 = 0.691646840452940
GOLDEN_C1 = 0.451622859580604


class TestPotentialMatrix:
    def test_zero_potential(self, lat9):
        assert not np.any(potential_matrix(zero_potential(), lat9))

    def test_gaussian_diagonal_from_quadrature_oracle(self, lat9):
        # V_hat(0) recomputed as int V by quadrature, then weighted by 1/(2 pi v)
        pot = gaussian_potential(1.0, 1.0)
        x = np.linspace(-30, 30, 6001)
        vhat0 = np.trapezoid(pot.V(x), x)
        m = potential_matrix(pot, lat9)
        expected = vhat0 / (2 * np.pi * float(lat9.v))
        assert np.allclose(np.diag(m), expected, atol=1e-8)
        assert np.diag(m)[0] == pytest.approx(np.sqrt(2 * np.pi) / (2 * np.pi * 2))

    def test_sampled_potential_matrix_hermitian(self, lat9, rng):
        x = np.linspace(-16, 16, 512, endpoint=False)
        vals = rng.standard_normal(x.size)
        vals *= np.exp(-(x**2) / 32)
        pot = sampled_potential(x, vals)
        m = potential_matrix(pot, lat9)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(m)))

    @pytest.mark.parametrize("pot", BUILTIN_POTENTIALS)
    def test_hermitian_for_real_potentials(self, pot, lat9):
        m = potential_matrix(pot, lat9)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(m)))


class TestBMatrix:
    def test_zero_potential(self, lat9):
        assert not np.any(b_matrix(zero_potential(), lat9))

    def test_constant_potential_diagonal(self):
        # delta-like transform concentrated on the diagonal quadrature cell
        lat = build_lattice(2, 2, 1.0)
        v0 = 0.7
        halfcell = 1.0 / (2 * float(lat.v))

        def v_hat(k):
            k = np.asarray(k, dtype=float)
            return (2 * np.pi * v0 * float(lat.v) * (np.abs(k) < halfcell)).astype(complex)

        pot = Potential(label="const", V=lambda x: np.full_like(np.asarray(x, float), v0), V_hat=v_hat)
        b = b_matrix(pot, lat)
        assert np.allclose(np.diag(b), 1j * v0, atol=1e-14)
        assert np.max(np.abs(b - np.diag(np.diag(b)))) == 0.0

    @pytest.mark.parametrize("pot", BUILTIN_POTENTIALS)
    def test_anti_hermitian(self, pot, lat9):
        b = b_matrix(pot, lat9)
        assert np.max(np.abs(b + b.conj().T)) <= 1e-12 * max(1.0, float(np.max(np.abs(b))))


class TestPairKernel:
    def test_zero_potential(self, lat9):
        assert not np.any(pair_kernel(zero_potential(), lat9))

    def test_diagonal_vanishes(self, gauss_v, lat9):
        assert np.max(np.abs(np.diag(pair_kernel(gauss_v, lat9)))) == 0.0

    def test_antisymmetry_exact(self, gauss_v, lat9):
        r = pair_kernel(gauss_v, lat9)
        assert np.max(np.abs(r + r.T)) == 0.0

    @pytest.mark.parametrize("pot", BUILTIN_POTENTIALS)
    @pytest.mark.parametrize("lat", LATTICES)
    def test_entrywise_bound_zero_violations(self, pot, lat):
        r = pair_kernel(pot, lat)
        bound = pair_kernel_bound(pot, lat)
        assert int(np.sum(np.abs(r) > bound)) == 0

    def test_frobenius_dominated_by_bound_matrix(self, gauss_v, lat9):
        r = pair_kernel(gauss_v, lat9)
        assert np.linalg.norm(r) <= np.linalg.norm(pair_kernel_bound(gauss_v, lat9))


class TestLambdaQuant:
    def test_zero_potential_infinite(self, lat9):
        rep = lambda_quant(zero_potential(), lat9)
        assert rep.c0 == rep.c1 == 0.0
        assert math.isinf(rep.lambda_quant)
        assert math.isinf(rep.as_dict()["lambda_quant"])

    def test_golden_value_pinned(self):
        rep = lambda_quant(gaussian_potential(1.0, 1.0), build_lattice(8, 32.0, 1.0))
        assert rep.c0 == pytest.approx(GOLDEN_C0, abs=1e-12)
        assert rep.c1 == pytest.approx(GOLDEN_C1, abs=1e-12)
        assert rep.lambda_quant == pytest.approx(GOLDEN_LAMBDA_QUANT, abs=1e-12)

    @pytest.mark.slow
    def test_golden_against_finer_oracle(self):
        rep = lambda_quant(gaussian_potential(1.0, 1.0), build_lattice(16, 64.0, 1.0))
        assert abs(rep.lambda_quant - GOLDEN_LAMBDA_QUANT) <= 1e-2 * rep.lambda_quant

    @given(t=st.floats(0.05, 20.0))
    @settings(max_examples=20, deadline=None)
    def test_one_homogeneous_scaling(self, t):
        lat = build_lattice(1, 2, 1.0)
        base = lambda_quant(gaussian_potential(1.0, 1.0), lat)
        scaled_rep = lambda_quant(scaled(gaussian_potential(1.0, 1.0), t), lat)
        assert scaled_rep.lambda_quant == pytest.approx(base.lambda_quant / t, rel=1e-9)

    def test_c1_equals_twice_pair_kernel_frobenius(self, gauss_v, lat9):
        # the index flip gamma' -> -gamma' sends the pair kernel to the
        # weighted commutator, so c1 must equal 2 ||R||_F on a symmetric grid
        rep = lambda_quant(gauss_v, lat9)
        assert rep.c1 == pytest.approx(2 * np.linalg.norm(pair_kernel(gauss_v, lat9)), rel=1e-12)

    def test_invariant_formula(self, gauss_v, lat9):
        rep = lambda_quant(gauss_v, lat9)
        assert rep.lambda_quant == pytest.approx(1.0 / (rep.c0 + rep.c1 / lat9.m))

    def test_constants_cauchy_stabilize_along_ladder(self, gauss_v):
        # no monotonicity claim; the two finest nested levels agree to 1e-2
        from chargedphi2.lattice import refinement_ladder

        *_, prev, last = (lambda_quant(gauss_v, lat) for lat in refinement_ladder(1, 2.0, 1.0, 5))
        assert abs(last.c0 - prev.c0) <= 1e-2 * last.c0
        assert abs(last.c1 - prev.c1) <= 1e-2 * last.c1


class TestOmegaBlock:
    def test_free_block_spectrum(self, lat9):
        for block in omega_blocks(0.0, zero_potential(), lat9):
            assert np.array_equal(block, np.diag(lat9.dispersion()))
        assert omega_bottom(0.0, zero_potential(), lat9) == pytest.approx(lat9.m)

    def test_positive_below_threshold(self, gauss_v, lat9):
        lq = lambda_quant(gauss_v, lat9).lambda_quant
        assert omega_bottom(0.99 * lq, gauss_v, lat9) > 0

    def test_crossing_not_below_threshold(self, gauss_v, lat9):
        # bisect the first sign change of the bottom eigenvalue; the coupling
        # threshold is a one-sided bound for it
        lq = lambda_quant(gauss_v, lat9).lambda_quant
        lo, hi = lq, 50 * lq
        if omega_bottom(hi, gauss_v, lat9) > 0:
            pytest.skip("no crossing below 50x threshold")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if omega_bottom(mid, gauss_v, lat9) > 0:
                lo = mid
            else:
                hi = mid
        assert hi >= lq * (1 - 1e-9)

    def test_hermitian_assembly(self, gauss_v, lat9):
        # an even potential gives real blocks in the gauge frame
        for block in omega_blocks(0.3, gauss_v, lat9):
            assert block.shape == (lat9.size, lat9.size) and block.dtype == np.float64
            assert np.max(np.abs(block - block.T)) <= 1e-15

    def test_non_even_potential_gives_complex_hermitian_blocks(self, lat9):
        pot = shifted_gaussian(0.7)
        lam = 0.5 * lambda_quant(pot, lat9).lambda_quant
        plus, minus = omega_blocks(lam, pot, lat9)
        assert plus.dtype == np.complex128 and np.any(plus.imag)
        assert max(np.max(np.abs(b - b.conj().T)) for b in (plus, minus)) <= 1e-15
        assert np.array_equal(plus + minus, 2 * np.diag(lat9.dispersion()))

    @pytest.mark.parametrize("pot", [gaussian_potential(1.0, 1.0), lorentzian_potential(0.7, 1.3),
                                     shifted_gaussian(0.7)], ids=lambda p: p.label)
    def test_blocks_carry_the_full_spectrum(self, lat9, pot):
        # the 2M eigenvalues of the lab-frame omega are those of its two charge blocks
        lam = 0.5 * lambda_quant(pot, lat9).lambda_quant
        split = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in omega_blocks(lam, pot, lat9)]))
        assert np.max(np.abs(split - np.linalg.eigvalsh(lab_omega(lam, pot, lat9)))) <= 1e-12

    def test_non_even_bottom_stays_under_a_ceiling_of_m(self, lat9, monkeypatch):
        # the dense ceiling at M admits the M x M blocks, not a 2M x 2M omega
        pot = shifted_gaussian(0.7)
        lam = 0.5 * lambda_quant(pot, lat9).lambda_quant
        lab = np.linalg.eigvalsh(lab_omega(lam, pot, lat9))[0]
        monkeypatch.setattr(linalg, "DENSE_CEILING", lat9.size)
        assert omega_bottom(lam, pot, lat9) == pytest.approx(lab, abs=1e-12)


class TestWeyl:
    def test_zero_symbol(self):
        grid = weyl_grid(32, 8.0)
        assert not np.any(weyl_quantize(lambda x, k: 0.0 * x * k, grid))

    def test_gaussian_hs_identity(self):
        t0 = time.time()
        grid = weyl_grid(256, 32.0)
        mat = weyl_quantize(lambda x, k: np.exp(-(x**2 + k**2) / 2.0), grid)
        hs2 = hs_norm_squared(mat)
        assert 0.495 <= hs2 <= 0.505
        assert time.time() - t0 < 5.0

    @pytest.mark.parametrize(
        "symbol",
        [
            lambda x, k: np.exp(-(x**2 + k**2) / 2.0),
            lambda x, k: np.exp(-((x - 0.5 * k) ** 2) / 3.0) * (1.0 + 1j * np.sin(x * k)),
            lambda x, k: 0.25,
        ],
    )
    def test_matches_column_loop(self, symbol):
        for grid in (weyl_grid(64, 12.0), weyl_grid(256, 32.0)):
            assert np.max(np.abs(weyl_quantize(symbol, grid) - weyl_quantize_loop(symbol, grid))) <= 1e-13

    def test_momentum_symbol_is_convolution_kernel(self):
        # a(k) Gaussian: exact transform sqrt(2 pi) e^{-w^2/2} / (2 pi)
        grid = weyl_grid(128, 16.0)
        mat = weyl_quantize(lambda x, k: np.exp(-(k**2) / 2.0) + 0.0 * x, grid)
        w = grid.x[:, None] - grid.x[None, :]
        exact = (2 * np.pi) ** -0.5 * np.exp(-(w**2) / 2.0) * grid.dx
        assert np.max(np.abs(mat - exact)) < 1e-13

    def test_momentum_symbol_acts_as_multiplier(self):
        # interior rows of T e^{ik0 x} reproduce a(k0) e^{ik0 x}; rows within
        # L/8 of the boundary are excluded (truncated convolution tails)
        grid = weyl_grid(128, 16.0)
        a = lambda k: np.exp(-(k**2) / 2.0)
        mat = weyl_quantize(lambda x, k: a(k) + 0.0 * x, grid)
        n = grid.size
        interior = slice(3 * n // 8, 5 * n // 8)
        for k0 in (grid.k[n // 2 + 3], grid.k[n // 2 + 10]):
            wave = np.exp(1j * k0 * grid.x)
            out = mat @ wave
            assert np.max(np.abs(out[interior] - a(k0) * wave[interior])) < 1e-8

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            weyl_grid(33, 8.0)


class TestOperatorNorm:
    def test_dense_small(self, rng):
        a = rng.standard_normal((40, 40))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2))

    def test_power_iteration_large(self, rng):
        # wide matrix: a^H a is above the dense rule, so the iterative path runs
        a = rng.standard_normal((30, 2100))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((2500, 10))) == 0.0
