import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargedphi2.config import load_config
from chargedphi2.errors import IllConditionedError, ResourceLimitError, ShapeError, UnstableConfigurationError
from chargedphi2.oneparticle import operator_norm
from chargedphi2.potentials import gaussian_potential, zero_potential
from chargedphi2.quantization import (
    KahlerStructure,
    RealGenerator,
    build_generator,
    charge_sectors,
    dyn_inner,
    free_complex_structure,
    free_identification,
    from_sectors,
    phase_space_grid,
    polar_decompose,
    positivity_margin,
    quantize_report,
)
from oracles import free_dyn_gram, free_j0, full_polar_decompose, generator_blocks, symplectic_gram

G = 64
L = 16.0


@pytest.fixture(scope="module")
def free_grid():
    return phase_space_grid(G, L, 1.0, zero_potential())


@pytest.fixture(scope="module")
def gauss_grid():
    return phase_space_grid(G, L, 1.0, gaussian_potential(0.2, 1.0))


@pytest.fixture(scope="module")
def gauss_ks(gauss_grid):
    return polar_decompose(build_generator(gauss_grid))


class TestPositivityMargin:
    def test_free_margin_zero(self, free_grid):
        assert positivity_margin(free_grid) == 0.0

    def test_margin_equals_v_over_eps_norm(self, gauss_grid):
        # independent route: the sharp constant is the top singular value of
        # V eps^-1 on the grid
        k = gauss_grid.fft_momenta()
        eye = np.eye(G)
        eps_inv = np.real(
            np.fft.ifft(((k**2 + 1.0) ** -0.5)[:, None] * np.fft.fft(eye, axis=0), axis=0)
        )
        target = np.linalg.svd(np.diag(gauss_grid.v_samples) @ eps_inv, compute_uv=False)[0]
        assert positivity_margin(gauss_grid) == pytest.approx(target, rel=1e-10)

    @given(t=st.floats(0.1, 4.0))
    @settings(max_examples=15, deadline=None)
    def test_linear_in_amplitude(self, t):
        base = positivity_margin(phase_space_grid(32, 8.0, 1.0, gaussian_potential(0.2, 1.0)))
        scaled = positivity_margin(phase_space_grid(32, 8.0, 1.0, gaussian_potential(0.2 * t, 1.0)))
        assert scaled == pytest.approx(t * base, rel=1e-9)

    def test_gaussian_amp_02_stable(self, gauss_grid):
        assert positivity_margin(gauss_grid) < 1.0
        # the generator keeps the margin it was checked against
        assert build_generator(gauss_grid).margin == positivity_margin(gauss_grid)


class TestGenerator:
    def test_free_generator_squares_to_minus_dispersion(self, free_grid):
        gen = build_generator(free_grid)
        a2 = gen.matrix @ gen.matrix
        k = free_grid.fft_momenta()
        eye = np.eye(G)
        e2 = np.real(np.fft.ifft((k**2 + 1.0)[:, None] * np.fft.fft(eye, axis=0), axis=0))
        expected = -np.kron(np.eye(4), e2)
        assert np.max(np.abs(a2 - expected)) < 1e-10

    def test_generator_is_the_block_formula(self):
        # a = Omega^-1 metric: bitwise at dx = 0.25, one rounding of the metric's 1/dx apart at dx = 0.3
        pot = gaussian_potential(0.2, 1.0)
        quarter = phase_space_grid(128, 32.0, 1.0, pot)
        assert np.array_equal(build_generator(quarter).matrix, generator_blocks(quarter))
        grid = phase_space_grid(G, 0.3 * G, 1.0, pot)
        ref = generator_blocks(grid)
        assert np.max(np.abs(build_generator(grid).matrix - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_free_metric_antisymmetry(self, free_grid):
        # a^T metric + metric a = 0, relative to || metric a ||
        gen = build_generator(free_grid)
        lhs = gen.matrix.T @ gen.metric + gen.metric @ gen.matrix
        assert operator_norm(lhs) / max(1.0, operator_norm(gen.metric @ gen.matrix)) < 1e-12

    def test_gaussian_metric_antisymmetry(self, gauss_grid):
        gen = build_generator(gauss_grid)
        lhs = gen.matrix.T @ gen.metric + gen.metric @ gen.matrix
        assert operator_norm(lhs) / max(1.0, operator_norm(gen.metric @ gen.matrix)) < 1e-10

    def test_unstable_configuration_rejected(self):
        grid = phase_space_grid(32, 8.0, 1.0, gaussian_potential(50.0, 1.0))
        with pytest.raises(UnstableConfigurationError) as exc:
            build_generator(grid)
        assert exc.value.delta >= 1.0


def _shipped_grid():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "quantize.json")
    return phase_space_grid(cfg.grid.points, cfg.grid.length, cfg.lattice.mass, cfg.make_potential())


class TestGridCeiling:
    def test_grid_under_the_block_ceiling_refuses_its_4g_layouts(self):
        # 1,002 points: the 2,004 x 2,004 sector blocks fit under the dense ceiling, the 4G layouts do not
        grid = phase_space_grid(1002, L, 1.0, zero_potential())
        blk = np.broadcast_to(0.0, (2 * grid.points, 2 * grid.points))  # no memory behind it
        ks = KahlerStructure(grid=grid, h_blocks=(blk, blk), j_blocks=(blk, blk), h_spectrum=np.ones(1))
        gen = RealGenerator(grid=grid, a_blocks=(blk, blk), metric_blocks=(blk, blk), margin=0.0)
        for owner, name in [(ks, "j"), (ks, "h_v"), (gen, "matrix"), (gen, "metric")]:
            with pytest.raises(ResourceLimitError, match="phase-space matrix dimension 4008 exceeds the dense ceiling"):
                getattr(owner, name)


class TestChargeSectors:
    def test_sectors_partition_the_phase_vector(self):
        a, b = charge_sectors(3)
        assert list(a) == [0, 1, 2, 9, 10, 11] and list(b) == [3, 4, 5, 6, 7, 8]

    @pytest.mark.parametrize("which", ["shipped", "random"])
    def test_split_is_exact(self, which):
        # the metric has no A x B block and a has no A x A or B x B block: exact zeros, no tolerance
        if which == "shipped":
            grid = _shipped_grid()
        else:
            base = phase_space_grid(G, L, 1.0, zero_potential())
            v = np.random.default_rng(7).uniform(-0.3, 0.3, G)
            grid = dataclasses.replace(base, v_samples=v)
        gen = build_generator(grid)
        a, b = charge_sectors(grid.points)
        assert not np.any(gen.metric[np.ix_(a, b)]) and not np.any(gen.metric[np.ix_(b, a)])
        assert not np.any(gen.matrix[np.ix_(a, a)]) and not np.any(gen.matrix[np.ix_(b, b)])
        assert np.any(gen.matrix[np.ix_(a, b)]) and np.any(gen.matrix[np.ix_(b, a)])

    @pytest.mark.parametrize("amp", [0.0, 0.2])
    def test_blocks_match_the_full_oracle(self, amp):
        rng = np.random.default_rng(11)
        grid = phase_space_grid(32, 8.0, 1.0, gaussian_potential(amp, 1.0))
        gen = build_generator(grid)
        ks = polar_decompose(gen)
        j, h_v, spectrum, gram = full_polar_decompose(gen)
        for got, ref in [(ks.j, j), (ks.h_v, h_v), (ks.h_spectrum, spectrum)]:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        for _ in range(3):
            y1, y2 = rng.standard_normal(128), rng.standard_normal(128)
            ref = y1 @ gram @ y2
            assert abs(dyn_inner(ks, y1, y2) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_block_residuals_are_the_full_norms(self):
        # j^2 + 1 is block diagonal and j h - a block antidiagonal, so the maxima over blocks are the 4G norms
        grid = phase_space_grid(32, 8.0, 1.0, gaussian_potential(0.2, 1.0))
        gen = build_generator(grid)
        ks = polar_decompose(gen)
        j_sq = np.linalg.norm(ks.j @ ks.j + np.eye(128), 2)
        recon = np.linalg.norm(ks.j @ ks.h_v - gen.matrix, 2) / np.linalg.norm(gen.matrix, 2)
        assert 0.0 < j_sq < 1e-10 and 0.0 < recon < 1e-10
        assert ks.j_square_residual() == pytest.approx(j_sq, rel=1e-9)
        assert ks.reconstruction_residual(gen) == pytest.approx(recon, rel=1e-9)


class TestPolar:
    def test_free_spectrum_matches_fft_dispersion(self, free_grid):
        ks = polar_decompose(build_generator(free_grid))
        expected = np.sort(np.repeat(np.sqrt(free_grid.fft_momenta() ** 2 + 1.0), 4))
        assert np.max(np.abs(ks.h_spectrum - expected)) < 1e-10

    def test_free_polar_equals_canonical_structure(self, free_grid):
        ks = polar_decompose(build_generator(free_grid))
        j0 = free_j0(free_grid)
        assert operator_norm(ks.j - j0) / operator_norm(j0) < 1e-10

    def test_free_structure_is_its_off_sector_block(self, free_grid):
        # j0 maps each sector into the other by the one block free_complex_structure returns
        blk = free_complex_structure(free_grid)
        assert np.max(np.abs(from_sectors((blk, blk), off=True) - free_j0(free_grid))) <= 1e-15

    def test_j_square_and_reconstruction(self, gauss_grid, gauss_ks):
        gen = build_generator(gauss_grid)
        assert gauss_ks.j_square_residual() < 1e-10
        assert gauss_ks.reconstruction_residual(gen) < 1e-10

    def test_j_is_metric_orthogonal(self, gauss_grid, gauss_ks):
        m = build_generator(gauss_grid).metric
        j = gauss_ks.j
        assert operator_norm(j.T @ m @ j - m) / operator_norm(m) < 1e-9

    def test_h_commutes_with_j(self, gauss_ks):
        j, h = gauss_ks.j, gauss_ks.h_v
        assert operator_norm(j @ h - h @ j) / operator_norm(h) < 1e-9

    def test_symplectic_pairing_positive(self, gauss_grid, gauss_ks):
        omega = symplectic_gram(gauss_grid)
        sym = omega @ gauss_ks.j
        sym = 0.5 * (sym + sym.T)
        assert np.linalg.eigvalsh(sym)[0] > 0

    def test_min_spec_above_mass_fraction(self, gauss_ks):
        assert gauss_ks.h_spectrum[0] >= 0.9 * 1.0

    def test_near_singular_generator_rejected(self):
        # the free generator's smallest singular value is m^2
        grid = phase_space_grid(16, 8.0, 3e-6, zero_potential())
        with pytest.raises(IllConditionedError) as exc:
            polar_decompose(build_generator(grid))
        assert exc.value.smallest <= 1e-10


class TestDynInner:
    def test_positive_on_diagonal(self, gauss_ks, rng):
        for _ in range(5):
            y = rng.standard_normal(4 * G)
            val = dyn_inner(gauss_ks, y, y)
            assert val.real > 0
            assert abs(val.imag) < 1e-12 * val.real

    def test_j_sesquilinearity(self, gauss_ks, rng):
        y1 = rng.standard_normal(4 * G)
        y2 = rng.standard_normal(4 * G)
        base = dyn_inner(gauss_ks, y1, y2)
        assert dyn_inner(gauss_ks, y1, gauss_ks.j @ y2) == pytest.approx(1j * base, abs=1e-9)
        assert dyn_inner(gauss_ks, gauss_ks.j @ y1, y2) == pytest.approx(-1j * base, abs=1e-9)

    def test_free_inner_matches_identified_l2(self, free_grid, rng):
        ks0 = polar_decompose(build_generator(free_grid))
        y1 = rng.standard_normal(4 * G)
        y2 = rng.standard_normal(4 * G)
        u1a, u2a = free_identification(free_grid, y1)
        u1b, u2b = free_identification(free_grid, y2)
        l2 = (np.vdot(u1a, u1b) + np.vdot(u2a, u2b)) * free_grid.dx
        assert dyn_inner(ks0, y1, y2) == pytest.approx(l2, abs=1e-9)

    def test_shape_check(self, gauss_ks):
        with pytest.raises(ShapeError):
            dyn_inner(gauss_ks, np.zeros(3), np.zeros(3))


class TestFreeIdentification:
    def test_zero_maps_to_zero(self, free_grid):
        u1, u2 = free_identification(free_grid, np.zeros(4 * G))
        assert not np.any(u1) and not np.any(u2)

    def test_norm_transport(self, free_grid, rng):
        gram = free_dyn_gram(free_grid)
        for _ in range(5):
            y = rng.standard_normal(4 * G)
            u1, u2 = free_identification(free_grid, y)
            l2 = (np.vdot(u1, u1).real + np.vdot(u2, u2).real) * free_grid.dx
            assert l2 == pytest.approx((y @ gram @ y).real, rel=1e-12)

    def test_intertwines_multiplication_by_i(self, free_grid, rng):
        j0 = free_j0(free_grid)
        y = rng.standard_normal(4 * G)
        u1, u2 = free_identification(free_grid, y)
        w1, w2 = free_identification(free_grid, j0 @ y)
        assert np.max(np.abs(w1 - 1j * u1)) < 1e-12
        assert np.max(np.abs(w2 - 1j * u2)) < 1e-12


class TestTimeReversal:
    def test_anticommutes_with_generator(self, gauss_grid):
        # (pi, phi) -> (-conj pi, conj phi) on real components: diag(-1, 1, 1, -1) per G block
        gen = build_generator(gauss_grid)
        kappa = np.diag(np.repeat([-1.0, 1.0, 1.0, -1.0], G))
        resid = np.max(np.abs(kappa @ gen.matrix @ kappa + gen.matrix))
        assert resid < 1e-12 * max(1.0, np.max(np.abs(gen.matrix)))


class TestQuantizeReport:
    def test_report_keys_and_bounds(self, gauss_grid):
        rep = quantize_report(gauss_grid)
        assert set(rep) == {
            "delta",
            "min_spec_hV",
            "j_square_residual",
            "reconstruction_residual",
            "free_check_error",
        }
        assert rep["delta"] < 1
        assert rep["j_square_residual"] < 1e-9
        assert rep["reconstruction_residual"] < 1e-9
        assert rep["free_check_error"] < 1e-9

    def test_unstable_raises(self):
        grid = phase_space_grid(32, 8.0, 1.0, gaussian_potential(40.0, 1.0))
        with pytest.raises(UnstableConfigurationError):
            quantize_report(grid)
