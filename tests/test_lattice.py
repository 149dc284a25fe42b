import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargedphi2.errors import ParameterError, ShapeError
from chargedphi2.lattice import (
    build_lattice,
    build_nested,
    embed,
    integer_part,
    project,
    refinement_ladder,
)
from oracles import dense_projection_from_cells, projection_matrix


class TestBuildLattice:
    def test_unit_spacing_modes(self):
        lat = build_lattice(1, 2, 1)
        assert np.array_equal(lat.modes, [-2, -1, 0, 1, 2])

    def test_half_spacing_modes(self):
        lat = build_lattice(2, 1, 1)
        assert np.array_equal(lat.modes, [-1, -0.5, 0, 0.5, 1])
        assert lat.size == 5

    def test_mode_count_against_enumeration(self):
        # brute-force count of multiples of 1/4 inside [-8, 8]
        lat = build_lattice(4, 8, 1)
        brute = [j / 4 for j in range(-64, 65) if abs(j / 4) <= 8]
        assert lat.size == len(brute) == 65
        assert lat.size == 2 * math.floor(8 * 4) + 1

    def test_invariants(self):
        lat = build_lattice(Fraction(3, 2), 4.0, 0.7)
        assert np.all(np.diff(lat.modes) > 0)
        assert np.allclose(lat.modes, -lat.modes[::-1])
        assert 0.0 in lat.modes
        assert lat.size == 2 * math.floor(4.0 * 1.5) + 1
        assert np.all(lat.dispersion() >= lat.m)

    @pytest.mark.parametrize("v,kappa,m", [(0, 2, 1), (-1, 2, 1), (1, 0, 1), (1, 2, 0), (1, 2, -3)])
    def test_bad_parameters(self, v, kappa, m):
        with pytest.raises(ParameterError):
            build_lattice(v, kappa, m)

    def test_kappa_below_spacing(self):
        with pytest.raises(ParameterError):
            build_lattice(1, 0.5, 1)


class TestIntegerPart:
    def test_examples(self):
        assert integer_part(0.6, 2) == 0.5
        assert integer_part(-0.1, 2) == -0.5

    def test_fixed_point_on_lattice(self):
        lat = build_lattice(4, 3, 1)
        for gamma in lat.modes:
            assert integer_part(gamma, lat.v) == gamma

    @given(
        k=st.floats(-50, 50, allow_nan=False),
        logv=st.integers(-3, 6),
    )
    @settings(max_examples=200, deadline=None)
    @example(k=-5e-324, logv=-1)  # v*k underflows to -0.0 in floating point
    def test_floor_contract_dyadic(self, k, logv):
        v = Fraction(2) ** logv
        out = integer_part(k, v)
        assert out <= k < out + 1.0 / float(v)

    def test_bad_spacing(self):
        with pytest.raises(ParameterError):
            integer_part(1.0, 0)


class TestNesting:
    def test_ratio_must_be_power_of_two(self):
        coarse = build_lattice(1, 2, 1)
        with pytest.raises(ParameterError):
            build_nested(coarse, build_lattice(3, 4, 1))

    def test_kappa_must_not_shrink(self):
        with pytest.raises(ParameterError):
            build_nested(build_lattice(1, 2, 1), build_lattice(2, 1.5, 1))

    def test_coverage_of_top_cell_required(self):
        # fine kappa equal to coarse: top coarse cell sticks out
        with pytest.raises(ParameterError):
            build_nested(build_lattice(1, 2, 1), build_lattice(2, 2, 1))

    def test_mass_mismatch(self):
        with pytest.raises(ParameterError):
            build_nested(build_lattice(1, 2, 1), build_lattice(2, 2.5, 2))

    def test_injection_preserves_momentum(self):
        ladder = refinement_ladder(1, 2, 1, 3)
        pair = build_nested(ladder[0], ladder[1])
        assert np.array_equal(
            pair.fine.modes[pair.mode_injection], pair.coarse.modes
        )

    def test_identical_lattices_allowed(self):
        lat = build_lattice(2, 3, 1)
        pair = build_nested(lat, lat)
        assert pair.ratio == 1
        f = np.linspace(0, 1, lat.size)
        assert np.array_equal(project(pair, f), f)


@pytest.fixture(scope="module")
def pair():
    ladder = refinement_ladder(1, 2, 1, 2)
    return build_nested(ladder[0], ladder[1])


class TestProjection:
    def test_matches_cell_overlap_oracle(self, pair):
        assert np.allclose(projection_matrix(pair), dense_projection_from_cells(pair), atol=1e-12)

    def test_cell_constant_isometry(self, pair):
        # constant over the fine cells of one coarse mode
        f = np.zeros(pair.fine.size)
        j0 = pair.mode_injection[1]
        f[j0 : j0 + pair.ratio] = 0.7
        out = project(pair, f)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(f), rel=1e-15)
        assert np.argmax(np.abs(out)) == 1

    def test_zero_maps_to_zero(self, pair):
        assert not np.any(project(pair, np.zeros(pair.fine.size)))

    def test_contraction_random(self, pair, rng):
        p = dense_projection_from_cells(pair)
        for _ in range(10):
            f = rng.standard_normal(pair.fine.size) + 1j * rng.standard_normal(pair.fine.size)
            out = project(pair, f)
            assert np.linalg.norm(out) <= np.linalg.norm(f) + 1e-12
            assert np.allclose(out, p @ f, atol=1e-12)

    def test_project_embed_is_identity(self, pair, rng):
        g = rng.standard_normal(pair.coarse.size)
        assert np.allclose(project(pair, embed(pair, g)), g, atol=1e-14)

    def test_embed_project_is_orthogonal_projection(self, pair):
        p = projection_matrix(pair)
        q = p.T @ p
        assert np.allclose(q @ q, q, atol=1e-13)
        assert np.allclose(q, q.T, atol=1e-15)

    def test_conjugation_equivariance(self, pair, rng):
        f = rng.standard_normal(pair.fine.size) + 1j * rng.standard_normal(pair.fine.size)
        assert np.allclose(project(pair, f.conj()), project(pair, f).conj(), atol=0)

    def test_dispersion_restriction_exact(self, pair):
        fine_eps = pair.fine.dispersion()[pair.mode_injection]
        assert np.array_equal(fine_eps, pair.coarse.dispersion())

    def test_maps_equal_per_cell_loops(self):
        # reference: one loop over coarse cells, the same products and sums
        rng = np.random.default_rng(7)
        ladder = refinement_ladder(1, 2, 1, 3)
        for pair in (build_nested(ladder[0], ladder[1]), build_nested(ladder[0], ladder[2])):
            w = 1.0 / math.sqrt(pair.ratio)
            re, im = rng.standard_normal((2, 16, pair.fine.size))
            g = rng.standard_normal(pair.coarse.size)
            p = np.zeros((pair.coarse.size, pair.fine.size))
            emb = np.zeros(pair.fine.size)
            for i, j0 in enumerate(pair.mode_injection):
                p[i, j0 : j0 + pair.ratio] = w
                emb[j0 : j0 + pair.ratio] = w * g[i]
            assert np.array_equal(projection_matrix(pair), p)
            assert np.array_equal(embed(pair, g), emb)
            for f in (re, re + 1j * im):
                proj = np.stack([w * f[:, j0 : j0 + pair.ratio].sum(axis=-1) for j0 in pair.mode_injection], axis=-1)
                assert np.array_equal(project(pair, f), proj)

    def test_shape_errors(self, pair):
        with pytest.raises(ShapeError):
            project(pair, np.zeros(pair.fine.size + 1))
        with pytest.raises(ShapeError):
            embed(pair, np.zeros(pair.coarse.size + 2))


class TestLadder:
    def test_levels_nest_with_minimal_kappa(self):
        ladder = refinement_ladder(1, 2, 1, 4)
        for coarse, fine in zip(ladder, ladder[1:]):
            pair = build_nested(coarse, fine)
            assert pair.ratio == 2

    def test_single_level(self):
        ladder = refinement_ladder(2, 3, 1, 1)
        assert len(ladder) == 1

    def test_bad_level_count(self):
        with pytest.raises(ParameterError):
            refinement_ladder(1, 2, 1, 0)
