import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargedphi2.errors import ParameterError
from chargedphi2.lattice import build_lattice, build_nested, integer_part, refinement_ladder


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

    def test_a_lattice_is_its_numbers(self):
        # no array is stored: equal lattices compare and hash equal, and a lattice
        # of 40M modes is built without allocating its modes
        assert build_lattice(2, 2.0, 1.0) == build_lattice(Fraction(2), 2, 1)
        assert hash(build_lattice(2, 2.0, 1.0)) == hash(build_lattice(2, 2.0, 1.0))
        assert build_lattice(2, 2.0, 1.0) != build_lattice(2, 2.5, 1.0)
        tracemalloc.start()
        try:
            wide = build_lattice(1, 2e7, 1.0)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert wide.size == 40_000_001

    def test_modes_are_read_only(self):
        with pytest.raises(ValueError):
            build_lattice(1, 2, 1).modes[0] = 1.0

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
        coarse, fine, _ = refinement_ladder(1, 2, 1, 3)
        assert np.array_equal(fine.modes[build_nested(coarse, fine)], coarse.modes)

    def test_identical_lattices_allowed(self):
        lat = build_lattice(2, 3, 1)
        assert np.array_equal(build_nested(lat, lat), np.arange(lat.size))

    def test_dispersion_restriction_exact(self):
        coarse, fine = refinement_ladder(1, 2, 1, 2)
        assert np.array_equal(fine.dispersion()[build_nested(coarse, fine)], coarse.dispersion())


class TestLadder:
    def test_levels_nest_with_minimal_kappa(self):
        ladder = list(refinement_ladder(1, 2, 1, 4))
        for coarse, fine in zip(ladder, ladder[1:]):
            # ratio 2: coarse mode j/v sits at fine index 2j + fine.n_half
            injection = build_nested(coarse, fine)
            assert np.array_equal(injection, 2 * np.arange(-coarse.n_half, coarse.n_half + 1) + fine.n_half)
            # minimal kappa: the top coarse cell is covered with nothing to spare
            assert fine.n_half == 2 * coarse.n_half + 1

    def test_kappa_telescopes_to_the_recurrence(self):
        # kappa_{i+1} = kappa_i + 1/v_i - 1/v_{i+1}, in exact rationals, level by level
        v, kappa = Fraction(3, 2), Fraction(2.7)
        for lat in refinement_ladder(Fraction(3, 2), 2.7, 1, 6):
            assert (lat.v, lat.kappa) == (v, float(kappa))
            kappa, v = kappa + 1 / v - 1 / (2 * v), 2 * v

    def test_single_level(self):
        assert len(list(refinement_ladder(2, 3, 1, 1))) == 1

    def test_levels_are_built_lazily(self):
        # a million levels: only the ones taken are made
        ladder = refinement_ladder(1, 2, 1, 10**6)
        assert [lat.size for _, lat in zip(range(3), ladder)] == [5, 11, 23]

    def test_bad_level_count(self):
        with pytest.raises(ParameterError):
            refinement_ladder(1, 2, 1, 0)
