import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargedphi2.errors import ParameterError
from chargedphi2.potentials import (
    gaussian_potential,
    lorentzian_potential,
    make_potential,
    zero_potential,
)
from oracles import sampled_potential, scaled


@pytest.mark.parametrize(
    "pot",
    [gaussian_potential(1.0, 1.0), lorentzian_potential(0.5, 2.0), gaussian_potential(0.2, 0.7)],
    ids=["gauss", "lorentz", "gauss-scaled"],
)
class TestTransformIdentities:
    def test_real_potential_conjugate_symmetry(self, pot):
        k = np.linspace(-5, 5, 41)
        assert np.allclose(pot.V_hat(-k), np.conj(pot.V_hat(k)), atol=1e-14)

    def test_derivative_transform(self, pot):
        k = np.linspace(-4, 4, 17)
        assert np.allclose(pot.Vp_hat(k), 1j * k * pot.V_hat(k), atol=0)

    def test_transform_matches_quadrature(self, pot):
        # even real V: transform is 2 int_0^inf V(x) cos(kx) dx, evaluated by
        # the oscillatory-weight quadrature on the half line
        from scipy.integrate import quad

        for k in (0.0, 0.5, 1.3):
            val, _ = quad(lambda x: float(pot.V(x)), 0, np.inf, weight="cos", wvar=k, limit=400)
            assert 2 * val == pytest.approx(complex(pot.V_hat(k)).real, abs=1e-8)
            assert complex(pot.V_hat(k)).imag == pytest.approx(0.0, abs=1e-14)


def test_zero_potential_is_zero():
    z = zero_potential()
    x = np.linspace(-3, 3, 7)
    assert not np.any(z.V(x))
    assert not np.any(z.V_hat(x))


def test_gaussian_peak_value():
    pot = gaussian_potential(1.0, 1.0)
    assert complex(pot.V_hat(0.0)) == pytest.approx(np.sqrt(2 * np.pi))


@given(t=st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_scaling_is_pointwise(t):
    pot = scaled(gaussian_potential(1.0, 1.0), t)
    assert pot.V(np.array([0.3]))[0] == pytest.approx(t * np.exp(-0.045))
    assert complex(pot.V_hat(np.array([0.0]))[0]) == pytest.approx(t * np.sqrt(2 * np.pi))


def test_sampled_table_matches_analytic():
    # linear interpolation of the transform table: error ~ dk^2 curvature
    ref = gaussian_potential(0.8, 1.3)
    x = np.linspace(-48, 48, 4096, endpoint=False)
    pot = sampled_potential(x, ref.V(x))
    k = np.linspace(-2, 2, 21)
    assert np.allclose(pot.V_hat(k), ref.V_hat(k), atol=2e-3)
    assert np.allclose(pot.V(x[100:200]), ref.V(x[100:200]), atol=1e-14)
    assert np.allclose(pot.V(np.array([0.5, -1.0])), ref.V(np.array([0.5, -1.0])), atol=1e-4)


def test_sampled_rejects_ragged_grid():
    with pytest.raises(ParameterError):
        sampled_potential(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 1.0]))


def test_make_potential_dispatch():
    assert make_potential("gaussian", 2.0, 1.0).V(np.array([0.0]))[0] == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        make_potential("step")
    with pytest.raises(ParameterError):
        make_potential("gaussian", 1.0, -1.0)
