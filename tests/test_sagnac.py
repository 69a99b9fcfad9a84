import numpy as np
import pytest

from sagnac_wva.config import ExperimentConfig
from sagnac_wva.sagnac import SPEED_OF_LIGHT, bias_delay, coupling_length, fringe_shift
from sagnac_wva.spectrum import wavelength_to_momentum

LAMBDA0 = 833e-9
AREA = 1000.0

# frozen chain outputs for Omega = 1.0e-9 rad/s: 4*Omega*S/(lambda0*c),
# 2*pi times that, then divided by 2*pi/lambda0
DZ_REF = 1.6017483562936474e-08
DPHI_REF = 1.0064081738063299e-07
G_REF = 1.3342563807926084e-14
# and the coupling length at Omega = 1.9e-8 rad/s
G_REF_FAST = 2.5350871235059556e-13


def _dz(omega):
    return fringe_shift(omega, AREA, LAMBDA0, SPEED_OF_LIGHT)


def _g(omega):
    return coupling_length(omega, AREA, LAMBDA0)


def test_chain_reference_slow_rotation():
    assert _dz(1e-9) == pytest.approx(DZ_REF, rel=1e-12)
    assert 2.0 * np.pi * _dz(1e-9) == pytest.approx(DPHI_REF, rel=1e-12)
    assert _g(1e-9) == pytest.approx(G_REF, rel=1e-12)


def test_chain_reference_fast_rotation():
    assert _g(1.9e-8) == pytest.approx(G_REF_FAST, rel=1e-12)


def test_chain_internal_consistency():
    # the coupling length times p0 is the differential phase 2*pi*dz
    p0 = wavelength_to_momentum(LAMBDA0)
    assert _g(1e-9) * p0 == pytest.approx(2.0 * np.pi * _dz(1e-9), rel=1e-12)


def test_two_routes_to_coupling_length_agree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega = rng.uniform(-1e-6, 1e-6)
        area = rng.uniform(1.0, 1e5)
        lam = rng.uniform(2e-7, 2e-6)
        g = coupling_length(omega, area, lam)
        direct = 4.0 * area * omega / SPEED_OF_LIGHT
        assert g == pytest.approx(direct, rel=1e-12, abs=1e-30)


def test_fringe_shift_zero_and_linear():
    assert _dz(0.0) == 0.0
    assert _dz(2e-9) == pytest.approx(2.0 * _dz(1e-9), rel=1e-12)


def test_coupling_odd_in_rotation_sign():
    assert _g(-1e-9) == pytest.approx(-G_REF, rel=1e-12)


def test_bias_reference_value():
    # (0*pi - 1e-4)/p0 = -phi*lambda0/(2*pi)
    psi_pre = bias_delay(1e-4, LAMBDA0, 0)
    assert psi_pre == pytest.approx(-1.3257606759554882e-11, rel=1e-12)
    assert psi_pre == pytest.approx(-1e-4 * LAMBDA0 / (2.0 * np.pi), rel=1e-12)


def test_bias_zero_angle_zero_order():
    assert bias_delay(0.0, LAMBDA0, 0) == 0.0


def test_bias_invariant_holds_by_construction():
    rng = np.random.default_rng(5)
    p0 = wavelength_to_momentum(LAMBDA0)
    for _ in range(50):
        phi = rng.uniform(0.0, np.pi / 2.0)
        m = int(rng.integers(-3, 4))
        assert abs(p0 * bias_delay(phi, LAMBDA0, m) + phi - m * np.pi) < 1e-12


def test_config_rejects_nonpositive_geometry():
    # the loop functions take their arguments as valid; the scenario checks them
    base = dict(lambda0_nm=833.0, fwhm_nm=20.0, area_m2=AREA, phi_rad=1e-4,
                omega_rad_per_s=1e-9, scheme="swm")
    with pytest.raises(ValueError):
        ExperimentConfig(**{**base, "area_m2": 0.0})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**base, "lambda0_nm": -1.0})


OMEGAS = [1e-9, -1e-9, 0.0, -0.0, 1.9e-8, 7.29e-5, -3.5, 1e300, -1e300, 5e-324]


@pytest.mark.parametrize("area,lam", [(AREA, LAMBDA0), (1.0, 1.55e-6), (1e-300, 633e-9)])
def test_coupling_length_equals_the_chain_bitwise(area, lam):
    # scalar and array rates against the chain's operation order written
    # out: fringe shift, times 2*pi, over p0
    with np.errstate(over="ignore"):
        omegas = np.array(OMEGAS)
        for omega in OMEGAS + [omegas, omegas.reshape(2, 5)]:
            g = coupling_length(omega, area, lam)
            dz = 4.0 * np.asarray(omega) * area / (lam * SPEED_OF_LIGHT)
            written_out = 2.0 * np.pi * dz / wavelength_to_momentum(lam)
            assert np.array_equal(fringe_shift(omega, area, lam, SPEED_OF_LIGHT), dz)
            assert np.array_equal(g, written_out)
            assert np.array_equal(np.signbit(g), np.signbit(written_out))
            assert np.shape(g) == np.shape(omega)
