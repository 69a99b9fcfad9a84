import numpy as np
import pytest

from sagnac_wva.sagnac import (
    SPEED_OF_LIGHT,
    SagnacConfig,
    bias_phase,
    coupling_chain,
    coupling_length,
    fringe_shift,
)
from sagnac_wva.spectrum import wavelength_to_momentum

LAMBDA0 = 833e-9
AREA = 1000.0

# frozen chain outputs for Omega = 1.0e-9 rad/s: 4*Omega*S/(lambda0*c),
# 2*pi times that, then divided by 2*pi/lambda0
DZ_REF = 1.6017483562936474e-08
DPHI_REF = 1.0064081738063299e-07
G_REF = 1.3342563807926084e-14
TAU_REF = 4.4506002242144745e-23
# and the coupling length at Omega = 1.9e-8 rad/s
G_REF_FAST = 2.5350871235059556e-13


def _cfg(omega):
    return SagnacConfig(omega=omega, area=AREA, lambda0=LAMBDA0)


def test_chain_reference_slow_rotation():
    out = coupling_chain(_cfg(1e-9))
    assert out.delta_z == pytest.approx(DZ_REF, rel=1e-12)
    assert out.delta_phi == pytest.approx(DPHI_REF, rel=1e-12)
    assert out.g == pytest.approx(G_REF, rel=1e-12)
    assert out.tau == pytest.approx(TAU_REF, rel=1e-12)


def test_chain_reference_fast_rotation():
    assert coupling_chain(_cfg(1.9e-8)).g == pytest.approx(G_REF_FAST, rel=1e-12)


def test_chain_internal_consistency():
    out = coupling_chain(_cfg(1e-9))
    p0 = wavelength_to_momentum(LAMBDA0)
    assert out.g * p0 == pytest.approx(out.delta_phi, rel=1e-12)
    assert out.delta_phi == pytest.approx(2.0 * np.pi * out.delta_z, rel=1e-12)
    assert out.g == pytest.approx(SPEED_OF_LIGHT * out.tau, rel=1e-12)


def test_two_routes_to_coupling_length_agree():
    rng = np.random.default_rng(3)
    for _ in range(20):
        omega = rng.uniform(-1e-6, 1e-6)
        area = rng.uniform(1.0, 1e5)
        lam = rng.uniform(2e-7, 2e-6)
        g = coupling_chain(SagnacConfig(omega=omega, area=area, lambda0=lam)).g
        direct = 4.0 * area * omega / SPEED_OF_LIGHT
        assert g == pytest.approx(direct, rel=1e-12, abs=1e-30)


def test_fringe_shift_zero_and_linear():
    assert fringe_shift(_cfg(0.0)) == 0.0
    assert fringe_shift(_cfg(2e-9)) == pytest.approx(2.0 * fringe_shift(_cfg(1e-9)), rel=1e-12)


def test_coupling_odd_in_rotation_sign():
    assert coupling_chain(_cfg(-1e-9)).g == pytest.approx(-G_REF, rel=1e-12)


def test_bias_reference_value():
    # (0*pi - 1e-4)/p0 = -phi*lambda0/(2*pi)
    bias = bias_phase(1e-4, LAMBDA0, 0)
    assert bias.psi_pre == pytest.approx(-1.3257606759554882e-11, rel=1e-12)
    assert bias.psi_pre == pytest.approx(-1e-4 * LAMBDA0 / (2.0 * np.pi), rel=1e-12)


def test_bias_zero_angle_zero_order():
    assert bias_phase(0.0, LAMBDA0, 0).psi_pre == 0.0


def test_bias_invariant_holds_by_construction():
    rng = np.random.default_rng(5)
    p0 = wavelength_to_momentum(LAMBDA0)
    for _ in range(50):
        phi = rng.uniform(0.0, np.pi / 2.0)
        m = int(rng.integers(-3, 4))
        bias = bias_phase(phi, LAMBDA0, m)
        assert abs(p0 * bias.psi_pre + phi - m * np.pi) < 1e-12


def test_config_rejects_nonpositive_geometry():
    with pytest.raises(ValueError):
        SagnacConfig(omega=1e-9, area=0.0, lambda0=LAMBDA0)
    with pytest.raises(ValueError):
        SagnacConfig(omega=1e-9, area=AREA, lambda0=-1.0)
    with pytest.raises(ValueError):
        SagnacConfig(omega=1e-9, area=AREA, lambda0=LAMBDA0, c=0.0)


OMEGAS = [1e-9, -1e-9, 0.0, -0.0, 1.9e-8, 7.29e-5, -3.5, 1e300, -1e300, 5e-324]


@pytest.mark.parametrize("area,lam", [(AREA, LAMBDA0), (1.0, 1.55e-6), (1e-300, 633e-9)])
def test_coupling_length_equals_the_chain_bitwise(area, lam):
    # scalar and array rates against coupling_chain and against the chain's
    # operation order written out: fringe shift, times 2*pi, over p0
    with np.errstate(over="ignore"):
        omegas = np.array(OMEGAS)
        for omega in OMEGAS + [omegas, omegas.reshape(2, 5)]:
            g = coupling_length(omega, area, lam)
            chain = coupling_chain(SagnacConfig(omega=omega, area=area, lambda0=lam)).g
            dz = 4.0 * np.asarray(omega) * area / (lam * SPEED_OF_LIGHT)
            written_out = 2.0 * np.pi * dz / wavelength_to_momentum(lam)
            assert np.array_equal(g, chain)
            assert np.array_equal(g, written_out)
            assert np.array_equal(np.signbit(g), np.signbit(written_out))
            assert np.shape(g) == np.shape(omega)
