import numpy as np
import pytest

from sagnac_wva.engine import transfer_matrix_intensity
from sagnac_wva.jones import (
    coupling_unitaries,
    postselection_state,
    preselection_state,
    sigma_z,
)
from sagnac_wva.spectrum import ProbeSpectrum

INV_SQRT2 = 1.0 / np.sqrt(2.0)
H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _weak_value(op, pre, post):
    """<post|op|pre>/<post|pre>, the weak value the README quotes as +i*cot(phi)."""
    # the overlap as an elementwise sum: a complex dot product rounds the
    # near-cancelling -i*sin(phi) less tightly at small phi
    return (post.conj() @ (op @ pre)) / np.sum(post.conj() * pre)


def test_preselection_components():
    s = preselection_state()
    assert s[0] == pytest.approx(INV_SQRT2)
    assert s[1] == pytest.approx(INV_SQRT2)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-15)


def test_preselection_overlap_with_h():
    assert np.vdot(H, preselection_state()) == pytest.approx(INV_SQRT2)


def test_postselection_quarter_turn_components():
    s = postselection_state(np.pi / 4.0)
    assert s[0] == pytest.approx(INV_SQRT2 * np.exp(1j * np.pi / 4.0))
    assert s[1] == pytest.approx(-INV_SQRT2 * np.exp(-1j * np.pi / 4.0))


def test_postselection_small_angle_moduli():
    s = postselection_state(1e-4)
    assert abs(s[0]) == pytest.approx(INV_SQRT2, rel=1e-12)
    assert abs(s[1]) == pytest.approx(INV_SQRT2, rel=1e-12)
    assert np.linalg.norm(s) == pytest.approx(1.0, abs=1e-12)


def test_weak_value_quarter_turn():
    wv = _weak_value(sigma_z(), preselection_state(), postselection_state(np.pi / 4.0))
    assert wv == pytest.approx(1j, abs=1e-14)


def test_weak_value_small_angle():
    # 1/tan(1e-4) = 9999.999966666666
    wv = _weak_value(sigma_z(), preselection_state(), postselection_state(1e-4))
    assert wv.real == pytest.approx(0.0, abs=1e-9)
    assert wv.imag == pytest.approx(9999.999966666666, rel=1e-10)


def test_weak_value_law_across_angles():
    for phi in np.geomspace(1e-6, np.pi / 2.0 * 0.999, 40):
        wv = _weak_value(sigma_z(), preselection_state(), postselection_state(phi))
        expected = 1j / np.tan(phi)
        assert abs(wv - expected) <= 1e-10 * abs(expected)


def test_weak_value_eigenstate_gives_eigenvalue():
    assert _weak_value(sigma_z(), H, H) == 1.0 + 0.0j
    assert _weak_value(sigma_z(), V, V) == -1.0 + 0.0j


def test_coupling_unitary_zero_phase_is_identity():
    u = coupling_unitaries(sigma_z(), np.zeros(3))
    assert u.shape == (3, 2, 2)
    assert np.array_equal(u, np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)))


def test_coupling_unitary_quarter_phase():
    u = coupling_unitaries(sigma_z(), np.array([np.pi / 2.0]))[0]
    assert np.max(np.abs(u - np.diag([-1j, 1j]))) < 1e-15


def test_coupling_unitary_offdiagonal_path():
    # exp(-i t X) = [[cos t, -i sin t], [-i sin t, cos t]] for X = [[0,1],[1,0]]
    ts = np.array([0.3, 1.1, -2.4])
    expected = np.array(
        [[[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]] for t in ts]
    )
    assert np.max(np.abs(coupling_unitaries(PAULI_X, ts) - expected)) < 1e-12


def test_coupling_unitary_is_unitary_and_norm_preserving():
    rng = np.random.default_rng(11)
    phases = rng.uniform(-10.0, 10.0, size=20)
    states = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    for op in (sigma_z(), np.array([[0.3, 1.0 - 2.0j], [1.0 + 2.0j, -0.7]])):
        u = coupling_unitaries(op, phases)
        gram = np.conj(np.swapaxes(u, -1, -2)) @ u
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        out = np.einsum("kij,kj->ki", u, states)
        assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(states, axis=1), rtol=1e-12, atol=0.0)


def test_closed_form_fringe_law():
    # a flat unit "probe" on p = theta with g = 1 reads |<post|U(theta)|pre>|^2 directly
    thetas = np.linspace(-np.pi, np.pi, 181)
    flat = ProbeSpectrum(thetas, np.ones_like(thetas), p0=1.0, sigma_p=1.0)
    for phi in (1e-4, 0.3, 1.2):
        intensity = transfer_matrix_intensity(flat, 1.0, phi)
        assert np.max(np.abs(intensity - np.sin(thetas + phi) ** 2)) < 1e-12
