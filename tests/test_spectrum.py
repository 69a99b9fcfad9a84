import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sagnac_wva.errors import (
    GridPointsInvalid,
    GridTooNarrow,
    GridTooWide,
    NonPositiveInput,
    ZeroTotalIntensity,
)
from sagnac_wva.spectrum import (
    DEFAULT_GRID,
    FWHM_PER_SIGMA,
    GridSpec,
    ProbeSpectrum,
    fwhm_to_sigma,
    gaussian_probe,
    integrals,
    moments,
    momentum_to_wavelength,
    normalize,
    sigma_lambda_to_sigma_p,
    wavelength_to_momentum,
)

LAMBDA0 = 833e-9
FWHM = 20e-9
# 2*pi/833e-9
P0 = 7542839.50441727
# 20e-9 / (2*sqrt(2*ln 2))
SIGMA_LAMBDA = 8.49321800288019e-09
# 2*pi*SIGMA_LAMBDA/833e-9^2
SIGMA_P = 76906.33886164783


def test_fwhm_to_sigma_reference_width():
    assert fwhm_to_sigma(FWHM) == pytest.approx(SIGMA_LAMBDA, rel=1e-12)


def test_width_conversions_are_inverses():
    for x in (1e-12, 3.7e-9, 0.5):
        assert fwhm_to_sigma(x) * FWHM_PER_SIGMA == pytest.approx(x, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -2e-9])
def test_width_conversions_reject_nonpositive(bad):
    with pytest.raises(NonPositiveInput, match="fwhm must be > 0"):
        fwhm_to_sigma(bad)


def test_wavelength_to_momentum_reference():
    assert wavelength_to_momentum(LAMBDA0) == pytest.approx(P0, rel=1e-12)


def test_wavelength_momentum_round_trip():
    for lam in (200e-9, LAMBDA0, 1.55e-6):
        assert momentum_to_wavelength(wavelength_to_momentum(lam)) == pytest.approx(
            lam, rel=1e-12
        )


def test_wavelength_doubling_halves_momentum():
    assert wavelength_to_momentum(2 * LAMBDA0) == pytest.approx(
        0.5 * wavelength_to_momentum(LAMBDA0), rel=1e-12
    )


def test_wavelength_conversions_reject_nonpositive():
    with pytest.raises(NonPositiveInput, match="wavelength must be > 0"):
        wavelength_to_momentum(0.0)
    with pytest.raises(NonPositiveInput, match="momentum must be > 0"):
        momentum_to_wavelength(-1.0)


def test_sigma_conversion_reference():
    assert sigma_lambda_to_sigma_p(SIGMA_LAMBDA, LAMBDA0) == pytest.approx(
        SIGMA_P, rel=1e-12
    )


def test_sigma_conversion_zero_and_linear():
    assert sigma_lambda_to_sigma_p(0.0, LAMBDA0) == 0.0
    one = sigma_lambda_to_sigma_p(1e-9, LAMBDA0)
    assert sigma_lambda_to_sigma_p(2e-9, LAMBDA0) == pytest.approx(2 * one, rel=1e-12)


def test_sigma_conversions_are_inverses():
    sigma_p = sigma_lambda_to_sigma_p(SIGMA_LAMBDA, LAMBDA0)
    assert sigma_p * LAMBDA0**2 / (2.0 * np.pi) == pytest.approx(SIGMA_LAMBDA, rel=1e-12)


def test_sigma_conversion_rejects_bad_inputs():
    with pytest.raises(NonPositiveInput):
        sigma_lambda_to_sigma_p(1e-9, 0.0)
    with pytest.raises(NonPositiveInput):
        sigma_lambda_to_sigma_p(-1e-9, LAMBDA0)


def test_sigma_conversion_warns_on_wide_spectrum():
    with pytest.warns(UserWarning):
        sigma_lambda_to_sigma_p(0.3 * LAMBDA0, LAMBDA0)


def test_gaussian_probe_reference_parameters():
    probe = gaussian_probe(LAMBDA0, FWHM)
    assert probe.p0 == pytest.approx(P0, rel=1e-12)
    assert probe.sigma_p == pytest.approx(SIGMA_P, rel=1e-12)
    assert float(np.trapezoid(probe.intensity, probe.p_grid)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_gaussian_probe_center_on_middle_node():
    probe = gaussian_probe(LAMBDA0, FWHM)
    assert probe.p_grid.size == DEFAULT_GRID.points
    assert probe.p_grid[probe.p_grid.size // 2] == probe.p0


def test_gaussian_probe_span():
    probe = gaussian_probe(LAMBDA0, FWHM, GridSpec(half_width_sigmas=5.0, points=801))
    assert probe.p_grid[0] == pytest.approx(probe.p0 - 5.0 * probe.sigma_p, rel=1e-12)
    assert probe.p_grid[-1] == pytest.approx(probe.p0 + 5.0 * probe.sigma_p, rel=1e-12)


def test_gaussian_probe_moments():
    m = moments(gaussian_probe(LAMBDA0, FWHM))
    assert m.mean == pytest.approx(P0, rel=1e-9)
    assert m.variance == pytest.approx(SIGMA_P**2, rel=1e-6)


def test_moments_converge_under_grid_refinement():
    coarse = moments(gaussian_probe(LAMBDA0, FWHM, GridSpec(points=4001)))
    fine = moments(gaussian_probe(LAMBDA0, FWHM, GridSpec(points=8001)))
    assert abs(fine.mean - coarse.mean) / coarse.mean < 1e-8
    assert abs(fine.variance - coarse.variance) / coarse.variance < 1e-8


def test_moments_single_node_spike():
    p = np.linspace(1.0, 2.0, 11)
    i = np.zeros(11)
    i[3] = 5.0
    assert moments(p, i).mean == pytest.approx(p[3], rel=1e-12)


def test_moments_uniform_symmetric():
    probe = gaussian_probe(LAMBDA0, FWHM)
    uniform = np.ones_like(probe.intensity)
    assert moments(probe.p_grid, uniform).mean == pytest.approx(probe.p0, rel=1e-12)


def test_moments_zero_intensity_raises():
    p = np.linspace(1.0, 2.0, 11)
    with pytest.raises(ZeroTotalIntensity):
        moments(p, np.zeros(11))


def test_normalize_idempotent_and_scale_free():
    probe = gaussian_probe(LAMBDA0, FWHM)
    once = normalize(probe)
    twice = normalize(once)
    assert np.max(np.abs(twice.intensity - once.intensity)) < 1e-12 * once.intensity.max()
    scaled = normalize(
        ProbeSpectrum(probe.p_grid, 7.0 * probe.intensity, probe.p0, probe.sigma_p)
    )
    assert np.max(np.abs(scaled.intensity - once.intensity)) < 1e-12 * once.intensity.max()


def test_normalize_zero_intensity_raises():
    probe = gaussian_probe(LAMBDA0, FWHM)
    with pytest.raises(ZeroTotalIntensity):
        normalize(
            ProbeSpectrum(
                probe.p_grid, np.zeros_like(probe.intensity), probe.p0, probe.sigma_p
            )
        )


@pytest.mark.parametrize("points", [4000, 2, 1, -5])
def test_gridspec_rejects_bad_point_counts(points):
    with pytest.raises(GridPointsInvalid):
        GridSpec(points=points)


def test_gridspec_rejects_narrow_and_absurd_widths():
    with pytest.raises(GridTooNarrow):
        GridSpec(half_width_sigmas=2.0)
    with pytest.raises(GridTooWide):
        GridSpec(half_width_sigmas=20.0)


def test_probe_spectrum_rejects_malformed_arrays():
    p = np.linspace(1.0, 2.0, 5)
    with pytest.raises(ValueError):
        ProbeSpectrum(p, np.ones(4), 1.5, 0.1)
    with pytest.raises(ValueError):
        ProbeSpectrum(p[::-1], np.ones(5), 1.5, 0.1)
    bad = np.ones(5)
    bad[2] = -1.0
    with pytest.raises(ValueError):
        ProbeSpectrum(p, bad, 1.5, 0.1)


#: intensities from ordinary through tiny to subnormal
_INTENSITY = (
    st.floats(0.0, 1e3)
    | st.floats(0.0, 1e-290)
    | st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300])
)


@settings(max_examples=80, deadline=None)
@given(
    start=st.floats(-1e8, 1e8),
    steps=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30),
    rows=st.sampled_from([0, 1, 2, 5]),
    bind_widths=st.booleans(),
    data=st.data(),
)
@example(start=7.5e6, steps=[1.0] * 8, rows=2, bind_widths=True, data=None)
@example(start=7.5e6, steps=[0.5, 2.0, 1e-3, 7.0], rows=0, bind_widths=True, data=None)
def test_integrals_equal_numpy_trapezoid(start, steps, rows, bind_widths, data):
    # 1-d and (rows, nodes) intensities on uniform and non-uniform grids,
    # with tiny and subnormal values: numpy's own trapezoid, bit for bit
    p = start + np.cumsum([0.0] + steps)
    assume(np.all(np.diff(p) > 0.0))
    shape = (p.size,) if rows == 0 else (rows, p.size)
    n = int(np.prod(shape))
    if data is None:
        # explicit examples: subnormals beside normal values, and one row
        # (the last) made only of subnormals
        y = np.resize([3.0, 5e-324, 1e-310, 0.0, 2.0], n).reshape(shape)
        if rows:
            y[-1] = 5e-324
    else:
        y = np.array(data.draw(st.lists(_INTENSITY, min_size=n, max_size=n))).reshape(shape)
    widths = np.diff(p) if bind_widths else None
    total = np.trapezoid(y, p)
    first = np.trapezoid(p * y, p)
    if np.all(np.isfinite(total) & (total > 1e-300)):
        got_total, got_first = integrals(p, y, widths)
        assert np.array_equal(got_total, total)
        assert np.array_equal(got_first, first)
        assert np.shape(got_total) == np.shape(total)
    else:
        with pytest.raises(ZeroTotalIntensity):
            integrals(p, y, widths)
