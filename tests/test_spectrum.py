import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sagnac_wva.errors import NonFiniteResult, ValidationError, ZeroTotalIntensity
from sagnac_wva.spectrum import (
    DEFAULT_GRID,
    GridSpec,
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


@pytest.mark.parametrize(
    "lambda0,fwhm,field",
    [(-LAMBDA0, FWHM, "lambda0_nm"), (LAMBDA0, -FWHM, "fwhm_nm"), (-LAMBDA0, -FWHM, "lambda0_nm")],
    ids=["lambda0", "fwhm", "both"],
)
def test_gaussian_probe_rejects_negative_line(lambda0, fwhm, field):
    with pytest.raises(ValidationError, match="which is negative") as exc:
        gaussian_probe(lambda0, fwhm)
    assert exc.value.field == field


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
    probe = gaussian_probe(LAMBDA0, FWHM)
    m = moments(probe.p_grid, probe.intensity)
    assert m.mean == pytest.approx(P0, rel=1e-9)
    assert m.variance == pytest.approx(SIGMA_P**2, rel=1e-6)


def test_moments_converge_under_grid_refinement():
    coarse_probe = gaussian_probe(LAMBDA0, FWHM, GridSpec(points=4001))
    fine_probe = gaussian_probe(LAMBDA0, FWHM, GridSpec(points=8001))
    coarse = moments(coarse_probe.p_grid, coarse_probe.intensity)
    fine = moments(fine_probe.p_grid, fine_probe.intensity)
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
    once = normalize(probe.p_grid, probe.intensity)
    twice = normalize(probe.p_grid, once)
    assert np.max(np.abs(twice - once)) < 1e-12 * once.max()
    scaled = normalize(probe.p_grid, 7.0 * probe.intensity)
    assert np.max(np.abs(scaled - once)) < 1e-12 * once.max()


def test_normalize_zero_intensity_raises():
    probe = gaussian_probe(LAMBDA0, FWHM)
    with pytest.raises(ZeroTotalIntensity):
        normalize(probe.p_grid, np.zeros_like(probe.intensity))


def test_non_finite_total_is_not_reported_as_zero():
    # a nan row next to a zero row: the nan names the cause
    p = np.linspace(1.0, 2.0, 11)
    rows = np.stack([np.zeros(11), np.full(11, np.nan), np.ones(11)])
    with pytest.raises(NonFiniteResult, match="not finite"):
        integrals(p, rows, np.diff(p))
    with pytest.raises(NonFiniteResult, match="not finite"):
        integrals(p, np.full(11, np.inf), np.diff(p))
    with pytest.raises(NonFiniteResult, match="not finite"):
        normalize(p, np.full(11, np.nan))


@pytest.mark.parametrize("points", [4000, 2, 1, -5])
def test_gridspec_rejects_bad_point_counts(points):
    with pytest.raises(ValidationError) as exc:
        GridSpec(points=points)
    assert exc.value.field == "grid.points"


def test_gridspec_rejects_narrow_and_absurd_widths():
    for half_width in (2.0, 20.0):
        with pytest.raises(ValidationError) as exc:
            GridSpec(half_width_sigmas=half_width)
        assert exc.value.field == "grid.half_width_sigmas"


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
    data=st.data(),
)
@example(start=7.5e6, steps=[1.0] * 8, rows=2, data=None)
@example(start=7.5e6, steps=[0.5, 2.0, 1e-3, 7.0], rows=0, data=None)
def test_integrals_equal_numpy_trapezoid(start, steps, rows, data):
    # 1-d and (rows, nodes) intensities on uniform and non-uniform grids,
    # with tiny and subnormal values: numpy's own trapezoid, bit for bit,
    # both with new arrays and through a dirty scratch buffer (the halving
    # is * 0.5 where numpy divides by 2.0)
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
    widths = np.diff(p)
    total = np.trapezoid(y, p)
    first = np.trapezoid(p * y, p)
    scratch = np.full(shape[:-1] + (p.size - 1,), np.nan)
    if np.all(np.isfinite(total) & (total > 1e-300)):
        for extra in ((), (scratch,)):
            got_total, got_first = integrals(p, y.copy(), widths, *extra)
            assert np.array_equal(got_total, total)
            assert np.array_equal(got_first, first)
            assert np.shape(got_total) == np.shape(total)
    else:
        for extra in ((), (scratch,)):
            with pytest.raises(ZeroTotalIntensity):
                integrals(p, y.copy(), widths, *extra)
