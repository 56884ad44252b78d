"""Property tests: the GEV kernel against scipy, the link bounds, the copula
reordering, the max step on awkward records, and the maxima reader on
arbitrary bytes.

Every test runs with derandomize=True, so hypothesis draws the same examples
on every run and the suite stays reproducible.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import stats

from spatgev.copula import rank_reorder
from spatgev.dataio import read_maxima_csv
from spatgev.errors import DataError
from spatgev.gev import (
    LINK,
    XI_HI,
    XI_LO,
    XI_SWITCH,
    cdf,
    logpdf,
    quantile,
    reduced_variate,
    shape_inverse,
    shape_inverse_deriv,
    shape_prior_logdensity,
    trend_inverse,
    trend_inverse_derivs,
    trend_prior_logdensity,
)
from spatgev.site_fit import MIN_OBS_STATIONARY, MIN_OBS_TREND, fit_site, site_loglik

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)

# shapes across the link's range, plus the Gumbel band around zero
shapes = st.one_of(
    st.floats(-0.45, 0.45),
    st.floats(-XI_SWITCH, XI_SWITCH),
    st.just(0.0),
)
# shapes far enough from zero that a point 1e-9 from the support edge
# differs from the edge by more than rounding
edge_shapes = st.one_of(st.floats(-0.45, -0.05), st.floats(0.05, 0.45))


def _scipy(xi):
    return stats.genextreme(c=-np.asarray(xi))


@SETTINGS
@given(xi=hnp.arrays(float, 8, elements=shapes),
       z=hnp.arrays(float, 8, elements=st.floats(-4.0, 40.0)))
def test_kernel_matches_scipy(xi, z):
    ref = _scipy(xi)
    assert_allclose(logpdf(z, 0.0, 1.0, xi), ref.logpdf(z), rtol=1e-9, atol=1e-12)
    assert_allclose(cdf(z, 0.0, 1.0, xi), ref.cdf(z), rtol=1e-9, atol=1e-12)


@SETTINGS
@given(xi=hnp.arrays(float, 8, elements=edge_shapes),
       d=hnp.arrays(float, 8, elements=st.floats(-1e-9, 1e-9).filter(
           lambda v: abs(v) >= 1e-11)))
def test_kernel_matches_scipy_at_the_support_edge(xi, d):
    # d > 0 lies inside the support, d < 0 outside
    z = -1.0 / xi + np.sign(xi) * d
    ref = _scipy(xi)
    with np.errstate(over="ignore"):
        expect_lp, expect_cdf = ref.logpdf(z), ref.cdf(z)
    assert_allclose(logpdf(z, 0.0, 1.0, xi), expect_lp, rtol=1e-9)
    assert_allclose(cdf(z, 0.0, 1.0, xi), expect_cdf, rtol=1e-9, atol=1e-300)
    assert np.all(np.isneginf(logpdf(z, 0.0, 1.0, xi)[d < 0]))


@SETTINGS
@given(xi=st.floats(-0.45, 0.45),
       z=hnp.arrays(float, st.integers(1, 20), elements=st.floats(-1e3, 1e3)))
@example(xi=0.3, z=np.array([-10.0, 0.0, 5.0]))  # one point below the support
@example(xi=-0.3, z=np.array([-1.0, 10.0]))  # one point above it
def test_common_path_is_bit_equal_to_general_path(xi, z):
    scalar = reduced_variate(z, xi)
    array = reduced_variate(z, np.full_like(z, xi))
    # one extra shape inside the Taylor band sends every entry down the general path
    general = reduced_variate(np.append(z, 1.0), np.append(np.full_like(z, xi), 0.0))[:-1]
    assert np.array_equal(scalar, array)
    assert np.array_equal(scalar, general)


@SETTINGS
@given(xi=hnp.arrays(float, 8, elements=shapes),
       p=hnp.arrays(float, 8, elements=st.floats(1e-6, 1.0 - 1e-6)))
def test_cdf_inverts_quantile(xi, p):
    loc, scale = 100.0, 30.0
    assert_allclose(cdf(quantile(p, loc, scale, xi), loc, scale, xi), p,
                    rtol=1e-9, atol=1e-14)


@SETTINGS
@given(v=st.floats(allow_nan=False, allow_infinity=False))
def test_links_stay_inside_open_intervals(v):
    with np.errstate(over="ignore"):
        for xi in (shape_inverse(v), shape_inverse(np.array([v]))[0]):
            assert XI_LO < xi < XI_HI
    for delta in (trend_inverse(v), trend_inverse(np.array([v]))[0]):
        assert -LINK.delta0 < delta < LINK.delta0


@SETTINGS
@given(phi=st.one_of(st.floats(), st.floats(-50.0, 50.0)))
@example(phi=0.0)
@example(phi=1e300)
@example(phi=-1e300)
def test_shape_prior_scalar_path_is_bit_equal_to_0d_array(phi):
    scalar = shape_prior_logdensity(phi)
    array = shape_prior_logdensity(np.asarray(phi))
    assert type(scalar) is type(array) is float
    assert np.float64(scalar).tobytes() == np.float64(array).tobytes()


def test_large_shape_and_constant_series_raise_no_warning():
    # exp((phi - a) / b) overflows at phi = 1e4; every value there is clamped
    # or zeroed, so nothing may warn, and neither may a max step that walks there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for phi in (1e4, np.array([1e4, -1e4])):
            shape_inverse(phi)
            shape_inverse_deriv(phi)
            shape_prior_logdensity(phi)
        y, years = _record(True, 1e12, [0], 0)
        try:
            fit_site(y, years, trend=True)
        except DataError:
            pass


def test_trend_map_and_prior_hold_gamma_without_warnings():
    # gamma / delta0 overflowed near the largest float; the values must stay
    # those of the unguarded formulas, bit for bit, and nothing may warn
    pos = [0.0, 1e-3, 0.05, 1.0, 1e10, 1e154, 1e200, 1e300, 1e306, 1e308, np.inf]
    gammas = np.array(pos + [-g for g in pos[1:]] + [np.nan])
    d0, sd = LINK.delta0, 0.5 * LINK.delta0
    edge = np.nextafter(d0, 0.0)
    with np.errstate(all="ignore"):
        ref_delta = np.clip(d0 * np.tanh(gammas / d0), -edge, edge)
        ref_prior = -0.5 * math.log(2.0 * math.pi) - math.log(sd) - 0.5 * (gammas / sd) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(trend_inverse(gammas), ref_delta, equal_nan=True)
        assert np.array_equal(trend_prior_logdensity(gammas), ref_prior, equal_nan=True)
        for k, g in enumerate(gammas):
            for arg in (float(g), np.asarray(g)):
                assert np.float64(trend_inverse(arg)).tobytes() == ref_delta[k].tobytes()
                assert np.float64(trend_prior_logdensity(arg)).tobytes() == ref_prior[k].tobytes()
        d1, d2 = trend_inverse_derivs(gammas[:-1])
        assert np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))


@SETTINGS
@given(data=st.data(), n_sites=st.integers(1, 4), n_years=st.integers(1, 12))
def test_rank_reorder_preserves_each_site_multiset(data, n_sites, n_years):
    ties = st.integers(0, 3).map(float)  # few distinct values: many ties
    hist = data.draw(hnp.arrays(float, (n_sites, n_years), elements=ties))
    samples = data.draw(hnp.arrays(float, (n_sites, n_years),
                                   elements=st.one_of(ties, st.floats(-1e6, 1e6))))
    out = rank_reorder(hist, samples)
    assert np.array_equal(np.sort(out, axis=1), np.sort(samples, axis=1))


def _record(trend, magnitude, levels, extra):
    n = (MIN_OBS_TREND if trend else MIN_OBS_STATIONARY) + extra
    y = magnitude * (1.0 + np.resize(np.asarray(levels, dtype=float), n))
    return y, 1950.0 + np.arange(n, dtype=float)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(trend=st.booleans(),
       magnitude=st.sampled_from([1e-8, 1.0, 1e12]),
       levels=st.lists(st.integers(0, 4), min_size=1, max_size=6),
       extra=st.integers(0, 3))
@example(trend=True, magnitude=1e12, levels=[0], extra=0)  # constant series
@example(trend=False, magnitude=1e-8, levels=[0], extra=0)
@example(trend=False, magnitude=1e-8, levels=[0, 1], extra=0)  # two tied values
@example(trend=True, magnitude=1.0, levels=[0, 1, 3], extra=0)  # minimum n with trend
def test_fit_site_gives_a_typed_error_or_a_finite_fit(trend, magnitude, levels, extra):
    y, years = _record(trend, magnitude, levels, extra)
    try:
        fit = fit_site(y, years, trend=trend)
    except DataError:
        return
    assert np.all(np.isfinite(fit.eta_hat))
    assert np.all(np.isfinite(fit.precision))
    assert np.isfinite(fit.loglik)
    # the reported loglik is the objective at the reported mode, bit for bit
    assert np.float64(fit.loglik).tobytes() == \
        np.float64(site_loglik(fit.eta_hat, y, years)).tobytes()
    # the precision is symmetric positive definite
    assert np.array_equal(fit.precision, fit.precision.T)
    assert np.linalg.eigvalsh(fit.precision).min() > 0.0


@SETTINGS
@given(body=st.binary(max_size=120))
@example(body=b"A,2000,1\nA,nan,2\n")
@example(body=b'A,"2000\n",1\n')
@example(body=b"A,2000,1\x00\n")
def test_maxima_reader_gives_rows_or_a_data_error(tmp_path_factory, body):
    p = tmp_path_factory.mktemp("csv") / "m.csv"
    p.write_bytes(b"station,year,amax\n" + body)
    try:
        rows = read_maxima_csv(str(p))
    except DataError as exc:
        assert "m.csv" in str(exc)
        return
    assert all(isinstance(yr, int) for _, yr, _ in rows)
