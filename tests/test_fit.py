"""Empirical growth fitting and its comparison with predictions."""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from orthantwalks.asympt import PeriodicForm
from orthantwalks.catalog import ENTRIES
from orthantwalks.enumeration import CountSeries, count_profile, count_walks
from orthantwalks.fit import MIN_FIT_N, GrowthFit, common_period, compare, estimate_growth
from orthantwalks.stepset import build_stepset
from orthantwalks.verify import verify_model


def synth(values, log_scale=0.0, flt="anywhere"):
    return CountSeries("float", flt, np.asarray(values, dtype=float), log_scale)


# ------------------------------------------------------------ estimate_growth

def test_fit_pure_geometric():
    u = [1.0] * 513  # s_n = 2^n stored as u_n = s_n / 2^n
    fit = estimate_growth(synth(u, math.log(2)))
    assert fit.period == 1
    assert abs(fit.rho - 2) < 1e-9
    assert abs(fit.alpha) < 1e-6
    assert abs(fit.constants[0] - 1) < 1e-6


def test_fit_polynomial_factor():
    # s_n = 5 * 3^n * n^{-3/2}
    u = [0.0] + [5 * n ** -1.5 for n in range(1, 513)]
    fit = estimate_growth(synth(u, math.log(3)))
    assert abs(fit.rho - 3) < 1e-6
    assert abs(fit.alpha + 1.5) < 0.01
    assert abs(fit.constants[0] / 5 - 1) < 0.01


def test_fit_periodic_with_structural_zeros():
    # even-only support with constant 7, rate 2
    u = [7.0 if n % 2 == 0 else 0.0 for n in range(513)]
    fit = estimate_growth(synth(u, math.log(2)))
    assert fit.period == 2
    assert fit.structural_zeros == (1,)
    assert abs(fit.constants[0] - 7) < 1e-4
    assert 1 not in fit.constants


def test_fit_drops_a_class_whose_constant_it_cannot_read():
    # constant 7 on even n and 1e-300 on odd n, rate 2: the odd class's
    # log-constant, about -690, is past the fitter's reach of 300, so the fit
    # keeps the even class alone and does not call itself converged
    u = [7.0 if n % 2 == 0 else 1e-300 for n in range(513)]
    fit = estimate_growth(synth(u, math.log(2)))
    assert fit.period == 2 and fit.structural_zeros == ()
    assert abs(fit.rho - 2) < 1e-9
    assert list(fit.constants) == [0] and abs(fit.constants[0] - 7) < 1e-4
    assert not fit.converged


def test_fit_exact_fraction_series_past_the_float_range():
    # s_n = (3/2)^n as exact Fractions up to n = 2000, about 1e352 at the end
    fit = estimate_growth(CountSeries("exact", "anywhere",
                                      [Fraction(3, 2) ** n for n in range(2001)]))
    assert abs(fit.rho - 1.5) < 1e-6
    assert abs(fit.alpha) < 1e-3


def test_fit_requires_length():
    with pytest.raises(ValueError):
        estimate_growth(synth([1.0] * 32))


def test_every_catalog_series_fits_from_the_floor():
    # 23 models x 4 standard filters: each fits at every length from MIN_FIT_N up
    # (below 72, the stride-4 ladder left some of them without a fittable class)
    top = MIN_FIT_N + 12
    for e in ENTRIES:
        for flt, series in count_profile(e.stepset(), top).items():
            for n_max in range(MIN_FIT_N, top + 1):
                fit = estimate_growth(replace(series, values=series.values[:n_max + 1]))
                assert fit.constants, (e.name, flt, n_max)


def test_fit_alternating_constants():
    # period-2 constants 3 and 1 at rate 2
    u = [(3.0 if n % 2 == 0 else 1.0) * (1 + 0.5 / max(n, 1)) for n in range(513)]
    fit = estimate_growth(synth(u, math.log(2)))
    assert fit.period == 2
    assert abs(fit.constants[0] / 3 - 1) < 0.01
    assert abs(fit.constants[1] / 1 - 1) < 0.01


def test_fit_tolerance_monotonicity():
    # the fitted constant error shrinks as the series grows
    s = build_stepset(2, ["N", "SE", "S", "SW"])
    want_even = float(12 * mpmath.sqrt(3) / mpmath.pi)
    errs = []
    for n_max in (128, 512):
        fit = estimate_growth(count_walks(s, n_max, mode="float"))
        errs.append(abs(fit.constants[0] / want_even - 1))
    assert errs[1] < errs[0]


# ------------------------------------------------------- compare with a fit

def fitted(constants, period, rho=2.0, alpha=-1.0):
    zeros = tuple(r for r in range(period) if r not in constants)
    return GrowthFit(rho, alpha, period, constants, zeros, True, {})


def predicted(constants, rate=2.0, alpha=-1.0):
    return PeriodicForm(len(constants), list(constants), alpha, rate, str(rate))


@pytest.mark.parametrize("p, q, span", [
    (2, 4, 4), (4, 2, 4), (1, 3, 3), (3, 3, 3), (2, 3, None), (4, 6, None)])
def test_common_period(p, q, span):
    assert common_period(p, q) == span


def test_compare_rejects_incompatible_periods():
    ok, details = compare(predicted([1.0, 1.0, 1.0]), fitted({0: 1.0, 1: 1.0}, 2))
    assert not ok
    assert details["reason"] == "fit period 2 incompatible with 3"


def test_compare_rejects_incompatible_periods_reversed():
    ok, details = compare(predicted([1.0, 1.0]), fitted({0: 1.0, 1: 1.0, 2: 1.0}, 3))
    assert not ok
    assert details["reason"] == "fit period 3 incompatible with 2"


@pytest.mark.parametrize("fit_period, period", [(2, 4), (4, 2)])
def test_compare_aligns_periods_both_ways(fit_period, period):
    # constants repeating with period 2, written out over period 2 or 4
    fit = fitted({r: (3.0, 5.0)[r % 2] for r in range(fit_period)}, fit_period)
    ok, details = compare(predicted([(3.0, 5.0)[r % 2] for r in range(period)]), fit)
    assert ok
    assert details["constant_rel_errs"] == {str(r): 0.0 for r in range(4)}


def test_compare_takes_exact_and_multiprecision_predictions():
    ok, details = compare(predicted([mpmath.mpf(1)], mpmath.mpf(2), Fraction(-1)),
                          fitted({0: 1.0}, 1))
    assert ok
    assert details == {"log_rho_err": 0.0, "alpha_err": 0.0, "constant_rel_errs": {"0": 0.0}}


def test_compare_flags_mass_on_a_predicted_zero_class():
    ok, details = compare(predicted([4.0, 0.0]), fitted({0: 4.0, 1: 1e-5}, 2))
    assert not ok
    assert details["constant_rel_errs"] == {"0": 0.0, "1": math.inf}


def test_compare_accepts_a_structural_zero_on_a_predicted_zero_class():
    ok, details = compare(predicted([4.0, 0.0]), fitted({0: 4.0}, 2))
    assert ok
    assert details["constant_rel_errs"] == {"0": 0.0}


def test_compare_refolds_a_shorter_fit_period():
    ok, details = compare(predicted([3.0, 3.0]), fitted({0: 3.0}, 1))
    assert ok
    assert details["constant_rel_errs"] == {"0": 0.0, "1": 0.0}


@pytest.mark.parametrize("got, passes", [(1.09, True), (1.11, False)])
def test_compare_constant_tolerance(got, passes):
    ok, details = compare(predicted([1.0]), fitted({0: got}, 1))
    assert ok is passes
    assert details["constant_rel_errs"]["0"] == pytest.approx(got - 1)


@pytest.mark.parametrize("rho, alpha", [(2.03, -1.0), (2.0, -1.06)])
def test_compare_rate_and_alpha_tolerances(rho, alpha):
    ok, _ = compare(predicted([1.0]), fitted({0: 1.0}, 1, rho=rho, alpha=alpha))
    assert not ok


# ------------------------------------------------------------ known misfit

@pytest.mark.xfail(strict=True, reason=(
    "slow convergence: the smooth-sheet points of modulus 2*sqrt(3) trail the "
    "crossing rate 7/2 by a factor (0.99)^n, which the second differences "
    "amplify, so at n_max=512 the fit gives alpha -0.486 and constant 0.235 "
    "against -1/2 and 0.26388 (11% off); n_max=1024 and 1536 land within 2%"))
def test_verify_slow_positive_drift_weighted_model():
    s = build_stepset(2, [((1, 1), 1), ((-1, 1), 1), ((0, -1), Fraction(3, 2))])
    rep = verify_model(s, n_max=512)
    assert rep.status == "pass"
