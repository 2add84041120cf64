import math

import numpy as np
import pytest
from scipy.integrate import quad

from molrmog.errors import InvalidScheduleParams, TimeOutOfRange
from molrmog.schedule import ScheduleKind, coefficients, make_schedule


def test_constant_drift_closed_form():
    sched = make_schedule("constant_drift", math.sqrt(2), 0.01, 1.0)
    s, sigma, gamma = coefficients(sched, 0.5)
    assert s == 1.0
    assert sigma == pytest.approx(1.0, abs=1e-12)
    assert gamma == pytest.approx(1.0, abs=1e-12)
    for t in np.linspace(0.01, 1.0, 7):
        assert sched.s(t) == 1.0
        assert sched.gamma(t) == pytest.approx(math.sqrt(2 * t), rel=1e-12)


def test_vp_closed_form_values():
    sched = make_schedule("vp", 2.0, 0.01, 1.0)
    s, sigma, gamma = coefficients(sched, 1.0)
    assert s == pytest.approx(math.exp(-1.0), rel=1e-10)
    assert sigma == pytest.approx(2.52765, abs=1e-5)
    assert gamma == pytest.approx(0.92988, abs=1e-5)


def test_vp_variance_preserving_identity():
    sched = make_schedule("vp", 3.3, 0.01, 2.0)
    for t in np.linspace(0.01, 2.0, 23):
        assert sched.s(t) ** 2 + sched.gamma(t) ** 2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("kind,rate", [("constant_drift", 1.3), ("vp", 2.7)])
def test_quadrature_oracle_for_sigma(kind, rate):
    sched = make_schedule(kind, rate, 0.01, 1.0)
    for t in [0.01, 0.2, 0.7, 1.0]:
        integrand = lambda xi: sched.g(xi) ** 2 / sched.s(xi) ** 2
        val, _ = quad(integrand, 0.0, t)
        assert sched.sigma(t) == pytest.approx(math.sqrt(val), abs=1e-8)
        assert sched.gamma(t) == pytest.approx(sched.s(t) * sched.sigma(t), rel=1e-10)


def test_gamma_monotone_and_positive():
    for kind, rate in [("constant_drift", 0.8), ("vp", 4.0)]:
        sched = make_schedule(kind, rate, 0.01, 1.0)
        grid = np.linspace(0.01, 1.0, 100)
        g = np.array([sched.gamma(t) for t in grid])
        assert np.all(g > 0)
        assert np.all(np.diff(g) > 0)
        assert np.all(np.array([sched.s(t) for t in grid]) > 0)


def test_invalid_params_rejected():
    with pytest.raises(InvalidScheduleParams):
        make_schedule("constant_drift", -1.0, 0.01, 1.0)
    with pytest.raises(InvalidScheduleParams):
        make_schedule("vp", 0.0, 0.01, 1.0)
    with pytest.raises(InvalidScheduleParams):
        make_schedule("constant_drift", 1.0, 0.0, 1.0)
    with pytest.raises(InvalidScheduleParams):
        make_schedule("constant_drift", 1.0, 1.0, 0.5)
    with pytest.raises(InvalidScheduleParams):
        make_schedule("brownian_bridge", 1.0, 0.01, 1.0)


def test_overflowing_sigma_rejected():
    with pytest.raises(InvalidScheduleParams):
        make_schedule("vp", 1e308, 0.01, 1.0)
    with pytest.raises(InvalidScheduleParams):
        make_schedule("constant_drift", 1e300, 0.01, 1e20)
    assert math.isfinite(make_schedule("vp", 700.0, 0.01, 1.0).sigma(1.0))


def test_time_out_of_range():
    sched = make_schedule("constant_drift", 1.0, 0.05, 1.0)
    with pytest.raises(TimeOutOfRange):
        coefficients(sched, 0.01)
    with pytest.raises(TimeOutOfRange):
        coefficients(sched, 1.5)
    # boundary times are allowed and gamma stays positive there
    assert coefficients(sched, 0.05)[2] > 0


def test_kind_accepts_enum_and_string():
    a = make_schedule(ScheduleKind.VARIANCE_PRESERVING, 2.0)
    b = make_schedule("vp", 2.0)
    assert a == b


def test_non_numeric_params_rejected_and_numeric_strings_coerced():
    for args in [(1.0, "a", 1.0), (1.0, 0.01, "a"), ("x", 0.01, 1.0), (None, 0.01, 1.0),
                 ([1.0], 0.01, 1.0), (1.0, 0.01, float("inf")), (1.0, 0.01, float("nan"))]:
        with pytest.raises(InvalidScheduleParams):
            make_schedule("vp", *args)
    with pytest.raises(InvalidScheduleParams):
        make_schedule(5, 1.0)
    sched = make_schedule("vp", "2", "0.01", 1)
    assert sched == make_schedule("vp", 2.0, 0.01, 1.0)
    assert isinstance(sched.t_max, float)
