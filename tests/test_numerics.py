import math

import numpy as np
import pytest

from axialfisher import numerics
from axialfisher.numerics import (
    QuadratureError,
    central_derivative,
    finite_integral,
    integral_to_infinity,
    radial_rule,
)


def test_gaussian_integral():
    value = integral_to_infinity(lambda r: math.exp(-r * r), scale=1.0)
    assert value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_exponential_with_lower_limit():
    value = integral_to_infinity(lambda r: math.exp(-r), scale=1.0, lower=1.0)
    assert value == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_scale_conditions_but_does_not_change_the_answer():
    exact = math.sqrt(math.pi) / 2.0
    for scale in (0.01, 0.3, 1.0, 7.0):
        value = integral_to_infinity(lambda r: math.exp(-r * r), scale=scale)
        assert value == pytest.approx(exact, rel=1e-10)


def test_rejects_bad_scale_and_tolerance():
    with pytest.raises(ValueError):
        integral_to_infinity(lambda r: math.exp(-r), scale=0.0)
    with pytest.raises(ValueError):
        integral_to_infinity(lambda r: math.exp(-r), scale=1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        integral_to_infinity(lambda r: math.exp(-r), scale=1.0, rel_tol=2.0)


def test_divergent_integrand_raises_with_estimate():
    with pytest.raises(QuadratureError) as excinfo:
        integral_to_infinity(lambda r: 1.0, scale=1.0)
    assert math.isfinite(excinfo.value.estimate) or excinfo.value.estimate > 0.0


def test_quadrature_goes_through_the_rebindable_integrate_global(monkeypatch):
    """``numerics.integrate`` is resolved at call time, so a proxy bound
    there (as the benchmark's tracer binds one) sees every ``quad`` call."""
    real = numerics.integrate
    calls = []

    class Proxy:
        def quad(self, *args, **kwargs):
            calls.append(kwargs.get("epsrel"))
            return real.quad(*args, **kwargs)

    monkeypatch.setattr(numerics, "integrate", Proxy())
    value = integral_to_infinity(lambda r: math.exp(-r), scale=1.0, rel_tol=1e-11)
    assert value == pytest.approx(1.0, rel=1e-11)
    assert calls == [1e-11]


def test_unknown_module_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        numerics.not_a_name  # noqa: B018


@pytest.mark.parametrize("nodes", [48, 96])
@pytest.mark.parametrize("scale", [1.0, 3.7e-6])
def test_radial_rule_is_exact_for_gaussian_times_polynomial(nodes, scale):
    """integral exp(-2 r^2/s^2) (2 r^2/s^2)^m 2 pi r dr = (pi s^2 / 2) m!"""
    radii, weights = radial_rule(scale, nodes)
    u = 2.0 * radii**2 / scale**2
    for m in range(6):
        exact = 0.5 * math.pi * scale**2 * math.factorial(m)
        assert np.dot(weights, np.exp(-u) * u**m) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("nodes", [5, 48, 96])
def test_radial_rule_has_the_laguerre_nodes(nodes):
    radii, _ = radial_rule(1.0, nodes)
    zeros, _ = np.polynomial.laguerre.laggauss(nodes)
    assert 2.0 * radii**2 == pytest.approx(zeros, rel=1e-13)


def test_radial_rule_is_cached_and_read_only():
    first = radial_rule(1.0, 48)
    assert radial_rule(2.0, 48)[0] == pytest.approx(2.0 * first[0], rel=1e-15)
    with pytest.raises(ValueError):
        numerics._laguerre_rule(48)[0][0] = 1.0
    with pytest.raises(ValueError):
        radial_rule(0.0, 48)


def test_finite_integral_basic():
    assert finite_integral(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


def test_finite_integral_rejects_reversed_limits():
    with pytest.raises(ValueError):
        finite_integral(math.sin, 1.0, 1.0)


def test_central_derivative_is_exact_for_cubics():
    # Richardson cancels the h^2 term, which is the only error a cubic has.
    d = central_derivative(lambda x: x**3 - 2.0 * x, 2.0, step=0.1)
    assert d == pytest.approx(10.0, abs=1e-12)


def test_central_derivative_trig():
    d = central_derivative(math.sin, 0.3, step=1e-3)
    assert d == pytest.approx(math.cos(0.3), rel=1e-12)


def test_central_derivative_complex_valued():
    d = central_derivative(lambda x: complex(math.cos(x), math.sin(x)), 0.0, step=1e-3)
    assert d.real == pytest.approx(0.0, abs=1e-12)
    assert d.imag == pytest.approx(1.0, rel=1e-12)


def test_central_derivative_rejects_bad_step():
    with pytest.raises(ValueError):
        central_derivative(math.sin, 0.0, step=0.0)
