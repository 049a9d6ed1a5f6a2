import math

import numpy as np
import pytest
from scipy import integrate, special

from axialfisher import numerics
from axialfisher.numerics import (
    SUBDIVISION_CAP,
    QuadratureError,
    bessel_j0,
    central_derivative,
    finite_integral,
    integral_to_infinity,
    radial_rule,
)


def test_gaussian_integral():
    value = integral_to_infinity(lambda r: np.exp(-r * r), scale=1.0)
    assert value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_exponential_with_lower_limit():
    value = integral_to_infinity(lambda r: np.exp(-r), scale=1.0, lower=1.0)
    assert value == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_scale_conditions_but_does_not_change_the_answer():
    exact = math.sqrt(math.pi) / 2.0
    for scale in (0.01, 0.3, 1.0, 7.0):
        value = integral_to_infinity(lambda r: np.exp(-r * r), scale=scale)
        assert value == pytest.approx(exact, rel=1e-10)


def test_rejects_bad_scale_and_tolerance():
    with pytest.raises(ValueError):
        integral_to_infinity(lambda r: np.exp(-r), scale=0.0)
    with pytest.raises(ValueError):
        integral_to_infinity(lambda r: np.exp(-r), scale=1.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        integral_to_infinity(lambda r: np.exp(-r), scale=1.0, rel_tol=2.0)


def test_divergent_integrand_raises_with_estimate():
    with pytest.raises(QuadratureError) as excinfo:
        integral_to_infinity(lambda r: np.ones_like(r), scale=1.0)
    assert math.isfinite(excinfo.value.estimate) or excinfo.value.estimate > 0.0


def test_kronrod_and_gauss_rules_are_exact_to_their_degrees():
    """The 15-point Kronrod rule integrates x^d over [-1, 1] exactly for
    d <= 22 and the embedded 7-point Gauss rule for d <= 13; neither is
    exact one even degree further."""
    nodes = numerics._NODES

    def moment_error(weights, degree):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        return abs(float(np.dot(weights, nodes**degree)) - exact)

    for degree in range(23):
        assert moment_error(numerics._KRONROD_WEIGHTS, degree) <= 1e-15
    for degree in range(14):
        assert moment_error(numerics._GAUSS_WEIGHTS, degree) <= 1e-15
    assert moment_error(numerics._KRONROD_WEIGHTS, 24) > 1e-9
    assert moment_error(numerics._GAUSS_WEIGHTS, 14) > 1e-6
    assert numerics._GAUSS_WEIGHTS[::2].tolist() == [0.0] * 8


@pytest.mark.parametrize("lower", [0.0, 1.0, 5.0, 30.0])
def test_lower_limited_exponential_agrees_with_scipy_quad(lower):
    value = integral_to_infinity(lambda r: np.exp(-r), scale=1.0, lower=lower, rel_tol=1e-12)
    oracle, _ = integrate.quad(lambda r: math.exp(-r), lower, math.inf,
                               epsabs=0.0, epsrel=1e-13, limit=200)
    assert value == pytest.approx(oracle, rel=1e-12)
    assert value == pytest.approx(math.exp(-lower), rel=1e-12)


@pytest.mark.parametrize("frequency", [1.0, 10.0, 50.0])
def test_oscillatory_finite_integral_agrees_with_scipy_quad(frequency):
    value = finite_integral(
        lambda x: np.cos(frequency * x) * np.exp(-0.1 * x * x), 0.0, 10.0,
        rel_tol=1e-10, abs_tol=1e-12,
    )
    oracle, _ = integrate.quad(
        lambda x: math.cos(frequency * x) * math.exp(-0.1 * x * x), 0.0, 10.0,
        epsabs=1e-13, epsrel=1e-12, limit=500,
    )
    assert abs(value - oracle) <= 1e-12 + 1e-10 * abs(oracle)


def test_too_many_panels_raise_with_estimate():
    """~320 oscillations need more than SUBDIVISION_CAP panels."""
    with pytest.raises(QuadratureError, match=f"{SUBDIVISION_CAP} panels") as excinfo:
        finite_integral(lambda x: np.cos(200.0 * x), 0.0, 10.0, rel_tol=1e-10, abs_tol=1e-12)
    assert excinfo.value.estimate > 0.0


def test_unresolvable_jump_raises_with_estimate():
    """A jump needs panels ~tolerance wide around it; below ~2000 ulps of
    its position the rule stops splitting and says where."""
    def step(x):
        return (x > 1.0 / 3.0).astype(float)

    assert finite_integral(step, 0.0, 1.0, rel_tol=1e-13) == pytest.approx(2.0 / 3.0, rel=1e-13)
    with pytest.raises(QuadratureError, match="cannot resolve the integrand near 0.333") as excinfo:
        finite_integral(step, 0.0, 1.0, rel_tol=5e-14)
    assert excinfo.value.estimate > 0.0


def test_integrand_must_take_and_return_arrays():
    with pytest.raises(ValueError, match="must take and return arrays"):
        finite_integral(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(QuadratureError, match="not finite at 0.5"):
        finite_integral(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)


def test_bessel_j0_matches_scipy():
    x = np.linspace(0.0, 420.0, 100_001)
    assert np.max(np.abs(bessel_j0(x) - special.j0(x))) <= 1e-14
    assert bessel_j0(0.0) == 1.0
    assert np.array_equal(bessel_j0(-x[:100]), bessel_j0(x[:100]))


def test_integrate_hook_still_resolves_to_scipy():
    """The benchmark's tracer reads ``numerics.integrate`` when it
    installs; the quadrature itself never does."""
    assert numerics.integrate is integrate


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
    assert finite_integral(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)


def test_finite_integral_rejects_reversed_limits():
    with pytest.raises(ValueError):
        finite_integral(np.sin, 1.0, 1.0)


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
