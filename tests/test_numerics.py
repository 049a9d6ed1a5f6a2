import decimal
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from axialfisher import numerics
from axialfisher.numerics import (
    RULES,
    RULE_TOL,
    QuadratureError,
    central_derivative,
    check_rule_gap,
    stacked_radial_rule,
)


def test_divergent_integrand_raises_with_estimate():
    """integral 2 pi r dr diverges; its two rule sums are finite but far
    apart, and the gap check says so and carries the gap."""
    coarse, fine = (float(np.sum(weights)) for _, weights in stacked_radial_rule(1.0)[1])
    between = "between radial rules of steps 0.25 and 0.125"
    with pytest.raises(QuadratureError, match=between) as excinfo:
        check_rule_gap(coarse, fine, 0.0, "area")
    assert excinfo.value.estimate == abs(coarse - fine) > 0.0


def test_rule_gap_check_accepts_within_tolerance_plus_floor():
    assert check_rule_gap(1.0 + 0.5 * RULE_TOL, 1.0, 0.0, "x") == 1.0
    assert check_rule_gap(1.0 + 1e-6, 1.0, 2e-6, "x") == 1.0
    with pytest.raises(QuadratureError, match="x differs by"):
        check_rule_gap(1.0 + 1e-6, 1.0, 0.5e-6, "x")
    with pytest.raises(QuadratureError):
        check_rule_gap(math.nan, 1.0, 1.0, "x")


def test_integrate_hook_still_resolves_to_scipy():
    """The benchmark's tracer reads ``numerics.integrate`` when it
    installs; the quadrature itself never does."""
    assert numerics.integrate is integrate


def test_unknown_module_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        numerics.not_a_name  # noqa: B018


def _rule(scale: float, which: int, lower: float = 0.0):
    """Radii and weights of rule ``which`` (0 coarse, 1 fine) in
    ``stacked_radial_rule(scale, lower)``."""
    radii, rules = stacked_radial_rule(scale, lower)
    part, weights = rules[which]
    return radii[part], weights


#: Largest relative error of each rule (coarse, fine) on e^{-u} u^m
#: (m <= 5) and on e^{-a u} (1 <= a <= 4); the rules reach 1.0e-11 and
#: 3.3e-16, and 1.3e-14 and 2.6e-15.
POLYNOMIAL_TOL = (2e-11, 1e-15)
EXPONENTIAL_TOL = (5e-14, 5e-15)


@pytest.mark.parametrize("scale", [1.0, 3.7e-6])
def test_radial_rules_are_accurate_for_gaussian_windowed_integrands(scale):
    """integral exp(-u) u^m 2 pi r dr over u = 2 r^2 / s^2 >= c is
    (pi s^2 / 2) e^{-c} sum_{k<=m} m! c^k / k!, and integral exp(-a u)
    is (pi s^2 / 2) e^{-a c} / a, each rule taken from the lower radius
    s sqrt(c / 2)."""
    for c in (0.0, 0.5, 1.0, 4.0):
        for which in (0, 1):
            radii, weights = _rule(scale, which, scale * math.sqrt(0.5 * c))
            u = 2.0 * radii**2 / scale**2
            for m in range(6):
                exact = 0.5 * math.pi * scale**2 * math.exp(-c) * sum(
                    math.factorial(m) / math.factorial(k) * c**k for k in range(m + 1))
                assert np.dot(weights, np.exp(-u) * u**m) == pytest.approx(
                    exact, rel=POLYNOMIAL_TOL[which])
            for a in np.linspace(1.0, 4.0, 13):
                exact = 0.5 * math.pi * scale**2 * math.exp(-a * c) / a
                assert np.dot(weights, np.exp(-a * u)) == pytest.approx(
                    exact, rel=EXPONENTIAL_TOL[which])


@pytest.mark.parametrize("seed", [48, 96])
@pytest.mark.parametrize("scale", [1.0, 3.7e-6])
def test_radial_rule_is_exact_for_gaussian_times_polynomial(seed, scale):
    """integral exp(-u) p(u) 2 pi r dr over u >= c, for p of degree 5
    with positive coefficients a_m drawn from ``seed``, is sum_m a_m
    times the monomial integral above, and each rule reaches it within
    its polynomial tolerance: positive coefficients keep the relative
    error within the largest monomial's."""
    rng = np.random.default_rng(seed)
    for c in (0.0, 0.5, 1.0, 4.0):
        monomials = [0.5 * math.pi * scale**2 * math.exp(-c) * sum(
            math.factorial(m) / math.factorial(k) * c**k for k in range(m + 1))
            for m in range(6)]
        for _ in range(5):
            coefficients = rng.uniform(0.0, 1.0, 6)
            exact = float(np.dot(coefficients, monomials))
            for which in (0, 1):
                radii, weights = _rule(scale, which, scale * math.sqrt(0.5 * c))
                u = 2.0 * radii**2 / scale**2
                polynomial = np.polynomial.polynomial.polyval(u, coefficients)
                value = np.dot(weights, np.exp(-u) * polynomial)
                assert value == pytest.approx(exact, rel=POLYNOMIAL_TOL[which])


def test_unit_rules_are_their_formula_correctly_rounded():
    """Every unit radius and weight is within half an ulp of its formula,
    taken here in 50-digit decimal arithmetic and arranged differently:
    radius e^{(t - e^{-t}) / 2} / sqrt(2) and weight pi h (1 + e^{-t}) r^2
    at t = t_lo + k h."""
    pi = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")
    radii, weights, parts = numerics._unit_rules()
    assert [part.stop - part.start for part in parts] == [37, 89]
    with decimal.localcontext() as context:
        context.prec = 50
        for (step, t_lo, _), part in zip(RULES, parts):
            for k, (radius, weight) in enumerate(zip(radii[part], weights[part])):
                t = decimal.Decimal(t_lo) + k * decimal.Decimal(step)
                decay = (-t).exp()
                exact_radius = ((t - decay) / 2).exp() / decimal.Decimal(2).sqrt()
                exact_weight = pi * decimal.Decimal(step) * (1 + decay) * exact_radius**2
                for value, exact in ((radius, exact_radius), (weight, exact_weight)):
                    value = float(value)
                    half_ulp = decimal.Decimal(math.ulp(value)) / 2
                    assert abs(decimal.Decimal(value) - exact) <= half_ulp


@pytest.mark.parametrize("seed", [48, 96])
def test_radial_rule_from_zero_is_the_plain_rule(seed):
    """hypot(0, x) is x, so the rule from r = 0 has the unit rule's radii
    times the scale, bit for bit, at fixed scales and at scales drawn
    log-uniformly from ``seed``, and a negative lower radius is refused."""
    unit_radii, unit_weights, parts = numerics._unit_rules()
    drawn = 10.0 ** np.random.default_rng(seed).uniform(-9.0, 3.0, 8)
    for which, part in enumerate(parts):
        for scale in (1.0, 3.7e-6, 0.3, *drawn):
            radii, weights = _rule(scale, which)
            assert np.array_equal(radii, scale * unit_radii[part])
            assert np.array_equal(weights, (scale * scale) * unit_weights[part])
            assert np.array_equal(_rule(scale, which, 0.0)[0], radii)
    for lower in (-1.0, math.nan):
        with pytest.raises(ValueError, match="lower radius"):
            stacked_radial_rule(1.0, lower)


def test_radial_rule_is_cached_and_read_only():
    assert numerics._unit_rules() is numerics._unit_rules()
    radii, weights, _ = numerics._unit_rules()
    for array in (radii, weights):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(ValueError):
        stacked_radial_rule(0.0)


try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

#: numpy's AVX-512 features on this host; X86_V4 is numpy 2.4's name for
#: the AVX-512 dispatch level.
_AVX512 = sorted(name for name, present in __cpu_features__.items()
                 if present and ("AVX512" in name or name == "X86_V4"))

_DUMP_UNIT_RULES = """
from axialfisher import numerics
radii, weights, _ = numerics._unit_rules()
print((radii.tobytes() + weights.tobytes()).hex())
"""


@pytest.mark.skipif(not _AVX512, reason="the host has no AVX-512 features")
def test_unit_rules_do_not_depend_on_numpy_simd_level():
    """Built in a fresh interpreter with numpy's AVX-512 loops off, the
    unit rules are the default build's, byte for byte: no numpy kernel
    reaches them."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    dumps = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)}):
        done = subprocess.run(
            [sys.executable, "-c", _DUMP_UNIT_RULES], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": path, **disabled})
        assert done.returncode == 0, done.stderr
        dumps.append(done.stdout)
    radii, weights, _ = numerics._unit_rules()
    assert dumps == [(radii.tobytes() + weights.tobytes()).hex() + "\n"] * 2


@pytest.mark.parametrize("scale,lower", [(1.0, 0.0), (3.7e-5, 0.0), (2.5, 0.8), (1e-3, 4e-3)])
def test_stacked_rule_holds_each_rule_bit_for_bit(scale, lower):
    radii, rules = stacked_radial_rule(scale, lower)
    unit_radii, unit_weights, parts = numerics._unit_rules()
    assert radii.shape == (37 + 89,)
    assert len(rules) == len(RULES)
    for (part, weights), unit_part in zip(rules, parts):
        assert part == unit_part
        assert radii[part].tobytes() == np.hypot(lower, scale * unit_radii[part]).tobytes()
        assert weights.tobytes() == ((scale * scale) * unit_weights[part]).tobytes()


def test_stacked_rule_validates_its_map():
    with pytest.raises(ValueError, match="scale"):
        stacked_radial_rule(0.0)
    with pytest.raises(ValueError, match="lower"):
        stacked_radial_rule(1.0, -1.0)


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
