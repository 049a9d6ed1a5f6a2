import math

import numpy as np
import pytest
from scipy import integrate

from axialfisher import numerics
from axialfisher.numerics import (
    RULE_NODES,
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
    with pytest.raises(QuadratureError, match="between 48 and 96") as excinfo:
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


def _rule(scale: float, nodes: int, lower: float = 0.0):
    """Radii and weights of the ``nodes``-point rule in
    ``stacked_radial_rule(scale, lower)``."""
    radii, rules = stacked_radial_rule(scale, lower)
    part, weights = rules[RULE_NODES.index(nodes)]
    return radii[part], weights


@pytest.mark.parametrize("nodes", [48, 96])
@pytest.mark.parametrize("scale", [1.0, 3.7e-6])
def test_radial_rule_is_exact_for_gaussian_times_polynomial(nodes, scale):
    """integral exp(-u) u^m 2 pi r dr over u = 2 r^2 / s^2 >= c is
    (pi s^2 / 2) e^{-c} sum_{k<=m} m! c^k / k!, the rule taken from the
    lower radius s sqrt(c / 2)."""
    for c in (0.0, 0.5, 1.0, 4.0):
        radii, weights = _rule(scale, nodes, scale * math.sqrt(0.5 * c))
        u = 2.0 * radii**2 / scale**2
        for m in range(6):
            exact = 0.5 * math.pi * scale**2 * math.exp(-c) * sum(
                math.factorial(m) / math.factorial(k) * c**k for k in range(m + 1))
            assert np.dot(weights, np.exp(-u) * u**m) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("nodes", [48, 96])
def test_radial_rule_from_zero_is_the_plain_rule(nodes):
    """hypot(0, x) is x, so the rule from r = 0 has the unit rule's radii
    times the scale, bit for bit, and a negative lower radius is refused."""
    unit_radii, unit_weights = numerics._laguerre_rule(nodes)
    for scale in (1.0, 3.7e-6, 0.3):
        radii, weights = _rule(scale, nodes)
        assert np.array_equal(radii, scale * unit_radii)
        assert np.array_equal(weights, (scale * scale) * unit_weights)
        assert np.array_equal(_rule(scale, nodes, 0.0)[0], radii)
    for lower in (-1.0, math.nan):
        with pytest.raises(ValueError, match="lower radius"):
            stacked_radial_rule(1.0, lower)


@pytest.mark.parametrize("nodes", [5, 24, 48, 96])
def test_radial_rule_has_the_laguerre_nodes(nodes):
    """On the unit rule, which ``stacked_radial_rule`` maps bit for bit
    (``test_stacked_rule_holds_each_rule_bit_for_bit``)."""
    radii, _ = numerics._laguerre_rule(nodes)
    zeros, _ = np.polynomial.laguerre.laggauss(nodes)
    assert 2.0 * radii**2 == pytest.approx(zeros, rel=1e-13)


@pytest.mark.parametrize("nodes", [5, 24, 48, 96])
def test_radial_rule_has_the_laguerre_weights(nodes):
    """Compared as w e^u.  laggauss's own weights are off by up to 5.7e-12
    (relative) at 96 nodes against 50-digit arithmetic, where this rule is
    within 7e-14; the tolerance is the oracle's."""
    _, weights = numerics._laguerre_rule(nodes)
    zeros, laggauss_weights = np.polynomial.laguerre.laggauss(nodes)
    assert weights / (0.5 * math.pi) == pytest.approx(
        laggauss_weights * np.exp(zeros), rel=1e-11)


@pytest.mark.parametrize("nodes", [5, 48, 96])
@pytest.mark.parametrize("cells", [1, 3, 8])
def test_isolate_zeros_refines_a_coarse_grid(nodes, cells):
    """From a grid with fewer cells than zeros, the grid is refined until
    each bracket holds exactly one zero of L_n."""
    lo, hi = numerics._isolate_zeros(nodes, cells)
    zeros, _ = np.polynomial.laguerre.laggauss(nodes)
    assert lo.size == hi.size == nodes
    assert np.all(lo <= zeros) and np.all(zeros < hi)
    assert np.all(hi[:-1] <= lo[1:])


def test_sturm_count_counts_the_zeros_below():
    zeros, _ = np.polynomial.laguerre.laggauss(24)
    points = np.array([0.0, 0.5 * zeros[0], 0.5 * (zeros[3] + zeros[4]), 200.0])
    assert numerics._zeros_below(24, points).tolist() == [0, 0, 4, 24]
    assert numerics._zeros_below(24, points.reshape(2, 2)).tolist() == [[0, 0], [4, 24]]


def test_radial_rule_is_cached_and_read_only():
    first = _rule(1.0, 48)
    assert _rule(2.0, 48)[0] == pytest.approx(2.0 * first[0], rel=1e-15)
    with pytest.raises(ValueError):
        numerics._laguerre_rule(48)[0][0] = 1.0
    with pytest.raises(ValueError):
        numerics._stacked_laguerre_rules()[0][0] = 1.0
    with pytest.raises(ValueError):
        stacked_radial_rule(0.0)


@pytest.mark.parametrize("scale,lower", [(1.0, 0.0), (3.7e-5, 0.0), (2.5, 0.8), (1e-3, 4e-3)])
def test_stacked_rule_holds_each_rule_bit_for_bit(scale, lower):
    radii, rules = stacked_radial_rule(scale, lower)
    assert radii.shape == (sum(RULE_NODES),)
    assert len(rules) == len(RULE_NODES)
    for nodes, (part, weights) in zip(RULE_NODES, rules):
        unit_radii, unit_weights = numerics._laguerre_rule(nodes)
        assert radii[part].tobytes() == np.hypot(lower, scale * unit_radii).tobytes()
        assert weights.tobytes() == ((scale * scale) * unit_weights).tobytes()


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
