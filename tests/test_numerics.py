import decimal
import math
import os
import platform
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
    libm_exp,
    on_rule_nodes,
    stacked_radial_rule,
    unit_rule_norms_sq,
    unit_rule_sums,
)


def test_divergent_integrand_raises_with_estimate():
    """integral 2 pi r dr diverges; its two rule sums are finite but far
    apart, and the gap check says so and carries the gap."""
    coarse, fine = unit_rule_sums(np.ones_like(stacked_radial_rule(1.0))).tolist()
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


def _integral(fn, scale: float, which: int, lower: float = 0.0) -> float:
    """``integral fn(r) 2 pi r dr`` over [lower, inf) on rule ``which``
    (0 coarse, 1 fine): scale^2 times that rule's unit sum of ``fn`` on
    the radii of ``stacked_radial_rule(scale, lower)``."""
    radii = stacked_radial_rule(scale, lower)
    return float(scale * scale * unit_rule_sums(fn(radii))[which])


def _rule_parts() -> list[slice]:
    """The slice of the stacked radii that holds each rule, coarse first."""
    rules = numerics._unit_rules()
    return [slice(start, start + size)
            for start, size in zip(rules.starts.tolist(), rules.sizes.tolist())]


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
        lower = scale * math.sqrt(0.5 * c)
        for which in (0, 1):
            for m in range(6):
                exact = 0.5 * math.pi * scale**2 * math.exp(-c) * sum(
                    math.factorial(m) / math.factorial(k) * c**k for k in range(m + 1))

                def monomial(r, m=m):
                    u = 2.0 * r**2 / scale**2
                    return np.exp(-u) * u**m

                assert _integral(monomial, scale, which, lower) == pytest.approx(
                    exact, rel=POLYNOMIAL_TOL[which])
            for a in np.linspace(1.0, 4.0, 13):
                exact = 0.5 * math.pi * scale**2 * math.exp(-a * c) / a
                assert _integral(lambda r, a=a: np.exp(-2.0 * a * r**2 / scale**2),
                                 scale, which, lower) == pytest.approx(
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

            def integrand(r):
                u = 2.0 * r**2 / scale**2
                return np.exp(-u) * np.polynomial.polynomial.polyval(u, coefficients)

            for which in (0, 1):
                value = _integral(integrand, scale, which, scale * math.sqrt(0.5 * c))
                assert value == pytest.approx(exact, rel=POLYNOMIAL_TOL[which])


def test_unit_rules_are_their_formula_correctly_rounded():
    """Every unit radius, u, window and weight is within half an ulp of
    its formula, taken here in 50-digit decimal arithmetic and arranged
    differently: radius e^{(t - e^{-t}) / 2} / sqrt(2), u = 2 r^2,
    window e^{-u} and weight pi h (1 + e^{-t}) r^2 at t = t_lo + k h;
    ``unit_rule_window`` hands out the cached u and window."""
    pi = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")
    radii, us, windows, weights, starts, sizes, pair_weights = numerics._unit_rules()
    assert starts.tolist() == [0, 37] and sizes.tolist() == [37, 89]
    assert pair_weights.tolist() == [w for weight in weights.tolist() for w in (weight, weight)]
    u_window = numerics.unit_rule_window()
    assert u_window[0] is us and u_window[1] is windows
    parts = _rule_parts()
    with decimal.localcontext() as context:
        context.prec = 50
        for (step, t_lo, _), part in zip(RULES, parts):
            nodes = zip(radii[part], us[part], windows[part], weights[part])
            for k, (radius, u, window, weight) in enumerate(nodes):
                t = decimal.Decimal(t_lo) + k * decimal.Decimal(step)
                decay = (-t).exp()
                exact_radius = ((t - decay) / 2).exp() / decimal.Decimal(2).sqrt()
                exact_u = 2 * exact_radius**2
                exact_weight = pi * decimal.Decimal(step) * (1 + decay) * exact_radius**2
                for value, exact in ((radius, exact_radius), (u, exact_u),
                                     (window, (-exact_u).exp()), (weight, exact_weight)):
                    value = float(value)
                    half_ulp = decimal.Decimal(math.ulp(value)) / 2
                    assert abs(decimal.Decimal(value) - exact) <= half_ulp


@pytest.mark.parametrize("seed", [48, 96])
def test_radial_rule_from_zero_is_the_plain_rule(seed):
    """hypot(0, x) is x, so the rule from r = 0 has the unit rule's radii
    times the scale, bit for bit, at fixed scales and at scales drawn
    log-uniformly from ``seed``, and a negative lower radius is refused."""
    unit_radii = numerics._unit_rules().radii
    drawn = 10.0 ** np.random.default_rng(seed).uniform(-9.0, 3.0, 8)
    for scale in (1.0, 3.7e-6, 0.3, *drawn):
        radii = stacked_radial_rule(scale)
        assert radii.tobytes() == (scale * unit_radii).tobytes()
        assert radii.tobytes() == np.hypot(0.0, scale * unit_radii).tobytes()
        assert stacked_radial_rule(scale, 0.0).tobytes() == radii.tobytes()
    for lower in (-1.0, math.nan):
        with pytest.raises(ValueError, match="lower radius"):
            stacked_radial_rule(1.0, lower)


def test_unit_rules_are_built_on_first_use_not_on_import():
    """Importing the package and its CLI builds no rule and no node
    constant (u and the window are built with the rules): the ~5 ms
    ``decimal`` build stays off the import path."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import axialfisher.cli\n"
              "from axialfisher import numerics\n"
              "print(numerics._unit_rules.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_radial_rule_is_cached_and_read_only():
    """Every array of the rules, the node constants u and e^{-u} among
    them, is built once and cannot be written."""
    assert numerics._unit_rules() is numerics._unit_rules()
    rules = numerics._unit_rules()
    assert rules._fields == ("radii", "u", "window", "weights", "starts", "sizes",
                             "pair_weights")
    for array in rules:
        with pytest.raises(ValueError):
            array[0] = 1
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
rules = numerics._unit_rules()
print(b"".join(array.tobytes() for array in rules).hex())
"""


@pytest.mark.skipif(not _AVX512, reason="the host has no AVX-512 features")
def test_unit_rules_do_not_depend_on_numpy_simd_level():
    """Built in a fresh interpreter with numpy's AVX-512 loops off, the
    unit rules (radii, u, window, weights and index arrays) are the
    default build's, byte for byte: no numpy kernel reaches them."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    dumps = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)}):
        done = subprocess.run(
            [sys.executable, "-c", _DUMP_UNIT_RULES], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": path, **disabled})
        assert done.returncode == 0, done.stderr
        dumps.append(done.stdout)
    rules = numerics._unit_rules()
    assert dumps == [b"".join(array.tobytes() for array in rules).hex() + "\n"] * 2


#: The three radial routes to the bounds on seeded free beams and point
#: sources, then each command once; the artifacts go to the working
#: directory.
_ROUTES_AND_COMMANDS = """
import math
import numpy as np
from axialfisher import beam_optics, fisher
from axialfisher.cli import main
rng = np.random.default_rng(34)
values = []
for _ in range(6):
    beam = beam_optics.BeamParams.from_rayleigh_range(
        10.0 ** rng.uniform(-6.5, -5.8), 10.0 ** rng.uniform(-6.0, -3.0))
    z = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0)) * beam.rayleigh_range
    w_sq = beam_optics.beam_width_sq(beam, z)
    pupil = beam_optics.pupil_field_family(10.0 ** rng.uniform(-3.3, -2.3), 1e7)
    values += [fisher.qfi_pure_state(beam_optics.gaussian_field_family(beam), z),
               fisher.qfi_pure_state(pupil, 10.0 ** rng.uniform(-1.5, 0.0)),
               fisher.beam_fi_numeric(beam, z),
               fisher.info_fraction_outside(w_sq, math.sqrt(w_sq) * rng.uniform(0.0, 2.5))]
print(" ".join(value.hex() for value in values))
beam = ["--wavelength", "632.8nm", "--rayleigh-range", "18.9um"]
relay = ["--focal", "10mm", "--object-distance", "12mm"]
trials = ["--n-per-trial", "2000", "--trials", "4"]
print(main(["fi-scan", *beam, *relay, "--zmin", "10mm", "--zmax", "60mm", "--out", "scan.csv"]),
      main(["fi-density", *beam, *relay, "--out", "density.csv"]),
      main(["optimal-plane", *beam, *relay, "--out", "planes.json"]),
      main(["point-source", "--wavenumber", "1e7", "--pupil-width", "2mm",
            "--distance", "1m", "--out", "point.json"]),
      main(["simulate", *beam, *relay, "--estimator", "mle", *trials, "--out", "simulate.csv"]),
      main(["reproduce-experiment", *trials, "--out", "preset.csv"]))
"""

_CPU_KNOBS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def _routes_and_commands(workdir: Path, **knobs) -> tuple[str, dict]:
    """stdout and stderr of ``_ROUTES_AND_COMMANDS`` in a fresh
    interpreter set up by ``knobs`` alone, and the bytes of every artifact
    it wrote."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {name: value for name, value in os.environ.items() if name not in _CPU_KNOBS}
    workdir.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", _ROUTES_AND_COMMANDS], capture_output=True, text=True,
        timeout=120, cwd=workdir, env={**env, "PYTHONPATH": path, **knobs})
    assert done.returncode == 0, done.stderr
    return done.stdout + done.stderr, {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.fixture(scope="module")
def default_routes_and_commands(tmp_path_factory):
    return _routes_and_commands(tmp_path_factory.mktemp("cpu") / "default")


_X86 = platform.machine().lower() in ("x86_64", "amd64")

#: numpy's AVX2 dispatch (AVX2, FMA3 and X86_V3, its numpy 2.4 level)
#: and every AVX-512 feature of this host.
_AVX2_AND_UP = sorted({"AVX2", "FMA3", "X86_V3", *_AVX512})


def _without_qfis(output: str) -> str:
    """``output`` of ``_ROUTES_AND_COMMANDS`` with the 12 QFIs of its
    first line (the first two of each group of four values) blanked."""
    values, rest = output.split("\n", 1)
    kept = [value if index % 4 >= 2 else "-" for index, value in enumerate(values.split())]
    return " ".join(kept) + "\n" + rest


@pytest.mark.parametrize("knobs,same_qfis", [
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, True, id="openblas-haswell",
                 marks=pytest.mark.skipif(
                     not (_X86 and __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3")),
                     reason="OpenBLAS's Haswell kernels need an x86-64 host with AVX2 and FMA3")),
    pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, True, id="openblas-prescott",
                 marks=pytest.mark.skipif(
                     not _X86, reason="OpenBLAS's Prescott kernels need an x86-64 host")),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)}, True, id="avx512-off",
                 marks=pytest.mark.skipif(not _AVX512, reason="the host has no AVX-512 features")),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(_AVX2_AND_UP)}, False, id="avx2-off",
                 marks=pytest.mark.skipif(not __cpu_features__.get("AVX2"),
                                          reason="the host has no AVX2")),
])
def test_bound_routes_and_artifacts_are_the_same_bits_on_every_cpu(
        knobs, same_qfis, default_routes_and_commands, tmp_path):
    """``qfi_pure_state``, ``beam_fi_numeric`` and ``info_fraction_outside``
    give the same bits (``float.hex``), and the six commands the same
    output, exit codes and artifact bytes, under another OpenBLAS kernel
    or with numpy's AVX-512 loops off as under the default set-up: no
    BLAS call reaches them, and no numpy loop whose AVX-512 form rounds
    differently.  With the AVX2 loops off as well, everything but the 12
    QFIs is still the same bits: ``qfi_pure_state``'s complex products
    are fused multiply-adds only where numpy dispatches AVX2 or AVX-512
    (ROADMAP item 7)."""
    output, artifacts = _routes_and_commands(tmp_path / "knobs", **knobs)
    default_output, default_artifacts = default_routes_and_commands
    if same_qfis:
        assert output == default_output
    else:
        assert _without_qfis(output) == _without_qfis(default_output)
    assert output.splitlines()[-1] == "0 0 0 0 0 0"
    assert sorted(artifacts) == sorted(default_artifacts)
    for name, data in artifacts.items():
        assert data == default_artifacts[name], name


@pytest.mark.parametrize("scale,lower", [(1.0, 0.0), (3.7e-5, 0.0), (2.5, 0.8), (1e-3, 4e-3)])
def test_stacked_rule_holds_each_rule_bit_for_bit(scale, lower):
    """The stacked radii are each rule's hypot(lower, scale rho_i), coarse
    first, bit for bit, and ``unit_rule_sums`` reduces each rule's part of
    them with that rule's unit weights alone."""
    radii = stacked_radial_rule(scale, lower)
    rules = numerics._unit_rules()
    assert radii.shape == (37 + 89,)
    assert len(_rule_parts()) == len(RULES)
    for which, part in enumerate(_rule_parts()):
        assert radii[part].tobytes() == np.hypot(lower, scale * rules.radii[part]).tobytes()
        indicator = np.zeros_like(radii)
        indicator[part] = 1.0
        sums = unit_rule_sums(indicator)
        assert sums[which] == pytest.approx(math.fsum(rules.weights[part]), rel=UNIT_SUM_TOL)
        assert sums[1 - which] == 0.0


#: Largest relative gap between ``unit_rule_sums`` and a per-rule
#: ``math.fsum`` of value x weight, for positive values: pairwise summation
#: of at most 89 products is within ~(log2(89) + 1) eps of the exact sum.
UNIT_SUM_TOL = 2e-15


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unit_rule_sums_match_a_per_rule_fsum(seed):
    """Each rule's sum of positive values times unit weights, along the
    last axis of any leading shape, within ``UNIT_SUM_TOL`` of
    ``math.fsum``; the real and imaginary parts of complex values are
    summed alike, and ``unit_rule_norms_sq`` sums their squares."""
    rng = np.random.default_rng(seed)
    rules = numerics._unit_rules()
    values = rng.uniform(0.0, 1.0, (3, 2, rules.radii.size)) * np.exp(-rules.radii**2)
    sums = unit_rule_sums(values)
    assert sums.shape == (3, 2, len(RULES))
    for index in np.ndindex(values.shape[:-1]):
        for which, part in enumerate(_rule_parts()):
            exact = math.fsum(values[index][part] * rules.weights[part])
            assert sums[index][which] == pytest.approx(exact, rel=UNIT_SUM_TOL)
    fields = values[0] + 1j * values[1]
    complex_sums, norms_sq = unit_rule_sums(fields), unit_rule_norms_sq(fields)
    for index in np.ndindex(fields.shape[:-1]):
        for which, part in enumerate(_rule_parts()):
            weights = rules.weights[part]
            re, im = values[0][index][part], values[1][index][part]
            for got, terms in ((complex_sums.real, re * weights),
                               (complex_sums.imag, im * weights),
                               (norms_sq, [*(re * re * weights), *(im * im * weights)])):
                assert got[index][which] == pytest.approx(math.fsum(terms), rel=UNIT_SUM_TOL)


def test_unit_rule_sums_take_each_row_in_the_same_order():
    """A row's sums do not depend on the rows around it: the 2-D
    reduction gives each row's 1-D sums bit for bit."""
    values = np.random.default_rng(7).standard_normal((2, 5, numerics._unit_rules().radii.size))
    fields = values[0] + 1j * values[1]
    for reduce, rows in ((unit_rule_sums, values[0]), (unit_rule_sums, fields),
                         (unit_rule_norms_sq, fields)):
        sums = reduce(rows)
        for row, row_sums in zip(rows, sums):
            assert reduce(row).tobytes() == row_sums.tobytes()


def test_on_rule_nodes_spreads_each_rule_over_its_radii():
    rules = numerics._unit_rules()
    spread = on_rule_nodes(np.array([[2.0, 3.0], [5.0, 7.0]]))
    assert spread.shape == (2, rules.radii.size)
    for which, part in enumerate(_rule_parts()):
        assert set(spread[:, part][0]) == {(2.0, 3.0)[which]}
        assert set(spread[:, part][1]) == {(5.0, 7.0)[which]}


def test_libm_exp_is_math_exp():
    """Every element is ``math.exp`` of it, bit for bit, into the
    subnormal range and past underflow."""
    x = np.concatenate([-np.random.default_rng(3).uniform(-5.0, 760.0, 4000),
                        [0.0, -0.0, 1.0, -745.2, -800.0]])
    expected = [math.exp(value) for value in x.tolist()]
    assert libm_exp(x).tolist() == expected
    assert libm_exp(x.reshape(5, -1)).ravel().tolist() == expected


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
