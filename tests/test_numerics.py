import ast
import decimal
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from axialfisher import numerics
from axialfisher.beam_optics import BeamParams
from axialfisher.numerics import (
    RULES,
    RULE_TOL,
    QuadratureError,
    check_rule_gap,
    libm_cos,
    libm_exp,
    rule_sums,
    stacked_radial_rule,
    stencil_derivative,
    unit_rule_norms_sq,
    unit_rules,
)
from pure_state_oracle import central_derivative


def test_divergent_integrand_raises_with_estimate():
    """integral 2 pi r dr diverges; its two rule sums are finite but far
    apart, and the gap check says so and carries the gap."""
    ones = np.ones_like(stacked_radial_rule(1.0))
    coarse, fine = rule_sums(ones * unit_rules().weights).tolist()
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


def _integral(fn, scale: float, which: int) -> float:
    """``integral fn(r) 2 pi r dr`` over [0, inf) on rule ``which``
    (0 coarse, 1 fine): scale^2 times that rule's sum of ``fn`` times the
    unit weights on the radii of ``stacked_radial_rule(scale)``."""
    radii = stacked_radial_rule(scale)
    return float(scale * scale * rule_sums(fn(radii) * unit_rules().weights)[which])


def _rule_parts() -> list[slice]:
    """The slice of the stacked radii that holds each rule, coarse first."""
    rules = unit_rules()
    return [slice(start, start + size)
            for start, size in zip(rules.starts.tolist(), rules.sizes.tolist())]


#: Largest relative error of each rule (coarse, fine) on e^{-u} u^m
#: (m <= 5) and on e^{-a u} (1 <= a <= 4); the rules reach 1.0e-11 and
#: 3.3e-16, and 1.3e-14 and 2.6e-15.
POLYNOMIAL_TOL = (2e-11, 1e-15)
EXPONENTIAL_TOL = (5e-14, 5e-15)


@pytest.mark.parametrize("scale", [1.0, 3.7e-6])
def test_radial_rules_are_accurate_for_gaussian_windowed_integrands(scale):
    """With u = 2 r^2 / s^2, integral e^{-c} e^{-u} (u + c)^m 2 pi r dr
    (the integral of e^{-u} u^m over u >= c, shifted to u >= 0) is
    (pi s^2 / 2) e^{-c} sum_{k<=m} m! c^k / k!, and integral
    e^{-a c} e^{-a u} is (pi s^2 / 2) e^{-a c} / a, each rule taken on
    the radii from 0."""
    for c in (0.0, 0.5, 1.0, 4.0):
        for which in (0, 1):
            for m in range(6):
                exact = 0.5 * math.pi * scale**2 * math.exp(-c) * sum(
                    math.factorial(m) / math.factorial(k) * c**k for k in range(m + 1))

                def monomial(r, m=m, c=c):
                    u = 2.0 * r**2 / scale**2
                    return math.exp(-c) * np.exp(-u) * (u + c)**m

                assert _integral(monomial, scale, which) == pytest.approx(
                    exact, rel=POLYNOMIAL_TOL[which])
            for a in np.linspace(1.0, 4.0, 13):
                exact = 0.5 * math.pi * scale**2 * math.exp(-a * c) / a
                assert _integral(
                    lambda r, a=a, c=c: math.exp(-a * c) * np.exp(-2.0 * a * r**2 / scale**2),
                    scale, which) == pytest.approx(exact, rel=EXPONENTIAL_TOL[which])


@pytest.mark.parametrize("seed", [48, 96])
@pytest.mark.parametrize("scale", [1.0, 3.7e-6])
def test_radial_rule_is_exact_for_gaussian_times_polynomial(seed, scale):
    """integral e^{-c} e^{-u} p(u + c) 2 pi r dr, the integral of
    e^{-u} p(u) over u >= c shifted to u >= 0, for p of degree 5 with
    positive coefficients a_m drawn from ``seed``, is sum_m a_m times the
    monomial integral above, and each rule reaches it within its
    polynomial tolerance: positive coefficients keep the relative error
    within the largest monomial's."""
    rng = np.random.default_rng(seed)
    for c in (0.0, 0.5, 1.0, 4.0):
        monomials = [0.5 * math.pi * scale**2 * math.exp(-c) * sum(
            math.factorial(m) / math.factorial(k) * c**k for k in range(m + 1))
            for m in range(6)]
        for _ in range(5):
            coefficients = rng.uniform(0.0, 1.0, 6)
            exact = float(np.dot(coefficients, monomials))

            def integrand(r, c=c):
                u = 2.0 * r**2 / scale**2
                return math.exp(-c) * np.exp(-u) * np.polynomial.polynomial.polyval(
                    u + c, coefficients)

            for which in (0, 1):
                value = _integral(integrand, scale, which)
                assert value == pytest.approx(exact, rel=POLYNOMIAL_TOL[which])


def test_rule_gap_refuses_a_smooth_factor_of_degree_six():
    """The coarse rule bounds the degree of the smooth factor: its
    relative error on e^{-u} u^m is 1.0e-11 at m = 5 and 1.6e-10 at
    m = 6, above ``RULE_TOL``, so ``check_rule_gap`` accepts the fine
    value for m <= 5 and refuses it, though correct, at m = 6."""
    rules = unit_rules()
    for m in range(7):
        coarse, fine = rule_sums(rules.window * rules.u**m * rules.weights).tolist()
        assert fine == pytest.approx(0.5 * math.pi * math.factorial(m), rel=POLYNOMIAL_TOL[1])
        if m <= 5:
            assert check_rule_gap(coarse, fine, 0.0, "moment") == fine
        else:
            with pytest.raises(QuadratureError, match="moment differs by"):
                check_rule_gap(coarse, fine, 0.0, "moment")


def test_unit_rules_are_their_formula_correctly_rounded():
    """Every unit radius, u, window and weight is within half an ulp of
    its formula, taken here in 50-digit decimal arithmetic and arranged
    differently: radius e^{(t - e^{-t}) / 2} / sqrt(2), u = 2 r^2,
    window e^{-u} and weight pi h (1 + e^{-t}) r^2 at t = t_lo + k h."""
    pi = decimal.Decimal("3.1415926535897932384626433832795028841971693993751")
    radii, us, windows, weights, starts, sizes, pair_weights, pair_starts = unit_rules()
    assert starts.tolist() == [0, 37] and sizes.tolist() == [37, 89]
    assert pair_weights.tolist() == [w for weight in weights.tolist() for w in (weight, weight)]
    assert pair_starts.tolist() == [0, 74]
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


def test_coarse_rule_nodes_are_every_other_fine_node():
    """The coarse rule's t = -4.5 + k / 4 are the fine rule's
    t = -5 + j / 8 at j = 4, 6, ..., 76: the same radius, u and window
    bits, and exactly twice the fine weight, so 37 of the 126 stacked
    radii repeat a fine node."""
    rules = unit_rules()
    coarse, fine = _rule_parts()
    for array in (rules.radii, rules.u, rules.window):
        assert array[coarse].tobytes() == array[fine][4:77:2].tobytes()
    assert rules.weights[coarse].tobytes() == (2.0 * rules.weights[fine][4:77:2]).tobytes()
    assert np.unique(rules.radii).size == 126 - 37


@pytest.mark.parametrize("seed", [48, 96])
def test_radial_rule_from_zero_is_the_plain_rule(seed):
    """The rule from r = 0 has the unit rule's radii times the scale, bit
    for bit, at fixed scales and at scales drawn log-uniformly from
    ``seed``."""
    unit_radii = unit_rules().radii
    drawn = 10.0 ** np.random.default_rng(seed).uniform(-9.0, 3.0, 8)
    for scale in (1.0, 3.7e-6, 0.3, *drawn):
        assert stacked_radial_rule(scale).tobytes() == (scale * unit_radii).tobytes()


def test_unit_rules_are_built_on_first_use_not_on_import():
    """Importing the package and its CLI builds no rule and no node
    constant (u and the window are built with the rules): the ~5 ms
    ``decimal`` build stays off the import path."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import axialfisher.cli\n"
              "from axialfisher import numerics\n"
              "print(numerics.unit_rules.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_radial_rule_is_cached_and_read_only():
    """Every array of the rules, the node constants u and e^{-u} among
    them, is built once and cannot be written."""
    assert unit_rules() is unit_rules()
    rules = unit_rules()
    assert rules._fields == ("radii", "u", "window", "weights", "starts", "sizes",
                             "pair_weights", "pair_starts")
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
from axialfisher.beam_optics import BeamParams
rules = numerics.unit_rules()
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
    rules = unit_rules()
    assert dumps == [b"".join(array.tobytes() for array in rules).hex() + "\n"] * 2


#: The three radial routes to the bounds on seeded free beams and point
#: sources; the sampler's 64 digit probabilities at seeded c and the
#: generator route's spectral moments; the last beam's Gaussian profile
#: at 16 radii; then each command once, the artifacts going to the
#: working directory.
_ROUTES_AND_COMMANDS = """
import math
import numpy as np
from axialfisher import beam_optics, fisher, photon_sim
from axialfisher.cli import main
from pure_state_oracle import gaussian_field_family
rng = np.random.default_rng(34)
values = []
for _ in range(6):
    beam = beam_optics.BeamParams.from_rayleigh_range(
        10.0 ** rng.uniform(-6.5, -5.8), 10.0 ** rng.uniform(-6.0, -3.0))
    z = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 4.0)) * beam.rayleigh_range
    w_sq = beam_optics.beam_width_sq(beam, z)
    pupil = beam_optics.pupil_field_family(10.0 ** rng.uniform(-3.3, -2.3), 1e7)
    values += [fisher.qfi_pure_state(gaussian_field_family(beam), z),
               fisher.qfi_pure_state(pupil, 10.0 ** rng.uniform(-1.5, 0.0)),
               fisher.beam_fi_numeric(beam, z),
               fisher.info_fraction_outside(w_sq, math.sqrt(w_sq) * rng.uniform(0.0, 2.5))]
print(" ".join(value.hex() for value in values))
laws = [photon_sim._exposure_law(1.0, math.sqrt(0.5 * 10.0 ** rng.uniform(-3.0, 1.5)))
        for _ in range(8)]
print(" ".join(value.hex() for law in laws for value in [law.c, *law.digit_probs.tolist()]),
      " ".join(value.hex() for value in fisher._waist_mode_spectral_moments()))
field = gaussian_field_family(beam)(z)(math.sqrt(w_sq) * np.linspace(0.0, 3.0, 16))
print(" ".join(part.hex() for value in field.tolist() for part in (value.real, value.imag)))
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
    it wrote.  The Gaussian family comes from ``pure_state_oracle``, on
    the path beside the package."""
    src = str(Path(numerics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent),
                                         os.environ.get("PYTHONPATH")]))
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
    first line (the first two of each group of four values) blanked; the
    digit probabilities and spectral moments of the second line, the
    Gaussian profile of the third, and every later line, are kept."""
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
    give the same bits (``float.hex``), and so do the sampler's digit
    probabilities and the generator route's spectral moments (libm's
    exponential and cosine, not numpy's real loops) and the Gaussian
    field family's profile (its carrier a real rotation); the six commands
    give the same output, exit codes and artifact bytes, under another
    OpenBLAS kernel or with numpy's AVX-512 loops off as under the
    default set-up: no BLAS call reaches them, and no numpy loop whose
    AVX-512 form rounds differently.  With the AVX2 loops off as well,
    everything but the 12 QFIs is still the same bits:
    ``qfi_pure_state``'s complex products are fused multiply-adds only
    where numpy dispatches AVX2 or AVX-512 (ROADMAP item 7)."""
    output, artifacts = _routes_and_commands(tmp_path / "knobs", **knobs)
    default_output, default_artifacts = default_routes_and_commands
    if same_qfis:
        assert output == default_output
    else:
        assert _without_qfis(output) == _without_qfis(default_output)
    assert len(output.splitlines()[1].split()) == 8 * 65 + 2
    assert len(output.splitlines()[2].split()) == 2 * 16
    assert output.splitlines()[-1] == "0 0 0 0 0 0"
    assert sorted(artifacts) == sorted(default_artifacts)
    for name, data in artifacts.items():
        assert data == default_artifacts[name], name


@pytest.mark.parametrize("scale", [1.0, 3.7e-5])
def test_stacked_rule_holds_each_rule_bit_for_bit(scale):
    """The stacked radii are each rule's scale rho_i, coarse first, bit
    for bit, and ``rule_sums`` reduces each rule's part of them with that
    rule's unit weights alone."""
    radii = stacked_radial_rule(scale)
    rules = unit_rules()
    assert radii.shape == (37 + 89,)
    assert len(_rule_parts()) == len(RULES)
    for which, part in enumerate(_rule_parts()):
        assert radii[part].tobytes() == (scale * rules.radii[part]).tobytes()
        indicator = np.zeros_like(radii)
        indicator[part] = 1.0
        sums = rule_sums(indicator * rules.weights)
        assert sums[which] == pytest.approx(math.fsum(rules.weights[part]), rel=UNIT_SUM_TOL)
        assert sums[1 - which] == 0.0


#: Largest relative gap between ``rule_sums`` and a per-rule
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
    rules = unit_rules()
    values = rng.uniform(0.0, 1.0, (3, 2, rules.radii.size)) * np.exp(-rules.radii**2)
    sums = rule_sums(values * rules.weights)
    assert sums.shape == (3, 2, len(RULES))
    for index in np.ndindex(values.shape[:-1]):
        for which, part in enumerate(_rule_parts()):
            exact = math.fsum(values[index][part] * rules.weights[part])
            assert sums[index][which] == pytest.approx(exact, rel=UNIT_SUM_TOL)
    fields = values[0] + 1j * values[1]
    complex_sums, norms_sq = rule_sums(fields * rules.weights), unit_rule_norms_sq(fields)
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
    weights = unit_rules().weights
    values = np.random.default_rng(7).standard_normal((2, 5, weights.size))
    fields = values[0] + 1j * values[1]
    for reduce, rows in ((rule_sums, values[0] * weights), (rule_sums, fields * weights),
                         (unit_rule_norms_sq, fields)):
        sums = reduce(rows)
        for row, row_sums in zip(rows, sums):
            assert reduce(row).tobytes() == row_sums.tobytes()


#: The hand-written domain refusals outside ``numerics``, as
#: "module.function: the message up to its domain words", each with the
#: reason it stays local: it says more than a sign and a bound about a
#: scalar, or checks an array.
_LOCAL_DOMAIN_RULES = {
    "estimators.EstimatorCalibration.__post_init__: nominal fraction must lie in":
        "an open interval, (0, 1)",
    "estimators.TrialConfig.__post_init__: with poisson_total, n_per_trial must not exceed":
        "numpy's largest Poisson mean, compared as the double numpy draws from",
    "photon_sim._exposure_law: boundary radius r_b must be positive":
        "r_b together with c = 2 r_b^2 / width_sq, which must also be finite",
    "fisher.OptimalPlanes.__post_init__: optimal planes must be finite":
        "two computed planes; the CLI reports their overflow as a numerical limit",
    "beam_optics.intensity_pdf: radius must be nonnegative": "an array of radii",
}

_DOMAIN_WORD = re.compile(r"must (be (positive|nonnegative|nonzero|finite)|lie in|not exceed)")


def _message_templates(exc: ast.AST):
    """The text of each string literal in ``exc``, an f-string's formatted
    values written as ``{}`` and its pieces not again on their own."""
    nodes = list(ast.walk(exc))
    pieces = {id(piece) for node in nodes if isinstance(node, ast.JoinedStr)
              for piece in node.values}
    for node in nodes:
        if isinstance(node, ast.JoinedStr):
            yield "".join(piece.value if isinstance(piece, ast.Constant) else "{}"
                          for piece in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in pieces:
            yield node.value


def _domain_refusals(path: Path) -> set[str]:
    """"function: message up to its domain words" for every ``raise`` in
    the module at ``path`` whose message says an input must be positive,
    nonnegative, nonzero or finite, must lie in a range or must not exceed
    a bound."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        if isinstance(node, ast.Raise) and node.exc is not None:
            for text in _message_templates(node.exc):
                match = _DOMAIN_WORD.search(text)
                if match:
                    found.add(f"{'.'.join((path.stem, *scope))}: {text[:match.end()]}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_finite_domain_refusals_are_decided_in_numerics():
    """Outside ``numerics`` no ``raise`` builds a "must be positive /
    nonnegative / nonzero / finite" or "must lie in / not exceed" message
    by hand: every domain refusal of a scalar, an integer range included,
    goes through ``numerics.finite_scalar``, except the listed local
    rules, and none of those is stale."""
    source = Path(numerics.__file__).resolve()
    found = set()
    for path in sorted(source.parent.glob("*.py")):
        if path != source:
            found |= _domain_refusals(path)
    assert sorted(found) == sorted(_LOCAL_DOMAIN_RULES)


@pytest.mark.parametrize("value,shown", [
    (10**5000, "an integer of 16610 bits"),
    (-10**5000, "a negative integer of 16610 bits"),
    (10**400, str(10**400)),
], ids=["plus-5001-digits", "minus-5001-digits", "plus-401-digits"])
def test_an_integer_too_long_to_print_is_refused_by_name(value, shown):
    """An int past Python's 4,300-digit limit on int-to-str conversion is
    named by its sign and bit count in the one refusal format, not left
    to the conversion's own ``ValueError``; a shorter one is printed."""
    with pytest.raises(ValueError) as excinfo:
        numerics.finite_scalar("x", value)
    assert str(excinfo.value) == f"x must be positive and finite, got {shown}"
    with pytest.raises(ValueError) as excinfo:
        BeamParams(value, 1e-5)
    assert str(excinfo.value) == f"wavelength must be positive and finite, got {shown}"


def test_libm_exp_is_math_exp():
    """Every element is ``math.exp`` of it, bit for bit, into the
    subnormal range and past underflow."""
    x = np.concatenate([-np.random.default_rng(3).uniform(-5.0, 760.0, 4000),
                        [0.0, -0.0, 1.0, -745.2, -800.0]])
    expected = [math.exp(value) for value in x.tolist()]
    assert libm_exp(x).tolist() == expected
    assert libm_exp(x.reshape(5, -1)).ravel().tolist() == expected


def test_libm_cos_is_math_cos():
    """Every element is ``math.cos`` of it, bit for bit, on seeded
    arguments and on the products of the generator route's grids."""
    grid = 0.15 * np.arange(67)
    x = np.concatenate([np.random.default_rng(4).uniform(-50.0, 50.0, 4000),
                        np.multiply.outer(grid, grid).ravel(), [0.0, -0.0, math.pi, 1e5]])
    assert libm_cos(x).tolist() == [math.cos(value) for value in x.tolist()]


def test_stacked_rule_validates_its_map():
    with pytest.raises(ValueError, match="scale"):
        stacked_radial_rule(0.0)


def _stencil(fn, x, step):
    """``fn`` at ``x + step``, ``x - step``, ``x + step / 2`` and
    ``x - step / 2``, the four values ``stencil_derivative`` takes."""
    return fn(x + step), fn(x - step), fn(x + 0.5 * step), fn(x - 0.5 * step)


def test_central_derivative_is_exact_for_cubics():
    # Richardson cancels the h^2 term, which is the only error a cubic has.
    d = stencil_derivative(_stencil(lambda x: x**3 - 2.0 * x, 2.0, 0.1), 0.1)
    assert d == pytest.approx(10.0, abs=1e-12)


def test_central_derivative_trig():
    d = stencil_derivative(_stencil(math.sin, 0.3, 1e-3), 1e-3)
    assert d == pytest.approx(math.cos(0.3), rel=1e-12)


def test_central_derivative_complex_valued():
    d = stencil_derivative(_stencil(lambda x: complex(math.cos(x), math.sin(x)), 0.0, 1e-3),
                           1e-3)
    assert d.real == pytest.approx(0.0, abs=1e-12)
    assert d.imag == pytest.approx(1.0, rel=1e-12)


def test_stencil_derivative_is_central_derivative_on_every_row():
    """The four rows of one array, differenced directly, are
    ``central_derivative`` (``pure_state_oracle``'s Richardson stencil on a
    function) of the function the rows sample, bit for bit."""
    step, x = 1e-3, 0.7
    nodes = np.linspace(0.0, 3.0, 50)

    def fn(z):
        return np.exp(-nodes * nodes * z) * np.cos(nodes + z) + 1j * np.sin(z * nodes)

    rows = np.array([fn(x + offset) for offset in (step, -step, 0.5 * step, -0.5 * step)])
    assert stencil_derivative(rows, step).tobytes() == central_derivative(fn, x, step).tobytes()
