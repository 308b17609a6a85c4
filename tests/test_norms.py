import math
import sys

import mpmath
import numpy as np
import pytest

from bergweight import (
    DomainError,
    LogWeight,
    QuadratureError,
    StandardWeight,
    TaylorSeries,
    bergman_norm,
    block_norm,
    block_sum_compare,
    build_basis,
    hardy_norm,
    integral_mean,
    parse_weight_spec,
    scaled_weight,
)
from bergweight.series import circle_power_means, geometric_series, lacunary_series
from bergweight import norms, series
from bergweight.norms import DEFAULT_SETTINGS, NormSettings

from conftest import oracle_circle_values, oracle_exp_moment, oracle_parseval_mean

RNG = np.random.default_rng(19)


def random_series(degree, rng=RNG):
    return TaylorSeries(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


# ---------------------------------------------------------------------------
# integral means


def test_settings_sample_count_rule():
    s = NormSettings(q_oversample=4)
    assert s.q_for(0) == 4
    assert s.q_for(1) == 8
    assert s.q_for(511) == 2048
    assert s.q_for(512) == 4096
    with pytest.raises(DomainError):
        NormSettings(q_oversample=2)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
def test_mean_of_monomial_is_power(p):
    for n, r in [(0, 0.3), (3, 0.5), (17, 0.95), (5, 1.0)]:
        got = integral_mean(TaylorSeries.monomial(n), r, p)
        assert got == pytest.approx(r**n, rel=1e-10)


def test_mean_example_values():
    assert integral_mean(TaylorSeries([1.0, 1.0]), 0.5, 2.0) == pytest.approx(
        math.sqrt(1.25), rel=1e-12
    )
    f = random_series(9)
    assert integral_mean(f, 0.0, 2.0) == pytest.approx(abs(f.coeff(0)), rel=1e-12, abs=0.0)
    assert integral_mean(TaylorSeries([0.0, 0.0]), 0.7, 1.0) == 0.0


def test_mean_validation():
    f = TaylorSeries([1.0])
    with pytest.raises(DomainError):
        integral_mean(f, 1.5, 2.0)
    with pytest.raises(DomainError):
        integral_mean(f, 0.5, 0.0)


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 0.99, 1.0])
def test_parseval_oracle_random_polynomials(r):
    for deg in (3, 40, 257):
        f = random_series(deg)
        got = integral_mean(f, r, 2.0)
        assert got == pytest.approx(oracle_parseval_mean(f.coeffs, r), rel=1e-8)


def test_means_nondecreasing_in_radius():
    grid = np.linspace(0.0, 1.0, 21)
    for f in (random_series(31), geometric_series(0.9, 2.0, 64), lacunary_series(2, 64)):
        for p in (0.5, 2.0):
            vals = [integral_mean(f, float(r), p) for r in grid]
            assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))


def test_mean_homogeneous():
    f = random_series(24)
    for p in (0.5, 2.0, 4.0):
        base = integral_mean(f, 0.8, p)
        scaled = integral_mean(3.7 * f, 0.8, p)
        assert scaled == pytest.approx(3.7 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# Hardy norms


def test_hardy_norm_examples():
    assert hardy_norm(TaylorSeries.constant(2.0 - 1.0j), 0.7) == pytest.approx(
        abs(2.0 - 1.0j), rel=1e-12
    )
    assert hardy_norm(TaylorSeries.monomial(9), 1.3) == pytest.approx(1.0, rel=1e-12)
    assert hardy_norm(TaylorSeries([1.0, 1.0]), 2.0) == pytest.approx(
        math.sqrt(2.0), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Bergman norms


def test_bergman_norm_of_constant(std0):
    for p in (0.5, 1.0, 2.0):
        assert bergman_norm(TaylorSeries.constant(1.0), std0, p) == pytest.approx(1.0, rel=1e-10)


def test_bergman_norm_monomial_closed_value(std0):
    got = bergman_norm(TaylorSeries.monomial(1), std0, 2.0)
    assert got * got == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_bergman_monomial_identity_sampled(std1, log2w, p):
    # the squared norm equals twice the moment of order np+1
    for w in (std1, log2w):
        for n in (0, 1, 2, 3, 5, 17, 64):
            got = bergman_norm(TaylorSeries.monomial(n), w, p) ** p
            assert got == pytest.approx(2.0 * w.moment(n * p + 1.0), rel=1e-6)


def test_bergman_norm_zero_and_validation(std1):
    assert bergman_norm(TaylorSeries([0.0]), std1, 2.0) == 0.0
    with pytest.raises(DomainError):
        bergman_norm(TaylorSeries([1.0]), std1, -1.0)


def test_bergman_homogeneous_in_function_and_weight(std1):
    f = random_series(40)
    base = bergman_norm(f, std1, 2.0)
    assert bergman_norm(2.5 * f, std1, 2.0) == pytest.approx(2.5 * base, rel=1e-12)
    scaled = bergman_norm(f, std1.scaled(7.3), 2.0)
    assert scaled**2 == pytest.approx(7.3 * base**2, rel=1e-12)


# ---------------------------------------------------------------------------
# block norms


def test_block_norm_monomial_closed_form(std1):
    basis = build_basis(2, 64)
    for j, p in [(5, 2.0), (17, 0.5), (40, 1.0)]:
        expect = 0.0
        for n in range(basis.top_index + 1):
            c = abs(basis.coefficient(n, j))
            if c:
                expect += std1.moment(2.0**n) * c**p
        got = block_norm(TaylorSeries.monomial(j), std1, 2, p) ** p
        assert got == pytest.approx(expect, rel=1e-9)


def test_block_norm_zero(std1):
    assert block_norm(TaylorSeries([0.0, 0.0]), std1, 2, 2.0) == 0.0


def test_block_norm_screens_weight(log2w):
    with pytest.raises(DomainError):
        block_norm(TaylorSeries.monomial(3), log2w, 2, 2.0)
    assert block_norm(TaylorSeries.monomial(3), log2w, 2, 2.0, check=False) > 0


def test_block_norm_validation(std1):
    with pytest.raises(DomainError):
        block_norm(TaylorSeries([1.0]), std1, 1, 2.0)
    with pytest.raises(DomainError):
        block_norm(TaylorSeries([1.0]), std1, 2, 0.0)


def test_block_vs_bergman_bracket(std1):
    f = TaylorSeries(np.ones(256))
    ratio = bergman_norm(f, std1, 2.0) ** 2 / block_norm(f, std1, 2, 2.0) ** 2
    assert 0.01 < ratio < 100.0
    assert math.isfinite(ratio)


def test_block_norm_homogeneous(std1):
    f = random_series(100)
    base = block_norm(f, std1, 2, 2.0)
    assert block_norm(0.5 * f, std1, 2, 2.0) == pytest.approx(0.5 * base, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# nonnegative-series block comparison


def test_block_sum_compare_unit_mass(std0):
    lhs, rhs = block_sum_compare(np.array([1.0, 0.0, 0.0]), std0, 2, 1.0)
    assert lhs == pytest.approx(1.0, rel=1e-10)
    assert rhs == pytest.approx(0.5, rel=1e-12, abs=0.0)
    assert lhs / rhs == pytest.approx(2.0, rel=1e-9)


def test_block_sum_compare_zero(std0):
    assert block_sum_compare(np.zeros(5), std0, 2, 1.0) == (0.0, 0.0)


def test_block_sum_compare_rejects_negative(std0):
    with pytest.raises(DomainError):
        block_sum_compare(np.array([1.0, -0.5]), std0, 2, 1.0)


def test_block_sum_compare_lacunary_bracket(std1):
    a = np.zeros(1025)
    a[[2**m for m in range(11)]] = 1.0
    lhs, rhs = block_sum_compare(a, std1, 2, 2.0)
    ratio = lhs / rhs
    assert 0.05 < ratio < 20.0


def test_block_sum_compare_bracket_stable_under_degree_doubling(std1):
    rng = np.random.default_rng(5150)

    def bracket(degree):
        ratios = []
        for _ in range(6):
            a = rng.uniform(0.0, 1.0, degree + 1)
            lhs, rhs = block_sum_compare(a, std1, 2, 2.0)
            ratios.append(lhs / rhs)
        return max(ratios) / min(ratios)

    b1 = bracket(256)
    b2 = bracket(512)
    assert math.isfinite(b1) and math.isfinite(b2)
    assert b2 < 3.0 * b1 + 1.0


def test_bergman_norm_boundary_circle_settles_at_base_count(std1, monkeypatch):
    # the r = 1 circle carries the rule's boundary mass (1e-13 here), and it is
    # budgeted like a node of that mass instead of climbing the doubling ladder
    f = random_series(1024, np.random.default_rng(8))
    p = 0.5
    q = DEFAULT_SETTINGS.q_for(f.degree)
    rule = std1.radial_rule(p * f.degree + 2.0, order=norms.GL_ORDER)
    assert 0.0 < rule.boundary_mass < 1e-12
    calls = []
    original = norms.circle_power_means

    def spy(coeffs, radii, p, q, **kwargs):
        calls.append((1.0 in np.atleast_1d(radii), q, kwargs))
        return original(coeffs, radii, p, q, **kwargs)

    monkeypatch.setattr(norms, "circle_power_means", spy)
    got = bergman_norm(f, std1, p)
    assert [(q_, kw) for at_one, q_, kw in calls if at_one] == [(q, {"even": True})]
    monkeypatch.undo()

    masses = rule.weights * rule.nodes
    nodes = norms._power_means(f.coeffs, rule.nodes, p, f.degree, DEFAULT_SETTINGS, masses=masses)
    boundary = norms._power_means(f.coeffs, np.array([1.0]), p, f.degree, DEFAULT_SETTINGS)[0]
    unbudgeted = (2.0 * (np.dot(masses, nodes) + rule.boundary_mass * boundary)) ** (1.0 / p)
    assert got == pytest.approx(unbudgeted, rel=1e-10)


# ---------------------------------------------------------------------------
# the reduction f = z^a h(z^g) behind every circle mean

REDUCTION_CASES = [(a, g) for a in (0, 1, 7, 300) for g in (1, 2, 3, 8)]
ORACLE_Q = 256


def gapped_series(a, g, rng):
    """z^a h(z^g) for a random h of degree 4 whose constant term dominates.

    With h_k of order 1.5^(-gk), f has no zeros in 0 < |z| < 1.2, so |f|^p
    is analytic in an annulus around each circle and the trapezoid oracle
    on ORACLE_Q points is exact to rounding (its error decays like 1.2^-q).
    """
    h = 0.3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)) * 1.5 ** (-g * np.arange(5))
    h[0] = 2.0 - 0.5j
    coeffs = np.zeros(a + 4 * g + 1, dtype=complex)
    coeffs[a::g] = h
    return TaylorSeries(coeffs)


def oracle_power_mean(coeffs, r, p):
    """M_p^p(r) on the dense oracle grid, scaled by max |f| so that no
    intermediate power underflows before the result does."""
    values = np.abs(oracle_circle_values(coeffs, r, ORACLE_Q))
    top = float(np.max(values))
    return top**p * float(np.mean((values / max(top, 1e-300)) ** p))


@pytest.mark.parametrize("a, g", REDUCTION_CASES)
def test_reduced_integral_means_against_dense_oracles(a, g):
    # means are compared as M_p^p; below 1e-300 (0.3^600 here) both sides
    # are denormal or flushed and only the absolute tolerance is meaningful
    f = gapped_series(a, g, np.random.default_rng(1000 * a + g))
    for r in (0.0, 0.3, 0.9, 0.99, 1.0):
        assert integral_mean(f, r, 2.0) ** 2 == pytest.approx(
            oracle_parseval_mean(f.coeffs, r) ** 2, rel=1e-13, abs=1e-300)
        for p in (0.5, 1.0, 2.0, 3.0, 4.0):
            assert integral_mean(f, r, p) ** p == pytest.approx(
                oracle_power_mean(f.coeffs, r, p), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("a, g", REDUCTION_CASES)
def test_reduced_bergman_norms_against_dense_oracles(std1, a, g):
    # std1 is 2(1 - s^2): 2 int_0^1 s M_p^p(s) 2(1 - s^2) ds by a Gauss-Legendre
    # rule exact for s^(ap+3) up to ap = 900, times the dense circle oracle
    f = gapped_series(a, g, np.random.default_rng(1000 * a + g))
    x, wts = np.polynomial.legendre.leggauss(480)
    s, wts = 0.5 * (x + 1.0), 0.5 * wts
    values = np.abs(np.array([oracle_circle_values(f.coeffs, r, ORACLE_Q) for r in s]))
    for p in (0.5, 1.0, 2.0, 3.0):
        means = np.mean(values**p, axis=1)
        want = 2.0 * np.sum(wts * s * means * 2.0 * (1.0 - s * s))
        assert bergman_norm(f, std1, p) ** p == pytest.approx(want, rel=1e-10, abs=0.0)
    # at p = 2 the squared norm is sum 2 |c_n|^2 / ((n + 1)(n + 2)) exactly
    n = np.arange(len(f.coeffs))
    exact = np.sum(2.0 * np.abs(f.coeffs) ** 2 / ((n + 1.0) * (n + 2.0)))
    assert bergman_norm(f, std1, 2.0) ** 2 == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [0, 1, 7, 300])
def test_single_term_mean_against_mpmath(a):
    c = 0.7 - 2.3j
    f = TaylorSeries.monomial(a, c)
    for p in (0.5, 1.0, 2.0, 3.0, 4.0):
        for r in (0.6, 0.9, 0.99, 1.0):
            got = norms._power_means(f.coeffs, np.array([r]), p, f.degree, DEFAULT_SETTINGS)[0]
            want = mpmath.power(abs(mpmath.mpc(c)), p) * mpmath.power(mpmath.mpf(r), a * p)
            assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, 4.0])
def test_reduced_means_flush_by_the_row_maximum_of_f(p):
    assert integral_mean(TaylorSeries.monomial(2048), 0.5, p) == 0.0
    # r^a is representable here, but f's row maximum 0.5^1000 is below the flush point
    assert integral_mean(TaylorSeries.monomial(1000), 0.5, p) == 0.0
    # h = 1e-300 + z: the row maximum is h's top term, not its first; above
    # the flush point the mean is r M_p(r, h), the root taken before the lift
    f = TaylorSeries([0.0, 1e-300, 1.0])
    q = DEFAULT_SETTINGS.q_for(f.degree)
    for r in (1e-150, 1e-140, 0.5):
        got = integral_mean(f, r, p)
        row_max = max(abs(c) * r**k for k, c in enumerate(f.coeffs))
        dense = r * circle_power_means(f.coeffs[1:], [r], p, q)[0] ** (1.0 / p)
        dense = 0.0 if row_max < 1e-290 else dense
        assert (got == 0.0) == (dense == 0.0)
        assert got == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_bergman_norm_of_high_monomial_against_exp_weights(exp11, std1):
    # ||z^n||^2 = 2 moment(2n + 1); the rule at x_scale 2n + 2 must resolve
    # the peak of s^(2n+1) w(s), which for exp:1,1 sits near 1 - s = n^(-1/2)
    f = TaylorSeries.monomial(2048)
    for w, tail_power in ((exp11, 0), (scaled_weight(exp11, std1, 2.0), 2)):
        want = 2.0 * oracle_exp_moment(1.0, 1.0, 4097.0, tail_power)
        assert bergman_norm(f, w, 2.0) ** 2 == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("spec", ["exp:1e3,5", "exp:700,1"])
def test_norms_refuse_rules_below_the_normal_range(spec):
    # exp:1e3,5 flushes every rule weight to 0 and exp:700,1 keeps only
    # subnormals (6.7e-309 at most), although the norms are representable
    w = parse_weight_spec(spec)
    for p in (1.0, 2.0):
        with pytest.raises(QuadratureError, match=r"underflows.*scaled\(\)") as err:
            bergman_norm(TaylorSeries.monomial(2), w, p)
        assert w.label in str(err.value) and f"{w.log_tail(0.0):.1f}" in str(err.value)
        with pytest.raises(QuadratureError, match="underflows"):
            block_sum_compare([1.0, 0.0, 1.0], w, 2, p)


def test_scaled_exp_weight_is_back_in_range():
    # exp:1e3,5 underflows everywhere; scaled by 1e300 its amplitude enters
    # the exponent, so the norm of z^2 is representable and right
    w = parse_weight_spec("exp:1e3,5").scaled(1e300)
    breaks = [0.0] + [t / 5000.0 for t in (0.25, 0.5, 1, 2, 5, 10, 20, 50, 100)] + [0.5, 1.0]
    for p in (1.0, 2.0):
        with mpmath.workdps(30):
            mass = mpmath.quad(lambda s: s ** (2 * p + 1) * mpmath.exp(-1000 / (1 - s) ** 5), breaks)
            want = float((2 * mass * mpmath.mpf(1e300)) ** (1 / mpmath.mpf(p)))
        assert bergman_norm(TaylorSeries.monomial(2), w, p) == pytest.approx(want, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("c, gamma", [(1.0, 1.0), (0.5, 2.0)])
def test_bergman_norm_of_exp_weights_in_range(c, gamma):
    # ||z^2||_p^p = 2 moment(2p + 1)
    w = parse_weight_spec(f"exp:{c:g},{gamma:g}")
    for p in (1.0, 2.0):
        want = 2.0 * oracle_exp_moment(c, gamma, 2.0 * p + 1.0)
        assert bergman_norm(TaylorSeries.monomial(2), w, p) ** p == pytest.approx(
            want, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [1, 300])
def test_integral_mean_of_monomial_is_r_to_the_n(n):
    # 0.3^300 ~ 1.4e-157 is representable although its cube underflows
    for r in (0.3, 0.9):
        for p in (0.5, 2.0, 3.0):
            got = integral_mean(TaylorSeries.monomial(n), r, p)
            assert got == pytest.approx(r**n, rel=1e-13, abs=0.0)


def test_monomial_norm_scans_no_radius_for_the_flush(std1, monkeypatch):
    # a monomial's row maximum is its one coefficient, so no radius is in doubt
    calls = []
    original = series._normalised_powers

    def spy(absc, rr):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(absc, rr)

    monkeypatch.setattr(series, "_normalised_powers", spy)
    for p in (0.5, 2.0):
        assert bergman_norm(TaylorSeries.monomial(64), std1, p) > 0.0
    assert calls and "flushed" not in calls


def test_monomial_norm_samples_four_points_per_radius(std1, monkeypatch):
    calls = []
    original = norms.circle_power_means

    def spy(coeffs, radii, p, q, **kwargs):
        calls.append((np.atleast_1d(radii).size, q))
        return original(coeffs, radii, p, q, **kwargs)

    monkeypatch.setattr(norms, "circle_power_means", spy)
    got = bergman_norm(TaylorSeries.monomial(1024), std1, 0.5)
    rule = std1.radial_rule(0.5 * 1024 + 2.0, order=norms.GL_ORDER)
    assert calls and all(q <= 4 for _, q in calls)
    assert sum(n * q for n, q in calls) <= 4 * (rule.nodes.size + 1)
    assert got**0.5 == pytest.approx(2.0 * std1.moment(0.5 * 1024 + 1.0), rel=1e-6)


# ---------------------------------------------------------------------------
# large exponents: the samples are f / rowmax, so only a mean past the double
# range itself is refused


def test_hardy_norm_at_large_p_against_mpmath():
    # geometric:0.5,1 is 1 / (1 - z / 2) truncated; its Hardy norm at p = 100
    f = series.geometric_series(0.5, 1.0, 1024)
    with mpmath.workdps(30):
        mean = mpmath.quad(lambda t: abs(1 / (1 - mpmath.expj(t) / 2)) ** 100,
                           [0, mpmath.pi / 8, mpmath.pi / 2, mpmath.pi, 2 * mpmath.pi])
        want = float((mean / (2 * mpmath.pi)) ** (mpmath.mpf(1) / 100))
    assert hardy_norm(f, 100.0) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [520.0, 1000.0])
def test_monomial_bergman_norm_at_large_p(std1, p):
    # ||z^3||_p^p = 2 int s^(3p + 1) 2 (1 - s^2) ds = 8 / ((3p + 2)(3p + 4))
    want = (8.0 / ((3 * p + 2) * (3 * p + 4))) ** (1.0 / p)
    assert bergman_norm(TaylorSeries.monomial(3), std1, p) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_means_past_the_double_range_are_refused(std1):
    f = series.geometric_series(0.5, 1.0, 64)  # |f| reaches 2 at z = 1
    with pytest.raises(DomainError, match="overflows double precision"):
        hardy_norm(f, 2000.0)
    with pytest.raises(DomainError, match="not representable"):
        bergman_norm(TaylorSeries.monomial(3), std1, 1e308)
