import math
import re
import sys

import mpmath
import numpy as np
import pytest

from bergweight import (
    DomainError,
    LogWeight,
    QuadratureError,
    RadialWeight,
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
from bergweight import norms, quadrature, series
from bergweight.norms import DEFAULT_SETTINGS, NormSettings
from bergweight.verify import default_family
from bergweight.weights import MOMENT_ORDER

from conftest import (
    oracle_circle_values,
    oracle_exp_bergman_square,
    oracle_exp_moment,
    oracle_log_bergman_square,
    oracle_parseval_mean,
)

RNG = np.random.default_rng(19)


def random_series(degree, rng=RNG):
    return TaylorSeries(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


# ---------------------------------------------------------------------------
# integral means


def test_settings_sample_count_rule():
    s = NormSettings()
    assert s.q_for(0) == 4
    assert s.q_for(1) == 8
    assert s.q_for(511) == 2048
    assert s.q_for(512) == 4096


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0, 4.0])
def test_integral_mean_of_a_radius_array_is_the_scalar_means_bit_for_bit(std1, p):
    radii = np.append(np.linspace(0.1, 0.9, 9), [0.0, 1.0])
    for _, f in default_family(n_max=64, geometric_degree=64, random_degree=64):
        for g in (f, series.frac_deriv_mu(f, std1)):
            batched = integral_mean(g, radii, p)
            assert batched.tolist() == [integral_mean(g, r, p) for r in radii.tolist()]
    assert integral_mean(TaylorSeries([0.0]), radii.reshape(1, -1), p).shape == (1, radii.size)
    assert type(integral_mean(TaylorSeries.monomial(3), 0.5, p)) is float


def test_integral_mean_refuses_the_first_radius_outside_the_disc():
    f = TaylorSeries([1.0, 1.0])
    with pytest.raises(DomainError, match=r"^radius must lie in \[0, 1\], got -0\.5$"):
        integral_mean(f, np.array([0.5, -0.5, 2.0]), 1.0)
    with pytest.raises(DomainError, match=r"got nan$"):
        integral_mean(f, np.array([0.5, np.nan]), 1.0)
    with pytest.raises(DomainError, match=r"got 1\.5$"):
        integral_mean(f, 1.5, 1.0)


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


@pytest.mark.parametrize("a, k, p, message", [
    (np.ones((2, 2)), 2, 1.0, "coefficients must form a non-empty 1-d sequence"),
    (np.ones(3), 1, 1.0, "block parameter k must be an integer >= 2, got 1"),
    (np.ones(3), 2.5, 1.0, "block parameter k must be an integer >= 2, got 2.5"),
    (np.ones(3), math.nan, 1.0, "block parameter k must be an integer >= 2, got nan"),
    (np.ones(3), 2, 0.0, "exponent p must be positive, got 0.0"),
    (np.ones(3), 2, math.nan, "exponent p must be positive, got nan"),
])
def test_block_sum_compare_refuses_bad_input(std0, a, k, p, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        block_sum_compare(a, std0, k, p)


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


def block_sum_rhs(a, eta, k, p):
    """sum_n eta_{k^n} t_n^p with every eta_{k^n} from its own ``moment``."""
    rhs = float(eta.moment(1.0)) * float(np.sum(a[:k])) ** p
    n = 1
    while k**n < a.size:
        t_n = float(np.sum(a[k**n : k ** (n + 1)]))
        if t_n > 0.0:
            rhs += eta.moment(float(k) ** n) * t_n**p
        n += 1
    return rhs


@pytest.mark.parametrize("k", [2, 3])
def test_block_sum_compare_reads_eta_from_one_moments_call(k, monkeypatch):
    # a log:2 eta builds one order-12 rule for every band, next to the
    # order-8 rule of the integral; a standard eta's moments are closed
    # forms, the same in a batch as one by one
    a = np.random.default_rng(5151).uniform(0.0, 1.0, 300)
    a[[5, 40, 41]] = 0.0
    built = {}
    original = RadialWeight.radial_rule

    def spy(self, x_scale=1.0, order=MOMENT_ORDER):
        rule = original(self, x_scale, order)
        built[id(rule)] = order
        return rule

    monkeypatch.setattr(RadialWeight, "radial_rule", spy)
    block_sum_compare(a, parse_weight_spec("log:2"), k, 1.0)
    assert sorted(built.values()) == [norms.GL_ORDER, MOMENT_ORDER]
    monkeypatch.undo()
    for eta in (StandardWeight(1.0), StandardWeight(-0.5)):
        for p in (0.5, 2.0):
            assert block_sum_compare(a, eta, k, p)[1] == block_sum_rhs(a, eta, k, p)


def test_bergman_norm_boundary_circle_settles_at_base_count(std1, monkeypatch):
    # the r = 1 circle carries the rule's boundary mass (1e-13 here), and it is
    # budgeted like a node of that mass: its coefficient bracket settles it
    # with no samples at all
    f = random_series(1024, np.random.default_rng(8))
    p = 0.5
    rule = std1.radial_rule(p * f.degree + 2.0, order=norms.GL_ORDER)
    assert 0.0 < rule.boundary_mass < 1e-12
    calls = []
    original = norms.circle_power_means

    def spy(coeffs, radii, p, q, **kwargs):
        calls.append((1.0 in np.atleast_1d(radii), q, kwargs))
        return original(coeffs, radii, p, q, **kwargs)

    monkeypatch.setattr(norms, "circle_power_means", spy)
    got = bergman_norm(f, std1, p)
    assert [(q_, kw) for at_one, q_, kw in calls if at_one] == []
    monkeypatch.undo()

    masses = rule.weights * rule.nodes
    nodes = norms._power_means(f.coeffs, rule.nodes, p, f.degree, DEFAULT_SETTINGS, masses=masses)
    boundary = norms._power_means(f.coeffs, np.array([1.0]), p, f.degree, DEFAULT_SETTINGS)[0]
    unbudgeted = (2.0 * (np.dot(masses, nodes) + rule.boundary_mass * boundary)) ** (1.0 / p)
    assert got == pytest.approx(unbudgeted, rel=1e-10)


def bergman_radii(f, w, p):
    """The radii and masses ``bergman_norm`` integrates over: the rule's nodes
    and its boundary atom at r = 1 (at p = 2 the order-12 rule whose odd
    moments it sums for a weight without a closed form)."""
    if p == 2.0:
        rule = w.radial_rule(2.0 * f.degree + 1.0)
    else:
        rule = w.resolved_rule(p * f.degree + 2.0, order=norms.GL_ORDER)
    return (np.append(rule.nodes, 1.0),
            np.append(rule.weights * rule.nodes, rule.boundary_mass))


@pytest.mark.parametrize("p", [0.5, 3.0])
def test_bracketed_radii_are_never_sampled(std1, p, monkeypatch):
    f = random_series(64, np.random.default_rng(64))
    radii, masses = bergman_radii(f, std1, p)
    lower, upper = norms._bracket(f.coeffs, radii, p)
    settled = norms._settled_by_bracket(lower, upper, masses)
    assert 0 < np.count_nonzero(settled) < radii.size
    sampled = []
    original = norms.circle_power_means

    def spy(coeffs, radii, p, q, **kwargs):
        sampled.extend(np.atleast_1d(radii))
        return original(coeffs, radii, p, q, **kwargs)

    monkeypatch.setattr(norms, "circle_power_means", spy)
    assert bergman_norm(f, std1, p) > 0.0
    assert sampled and not np.any(np.isin(radii[settled], sampled))


BUDGET_SERIES = {
    "random:64": lambda: random_series(64, np.random.default_rng(640)),
    "random:256": lambda: random_series(256, np.random.default_rng(2560)),
    "lacunary:2,128": lambda: lacunary_series(2, 128),
}


# The first check settles a radius when its q and q/2 means agree within the
# radius' mass-weighted budget, but near r = 1 these cases have radii where
# both grids miss the mean by far more than they differ: lacunary:2,128 at
# p = 1 against standard:1 settles r = 0.99961 with a relative error of
# 6.5e-4 where the budget allows 1.8e-5, and the norm is 1.3e-9 off a dense
# 2^20-point sum, which the unbudgeted sum matches to 4e-15.  The coefficient
# brackets settle none of those radii: without them the norms miss by
# 1.3e-9, 1.9e-10 and 1.1e-10 as well.
FIRST_CHECK_MISSES = {("lacunary:2,128", "standard:1", 0.5),
                      ("lacunary:2,128", "standard:1", 1.0),
                      ("random:64", "standard:1", 0.5)}


@pytest.mark.parametrize("name, spec, p", [
    pytest.param(name, spec, p, marks=pytest.mark.xfail(
        reason="the first check can settle a radius far outside its budget")
        if (name, spec, p) in FIRST_CHECK_MISSES else ())
    for name in sorted(BUDGET_SERIES) for spec in ("standard:1", "log:2", "exp:1,1")
    for p in (0.5, 1.0, 3.0)])
def test_bergman_norm_matches_the_unbudgeted_sum(name, spec, p):
    # the brackets and the mass-weighted budgets together move the norm by
    # less than 1e-10 from the sum over means each settled to 1e-9 relative
    f, w = BUDGET_SERIES[name](), parse_weight_spec(spec)
    radii, masses = bergman_radii(f, w, p)
    means = norms._power_means(f.coeffs, radii, p, f.degree, DEFAULT_SETTINGS)
    want = (2.0 * np.dot(masses, means)) ** (1.0 / p)
    assert bergman_norm(f, w, p) == pytest.approx(want, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# even p: |f|^p = |f^(p/2)|^2, so each circle mean is Parseval's sum of f^(p/2)

EVEN_P_SERIES = {
    "random:24": lambda: random_series(24, np.random.default_rng(24)),
    "random:64": lambda: random_series(64, np.random.default_rng(64)),
    "lacunary:2,128": lambda: lacunary_series(2, 128),
}


@pytest.mark.parametrize("p", [4.0, 6.0, 8.0, 12.0])
@pytest.mark.parametrize("name", sorted(EVEN_P_SERIES))
def test_even_p_means_are_exact_at_the_first_check(name, p, monkeypatch):
    # the means are sums over the coefficients of f^(p/2): no circle is
    # sampled and no zero gets a window
    f = EVEN_P_SERIES[name]()
    radii = np.array([0.3, 0.9, 1.0])
    calls, windows = [], []
    original_means, original_windows = norms.circle_power_means, norms._ZeroWindows

    def spy(coeffs, radii, p, q, **kwargs):
        calls.append(q)
        return original_means(coeffs, radii, p, q, **kwargs)

    def windows_spy(*args):
        windows.append(args)
        return original_windows(*args)

    monkeypatch.setattr(norms, "circle_power_means", spy)
    monkeypatch.setattr(norms, "_ZeroWindows", windows_spy)
    got = norms._power_means(f.coeffs, radii, p, f.degree, DEFAULT_SETTINGS)
    assert not calls and not windows
    power = np.array([1.0 + 0.0j])
    for _ in range(int(p) // 2):
        power = np.convolve(power, f.coeffs)
    want = [np.sum(np.abs(power) ** 2 * r ** (2.0 * np.arange(power.size))) for r in radii]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("p", [4.0, 6.0])
def test_even_p_powers_come_from_h_alone(std1, p, monkeypatch):
    # z^n and z^a h(z^g) raise h to the power p/2, never f, so no convolution
    # runs over the zero gaps; the norms still match the dense oracles
    lengths, convolve = [], np.convolve

    def spy(a, v, *args, **kwargs):
        lengths.append(max(len(a), len(v)))
        return convolve(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", spy)
    m = int(p) // 2
    gapped = gapped_series(7, 8, np.random.default_rng(7008))
    for f, h_degree in ((TaylorSeries.monomial(300, 0.7 - 2.3j), 0), (gapped, 4)):
        lengths.clear()
        got = hardy_norm(f, p) ** p
        assert got == pytest.approx(oracle_power_mean(f.coeffs, 1.0, p), rel=1e-12, abs=0.0)
        bergman_norm(f, std1, p)
        assert lengths and max(lengths) <= (m - 1) * h_degree + 1


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
    # a monomial's row maximum is its one coefficient, so no radius is in
    # doubt; at p = 2 its norm is one entry of the moment table, read with no
    # radius at all
    calls = []
    original = series._normalised_powers

    def spy(absc, rr):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(absc, rr)

    monkeypatch.setattr(series, "_normalised_powers", spy)
    assert bergman_norm(TaylorSeries.monomial(64), std1, 0.5) > 0.0
    assert "flushed" not in calls
    calls.clear()
    got = bergman_norm(TaylorSeries.monomial(64), std1, 2.0)
    assert calls == []
    assert got == math.sqrt(2.0 * std1.odd_moments(65)[64])


def test_monomial_norm_samples_four_points_per_radius(std1, monkeypatch):
    calls = []
    original = norms.circle_power_means

    def spy(coeffs, radii, p, q, **kwargs):
        calls.append((np.atleast_1d(radii).size, q))
        return original(coeffs, radii, p, q, **kwargs)

    monkeypatch.setattr(norms, "circle_power_means", spy)
    got = bergman_norm(TaylorSeries.monomial(1024), std1, 0.5)
    rule = std1.radial_rule(0.5 * 1024 + 2.0, order=norms.GL_ORDER)
    # h is one coefficient, so its bracket is exact and settles every radius
    assert calls == []
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
    with pytest.raises(DomainError, match="overflows double precision"):
        hardy_norm(f, 1e308)  # even, with f^(p/2) past CIRCLE_Q_CAP: sampled
    with pytest.raises(DomainError, match="overflows double precision"):
        hardy_norm(TaylorSeries([1e200, 1e200]), 2.0)  # M_2^2(1) = 2e400
    for run in (hardy_norm, lambda g, p: bergman_norm(g, std1, p)):
        with pytest.raises(DomainError, match="overflows double precision"):
            run(TaylorSeries.monomial(1, 3.0), 2000.0)  # 3^1000 overflows in the powering
    with pytest.raises(DomainError, match="not representable"):
        bergman_norm(TaylorSeries.monomial(3), std1, 1e308)


# ---------------------------------------------------------------------------
# p = 2: Parseval's sum over the rule's odd moments

# degree 511 takes the rule of bucket 1024, degrees 512 and 513 that of 2048
EDGE_DEGREES = (511, 512, 513)


def parseval_path_norm(f, w):
    """The p = 2 norm from Parseval means at the rule's radii, integrated as
    ``bergman_norm`` integrates the means at other exponents."""
    radii, masses = bergman_radii(f, w, 2.0)
    return math.sqrt(2.0 * float(np.dot(masses, series.parseval_means(f.coeffs, radii))))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, 20.0])
def test_p2_bergman_norm_against_beta_moments(alpha):
    # omega_{2n+1} = (alpha + 1) B(n + 1, alpha + 1) / 2 for standard:alpha
    w = StandardWeight(alpha)
    rng = np.random.default_rng(int(alpha) + 41)
    with mpmath.workdps(30):
        moments = np.array([float((alpha + 1) * mpmath.beta(n + 1, alpha + 1) / 2)
                            for n in range(max(EDGE_DEGREES) + 1)])
    for degree in EDGE_DEGREES:
        f = random_series(degree, rng)
        want = 2.0 * float(np.dot(np.abs(f.coeffs) ** 2, moments[: degree + 1]))
        assert bergman_norm(f, w, 2.0) ** 2 == pytest.approx(want, rel=1e-12, abs=0.0)


def beta_odd_moments(alpha, top):
    """omega_{2n+1} = (a/2) B(n + 1, a), a = alpha + 1, for n <= top in 40-digit
    mpmath."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha) + 1
        return [a / 2 * mpmath.beta(n + 1, a) for n in range(top + 1)]


@pytest.mark.parametrize("alpha", [-0.99, -0.9, -0.5])
def test_p2_bergman_norm_of_negative_alpha_weights_against_mpmath_beta(alpha):
    # near the boundary these weights keep mass that no rule in s resolves
    # to 1e-12; their odd moments are closed forms
    w = StandardWeight(alpha)
    moments = beta_odd_moments(alpha, 2048)
    for n in (0, 1, 100, 2048):
        got = bergman_norm(TaylorSeries.monomial(n), w, 2.0) ** 2 / 2.0
        assert got == pytest.approx(float(moments[n]), rel=1e-12, abs=0.0)
    f = random_series(256, np.random.default_rng(int(-100 * alpha)))
    with mpmath.workdps(40):
        want = 2 * mpmath.fsum(abs(mpmath.mpc(complex(c))) ** 2 * m
                               for c, m in zip(f.coeffs, moments))
    assert bergman_norm(f, w, 2.0) ** 2 == pytest.approx(float(want), rel=1e-12, abs=0.0)


def beta_parseval_sum(f, alpha, m):
    """2 sum_n |b_n|^2 omega_{2n+1} for standard:alpha and b = f^m, both in
    40-digit mpmath: ||f||^(2m) by Parseval."""
    with mpmath.workdps(40):
        c = [mpmath.mpc(complex(x)) for x in f.coeffs]
        b = [mpmath.mpc(1)]
        for _ in range(m):
            b = [mpmath.fsum(b[i] * c[k - i] for i in range(max(0, k - len(c) + 1), min(k, len(b) - 1) + 1))
                 for k in range(len(b) + len(c) - 1)]
        moments = beta_odd_moments(alpha, len(b) - 1)
        return float(2 * mpmath.fsum(abs(x) ** 2 * w for x, w in zip(b, moments)))


@pytest.mark.parametrize("p", [4.0, 6.0])
@pytest.mark.parametrize("alpha", [-0.99, -0.9, -0.5, 1.0, 3.0])
def test_even_p_bergman_norm_against_beta_parseval_sums(alpha, p):
    # |f|^p = |f^(p/2)|^2: the norm is a Parseval sum over the weight's odd
    # moments, with no radial rule in between
    w = StandardWeight(alpha)
    for degree in (8, 64):
        f = random_series(degree, np.random.default_rng(degree + 7))
        want = beta_parseval_sum(f, alpha, int(p) // 2)
        assert bergman_norm(f, w, p) ** p == pytest.approx(want, rel=1e-12, abs=0.0)


def test_p2_tables_refuse_a_standard_weight_below_the_normal_range():
    # omega_1 = amplitude / 2 = 1e-308 is subnormal
    w = StandardWeight(1.0, amplitude=2e-308)
    for run in (lambda: w.odd_moments(3), lambda: bergman_norm(TaylorSeries.monomial(2), w, 2.0),
                lambda: series.frac_deriv_mu(TaylorSeries.monomial(2), w, check=False)):
        with pytest.raises(QuadratureError, match=r"underflows.*scaled\(\)") as err:
            run()
        assert w.label in str(err.value) and f"{w.log_tail(0.0):.1f}" in str(err.value)
    assert StandardWeight(1.0, amplitude=1e-300).odd_moments(3)[0] == 5e-301


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_even_p_bergman_norm_refuses_past_the_end_of_the_table(p):
    # exp:1,1's odd moments leave the normal double range near n = 61194,
    # where its table ends: the norm of z^65535 at p = 2 (or of z^32767 at
    # p = 4) would read an entry past it, a subnormal one, as it once did
    w = parse_weight_spec("exp:1,1")
    cut = int(np.argmax(w.odd_moments(65536) < np.finfo(float).tiny))
    assert 0 < cut < 65535
    with pytest.raises(QuadratureError, match=rf"^odd moment m_\{{2n\+1\}} of exp:1,1 leaves "
                                              rf"the normal double range at n = {cut};"):
        bergman_norm(TaylorSeries.monomial(65535 // int(p // 2)), w, p)

@pytest.mark.parametrize("spec, oracle", [
    ("log:2", lambda c: oracle_log_bergman_square(c, 2.0)),
    ("exp:1,1", lambda c: oracle_exp_bergman_square(c, 1.0, 1.0)),
])
def test_p2_bergman_norm_against_mpmath_moments(spec, oracle):
    w = parse_weight_spec(spec)
    rng = np.random.default_rng(43)
    for degree in EDGE_DEGREES:
        f = random_series(degree, rng)
        assert bergman_norm(f, w, 2.0) ** 2 == pytest.approx(oracle(f.coeffs), rel=1e-9, abs=0.0)


def test_p2_bergman_norm_keeps_tiny_and_huge_series_in_range(std1, log2w):
    # the sum is scaled by the largest |c_n|: 1e-300-scale coefficients keep
    # their digits, and 1e150-scale ones square to 1e300 without overflow
    f = random_series(300, np.random.default_rng(44))
    for w in (std1, log2w):
        for scale in (1e-300, 1e150):
            got = bergman_norm(scale * f, w, 2.0)
            assert got == pytest.approx(scale * parseval_path_norm(f, w), rel=1e-13, abs=0.0)
        # a norm of 1e160 has a square past the double range
        with pytest.raises(DomainError, match="overflows double precision"):
            bergman_norm(1e160 * f, w, 2.0)


@pytest.mark.parametrize("spec", ["standard:1", "log:2", "exp:1,1"])
def test_p2_bergman_norm_does_not_depend_on_earlier_series(spec):
    # 300 and 400 share the rule of bucket 1024, 700 takes the next one; each
    # norm must come out the same on a fresh weight and on one that has
    # served the other degrees first, in either order
    rng = np.random.default_rng(45)
    short, f, long = (random_series(d, rng) for d in (300, 400, 700))
    fresh = bergman_norm(f, parse_weight_spec(spec), 2.0)
    for before in ((short, long), (long, short)):
        w = parse_weight_spec(spec)
        for g in before:
            bergman_norm(g, w, 2.0)
        assert bergman_norm(f, w, 2.0) == fresh
    assert fresh == pytest.approx(parseval_path_norm(f, parse_weight_spec(spec)),
                                  rel=1e-13, abs=0.0)


def test_p2_moment_table_grows_in_blocks_independent_of_the_count():
    def fresh_rule():
        return StandardWeight(1.0).resolved_rule(2.0 * 700 + 2.0, order=norms.GL_ORDER)

    rule = fresh_rule()
    short = rule.odd_moments(10).copy()
    grown = rule.odd_moments(700)
    assert np.array_equal(grown, fresh_rule().odd_moments(700))
    assert np.array_equal(grown[:10], short)
    with pytest.raises(ValueError):
        grown[0] = 0.0  # the rule's own table is read-only
    # each entry is the rule's integral of s^(2n + 1)
    block = quadrature.MOMENT_BLOCK
    for n in (0, 1, block - 1, block, 699):
        want = rule.integrate(rule.nodes ** (2.0 * n + 1.0), 1.0)
        assert grown[n] == pytest.approx(want, rel=1e-13, abs=0.0)


def test_equivalence_sweep_builds_one_moment_table_per_rule(std1, monkeypatch):
    from bergweight import equivalence_sweep

    built = []  # (rule, first order) of every block built
    original = quadrature.RadialRule._moment_blocks

    def spy(rule, first, count):
        out = original(rule, first, count)
        built.extend((id(rule), first + k) for k in range(0, out.size, quadrature.MOMENT_BLOCK))
        return out

    monkeypatch.setattr(quadrature.RadialRule, "_moment_blocks", spy)
    rng = np.random.default_rng(46)
    # series of four degrees, the monomial among them
    family = [("monomial:5", TaylorSeries.monomial(5))] + [
        (f"random:{d}", random_series(d, rng)) for d in (300, 40, 400)]
    omega = parse_weight_spec("log:2")
    equivalence_sweep(family, omega, std1, 2.0)
    # omega and nu = omega * tail_mu^2 have one rule each, whose table is
    # built once, to the family's largest degree
    assert len(built) == len(set(built))
    rules = {rule for rule, _ in built}
    assert len(rules) == 2
    assert sorted(sum(1 for r, _ in built if r == rule) for rule in rules) == [7, 7]


def test_p2_table_is_exact_under_growth_to_many_blocks():
    # the blocks' leading factors are running products from block 0: a table
    # grown in steps equals one built at once, and entries far down it still
    # match the rule's own integrals of s^(2n + 1)
    def fresh_rule():
        return parse_weight_spec("log:2").radial_rule(2.0 * 4096 + 1.0)

    rule = fresh_rule()
    for count in (1, 65, 700, 4097):
        grown = rule.odd_moments(count)
    assert np.array_equal(grown, fresh_rule().odd_moments(4097))
    for n in (0, 63, 64, 1000, 4096):
        want = rule.integrate(rule.nodes ** (2.0 * n + 1.0), 1.0)
        assert grown[n] == pytest.approx(want, rel=1e-13, abs=0.0)
