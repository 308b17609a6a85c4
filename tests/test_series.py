import math
import sys

import mpmath
import numpy as np
import pytest

from bergweight import (
    DomainError,
    LogWeight,
    StandardWeight,
    TaylorSeries,
    evaluate_circle,
    frac_deriv_beta,
    frac_deriv_mu,
    hadamard,
    multiplier_transform,
    parse_series_spec,
    parse_weight_spec,
)
from bergweight.errors import QuadratureError, ResourceError
from bergweight.norms import DEFAULT_SETTINGS
from bergweight.series import (
    MAX_SERIES_LENGTH,
    circle_power_means,
    geometric_series,
    horner,
    lacunary_series,
    parseval_means,
    read_series_csv,
    write_series_csv,
)

from conftest import oracle_beta_odd_moment, oracle_circle_values, oracle_parseval_mean

RNG = np.random.default_rng(61)


def random_series(degree, rng=RNG):
    return TaylorSeries(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


# ---------------------------------------------------------------------------
# TaylorSeries basics


def test_degree_ignores_trailing_zeros():
    f = TaylorSeries([1.0, 2.0, 0.0, 0.0])
    assert f.degree == 1
    assert len(f) == 4
    assert TaylorSeries([0.0]).is_zero


def test_rejects_non_finite_coefficients():
    with pytest.raises(DomainError):
        TaylorSeries([1.0, float("nan")])
    with pytest.raises(DomainError):
        TaylorSeries([float("inf")])
    with pytest.raises(DomainError):
        TaylorSeries([])


# ---------------------------------------------------------------------------
# fractional derivative induced by a weight


def test_frac_deriv_mu_monomial_multiplier(std1):
    for n in (0, 1, 5, 30):
        out = frac_deriv_mu(TaylorSeries.monomial(n), std1)
        assert out.coeff(n) == pytest.approx(1.0 / std1.moment(2 * n + 1.0), rel=1e-12)
        assert out.degree == n


def test_frac_deriv_mu_zero_series(std1):
    out = frac_deriv_mu(TaylorSeries([0.0, 0.0, 0.0]), std1)
    assert out.is_zero


def test_frac_deriv_mu_unit_weight_doubles_indices(std0):
    # for the flat weight the odd moments are 1/(2n+2)
    f = random_series(40)
    out = frac_deriv_mu(f, std0)
    n = np.arange(41)
    np.testing.assert_allclose(out.coeffs, 2.0 * (n + 1) * f.coeffs, rtol=1e-10)


def test_frac_deriv_mu_rejects_non_upper_weight(exp11):
    from bergweight import ExponentialWeight

    f = TaylorSeries([1.0, 1.0])
    with pytest.raises(DomainError):
        frac_deriv_mu(f, exp11)
    out = frac_deriv_mu(f, exp11, check=False)
    assert out.coeff(0).real > 0


def test_frac_deriv_preserves_degree_and_support(std1):
    f = TaylorSeries([0.0, 2.0, 0.0, 0.0, 1.5, 0.0])
    out = frac_deriv_mu(f, std1)
    assert out.degree == f.degree
    np.testing.assert_array_equal(out.support(), f.support())


def test_odd_moments_standard_match_beta_identity():
    for beta in (0.5, 1.0, 2.5):
        w = StandardWeight(beta - 1.0)
        got = w.odd_moments(51)
        expect = np.array([oracle_beta_odd_moment(n, beta) for n in range(51)])
        np.testing.assert_allclose(got, expect, rtol=1e-12)


def _representable(got, want):
    """The entries whose exact value lies in the normal double range."""
    want = np.array([float(v) for v in want])
    kept = want >= sys.float_info.min
    assert np.count_nonzero(kept) > 100
    return got[kept], want[kept]


@pytest.mark.parametrize("alpha", [-0.99, -0.9, -0.5, 0.0, 1.0, 5.0, 200.0])
def test_odd_moments_standard_against_mpmath(alpha):
    # mu_{2n+1} = (a/2) B(n + 1, a), a = alpha + 1, through the exact step
    # B(n + 2, a) = B(n + 1, a) (n + 1) / (n + 1 + a) in 40 digits
    got = StandardWeight(alpha).odd_moments(4097)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha) + 1
        want, term = [], mpmath.mpf(1) / 2  # (a/2) B(1, a)
        for n in range(4097):
            want.append(term)
            term = term * (n + 1) / (n + 1 + a)
    assert got.shape == (4097,)
    got, want = _representable(got, want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_derivative_moments_refuse_the_first_moment_below_the_normal_range():
    # mu_{2n+1} of exp:1,1 leaves the normal double range at n = cut with a
    # reciprocal that is still a double: D_mu z^cut once divided by it
    mu = parse_weight_spec("exp:1,1")
    table = mu.odd_moments(65536)
    cut = int(np.argmax(table < sys.float_info.min))
    assert 0 < cut < 65535 and math.isfinite(1.0 / table[cut])
    with pytest.raises(QuadratureError, match=rf"^odd moment mu_\{{2n\+1\}} of exp:1,1 "
                                              rf"vanished numerically at n = {cut}$"):
        frac_deriv_mu(TaylorSeries.monomial(cut), mu, check=False)

@pytest.mark.parametrize("lam,s", [(0.9, 2.0), (0.999, 7.5), (0.5, 0.3), (0.99, 1e-3)])
def test_geometric_series_against_mpmath(lam, s):
    # c_n = (s)_n / n! lam^n, the binomial series of (1 - lam z)^(-s), by its
    # exact step c_{n+1} = c_n (n + s) lam / (n + 1) in 40 digits
    got = geometric_series(lam, s, 4096).coeffs
    assert np.all(got.imag == 0.0)
    with mpmath.workdps(40):
        want, term = [], mpmath.mpf(1)
        for n in range(4097):
            want.append(term)
            term = term * (n + mpmath.mpf(s)) * lam / (n + 1)
    got, want = _representable(got.real, want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5, 7.3])
def test_frac_deriv_beta_multipliers_against_mpmath(beta):
    # 2 Gamma(n + beta + 1) / (Gamma(n + 1) Gamma(beta + 1)) = 2 (beta + 1)_n / n!
    got = frac_deriv_beta(TaylorSeries(np.ones(4097)), beta).coeffs
    assert np.all(got.imag == 0.0)
    with mpmath.workdps(40):
        want, term = [], mpmath.mpf(2)
        for n in range(4097):
            want.append(term)
            term = term * (n + 1 + mpmath.mpf(beta)) / (n + 1)
    got, want = _representable(got.real, want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Gamma-quotient derivative and the multiplier transform


def test_frac_deriv_beta_order_one():
    out = frac_deriv_beta(TaylorSeries.monomial(7), 1.0)
    assert out.coeff(7) == pytest.approx(2.0 * 8.0, rel=1e-12)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
def test_frac_deriv_beta_matches_weight_form(beta):
    # the Gamma-quotient operator equals the weight-induced one for the
    # standard weight of the same exponent
    f = random_series(200)
    lhs = frac_deriv_beta(f, beta)
    rhs = frac_deriv_mu(f, StandardWeight(beta - 1.0))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-8)


def test_frac_deriv_beta_zero_and_validation():
    assert frac_deriv_beta(TaylorSeries([0.0]), 2.0).is_zero
    with pytest.raises(DomainError):
        frac_deriv_beta(TaylorSeries([1.0]), 0.0)
    with pytest.raises(DomainError):
        frac_deriv_beta(TaylorSeries([1.0]), -1.0)


def test_frac_deriv_beta_large_degree_no_overflow():
    f = TaylorSeries.monomial(100_000)
    out = frac_deriv_beta(f, 2.5)
    assert math.isfinite(abs(out.coeff(100_000)))
    assert abs(out.coeff(100_000)) > 1.0


def test_multiplier_transform_values():
    assert multiplier_transform(TaylorSeries.monomial(3), 2.0).coeff(3) == pytest.approx(16.0)
    out = multiplier_transform(TaylorSeries([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(out.coeffs, [1.0, 2.0])


def test_multiplier_vs_gamma_quotient_comparable():
    # Stirling: the Gamma quotient grows like (n+1)^beta
    beta = 1.5
    n = np.unique(np.round(10.0 ** np.linspace(0, 4, 40)).astype(int))
    log_gamma_mult = (
        math.log(2.0)
        + np.array([math.lgamma(v + beta + 1) - math.lgamma(v + 1) for v in n])
        - math.lgamma(beta + 1.0)
    )
    ratio = np.exp(log_gamma_mult - beta * np.log(n + 1.0))
    assert np.all(np.isfinite(ratio))
    assert ratio.max() / ratio.min() < 3.0


def test_operators_are_linear(std1):
    a, b = 1.7 - 0.3j, -2.1 + 0.9j
    f, g = random_series(60), random_series(60)
    combo = a * f + b * g
    for op in (
        lambda h: frac_deriv_mu(h, std1),
        lambda h: frac_deriv_beta(h, 1.5),
        lambda h: multiplier_transform(h, 2.0),
    ):
        lhs = op(combo)
        rhs = a * op(f) + b * op(g)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


def test_inverse_moment_growth_polynomial(std1, log2w):
    # upper-class weights keep log(1/mu_{2n+1}) / log n bounded
    for w in (std1, log2w):
        for n in (10, 100, 1_000, 10_000):
            growth = -math.log(w.moment(2.0 * n + 1.0)) / math.log(n)
            assert growth < 8.0


# ---------------------------------------------------------------------------
# circle evaluation and Hadamard product


def test_evaluate_circle_fourth_roots():
    vals = evaluate_circle(TaylorSeries.monomial(1), 1.0, 4)
    np.testing.assert_allclose(vals, [1.0, 1.0j, -1.0, -1.0j], atol=1e-14)


def test_evaluate_circle_constant():
    vals = evaluate_circle(TaylorSeries.constant(2.5 - 1.0j), 0.7, 8)
    np.testing.assert_allclose(vals, np.full(8, 2.5 - 1.0j), atol=1e-14)


def test_evaluate_circle_parseval_mean():
    vals = evaluate_circle(TaylorSeries([1.0, 1.0]), 0.5, 8)
    assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.25, rel=1e-12)


def test_evaluate_circle_matches_horner():
    f = random_series(37)
    for r, q in [(0.3, 16), (0.95, 64), (1.0, 41)]:
        got = evaluate_circle(f, r, q)
        expect = oracle_circle_values(f.coeffs, r, q)
        np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-12)
        points = r * np.exp(2j * np.pi * np.arange(q) / q)
        np.testing.assert_allclose(horner(f.coeffs, points), expect, rtol=1e-12, atol=1e-12)
    # sparse series, whose powers z^gap are built by squaring: gaps 1, 2, 7
    # and 64 between the nonzero terms, alone and mixed, after a factor z^a
    rng = np.random.default_rng(29)
    z = np.sqrt(rng.uniform(size=300)) * np.exp(2j * np.pi * rng.uniform(size=300))
    z = np.concatenate([z, np.exp(2j * np.pi * rng.uniform(size=100)), [0.0, 1.0, -1.0j]])
    for gaps in ([1, 1, 1], [2, 2], [7, 7, 7], [64, 64], [1, 2, 7, 64], [64, 7, 2, 1, 64]):
        for a in (0, 1, 5):
            support = a + np.concatenate([[0], np.cumsum(gaps)])
            coeffs = np.zeros(support[-1] + 1, dtype=complex)
            coeffs[support] = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
            want = np.polyval(coeffs[::-1], z)
            scale = np.polyval(np.abs(coeffs[::-1]), np.abs(z))
            assert np.all(np.abs(horner(coeffs, z) - want) <= 1e-13 * scale), (gaps, a)
    assert np.array_equal(horner(np.zeros(4), z), np.zeros(z.shape))


def test_evaluate_circle_aliases_when_undersampled():
    # sampling below the degree folds coefficients mod q, exactly
    f = TaylorSeries([1.0, 0.0, 0.0, 0.0, 2.0])  # 1 + 2 z^4
    got = evaluate_circle(f, 1.0, 4)
    np.testing.assert_allclose(got, np.full(4, 3.0 + 0.0j), atol=1e-13)


def test_evaluate_circle_validation():
    with pytest.raises(DomainError):
        evaluate_circle(TaylorSeries([1.0]), 1.1, 4)
    with pytest.raises(DomainError):
        evaluate_circle(TaylorSeries([1.0]), 0.5, 0)


# ---------------------------------------------------------------------------
# circle power means: the FFT path, the exact p = 2 path and sample reuse

GUARD_RADII = np.array([0.0, 0.5, 0.9, 0.99, 1.0])


@pytest.mark.parametrize("degree", [3, 40, 257, 2048])
def test_fft_and_exact_p2_means_match_parseval(degree):
    # the norms take parseval_means at p = 2; the FFT path must still hold there
    f = random_series(degree)
    q = DEFAULT_SETTINGS.q_for(degree)
    oracle = np.array([oracle_parseval_mean(f.coeffs, r) for r in GUARD_RADII])
    fft = np.sqrt(circle_power_means(f.coeffs, GUARD_RADII, 2.0, q))
    exact = np.sqrt(parseval_means(f.coeffs, GUARD_RADII))
    np.testing.assert_allclose(fft, oracle, rtol=1e-13)
    np.testing.assert_allclose(exact, oracle, rtol=1e-13)


def test_exact_p2_mean_flushes_like_fft_path():
    f = TaylorSeries.monomial(2048)
    q = DEFAULT_SETTINGS.q_for(2048)
    assert circle_power_means(f.coeffs, [0.5], 2.0, q)[0] == 0.0
    assert parseval_means(f.coeffs, [0.5])[0] == 0.0
    assert parseval_means(f.coeffs, [1.0])[0] == 1.0


@pytest.mark.parametrize("p", [0.5, 1.0, 3.7])
@pytest.mark.parametrize("degree, q", [(5, 32), (64, 512), (300, 2048), (300, 64)])
def test_even_and_odd_samples_reproduce_fresh_passes(p, degree, q):
    f = random_series(degree)
    radii = np.array([0.3, 0.9, 1.0])
    full, even, _ = circle_power_means(f.coeffs, radii, p, q, even=True)
    odd = circle_power_means(f.coeffs, radii, p, q, half_step=True)
    np.testing.assert_allclose(full, circle_power_means(f.coeffs, radii, p, q), rtol=0.0)
    np.testing.assert_allclose(even, circle_power_means(f.coeffs, radii, p, q // 2), rtol=1e-13)
    np.testing.assert_allclose(0.5 * (full + odd), circle_power_means(f.coeffs, radii, p, 2 * q),
                               rtol=1e-13)


def test_hadamard_identity_and_disjoint():
    f = random_series(12)
    ones = TaylorSeries(np.ones(13))
    np.testing.assert_allclose(hadamard(ones, f).coeffs, f.coeffs)
    a = TaylorSeries.monomial(2)
    b = TaylorSeries([1.0, 1.0])
    assert hadamard(a, b).is_zero
    c = hadamard(TaylorSeries.monomial(3, 2.0), TaylorSeries.monomial(3, 3.0))
    assert c.coeff(3) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# named families and io


def test_parse_series_spec_monomial():
    f = parse_series_spec("monomial:5")
    assert f.degree == 5 and f.coeff(5) == 1.0


def test_parse_series_spec_geometric():
    f = parse_series_spec("geometric:0.5,1", default_degree=30)
    # (1 - lam z)^-1 has coefficients lam^n
    np.testing.assert_allclose(f.coeffs.real, 0.5 ** np.arange(31), rtol=1e-12)
    g = parse_series_spec("geometric:0.5,2", default_degree=30)
    np.testing.assert_allclose(g.coeffs.real, (np.arange(31) + 1) * 0.5 ** np.arange(31),
                               rtol=1e-12)


def test_parse_series_spec_lacunary():
    f = parse_series_spec("lacunary:2,100")
    assert set(f.support()) == {1, 2, 4, 8, 16, 32, 64}


@pytest.mark.parametrize("text", ["monomial:", "monomial:x", "geometric:2,1",
                                  "geometric:0.5,0", "lacunary:1,7", "blurb:1"])
def test_parse_series_spec_rejects(text):
    with pytest.raises(DomainError):
        parse_series_spec(text)


def test_series_csv_roundtrip(tmp_path):
    f = random_series(25)
    path = tmp_path / "series.csv"
    write_series_csv(f, path)
    g = read_series_csv(path)
    np.testing.assert_array_equal(g.coeffs, f.coeffs)


@pytest.mark.parametrize("rows, fault", [
    ("0,1,0\n1,2,0\n-1,5,0\n", "negative index -1"),
    ("0,1,0\n3,2,0\n3,5,0\n", "duplicate index 3"),
])
def test_series_csv_rejects_bad_indices(tmp_path, rows, fault):
    path = tmp_path / "bad.csv"
    path.write_text("n,re,im\n" + rows)
    with pytest.raises(DomainError, match=f"{path}:4: {fault}"):
        read_series_csv(path)


def test_series_over_length_budget_is_resource_error(tmp_path):
    top = MAX_SERIES_LENGTH - 1
    assert parse_series_spec(f"monomial:{top}").degree == top
    for text in (f"monomial:{top + 1}", f"lacunary:2,{MAX_SERIES_LENGTH}"):
        with pytest.raises(ResourceError):
            parse_series_spec(text)
    with pytest.raises(ResourceError):
        parse_series_spec("geometric:0.5,1", default_degree=MAX_SERIES_LENGTH)
    path = tmp_path / "far.csv"
    path.write_text(f"n,re,im\n0,1,0\n{MAX_SERIES_LENGTH},1,0\n")
    with pytest.raises(ResourceError, match=f"{path}:3"):
        read_series_csv(path)


def test_series_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n,re,im\n0,one,0\n")
    with pytest.raises(DomainError):
        read_series_csv(path)
    path.write_text("")
    with pytest.raises(DomainError):
        read_series_csv(path)
