import math

import numpy as np
import pytest

from bergweight import (
    DomainError,
    LogWeight,
    NormSettings,
    StandardWeight,
    TaylorSeries,
    bergman_norm,
    block_norm,
    block_sum_compare,
    build_basis,
    hardy_norm,
    integral_mean,
)
from bergweight.series import geometric_series, lacunary_series
from bergweight import norms
from bergweight.norms import DEFAULT_SETTINGS

from conftest import oracle_parseval_mean

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
    assert integral_mean(f, 0.0, 2.0) == pytest.approx(abs(f.coeff(0)), rel=1e-12)
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
    assert block_norm(0.5 * f, std1, 2, 2.0) == pytest.approx(0.5 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# nonnegative-series block comparison


def test_block_sum_compare_unit_mass(std0):
    lhs, rhs = block_sum_compare(np.array([1.0, 0.0, 0.0]), std0, 2, 1.0)
    assert lhs == pytest.approx(1.0, rel=1e-10)
    assert rhs == pytest.approx(0.5, rel=1e-12)
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
    rule = std1.radial_rule(p * f.degree + 2.0, order=DEFAULT_SETTINGS.gl_order,
                            theta=DEFAULT_SETTINGS.theta)
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
