import math

import numpy as np
import pytest

from bergweight import (
    DomainError,
    ResourceError,
    TaylorSeries,
    block,
    build_basis,
    cutoff_seminorm,
    hardy_norm,
    make_cutoff,
)
from bergweight.cesaro import block_span
from bergweight.series import geometric_series, lacunary_series

RNG = np.random.default_rng(402)


# ---------------------------------------------------------------------------
# the smooth cutoff


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_cutoff_boundary_values(k):
    cut = make_cutoff(k)
    assert cut(1.0) == 1.0
    assert cut(float(k)) == 0.0
    assert cut(0.3) == 1.0
    assert cut(-5.0) == 1.0
    assert cut(k + 3.0) == 0.0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cutoff_midpoint_symmetry(k):
    # the glue is symmetric, so the midpoint of (1, k) maps to one half
    cut = make_cutoff(k)
    assert cut((1.0 + k) / 2.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cutoff_decreasing_interior(k):
    # in doubles the exp(-1/s) glue saturates to exactly 1 (resp. 0) on a
    # thin skin inside the band; strictness is asserted where the sampled
    # values are strictly between the plateaus
    cut = make_cutoff(k)
    t = np.linspace(1.0 + 1e-6, k - 1e-6, 2001)
    vals = cut(t)
    assert np.all(np.diff(vals) <= 0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    interior = (vals > 1e-12) & (vals < 1.0 - 1e-12)
    assert interior.sum() > 1700  # the saturated skin is a few percent
    assert np.all(np.diff(vals[interior]) < 0)


def test_cutoff_rejects_bad_k():
    with pytest.raises(DomainError):
        make_cutoff(1)
    with pytest.raises(DomainError):
        make_cutoff(2.5)
    for k in (math.nan, math.inf):
        with pytest.raises(DomainError, match="must be an integer >= 2"):
            make_cutoff(k)


# ---------------------------------------------------------------------------
# basis construction


def test_block_span_examples():
    assert block_span(2, 1) == 1
    assert block_span(2, 15) == 5
    assert block_span(2, 16) == 5
    assert block_span(3, 80) == 5


def test_first_block_coefficients_k2():
    basis = build_basis(2, 15)
    assert basis.coefficient(0, 0) == 1.0
    assert basis.coefficient(0, 1) == 1.0  # cutoff still equals 1 at t = 1


def test_partition_of_unity_small():
    basis = build_basis(2, 15)
    sums = basis.coefficient_sums(15)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_dyadic_block_peak_value():
    # coefficient at j = 2^n of block n is cutoff(1) - cutoff(2) = 1
    basis = build_basis(2, 64)
    for n in range(1, basis.top_index + 1):
        if 2**n <= len(basis.blocks[n]) - 1:
            assert basis.coefficient(n, 2**n) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n_top", [63, 64, 1000])
def test_basis_invariants(k, n_top):
    basis = build_basis(k, n_top)
    # supports inside [k^(n-1), k^(n+1)), magnitudes at most 2
    for n, blk in enumerate(basis.blocks):
        support = blk.support()
        if n == 0:
            assert support.max() <= k - 1
        else:
            assert support.min() >= k ** (n - 1)
            assert support.max() < k ** (n + 1)
        assert np.max(np.abs(blk.coeffs)) <= 2.0
    sums = basis.coefficient_sums(n_top)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_basis_memory_guard():
    with pytest.raises(ResourceError):
        build_basis(4, 100_000_000)


# ---------------------------------------------------------------------------
# band extraction and reconstruction


def test_block_of_monomial_extracts_coefficient():
    basis = build_basis(2, 63)
    for j in (0, 1, 5, 17, 40):
        for n in range(basis.top_index + 1):
            piece = block(TaylorSeries.monomial(j), basis, n)
            expected = basis.coefficient(n, j)
            assert piece.coeff(j) == pytest.approx(expected, abs=1e-14)
            assert all(piece.coeff(m) == 0 for m in piece.support() if m != j)


def test_blocks_reconstruct_polynomials():
    basis = build_basis(2, 1023)
    for _ in range(20):
        coeffs = RNG.standard_normal(1001) + 1j * RNG.standard_normal(1001)
        f = TaylorSeries(coeffs)
        total = np.zeros(1001, dtype=complex)
        for n in range(basis.top_index + 1):
            piece = block(f, basis, n)
            total[: len(piece)] += piece.coeffs[:1001]
        np.testing.assert_allclose(total, coeffs, atol=1e-10)


def test_block_vanishes_off_support():
    basis = build_basis(2, 63)
    f = TaylorSeries.monomial(40)  # lives in [2^5, 2^7) only
    assert block(f, basis, 2).is_zero
    assert not block(f, basis, 6).is_zero


def test_block_index_validation():
    basis = build_basis(2, 63)
    for n in (basis.top_index + 1, -1, 1.5, np.float64(1.0)):
        with pytest.raises(DomainError):
            block(TaylorSeries.monomial(1), basis, n)


# ---------------------------------------------------------------------------
# seminorm


def test_seminorm_of_cutoff_level_zero():
    cut = make_cutoff(2)
    assert cutoff_seminorm(cut, 0) == pytest.approx(1.0, abs=1e-12)


def test_seminorm_of_band_function():
    cut = make_cutoff(2)
    value = cutoff_seminorm(cut.psi, 0, support=cut.psi_support)
    assert 0.0 < value <= 1.0


def test_seminorm_grid_refinement_stable():
    cut = make_cutoff(2)
    coarse = cutoff_seminorm(cut.psi, 2, support=cut.psi_support, grid_points=2001)
    fine = cutoff_seminorm(cut.psi, 2, support=cut.psi_support, grid_points=8001)
    assert fine >= coarse * 0.99
    assert abs(fine - coarse) <= 0.01 * max(fine, coarse)


def test_seminorm_validation():
    cut = make_cutoff(2)
    with pytest.raises(DomainError):
        cutoff_seminorm(cut, 5)
    with pytest.raises(DomainError):
        cutoff_seminorm(cut, -1)
    with pytest.raises(DomainError):
        cutoff_seminorm(lambda t: t, 0)  # plain callable needs a support


def test_seminorm_positive_order_exceeds_sup():
    cut = make_cutoff(2)
    m2 = cutoff_seminorm(cut, 2)
    assert m2 > 1.0  # adds 2 * max |second derivative|


# ---------------------------------------------------------------------------
# uniform boundedness of band projections in the Hardy scale


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
def test_block_hardy_norms_uniformly_bounded(p):
    def suite(degree):
        fam = [geometric_series(0.9, 2.0, degree), lacunary_series(2, degree)]
        rng = np.random.default_rng(7)
        fam.append(TaylorSeries(rng.standard_normal(degree + 1)
                                + 1j * rng.standard_normal(degree + 1)))
        return fam

    def max_ratio(degree):
        basis = build_basis(2, degree)
        worst = 0.0
        for f in suite(degree):
            base = hardy_norm(f, p)
            for n in range(basis.top_index + 1):
                piece = block(f, basis, n)
                if piece.is_zero:
                    continue
                worst = max(worst, hardy_norm(piece, p) / base)
        return worst

    small = max_ratio(128)
    large = max_ratio(256)
    assert np.isfinite(small) and np.isfinite(large)
    # doubling the truncation degree must not grow the empirical constant
    assert large <= small * 1.10
