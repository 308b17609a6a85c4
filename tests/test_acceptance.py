"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured runtimes.  Every tolerance is pinned here; the runtime budgets are
part of the criteria and asserted.
"""

import math
import time

import numpy as np
import pytest

from bergweight import (
    ExponentialWeight,
    LogWeight,
    StandardWeight,
    TabulatedWeight,
    TaylorSeries,
    bergman_norm,
    build_basis,
    classify,
    frac_deriv_beta,
    frac_deriv_mu,
    integral_mean,
    scaled_weight,
)
from bergweight.cesaro import block
from bergweight.verify import (
    default_family,
    equivalence_sweep,
    integral_means_check,
    lp_ratio,
    monomial_family,
    monomial_necessity_curve,
    norm_equivalence_check,
    suma_check,
)

from conftest import oracle_parseval_mean


class Budget:
    """Context manager asserting the wall-clock budget of one criterion."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[{self.name}] PASS ({self.elapsed:.1f}s of {self.seconds:.0f}s budget)")
            assert self.elapsed < self.seconds, (
                f"{self.name}: runtime {self.elapsed:.1f}s exceeds {self.seconds}s"
            )
        else:
            print(f"[{self.name}] FAIL after {self.elapsed:.1f}s")
        return False


def test_01_moment_oracle():
    with Budget("acceptance-01 moment-oracle", 1.0):
        worst = 0.0
        for alpha in (0.0, 1.0, 2.5):
            closed = StandardWeight(alpha)
            quadr = TabulatedWeight(
                lambda s, a=alpha: (a + 1.0) * (1.0 - s * s) ** a,
                label=f"tab:{alpha}", check=False,
            )
            for x in (0.0, 1.0, 3.0, 10.0, 100.0, 1.0e4):
                rel = abs(quadr.moment(x) - closed.moment(x)) / closed.moment(x)
                worst = max(worst, rel)
        assert worst < 1e-8, f"worst relative error {worst:.3e}"


def test_02_fractional_derivative_consistency():
    with Budget("acceptance-02 frac-deriv-consistency", 1.0):
        rng = np.random.default_rng(11)
        f = TaylorSeries(rng.standard_normal(201) + 1j * rng.standard_normal(201))
        for beta in (0.5, 1.0, 2.5):
            lhs = frac_deriv_beta(f, beta)
            rhs = frac_deriv_mu(f, StandardWeight(beta - 1.0))
            rel = np.max(np.abs(lhs.coeffs - rhs.coeffs) / np.abs(lhs.coeffs))
            assert rel < 1e-8, f"beta={beta}: relative mismatch {rel:.3e}"


def test_03_partition_of_unity_and_reconstruction():
    with Budget("acceptance-03 partition-of-unity", 5.0):
        for k in (2, 3, 4):
            basis = build_basis(k, 4096)
            sums = basis.coefficient_sums(4096)
            assert np.max(np.abs(sums - 1.0)) < 1e-12, f"k={k}"
        basis = build_basis(2, 1023)
        rng = np.random.default_rng(23)
        for _ in range(20):
            coeffs = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
            f = TaylorSeries(coeffs)
            total = np.zeros(1001, dtype=complex)
            for n in range(basis.top_index + 1):
                piece = block(f, basis, n)
                total[: len(piece)] += piece.coeffs[:1001]
            assert np.max(np.abs(total - coeffs)) < 1e-10


def test_04_parseval_oracle():
    with Budget("acceptance-04 parseval", 5.0):
        worst = 0.0
        for _, f in default_family():
            expect_zero = f.is_zero
            for r in (0.0, 0.5, 0.9, 0.99, 1.0):
                oracle = oracle_parseval_mean(f.coeffs, r)
                got = integral_mean(f, r, 2.0)
                if oracle == 0.0:
                    assert got == 0.0
                    continue
                worst = max(worst, abs(got - oracle) / oracle)
        assert worst < 1e-8, f"worst relative error {worst:.3e}"


def test_05_monomial_norm_identity():
    with Budget("acceptance-05 monomial-norm-identity", 30.0):
        worst = 0.0
        for w in (StandardWeight(1.0), LogWeight(2.0)):
            for p in (0.5, 2.0):
                for n in range(0, 513):
                    got = bergman_norm(TaylorSeries.monomial(n), w, p) ** p
                    target = 2.0 * w.moment(n * p + 1.0)
                    worst = max(worst, abs(got - target) / target)
        assert worst < 1e-6, f"worst relative error {worst:.3e}"


def test_06_equivalence_boundedness_inside_class():
    with Budget("acceptance-06 equivalence-bounded", 120.0):
        std1 = StandardWeight(1.0)
        small = equivalence_sweep(default_family(n_max=1024), std1, std1, 2.0)
        large = equivalence_sweep(default_family(n_max=2048), std1, std1, 2.0)
        b1 = small.summary["ratio"]["max_over_min"]
        b2 = large.summary["ratio"]["max_over_min"]
        change = abs(b2 - b1) / b1
        assert change < 0.05, f"bracket moved {change:.2%} under range doubling"
        assert large.params["upper_verdict"] == "bounded"
        assert large.params["lower_verdict"] == "bounded"


def test_07_necessity_curve_divergence_and_stability():
    with Budget("acceptance-07 necessity-curve", 120.0):
        std1 = StandardWeight(1.0)
        curve = monomial_necessity_curve(LogWeight(2.0), std1, 2.0, 10_000)
        ns = np.array(curve.columns["n"])
        vals = np.array(curve.columns["reverse_ratio"])
        for lo, hi in ((100, 1_000), (1_000, 10_000)):
            seg = vals[(ns >= lo) & (ns <= hi)]
            assert np.all(np.diff(seg) > 0), f"not strictly increasing on [{lo},{hi}]"
            growth = seg[-1] / seg[0]
            assert growth > 1.05, f"decade [{lo},{hi}] grew only {growth:.4f}"
        ref = monomial_necessity_curve(std1, std1, 2.0, 10_000)
        ref2 = monomial_necessity_curve(std1, std1, 2.0, 20_000)
        c1 = ref.summary["reverse_ratio"]["max_over_min"]
        c2 = ref2.summary["reverse_ratio"]["max_over_min"]
        assert math.isfinite(c1)
        change = abs(c2 - c1) / c1
        assert change < 0.05, f"reference bracket moved {change:.2%}"


def test_08_upper_inequality_fails_outside_upper_class():
    with Budget("acceptance-08 upper-failure", 120.0):
        report = equivalence_sweep(
            monomial_family(1024), ExponentialWeight(1.0, 1.0), StandardWeight(1.0), 2.0
        )
        ratios = report.columns["ratio"]
        assert all(b > a for a, b in zip(ratios, ratios[1:])), "not monotone"
        assert report.params["upper_verdict"] == "growing"
        assert ratios[-1] / ratios[-2] > 1.05


def test_09_integral_means_bound_stable():
    with Budget("acceptance-09 means-bound", 120.0):
        std1 = StandardWeight(1.0)
        fam = default_family()
        for p in (0.5, 2.0):
            coarse = integral_means_check(fam, std1, p, np.linspace(0.1, 0.9, 9))
            fine = integral_means_check(fam, std1, p, np.linspace(0.1, 0.9, 17))
            m1 = coarse.summary["bound_quotient"]["max"]
            m2 = fine.summary["bound_quotient"]["max"]
            factor = max(m1, m2) / min(m1, m2)
            assert factor < 2.0, f"p={p}: bound moved by {factor:.2f}x under refinement"


def test_10_lacunary_sum_vs_tail_power():
    with Budget("acceptance-10 summation-bracket", 30.0):
        for mu in (StandardWeight(1.0), StandardWeight(0.5)):
            for gamma in (1.0, 2.0):
                for k in (2, 4):
                    deep = suma_check(mu, gamma, k, depth=25)
                    shallow = suma_check(mu, gamma, k, depth=20)
                    b_deep = deep.summary["sum_ratio"]["max_over_min"]
                    b_shallow = shallow.summary["sum_ratio"]["max_over_min"]
                    assert math.isfinite(b_deep)
                    change = abs(b_deep - b_shallow) / b_shallow
                    assert change < 0.05, (
                        f"mu={mu.label} gamma={gamma} k={k}: bracket moved {change:.2%}"
                    )


def test_11_block_norm_equivalence_bracket():
    with Budget("acceptance-11 block-norm-bracket", 180.0):
        std1 = StandardWeight(1.0)
        fam_small = default_family(n_max=256, geometric_degree=256, random_degree=256)
        fam_large = default_family(n_max=512, geometric_degree=512, random_degree=512)
        for p in (0.5, 1.0, 2.0, 4.0):
            small = norm_equivalence_check(fam_small, std1, 2, p)
            large = norm_equivalence_check(fam_large, std1, 2, p)
            b1 = small.summary["norm_ratio"]["max_over_min"]
            b2 = large.summary["norm_ratio"]["max_over_min"]
            assert math.isfinite(b1) and math.isfinite(b2)
            factor = max(b1, b2) / min(b1, b2)
            assert factor < 1.5, f"p={p}: bracket moved {factor:.2f}x under doubling"


def test_12_scale_invariance():
    with Budget("acceptance-12 scale-invariance", 60.0):
        std1 = StandardWeight(1.0)
        big = std1.scaled(7.3)
        f = TaylorSeries([1.0, 0.5 - 0.25j, 0.25, 0.125j, 0.0625])

        base = lp_ratio(f, std1, std1, 2.0)
        assert lp_ratio(f, big, std1, 2.0) == pytest.approx(base, rel=1e-12)

        curve = monomial_necessity_curve(std1, std1, 2.0, 500)
        curve_scaled = monomial_necessity_curve(big, std1, 2.0, 500)
        np.testing.assert_allclose(
            curve_scaled.columns["reverse_ratio"],
            curve.columns["reverse_ratio"], rtol=1e-12,
        )

        fam = [("f", f), ("monomial:8", TaylorSeries.monomial(8))]
        sweep = equivalence_sweep(fam, std1, std1, 2.0)
        sweep_scaled = equivalence_sweep(fam, big, std1, 2.0)
        np.testing.assert_allclose(
            sweep_scaled.columns["ratio"], sweep.columns["ratio"], rtol=1e-12
        )

        grid = np.array([0.2, 0.5, 0.8])
        means = integral_means_check(fam, std1, 2.0, grid)
        means_scaled = integral_means_check(fam, std1.scaled(7.3), 2.0, grid)
        np.testing.assert_allclose(
            means_scaled.columns["bound_quotient"],
            means.columns["bound_quotient"], rtol=1e-12,
        )

        blocks = norm_equivalence_check(fam, std1, 2, 2.0)
        blocks_scaled = norm_equivalence_check(fam, big, 2, 2.0, check=False)
        np.testing.assert_allclose(
            blocks_scaled.columns["norm_ratio"],
            blocks.columns["norm_ratio"], rtol=1e-12,
        )

        report = classify(std1)
        report_scaled = classify(big)
        for name in report.curves:
            np.testing.assert_allclose(
                report_scaled.curves[name][1], report.curves[name][1], rtol=1e-12
            )
        assert report_scaled.verdicts == report.verdicts
