import math

import numpy as np
import pytest

from bergweight import (
    DomainError,
    ExponentialWeight,
    LogWeight,
    StandardWeight,
    TaylorSeries,
    classify,
    equivalence_sweep,
    integral_means_check,
    lp_ratio,
    monomial_necessity_curve,
    norm_equivalence_check,
    run_experiment,
    scaled_weight,
    suma_check,
)
from bergweight.errors import ConfigError
from bergweight.verify import default_family, geometric_int_grid, monomial_family
from bergweight.cli import parse_config


def monomial_ratio_oracle(omega, mu, p, n):
    nu = scaled_weight(omega, mu, p)
    return nu.moment(n * p + 1.0) / (mu.moment(2.0 * n + 1.0) ** p * omega.moment(n * p + 1.0))


# ---------------------------------------------------------------------------
# lp_ratio


def test_lp_ratio_monomials_match_moment_oracle(std1):
    for n in (0, 1, 4, 32):
        got = lp_ratio(TaylorSeries.monomial(n), std1, std1, 2.0)
        assert got == pytest.approx(monomial_ratio_oracle(std1, std1, 2.0, n), rel=1e-8)


def test_lp_ratio_constant_closed_form(std1):
    got = lp_ratio(TaylorSeries.constant(3.0), std1, std1, 2.0)
    nu = scaled_weight(std1, std1, 2.0)
    expect = nu.moment(1.0) / (std1.moment(1.0) ** 2 * std1.moment(1.0))
    assert got == pytest.approx(expect, rel=1e-8)


def test_lp_ratio_scale_invariances(std1):
    f = TaylorSeries([1.0, 0.5, 0.25, 0.125])
    base = lp_ratio(f, std1, std1, 2.0)
    assert lp_ratio(9.0 * f, std1, std1, 2.0) == pytest.approx(base, rel=1e-12)
    assert lp_ratio(f, std1.scaled(7.3), std1, 2.0) == pytest.approx(base, rel=1e-12)


def test_lp_ratio_rejects_zero(std1):
    with pytest.raises(DomainError):
        lp_ratio(TaylorSeries([0.0]), std1, std1, 2.0)


# ---------------------------------------------------------------------------
# sweeps


def test_equivalence_sweep_bounded_for_doubling_weight(std1):
    report = equivalence_sweep(monomial_family(1024), std1, std1, 2.0)
    assert report.params["upper_verdict"] == "bounded"
    assert report.params["lower_verdict"] == "bounded"
    assert report.summary["ratio"]["max_over_min"] < 100.0
    assert len(report.rows()) == len(report.columns["f"])


def test_equivalence_sweep_upper_fails_outside_upper_class(std1):
    report = equivalence_sweep(
        monomial_family(1024), ExponentialWeight(1.0, 1.0), std1, 2.0
    )
    assert report.params["upper_verdict"] == "growing"
    ratios = report.columns["ratio"]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_equivalence_sweep_lower_fails_for_log_weight(std1, log2w):
    report = equivalence_sweep(monomial_family(1024), log2w, std1, 2.0)
    assert report.params["upper_verdict"] == "bounded"
    assert report.params["lower_verdict"] == "growing"


def test_equivalence_sweep_needs_family(std1):
    with pytest.raises(DomainError):
        equivalence_sweep([], std1, std1, 2.0)


def test_equivalence_sweep_one_member_family_is_a_domain_error(std1):
    # a boundedness verdict compares at least two ratios
    with pytest.raises(DomainError, match="at least two"):
        equivalence_sweep([("monomial:1", TaylorSeries.monomial(1))], std1, std1, 2.0)


def test_equivalence_sweep_builds_the_mu_dhat_curve_once(monkeypatch):
    from bergweight import weights

    built = []
    original = weights._tail_ratio_curve

    def spy(w, k):
        built.append((w, k))
        return original(w, k)

    monkeypatch.setattr(weights, "_tail_ratio_curve", spy)
    mu = StandardWeight(1.0)
    equivalence_sweep(monomial_family(64), LogWeight(2.0), mu, 2.0)
    # the screen reads mu's k = 2 curve (its dhat curve) once per sweep
    assert built.count((mu, 2)) == 1
    # the memo gives classify's verdict
    assert weights.dhat_verdict(mu) == classify(StandardWeight(1.0)).verdicts["dhat"] == "in"


def test_dhat_screen_refuses_the_same_way_twice(std1):
    # exp:1,1 is outside the upper class; the memoized screen keeps its message
    mu = ExponentialWeight(1.0, 1.0)
    messages = []
    for _ in range(2):
        with pytest.raises(DomainError, match="looks outside the upper-doubling class") as err:
            lp_ratio(TaylorSeries([1.0, 0.5]), std1, mu, 2.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_theorem_direction_consistency(std1, log2w):
    # upper class membership must come with a bounded upper column; full
    # membership with both columns bounded
    for w in (std1, log2w):
        verdicts = classify(w).verdicts
        report = equivalence_sweep(monomial_family(512), w, std1, 2.0)
        if verdicts["dhat"] == "in":
            assert report.params["upper_verdict"] == "bounded"
        if verdicts["d"] == "in":
            assert report.params["lower_verdict"] == "bounded"


# ---------------------------------------------------------------------------
# monomial necessity curve


def test_necessity_curve_bounded_inside_class(std1):
    report = monomial_necessity_curve(std1, std1, 2.0, 2_000)
    assert report.params["bounded_verdict"] == "bounded"


def test_necessity_curve_grows_outside_class(std1, log2w):
    report = monomial_necessity_curve(log2w, std1, 2.0, 2_000)
    assert report.params["bounded_verdict"] == "growing"
    vals = report.columns["reverse_ratio"]
    assert vals[-1] > vals[0]


def test_necessity_curve_scale_invariant(std1):
    base = monomial_necessity_curve(std1, std1, 2.0, 200)
    scaled = monomial_necessity_curve(std1.scaled(7.3), std1, 2.0, 200)
    np.testing.assert_allclose(
        scaled.columns["reverse_ratio"], base.columns["reverse_ratio"], rtol=1e-12
    )


def test_necessity_curve_validation(std1):
    with pytest.raises(DomainError):
        monomial_necessity_curve(std1, std1, 2.0, 4)


def test_geometric_int_grid_shape():
    grid = geometric_int_grid(10_000)
    assert grid[0] == 1 and grid[-1] == 10_000
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------------------------
# integral means check


def test_means_check_monomial_rows_match_closed_form(std1):
    fam = [("monomial:6", TaylorSeries.monomial(6))]
    grid = np.array([0.2, 0.5, 0.8])
    report = integral_means_check(fam, std1, 2.0, grid)
    mu3 = std1.moment(2.0 * 6 + 1.0)
    for r, rho, got in zip(
        report.columns["r"], report.columns["rho"], report.columns["bound_quotient"]
    ):
        expect = (r**6 / mu3) * std1.tail(r / rho) / rho**6
        assert got == pytest.approx(expect, rel=1e-8)


def test_means_check_constant_row_value(std1):
    fam = [("monomial:0", TaylorSeries.monomial(0))]
    report = integral_means_check(fam, std1, 2.0, np.array([0.0, 0.5]))
    expect = (1.0 / std1.moment(1.0)) * std1.tail(0.0)
    assert report.columns["bound_quotient"][0] == pytest.approx(expect, rel=1e-8)


def test_means_check_skips_degenerate_rows(std1):
    # f = z: the derivative means vanish at r = 0, those pairs are skipped
    fam = [("odd", TaylorSeries([0.0, 1.0]))]
    grid = np.array([0.0, 0.3, 0.5])
    report = integral_means_check(fam, std1, 2.0, grid)
    assert report.skipped == 2
    assert len(report.rows()) == 1
    zero = TaylorSeries([0.0, 0.0])
    with pytest.raises(DomainError):
        integral_means_check([("zero", zero)], std1, 2.0, grid)


def test_means_check_validation(std1):
    with pytest.raises(DomainError):
        integral_means_check([], std1, 2.0)
    fam = [("monomial:1", TaylorSeries.monomial(1))]
    with pytest.raises(DomainError):
        integral_means_check(fam, std1, 2.0, np.array([0.5]))


def test_means_check_scale_invariant_in_mu(std1):
    fam = [("monomial:4", TaylorSeries.monomial(4))]
    grid = np.array([0.3, 0.6])
    base = integral_means_check(fam, std1, 2.0, grid)
    scaled = integral_means_check(fam, std1.scaled(7.3), 2.0, grid)
    np.testing.assert_allclose(
        scaled.columns["bound_quotient"], base.columns["bound_quotient"], rtol=1e-12
    )


# ---------------------------------------------------------------------------
# lacunary sum comparison


def test_suma_check_bracket_and_zero_row(std1):
    report = suma_check(std1, 1.0, 2)
    ratios = report.columns["sum_ratio"]
    assert report.columns["r"][0] == 0.0
    assert ratios[0] == pytest.approx(std1.tail(0.0), rel=1e-10)
    assert max(ratios) / min(ratios) < 10.0


def test_suma_check_other_k_still_finite(std1):
    r2 = suma_check(std1, 1.0, 2)
    r4 = suma_check(std1, 1.0, 4)
    assert max(r4.columns["sum_ratio"]) / min(r4.columns["sum_ratio"]) < 10.0
    assert r2.summary["sum_ratio"]["max_over_min"] != pytest.approx(
        r4.summary["sum_ratio"]["max_over_min"], rel=1e-3
    )


def test_suma_check_screens_weight(log2w):
    with pytest.raises(DomainError):
        suma_check(log2w, 1.0, 2)
    report = suma_check(log2w, 1.0, 2, check=False)
    assert len(report.rows()) > 0


def test_suma_check_validation(std1):
    with pytest.raises(DomainError):
        suma_check(std1, -1.0, 2)
    with pytest.raises(DomainError):
        suma_check(std1, 1.0, 1)


# ---------------------------------------------------------------------------
# block-norm equivalence


def test_norm_equivalence_rows_and_scale(std1):
    fam = default_family(n_max=64, geometric_degree=64, random_degree=32)
    report = norm_equivalence_check(fam, std1, 2, 2.0)
    ratios = report.columns["norm_ratio"]
    assert np.all(np.isfinite(ratios)) and np.all(np.asarray(ratios) > 0)
    scaled = norm_equivalence_check(fam, std1.scaled(7.3), 2, 2.0, check=False)
    np.testing.assert_allclose(scaled.columns["norm_ratio"], ratios, rtol=1e-12)


def test_norm_equivalence_monomial_cross_check(std1):
    # single-monomial rows have closed forms through moments and the basis
    from bergweight import build_basis

    fam = [("monomial:5", TaylorSeries.monomial(5))]
    report = norm_equivalence_check(fam, std1, 2, 2.0)
    basis = build_basis(2, 8)
    block_side = sum(
        std1.moment(2.0**n) * abs(basis.coefficient(n, 5)) ** 2
        for n in range(basis.top_index + 1)
    )
    expect = 2.0 * std1.moment(11.0) / block_side
    assert report.columns["norm_ratio"][0] == pytest.approx(expect, rel=1e-6)


def test_norm_equivalence_screens_weight(log2w):
    fam = [("monomial:3", TaylorSeries.monomial(3))]
    with pytest.raises(DomainError):
        norm_equivalence_check(fam, log2w, 2, 2.0)


# ---------------------------------------------------------------------------
# reports and dispatch


def test_report_rejects_nonpositive_ratios(std1):
    from bergweight.verify import ExperimentReport

    with pytest.raises(DomainError):
        ExperimentReport(
            experiment="x", params={}, columns={"ratio": [1.0, -2.0]},
            ratio_names=["ratio"],
        )
    with pytest.raises(DomainError):
        ExperimentReport(experiment="x", params={}, columns={"ratio": []},
                         ratio_names=["ratio"])


def test_report_summary_fields(std1):
    report = suma_check(std1, 1.0, 2)
    summary = report.summary["sum_ratio"]
    assert set(summary) == {"min", "max", "max_over_min"}
    assert summary["max"] >= summary["min"] > 0


def test_run_experiment_dispatch_and_errors(std1):
    cfg = parse_config("experiment = suma-check\nmu = standard:1.0\ngamma = 1.0\nk = 2\ndepth = 8")
    report = run_experiment(cfg)
    assert report.experiment == "suma-check"
    cfg = parse_config("experiment = classify\nweight = standard:1.0")
    assert run_experiment(cfg).verdicts["d"] == "in"
    cfg = parse_config("experiment = lp-sweep\nomega = standard:1.0\np = 2.0")
    with pytest.raises(ConfigError):
        run_experiment(cfg)  # missing mu
