import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergweight import (
    DomainError,
    ExponentialWeight,
    LogWeight,
    StandardWeight,
    TaylorSeries,
    bergman_norm,
    block_norm,
    classify,
    equivalence_sweep,
    integral_means_check,
    lp_ratio,
    monomial_necessity_curve,
    norm_equivalence_check,
    parse_weight_spec,
    run_experiment,
    scaled_weight,
    suma_check,
)
from bergweight import norms, series, verify
from bergweight.errors import ConfigError, QuadratureError
from bergweight.weights import MOMENT_ORDER, RadialWeight
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


@pytest.mark.parametrize("n_max, last", [(8, 7), (100, 100), (512, 422), (4096, 3162),
                                         (10_000, 10_000)])
def test_geometric_int_grid_ends_at_or_below_n_max(n_max, last):
    # the rounded points 10^(i/8) up to n_max, and no further
    grid = geometric_int_grid(n_max)
    points = sorted({round(10.0 ** (i / 8)) for i in range(40)})
    assert grid.tolist() == [n for n in points if n <= n_max]
    assert grid[-1] == last


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


def test_suma_check_takes_each_moment_once(monkeypatch):
    # each mu_{k^n}^gamma is taken once, when a radius first reaches n
    mu, orders = LogWeight(2.0), []
    original = mu.moment
    monkeypatch.setattr(mu, "moment", lambda x: orders.append(x) or original(x))
    suma_check(mu, 1.0, 2, check=False)
    assert orders == [2.0**n for n in range(32)]


def test_suma_check_refuses_the_first_radius_it_reaches():
    # standard:200's tail cancels from r = 0.5 on, and moment(8192), which
    # only deeper radii reach, is 0: the tail read after the r = 0.5 sum
    # comes first, though every tail is read in one call after the sums
    with pytest.raises(QuadratureError, match=r"^tail\(0\.5\) of standard:200 .* cancels"):
        suma_check(StandardWeight(200.0), 1.0, 2, check=False)


def test_suma_check_validation(std1):
    with pytest.raises(DomainError):
        suma_check(std1, -1.0, 2)
    with pytest.raises(DomainError):
        suma_check(std1, 1.0, 1)
    # not raw ValueError or OverflowError from int()
    for k, depth in ((math.nan, 25), (math.inf, 25), (2, math.nan), (2, math.inf), (2, 2.5)):
        with pytest.raises(DomainError, match="must be an integer"):
            suma_check(std1, 1.0, k, depth, check=False)


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


# ---------------------------------------------------------------------------
# p = 2 as sequence arithmetic: one rule per weight, the exact monomial ratios


def p2_family():
    return default_family(n_max=512, geometric_degree=256, random_degree=256)


def p2_monomial_ratios(omega, mu, top):
    """R_n = nu_{2n+1} / (mu_{2n+1}^2 omega_{2n+1}) for n <= top, as the p = 2
    experiments read them."""
    return verify._p2_tables(omega, mu, scaled_weight(omega, mu, 2.0), top, check=False)[3]


@pytest.fixture
def rules_built(monkeypatch):
    """A function giving the distinct rules that weights built since it was
    last called, as {weight label: [Gauss order of each rule]}."""
    built = {}
    original = RadialWeight.radial_rule

    def spy(self, x_scale=1.0, order=MOMENT_ORDER):
        rule = original(self, x_scale, order)
        built.setdefault(self.label, {})[id(rule)] = (order, rule)
        return rule

    monkeypatch.setattr(RadialWeight, "radial_rule", spy)

    def since_last():
        out = {label: sorted(order for order, _ in rules.values())
               for label, rules in built.items()}
        built.clear()
        return out

    return since_last


@pytest.mark.parametrize("spec", ["standard:1", "log:2", "exp:1,1"])
def test_p2_experiments_build_one_order_12_rule_per_weight(spec, rules_built):
    # a standard weight's odd moments are closed forms and build no rule
    family, nu = p2_family(), f"{spec}*tail(standard:1)^2"
    own = {} if spec == "standard:1" else {spec: [MOMENT_ORDER]}
    equivalence_sweep(family, parse_weight_spec(spec), StandardWeight(1.0), 2.0)
    assert rules_built() == {**own, nu: [MOMENT_ORDER]}
    norm_equivalence_check(family, parse_weight_spec(spec), 2, 2.0, check=False)
    assert rules_built() == own
    monomial_necessity_curve(parse_weight_spec(spec), StandardWeight(1.0), 2.0, 10_000)
    assert rules_built() == {**own, nu: [MOMENT_ORDER]}


@pytest.mark.parametrize("spec", ["standard:1", "log:2", "exp:1,1", "log:2*tail(standard:1)^4"])
def test_even_p_bergman_norms_build_no_order_8_rule(spec, rules_built):
    # ||f||^p is the p = 2 norm of f^(p/2), to the power 2/p: one odd-moment
    # table, whose rule (if any) has order MOMENT_ORDER
    if spec.startswith("log:2*"):
        w = scaled_weight(parse_weight_spec("log:2"), StandardWeight(1.0), 4.0)
    else:
        w = parse_weight_spec(spec)
    rng = np.random.default_rng(23)
    f = TaylorSeries(rng.standard_normal(65) + 1j * rng.standard_normal(65))
    for p in (4.0, 6.0):
        m = int(p) // 2
        power = np.array([1.0 + 0.0j])
        for _ in range(m):
            power = np.convolve(power, f.coeffs)
        got = bergman_norm(f, w, p)
        assert all(norms.GL_ORDER not in orders for orders in rules_built().values())
        want = bergman_norm(TaylorSeries(power), w, 2.0) ** (1.0 / m)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_p2_tables_stop_at_the_normal_double_range():
    # nu = exp:1,1 tail(standard:1)^2 goes subnormal before omega = exp:1,1
    omega, mu = parse_weight_spec("exp:1,1"), StandardWeight(1.0)
    nu = scaled_weight(omega, mu, 2.0)
    top = 1 << 16
    cut = int(np.argmax(nu.odd_moments(top + 1) < np.finfo(float).tiny))
    assert 0 < cut < top
    assert not np.any(omega.odd_moments(top + 1)[: cut + 1] < np.finfo(float).tiny)
    with pytest.raises(QuadratureError, match=rf"of {re.escape(nu.label)} .* at n = {cut};"):
        verify._p2_tables(omega, mu, nu, top, check=False)
    with pytest.raises(QuadratureError, match=f"at n = {cut};"):
        equivalence_sweep(monomial_family(top), omega, mu, 2.0, check=False)


def test_p2_norm_equivalence_refuses_past_the_end_of_the_table():
    # eta's table is read, and refused, before any block basis or eta_{k^n}
    eta = parse_weight_spec("exp:1,1")
    cut = int(np.argmax(eta.odd_moments(65536) < np.finfo(float).tiny))
    family = [("monomial:65535", TaylorSeries.monomial(65535))]
    with pytest.raises(QuadratureError, match=rf"^odd moment m_\{{2n\+1\}} of exp:1,1 leaves "
                                              rf"the normal double range at n = {cut};"):
        norm_equivalence_check(family, eta, 2, 2.0, check=False)

@pytest.mark.parametrize("spec", ["standard:1", "log:2", "exp:1,1"])
def test_moment_batches_build_one_rule_per_weight(spec, rules_built):
    # standard moments are closed forms and build no rule
    classify(parse_weight_spec(spec))
    assert rules_built() == ({} if spec == "standard:1" else {spec: [MOMENT_ORDER]})
    monomial_necessity_curve(parse_weight_spec(spec), ExponentialWeight(2.0, 1.0), 1.0, 1000)
    expected = {"exp:2,1": [MOMENT_ORDER], f"{spec}*tail(exp:2,1)^1": [MOMENT_ORDER]}
    if spec != "standard:1":
        expected[spec] = [MOMENT_ORDER]
    assert rules_built() == expected


@pytest.mark.parametrize("spec", ["standard:1", "log:2", "exp:1,1"])
def test_p2_sweep_rows_match_standalone_norms(spec):
    # the rows read tables built for the family's largest degree; a lone
    # norm builds its own degree's
    family, mu = p2_family(), StandardWeight(1.0)
    sweep = equivalence_sweep(family, parse_weight_spec(spec), mu, 2.0)
    equiv = norm_equivalence_check(family, parse_weight_spec(spec), 2, 2.0, check=False)
    omega = parse_weight_spec(spec)
    for (_, f), ratio, norm_ratio in zip(family, sweep.columns["ratio"],
                                         equiv.columns["norm_ratio"]):
        assert ratio == pytest.approx(lp_ratio(f, omega, mu, 2.0), rel=1e-12, abs=0.0)
        alone = bergman_norm(f, omega, 2.0) ** 2 / block_norm(f, omega, 2, 2.0, check=False) ** 2
        assert norm_ratio == pytest.approx(alone, rel=1e-12, abs=0.0)


def _standard_poly_in_u(alpha):
    """(alpha + 1) (1 - s^2)^alpha = (alpha + 1) u^alpha (2 - u)^alpha, u = 1 - s,
    as {power of u: coefficient} for an integer alpha."""
    return {alpha + i: Fraction((alpha + 1) * math.comb(alpha, i) * 2 ** (alpha - i) * (-1) ** i)
            for i in range(alpha + 1)}


def _poly_product(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def oracle_standard_monomial_ratios(alpha, beta, top):
    """R_n = nu_{2n+1} / (mu_{2n+1}^2 omega_{2n+1}), n <= top, for omega =
    standard:alpha and mu = standard:beta (integers), nu = omega tail_mu^2,
    in 40-digit mpmath.  tail_mu is int_0^u of mu's polynomial in u, so nu
    is a polynomial in u too, and int s^(2n+1) u^k ds = B(2n + 2, k + 1) =
    k! / ((2n + 2) ... (2n + k + 2))."""
    tail = {k + 1: c / (k + 1) for k, c in _standard_poly_in_u(beta).items()}
    nu = _poly_product(_standard_poly_in_u(alpha), _poly_product(tail, tail))
    out = []
    with mpmath.workdps(40):
        for n in range(top + 1):
            nu_n = mpmath.mpf(0)
            for k, c in nu.items():
                rising = mpmath.fprod(2 * n + 2 + i for i in range(k + 1))
                nu_n += mpmath.mpf(c.numerator) / c.denominator * mpmath.factorial(k) / rising
            om = mpmath.mpf(alpha + 1) / 2 * mpmath.beta(n + 1, alpha + 1)
            mu = mpmath.mpf(beta + 1) / 2 * mpmath.beta(n + 1, beta + 1)
            out.append(float(nu_n / (mu * mu * om)))
    return np.array(out)


@pytest.mark.parametrize("alpha, beta", [(1, 1), (3, 2)])
def test_p2_monomial_ratios_against_mpmath_beta_quotients(alpha, beta):
    # a curve to n_max = 4096 reads R_n to its grid's last n, 3162
    top = int(geometric_int_grid(4096)[-1])
    omega, mu = StandardWeight(alpha), StandardWeight(beta)
    got = p2_monomial_ratios(omega, mu, top)
    want = oracle_standard_monomial_ratios(alpha, beta, top)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    # and reports their exact extremes over every n <= 4217
    params = monomial_necessity_curve(omega, mu, 2.0, 4096).params
    assert params["monomial_ratio_argmin"] == int(np.argmin(want))
    assert params["monomial_ratio_argmax"] == int(np.argmax(want))
    assert params["monomial_ratio_min"] == pytest.approx(want.min(), rel=1e-12, abs=0.0)
    assert params["monomial_ratio_max"] == pytest.approx(want.max(), rel=1e-12, abs=0.0)


@settings(max_examples=25, deadline=None)
@given(spec=st.sampled_from(["standard:1", "log:2", "exp:1,1"]),
       degree=st.integers(1, 96), seed=st.integers(0, 2**32 - 1))
def test_p2_ratio_lies_between_the_monomial_ratios_of_its_support(spec, degree, seed):
    # ||D f||^2 / ||f||^2 = sum_n w_n R_n, w_n = |c_n|^2 omega_{2n+1} / ||f||^2,
    # a convex combination of the R_n over f's support
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) * (
        rng.uniform(size=degree + 1) < 0.5)
    coeffs[degree] = 1.0
    f, omega, mu = TaylorSeries(coeffs), parse_weight_spec(spec), StandardWeight(1.0)
    ratio = lp_ratio(f, omega, mu, 2.0)
    support = p2_monomial_ratios(omega, mu, degree)[f.support()]
    assert support.min() * (1.0 - 1e-12) <= ratio <= support.max() * (1.0 + 1e-12)


def test_p2_reports_carry_the_exact_extremes(std1):
    # the sweep's params cover every n up to its largest degree, which the
    # dyadic monomial rows miss: log:2 against standard:1 peaks between them
    report = equivalence_sweep(default_family(n_max=512), LogWeight(2.0), std1, 2.0)
    params = report.params
    top = max(f.degree for _, f in default_family(n_max=512))
    monomial_ratios = p2_monomial_ratios(LogWeight(2.0), std1, top)
    assert params["monomial_ratio_max"] == monomial_ratios.max()
    assert params["monomial_ratio_argmax"] == int(np.argmax(monomial_ratios))
    rows = [r for label, r in zip(report.columns["f"], report.columns["ratio"])
            if label.startswith("monomial:")]
    assert params["monomial_ratio_max"] > max(rows) * (1.0 + 1e-3)
    assert params["monomial_ratio_min"] <= min(report.columns["ratio"]) * (1.0 + 1e-12)
    assert "monomial_ratio_min" not in equivalence_sweep(
        monomial_family(16), LogWeight(2.0), std1, 1.0).params


def test_means_check_takes_its_tails_from_one_array_call(monkeypatch):
    from bergweight.weights import dhat_verdict

    fam = [("geometric:0.5,1", series.geometric_series(0.5, 1.0, 32)),
           ("monomial:3", TaylorSeries.monomial(3))]
    # the report whose quotients take scalar tails, one mu.tail(r / rho) per row
    mu = LogWeight(2.0)
    monkeypatch.setattr(mu, "tail", lambda rs: np.array(
        [RadialWeight.tail(mu, float(r)) for r in np.ravel(rs)]))
    scalar = integral_means_check(fam, mu, 1.0)
    mu, calls = LogWeight(2.0), []
    dhat_verdict(mu)  # the derivative's screen reads its own tails first
    original = mu._tail_terms
    monkeypatch.setattr(mu, "_tail_terms", lambda rs: calls.append(rs.size) or original(rs))
    report = integral_means_check(fam, mu, 1.0)
    assert report.columns == scalar.columns
    assert calls == [report.params["pairs"]] == [36]


def test_means_check_reads_its_tails_after_the_first_rows_means():
    # D_mu f is refused before any tail is read, though tail(0.5) underflows
    fam = [("monomial:3", TaylorSeries.monomial(3))]
    with pytest.raises(QuadratureError, match="^the radial rule of exp:1000,1 underflows"):
        integral_means_check(fam, ExponentialWeight(1000.0, 1.0), 1.0)


def test_means_check_takes_each_members_means_in_two_calls(monkeypatch, std1):
    calls = []
    original = norms._power_means
    monkeypatch.setattr(norms, "_power_means",
                        lambda *args, **kw: calls.append(args[1].size) or original(*args, **kw))
    fam = default_family(n_max=64, geometric_degree=64, random_degree=64)[::4]
    report = integral_means_check(fam, std1, 0.5)
    assert len(calls) <= 2 * len(fam)
    # the default grid's 8 rho radii and 8 r radii, once each
    assert sum(calls) == 16 * len(fam) and report.skipped == 0


def test_means_check_refuses_a_subnormal_derivative_moment():
    # mu_5 = 1.6e-311: its reciprocal overflows, and D_mu z^3 divides by it
    mu = ExponentialWeight(668.0586668439364, 9.228179500325929)
    with pytest.raises(QuadratureError, match=r"^odd moment mu_\{2n\+1\} of exp:668.059,9.22818 "
                                              r"vanished numerically at n = 2$"):
        integral_means_check([("monomial:3", TaylorSeries.monomial(3))], mu, 1.0)
