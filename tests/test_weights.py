import functools
import math
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergweight import (
    DomainError,
    ExponentialWeight,
    LogWeight,
    QuadratureError,
    StandardWeight,
    TabulatedWeight,
    classify,
    parse_weight_spec,
    scaled_weight,
)
from bergweight.quadrature import cell_nodes
from bergweight.weights import dcheck_margin, default_r_grid

from conftest import (
    oracle_exp_moment,
    oracle_log_moment,
    oracle_std_moment,
    oracle_std_tail,
)


# ---------------------------------------------------------------------------
# tails


def test_tail_constant_weight_is_one_minus_r(std0):
    for r in [0.0, 0.1, 0.5, 0.9, 0.999, 1 - 2.0**-20]:
        assert std0.tail(r) == pytest.approx(1.0 - r, rel=1e-12, abs=0.0)


def test_tail_std1_at_zero_is_four_thirds(std1):
    assert std1.tail(0.0) == pytest.approx(4.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5, -0.5, 7.0])
def test_std_tail_against_riemann_oracle(alpha):
    w = StandardWeight(alpha)
    for r in [0.0, 0.3, 0.7, 0.9, 0.99]:
        assert w.tail(r) == pytest.approx(oracle_std_tail(alpha, r), rel=1e-8, abs=0.0)


def test_std1_tail_bracket(std1):
    # (1-r)^(alpha+1) <= tail <= 2^alpha (1-r)^(alpha+1), here alpha = 1
    for i in range(25):
        r = 1.0 - 2.0**-i
        ratio = std1.tail(r) / (1.0 - r) ** 2
        assert 1.0 <= ratio <= 2.0


def test_std_tail_cancellation_raises_quadrature_error():
    # for r < 1/sqrt(2) the tail is the full Beta integral minus the stretch
    # [0, r]; at alpha = 50 the difference cancels to <= 0 near r = 0.68
    with pytest.raises(QuadratureError) as err:
        StandardWeight(50.0).log_tail(0.683772233983162)
    assert "alpha = 50" in str(err.value) and "0.683772233983162" in str(err.value)
    assert err.value.residual <= 0.0


@pytest.mark.parametrize("spec, r", [("log:1e4", 0.5)])
def test_unresolved_tail_integrals_raise_quadrature_error(spec, r):
    # the tail integral comes out 0, whose log was a bare ValueError
    w = parse_weight_spec(spec)
    with pytest.raises(QuadratureError) as err:
        w.log_tail(r)
    assert w.label in str(err.value) and f"tail({r!r})" in str(err.value)
    assert err.value.residual == 0.0


@pytest.mark.parametrize("spec, r", [("exp:1e-6,1e-6", 0.0), ("exp:1e-3,1e-3", 0.0)])
def test_exp_tail_with_a_thin_boundary_layer_against_mpmath(spec, r):
    # a = c/u^gamma tiny and 1/gamma huge, where the continued fraction
    # converges in a few steps
    w = parse_weight_spec(spec)
    with mpmath.workdps(30):
        c, g = mpmath.mpf(w.c), mpmath.mpf(w.gamma)
        want = float(mpmath.quad(lambda v: mpmath.exp(-c * v ** -g), [0, 1 - mpmath.mpf(r)]))
    assert w.tail(r) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cli_means_check_exits_2_on_tail_cancellation(capsys):
    from bergweight.cli import main

    assert main(["means-check", "--mu", "standard:50", "--p", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha = 50" in err and "Traceback" not in err


_TAIL_RADII = np.concatenate([np.linspace(0.0, 0.99, 100), 1.0 - 2.0 ** -np.linspace(7.0, 40.0, 67)])


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 2.5, 5.0])
def test_std_tail_against_mpmath_betainc(alpha):
    # tail(r) = (a/2) B(1 - r^2; a, 1/2), a = alpha + 1; the array and scalar
    # faces run one routine and must agree bit for bit
    w = StandardWeight(alpha)
    a = alpha + 1.0
    tails = w.tail_many(_TAIL_RADII)
    assert np.array_equal(tails, [math.exp(w.log_tail(float(r))) for r in _TAIL_RADII])
    with mpmath.workdps(30):
        want = [float(a / 2 * mpmath.betainc(a, 0.5, 0, 1 - mpmath.mpf(float(r)) ** 2))
                for r in _TAIL_RADII]
    assert tails == pytest.approx(want, rel=1e-13, abs=0.0)


_MOMENT_ORDERS = np.concatenate([[0.0], np.geomspace(1e-3, 1e7, 121)])


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 1.0, 5.0, 20.0, 50.0, 200.0, 2000.0])
def test_std_moment_against_mpmath_beta(alpha):
    # moment(x) = (a/2) B((x + 1)/2, a), a = alpha + 1, over orders 0 to 1e7;
    # a sum of three log Gammas keeps the absolute error of its largest term,
    # up to 1e-8 relative in the moment near x = 3e6.  Moments below the
    # normal double range are not representable and are left out
    w = StandardWeight(alpha)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha) + 1
        want = [float(a / 2 * mpmath.beta((mpmath.mpf(x) + 1) / 2, a)) for x in _MOMENT_ORDERS]
    kept = [(float(x), v) for x, v in zip(_MOMENT_ORDERS, want) if v >= sys.float_info.min]
    assert len(kept) > 20
    got = [w.moment(x) for x, _ in kept]
    assert got == pytest.approx([v for _, v in kept], rel=1e-11, abs=0.0)


def test_tail_rejects_bad_radius(std1):
    with pytest.raises(DomainError):
        std1.tail(1.0)
    with pytest.raises(DomainError):
        std1.tail(-0.1)
    with pytest.raises(DomainError):
        std1.tail(1.2)


def test_tail_decreasing_all_families(std1, log2w, exp11):
    for w in (std1, log2w, exp11):
        grid = default_r_grid(w)
        tails = [w.log_tail(float(r)) for r in grid]
        assert all(a > b for a, b in zip(tails, tails[1:]))


def _exp_log_tail_oracle(c, gamma, r):
    """log tail of exp:c,gamma at r: log((c^(1/gamma) / gamma) Gamma(-1/gamma, c/u^gamma))."""
    with mpmath.workdps(30):
        c, g = mpmath.mpf(c), mpmath.mpf(gamma)
        a = c / (1 - mpmath.mpf(float(r))) ** g
        return float(mpmath.log(c ** (1 / g) / g * mpmath.gammainc(-1 / g, a)))


_EXP_RADII = np.concatenate([np.linspace(0.0, 0.99, 12), 1.0 - 2.0 ** -np.arange(8.0, 21.0, 2.0)])


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
def test_exp_tails_against_mpmath_gammainc(c, gamma):
    # in log space out to r = 1 - 2^-20, where the log tails reach -2e18;
    # both sides of the continued fraction's switch at a = c/u^gamma = 8
    w = ExponentialWeight(c, gamma)
    want = [_exp_log_tail_oracle(c, gamma, r) for r in _EXP_RADII]
    assert w.log_tails(_EXP_RADII) == pytest.approx(want, rel=1e-12, abs=0.0)


def _log_tail_oracle(alpha, r):
    """log tail of log:alpha at r, on the axis w = sqrt(-log(1 - r^2))."""
    with mpmath.workdps(30):
        al, r = mpmath.mpf(alpha), mpmath.mpf(float(r))
        w_lo = mpmath.sqrt(-mpmath.log((1 - r) * (1 + r)))

        def integrand(w):
            return w / mpmath.sqrt(-mpmath.expm1(-w * w)) * (1 + w * w) ** -al

        return float(mpmath.log(mpmath.quad(integrand, mpmath.linspace(w_lo, w_lo + 4, 9)
                                            + [mpmath.inf])))


_LOG_RADII = np.concatenate([np.linspace(0.0, 0.99, 12), 1.0 - 2.0 ** -np.arange(7.0, 53.0, 5.0)])


@pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
def test_log_tails_against_mpmath_quad(alpha):
    # abs on the log is rel on the tail, out to r = 1 - 2^-52
    w = LogWeight(alpha)
    want = [_log_tail_oracle(alpha, r) for r in _LOG_RADII]
    assert w.log_tails(_LOG_RADII) == pytest.approx(want, rel=0.0, abs=1e-12)


def test_tabulated_tails_against_mpmath_betainc():
    # 3(1 - s^2)^2 is standard:2.  The sampler takes s, which keeps about
    # 52 - j bits of 1 - s in the cell 1 - 2^-j, so the tails hold 1e-12 out
    # to r = 1 - 2^-16 (tail / total = 1e-14, past classify's grid) and lose
    # digits beyond
    w = _TAB_STD2
    radii = np.concatenate([np.linspace(0.0, 0.99, 100), 1.0 - 2.0 ** -np.linspace(7.0, 16.0, 19)])
    with mpmath.workdps(30):
        want = [float(mpmath.log(1.5 * mpmath.betainc(3, 0.5, 0, 1 - mpmath.mpf(float(r)) ** 2)))
                for r in radii]
    assert w.log_tails(radii) == pytest.approx(want, rel=0.0, abs=1e-12)


def _tail_weights():
    return {
        "standard:1": StandardWeight(1.0),
        "standard:-0.5": StandardWeight(-0.5),
        "log:2": LogWeight(2.0),
        "exp:1,1": ExponentialWeight(1.0, 1.0),
        "exp:0.5,2": ExponentialWeight(0.5, 2.0),
        "exp:0.01,5": ExponentialWeight(0.01, 5.0),
        "tabulated": TabulatedWeight(lambda s: 3.0 * (1.0 - s * s) ** 2, label="tab"),
    }


_TAIL_WEIGHTS = _tail_weights()
# radii where every family above resolves its tail: tabulated tails stay flat
# past their mesh, near r = 1 - 2^-22
_RADII = st.lists(st.one_of(st.floats(0.0, 0.999), st.integers(10, 20).map(lambda i: 1.0 - 2.0**-i)),
                  min_size=1, max_size=24)


@settings(max_examples=40, deadline=None)
@given(radii=_RADII)
@pytest.mark.parametrize("name", sorted(_TAIL_WEIGHTS))
def test_array_tails_equal_scalar_tails_bit_for_bit(name, radii):
    w = _TAIL_WEIGHTS[name]
    batch = w.log_tails(np.array(radii))
    assert [float(v) for v in batch] == [w.log_tail(r) for r in radii]
    assert np.array_equal(w.log_tails(np.array(radii[::-1])), batch[::-1])


@settings(max_examples=40, deadline=None)
@given(radii=_RADII)
@pytest.mark.parametrize("name", sorted(_TAIL_WEIGHTS))
def test_tails_strictly_decrease(name, radii):
    rs = np.unique(radii)
    # radii an ulp or so apart may share a rounded tail; keep those 1e-9 of
    # 1 - r apart
    keep = np.concatenate([[True], np.diff(rs) > 1e-9 * (1.0 - rs[:-1])])
    lts = _TAIL_WEIGHTS[name].log_tails(rs[keep])
    assert np.all(np.diff(lts) < 0.0)


def test_exp_tail_log_space_against_oracle(exp11):
    # gamma = 1: the tail is integral_0^u e^(-1/v) dv = u E_2(1/u), u = 1 - r
    for r in [0.0, 0.5, 0.9, 0.99]:
        u = mpmath.mpf(1.0 - r)
        oracle = float(u * mpmath.expint(2, 1 / u))
        assert exp11.tail(r) == pytest.approx(oracle, rel=1e-12, abs=0.0)
    # deep radii are only reachable in log space
    assert exp11.log_tail(1 - 2.0**-20) == pytest.approx(-1048603.7259, rel=1e-6)
    with pytest.raises(QuadratureError):
        exp11.tail(1 - 2.0**-20)


# ---------------------------------------------------------------------------
# moments


def test_moment_constant_weight(std0):
    for x in [0.0, 1.0, 3.0, 10.0, 100.0]:
        assert std0.moment(x) == pytest.approx(1.0 / (x + 1.0), rel=1e-12, abs=0.0)


def test_moment_std1_closed_value(std1):
    # 2 * int s^3 (1-s^2) ds = 2 (1/4 - 1/6) = 1/6
    assert std1.moment(3.0) == pytest.approx(1.0 / 6.0, rel=1e-12, abs=0.0)


def test_moment_zero_equals_tail_zero(std1, log2w, exp11):
    tab = TabulatedWeight(lambda s: 2.0 * (1.0 - s * s), label="tab")
    for w in (std1, log2w, exp11, tab):
        assert w.moment(0.0) == pytest.approx(w.tail(0.0), rel=1e-8)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_std_moments_against_riemann_oracle(alpha):
    w = StandardWeight(alpha)
    for x in [0.0, 0.5, 1.0, 3.0, 10.0, 100.0]:
        assert w.moment(x) == pytest.approx(oracle_std_moment(alpha, x), rel=1e-8, abs=0.0)


def test_log_moments_against_transformed_oracle(log2w):
    for x in [0.0, 1.0, 3.0, 10.0, 100.0]:
        assert log2w.moment(x) == pytest.approx(oracle_log_moment(2.0, x), rel=1e-6)
    # closed form: moment(1) = 1 / (2 (alpha - 1))
    assert log2w.moment(1.0) == pytest.approx(0.5, rel=1e-10)


def test_moment_nonincreasing(std1, log2w, exp11):
    xs = [0.0, 0.5, 1.0, 2.0, 5.0, 17.0, 100.0, 1000.0]
    for w in (std1, log2w, exp11):
        vals = [w.moment(x) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_moment_rejects_negative_order(std1):
    with pytest.raises(DomainError):
        std1.moment(-1.0)


def test_quadrature_consistency_std_vs_tabulated():
    # same weight through the closed form and through the generic mesh
    for alpha in (0.0, 1.0, 2.5):
        w = StandardWeight(alpha)
        tab = TabulatedWeight(lambda s, a=alpha: (a + 1.0) * (1.0 - s * s) ** a,
                              label=f"tab-std{alpha}")
        for x in [0.0, 0.5, 1.0, 3.0, 10.0, 100.0, 1e3, 1e4]:
            assert tab.moment(x) == pytest.approx(w.moment(x), rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# radial rules against independent oracles


def _beta_moment(alpha, x, amplitude=1.0):
    """int_0^1 s^x amplitude (alpha+1) (1-s^2)^alpha ds = amplitude (a/2) B((x+1)/2, a)."""
    a = alpha + 1.0
    return float(amplitude * a / 2.0 * mpmath.beta((x + 1.0) / 2.0, a))


EXP_PARAMS = [(1.0, 1.0), (0.5, 2.0), (1.0, 2.0), (2.0, 0.5)]
_TAB_STD2 = TabulatedWeight(lambda s: 3.0 * (1.0 - s * s) ** 2, label="tab-std2")
RULE_ORACLES = {
    "standard:1": (StandardWeight(1.0), lambda x: _beta_moment(1.0, x)),
    "tabulated": (_TAB_STD2, lambda x: _beta_moment(2.0, x)),
    "7.3*tabulated": (_TAB_STD2.scaled(7.3), lambda x: _beta_moment(2.0, x, 7.3)),
    **{f"exp:{c:g},{g:g}": (ExponentialWeight(c, g), functools.partial(oracle_exp_moment, c, g))
       for c, g in EXP_PARAMS},
}


@pytest.mark.parametrize("family", sorted(RULE_ORACLES))
@pytest.mark.parametrize("order", [8, 12])  # the norms' order and the moments' order
@pytest.mark.parametrize("x_scale", [2.0, 64.0, 4096.0, 2.0**17])
def test_radial_rule_integrates_monomial_against_oracle(family, order, x_scale):
    # abs=0: exp moments at large x are far below pytest's default abs of 1e-12;
    # where they leave double range (gamma = 2 at x = 2^16) both sides are 0
    w, oracle = RULE_ORACLES[family]
    rule = w.radial_rule(x_scale, order=order)
    x = x_scale / 2.0
    value = rule.integrate(rule.nodes**x, 1.0)
    assert value == pytest.approx(oracle(x), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("c, gamma", EXP_PARAMS)
def test_exp_moments_against_mpmath(c, gamma):
    # moments integrate on the weight's own order-12 rule; points whose
    # moment leaves double range (below 1e-300) are not compared
    w = ExponentialWeight(c, gamma)
    compared = 0
    for x in [1.0, 10.0, 100.0, 1e3, 1e4, 1e5]:
        want = oracle_exp_moment(c, gamma, x)
        if want >= 1e-300:
            assert w.moment(x) == pytest.approx(want, rel=1e-9, abs=0.0)
            compared += 1
    assert compared >= 4


def test_lemma_moment_doubling_bounded(std1, log2w):
    # members of the upper class keep moment(n)/moment(2n) bounded
    for w in (std1, log2w):
        ns = [2.0**j for j in range(15)]
        ratios = [w.moment(n) / w.moment(2.0 * n) for n in ns]
        assert max(ratios) < 10.0


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_lemma_weighted_moment_comparison(alpha):
    # x * moment of (1-s) w(s) stays comparable to moment of w
    w = StandardWeight(alpha)
    damped = TabulatedWeight(
        lambda s, a=alpha: (1.0 - s) * (a + 1.0) * (1.0 - s * s) ** a,
        label="damped",
    )
    xs = 10.0 ** np.linspace(0, 4, 17)
    curve = [x * damped.moment(float(x)) / w.moment(float(x)) for x in xs]
    assert np.all(np.isfinite(curve))
    assert max(curve) / min(curve) < 8.0


# ---------------------------------------------------------------------------
# construction and validation


def test_family_parameter_validation():
    with pytest.raises(DomainError):
        StandardWeight(-1.0)
    with pytest.raises(DomainError):
        LogWeight(1.0)
    with pytest.raises(DomainError):
        ExponentialWeight(0.0, 1.0)
    with pytest.raises(DomainError):
        ExponentialWeight(1.0, -2.0)


def test_tabulated_rejects_negative_sampler():
    with pytest.raises(DomainError):
        TabulatedWeight(lambda s: np.cos(8.0 * s), label="signed")


def test_tabulated_rejects_vanishing_tail():
    # compactly supported sampler: the tail hits zero inside [0, 1)
    with pytest.raises(DomainError):
        w = TabulatedWeight(lambda s: np.where(s < 0.5, 1.0, 0.0), label="chopped")
        w.tail(0.9)


def test_tabulated_scalar_sampler_is_wrapped():
    w = TabulatedWeight(lambda s: 1.0 if s < 0.5 else float(2.0 * (1 - s)), label="scalar")
    assert w.tail(0.0) > 0


def test_tabulated_survives_interior_zero_cell():
    # vanishing on one dyadic annulus must not truncate the mesh
    def sampler(s):
        s = np.asarray(s, dtype=float)
        return np.where((s > 0.5) & (s < 0.75), 0.0, (1.0 - s))

    w = TabulatedWeight(sampler, label="gappy")
    direct = w.moment(1.0)
    oracle = (
        1.0 / 6.0
        - (0.75**2 / 2 - 0.75**3 / 3)
        + (0.5**2 / 2 - 0.5**3 / 3)
    )
    assert direct == pytest.approx(oracle, rel=1e-9)


def test_tabulated_negative_only_in_a_deep_cell():
    # a constant weight resolves all 48 cells; only cell 30 goes negative
    lo, hi = 1.0 - 2.0**-30, 1.0 - 2.0**-31

    def sampler(s):
        s = np.asarray(s, dtype=float)
        return np.where((s > lo) & (s < hi), -1.0, 1.0)

    with pytest.raises(DomainError, match="finite and >= 0"):
        TabulatedWeight(sampler, label="deep")


def test_tabulated_bad_cell_past_the_mesh_is_never_reached():
    # 3(1-s^2)^2 resolves its tail by cell 21; cell 25 is bad but unread
    lo, hi = 1.0 - 2.0**-25, 1.0 - 2.0**-26

    def sampler(s):
        s = np.asarray(s, dtype=float)
        return np.where((s > lo) & (s < hi), np.nan, 3.0 * (1.0 - s * s) ** 2)

    w = TabulatedWeight(sampler, label="late")
    clean = TabulatedWeight(lambda s: 3.0 * (1.0 - s * s) ** 2, label="clean")
    assert w.log_tail(0.0) == clean.log_tail(0.0)
    assert w.moment(3.0) == clean.moment(3.0)
    with pytest.raises(DomainError):
        w.moment(2.0**13)  # its rule reaches cell 25


def test_tabulated_sampler_error_names_the_first_bad_cell():
    edge = 1.0 - 2.0**-20

    def sampler(s):
        s = np.asarray(s, dtype=float)
        if s.max() > edge:
            raise DomainError(f"no samples past {s.max()!r}")
        return np.ones_like(s)

    with pytest.raises(DomainError) as err:
        TabulatedWeight(sampler, label="edge")
    x, _ = cell_nodes(1.0 - 2.0**-20, 1.0 - 2.0**-21, 12)  # cell 20, the first past the edge
    assert str(err.value) == f"no samples past {x.max()!r}"


# ---------------------------------------------------------------------------
# radial rules


def _rule_weights():
    return {
        "standard:-0.5": lambda: StandardWeight(-0.5),
        "standard:3": lambda: StandardWeight(3.0),
        "log:2": lambda: LogWeight(2.0),
        "exp:1,1": lambda: ExponentialWeight(1.0, 1.0),
        "exp:0.5,2": lambda: ExponentialWeight(0.5, 2.0),
        "tabulated": lambda: TabulatedWeight(lambda s: 3.0 * (1.0 - s * s) ** 2, label="tab"),
        "scaled": lambda: scaled_weight(ExponentialWeight(1.0, 1.0), StandardWeight(1.0), 2.0),
    }


@pytest.mark.parametrize("name", sorted(_rule_weights()))
def test_rules_do_not_depend_on_request_order(name):
    # rules share one cell table per weight and order; the order in which
    # buckets and orders are requested must not leak into any rule
    make = _rule_weights()[name]
    keys = [(2.0**k, order) for k in range(1, 15) for order in (8, 12)]
    up, down = make(), make()
    rules_up = {key: up.radial_rule(*key) for key in keys}
    rules_down = {key: down.radial_rule(*key) for key in reversed(keys)}
    for key in keys:
        a, b = rules_up[key], rules_down[key]
        assert np.array_equal(a.nodes, b.nodes), key
        assert np.array_equal(a.weights, b.weights), key
        assert a.boundary_mass == b.boundary_mass, key


# ---------------------------------------------------------------------------
# scaling


def test_scaled_weight_samples_product(std0):
    w = scaled_weight(std0, std0, 1.0)
    s = np.linspace(0.0, 0.9, 10)
    assert np.allclose(w.density(s), 1.0 - s, rtol=1e-12)


def test_scaled_weight_moment_closed_form(std0):
    w = scaled_weight(std0, std0, 1.0)
    assert w.moment(1.0) == pytest.approx(1.0 / 6.0, rel=1e-9)


def test_scaled_weight_by_exp_tail_flushes_underflow_against_mpmath(std1, exp11):
    # tail_exp(s) leaves double range near s = 0.9987; the sampler flushes it to 0
    assert exp11.tail_many([0.5, 0.9999])[1] == 0.0
    w = scaled_weight(std1, exp11, 2.0)
    with mpmath.workdps(20):
        def density(t):
            return mpmath.exp(-1 / (1 - t)) if t < 1 else mpmath.mpf(0)

        def tail(s):
            return mpmath.quad(density, [s, 1]) if s < 1 else mpmath.mpf(0)

        oracle = mpmath.quad(lambda s: s**3 * 2 * (1 - s**2) * tail(s) ** 2, [0, 0.5, 0.9, 1])
    assert w.moment(3.0) == pytest.approx(float(oracle), rel=1e-10, abs=0.0)


def test_scalar_multiple_scales_exactly(std1):
    w = std1.scaled(7.3)
    for x in [0.0, 1.0, 10.0, 1e3]:
        assert w.moment(x) == pytest.approx(7.3 * std1.moment(x), rel=1e-14, abs=0.0)
    for r in [0.0, 0.5, 0.99]:
        assert w.tail(r) == pytest.approx(7.3 * std1.tail(r), rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# classification


def test_classify_standard_in_all(std1):
    report = classify(std1)
    assert report.verdicts == {"dhat": "in", "dcheck": "in", "m": "in", "d": "in"}
    dhat = report.curves["dhat"][1]
    assert np.all(np.diff(dhat) > 0)  # rises toward the limit 2^(alpha+1)
    assert dhat[-1] == pytest.approx(4.0, rel=1e-3)
    assert np.max(dhat) <= 4.0 * (1.0 + 1e-3)


def test_classify_log_is_upper_only(log2w):
    report = classify(log2w)
    assert report.verdicts["dhat"] == "in"
    assert report.verdicts["dcheck"] == "out"
    assert report.verdicts["m"] == "out"
    assert report.verdicts["d"] == "out"
    for k in report.k_set:
        vals = report.curves[f"dcheck[{k}]"][1]
        # the lower-doubling ratios sink toward 1 from above
        assert np.all(vals > 1.0)
        assert vals[-1] < vals[len(vals) // 2]


def test_classify_exponential_is_lower_only(exp11):
    report = classify(exp11)
    assert report.verdicts["dhat"] == "out"
    assert report.verdicts["dcheck"] == "in"
    assert report.verdicts["d"] == "out"


def test_classify_scaled_product_lands_in_d(std1):
    nu = scaled_weight(std1, StandardWeight(2.0), 0.5)
    assert classify(nu).verdicts["d"] == "in"


def test_classify_includes_comparability_curve(std1):
    report = classify(std1)
    xs, vals = report.curves["moment_vs_tail"]
    assert xs.size > 0
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
    # for a doubling weight the curve stays in a fixed band
    assert np.max(vals) / np.min(vals) < 10.0


def test_classify_verdict_consistency(std1, log2w, exp11):
    for w in (std1, log2w, exp11):
        v = classify(w).verdicts
        if v["d"] == "in":
            assert v["dhat"] == "in" and (v["dcheck"] == "in" or v["m"] == "in")


def test_classify_curves_positive_finite(std1, log2w, exp11):
    for w in (std1, log2w, exp11):
        for name, (xs, vals) in classify(w).curves.items():
            assert np.all(np.isfinite(vals)), name
            assert np.all(vals > 0.0), name


def test_classify_scale_invariant_curves(std1):
    base = classify(std1)
    scaled = classify(std1.scaled(7.3))
    for name in base.curves:
        np.testing.assert_allclose(
            scaled.curves[name][1], base.curves[name][1], rtol=1e-12
        )
    assert scaled.verdicts == base.verdicts


def test_default_grid_caps_at_tail_floor(exp11):
    grid = default_r_grid(exp11)
    assert grid.size <= 6  # super-exponential tails leave few usable radii
    assert exp11.log_tail(float(grid[-1])) - exp11.log_tail(0.0) > math.log(1e-14)


def test_dcheck_margin_single_k(std1, log2w):
    verdict, info = dcheck_margin(std1, 2)
    assert verdict == "in" and info["margin"] > 1.0
    verdict, _ = dcheck_margin(log2w, 2)
    assert verdict == "out"


@pytest.mark.parametrize("spec", ["standard:1", "log:2", "exp:1,1"])
def test_dcheck_margin_memoized_and_shared_with_classify(spec, monkeypatch):
    seeded, fresh = parse_weight_spec(spec), parse_weight_spec(spec)
    report = classify(seeded)
    expected = {k: dcheck_margin(fresh, k) for k in report.k_set}
    calls = []
    original = type(fresh).log_tail
    monkeypatch.setattr(type(fresh), "log_tail",
                        lambda self, r: calls.append(r) or original(self, r))
    for k in report.k_set:
        assert dcheck_margin(fresh, k) == expected[k]
        assert dcheck_margin(seeded, k) == expected[k]
        assert report.per_k[f"dcheck[{k}]"]["verdict"] == expected[k][0]
    assert calls == []


@pytest.mark.parametrize("name", ["standard:1", "log:2", "exp:1,1", "tabulated"])
def test_classify_does_not_depend_on_tails_already_in_the_memo(name):
    # classify prefetches its radii in one array call; a memo warmed by
    # scalar tails, at other radii and at two of its own (0.5, 0.75), must
    # not change a curve or a verdict
    make = {"standard:1": lambda: StandardWeight(1.0), "log:2": lambda: LogWeight(2.0),
            "exp:1,1": lambda: ExponentialWeight(1.0, 1.0),
            "tabulated": lambda: TabulatedWeight(lambda s: 3.0 * (1.0 - s * s) ** 2, label="tab")}
    fresh, warmed = make[name](), make[name]()
    for r in (0.123, 0.77, 0.3, 0.9931, 0.5, 0.6, 0.75, 0.95):
        warmed.tail(r)
    a, b = classify(fresh), classify(warmed)
    assert a.verdicts == b.verdicts
    assert sorted(a.curves) == sorted(b.curves)
    for curve in a.curves:
        assert np.array_equal(a.curves[curve][0], b.curves[curve][0]), curve
        assert np.array_equal(a.curves[curve][1], b.curves[curve][1]), curve


@pytest.mark.parametrize("spec", ["exp:0.5,2", "exp:1,2", "exp:0.1,8", "exp:1,5"])
def test_classify_exp_gamma_two_keeps_curves_in_double_range(spec):
    # dcheck log ratios reach thousands here, and at gamma = 8 so do dhat's;
    # the curves stop before exp overflows
    report = classify(parse_weight_spec(spec))
    for name, (xs, vals) in report.curves.items():
        assert len(xs) == len(vals), name
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0), name
        assert np.all(np.abs(np.log(vals)) <= 700.0), name
    assert report.curves["dcheck[16]"][1].size < report.r_grid.size


def test_class_report_serialization_roundtrip(std1, tmp_path):
    report = classify(std1)
    rows = report.rows()
    assert rows and len(rows[0]) == 3
    blob = report.to_json_dict()
    assert blob["verdicts"]["d"] == "in"
    assert "dhat" in blob["curves"]
    assert blob["thresholds"]["sup_blowup_factor"] == 10.0


# ---------------------------------------------------------------------------
# spec parsing


def test_parse_weight_spec_colon_grammar():
    assert isinstance(parse_weight_spec("standard:1.0"), StandardWeight)
    assert isinstance(parse_weight_spec("log:2.0"), LogWeight)
    w = parse_weight_spec("exp:1.0,0.5")
    assert isinstance(w, ExponentialWeight) and w.gamma == 0.5


def test_parse_weight_spec_keyvalue_grammar():
    w = parse_weight_spec("family=standard alpha=1.0")
    assert isinstance(w, StandardWeight) and w.alpha == 1.0
    w = parse_weight_spec("family=exp c=1.0 gamma=1.0")
    assert isinstance(w, ExponentialWeight)
    w = parse_weight_spec("family=log alpha=2.0")
    assert isinstance(w, LogWeight) and w.alpha == 2.0


@pytest.mark.parametrize(
    "text",
    [
        "",
        "mystery:1.0",
        "standard:",
        "standard:a",
        "exp:1.0",
        "standard:-2.0",
        "family=standard",
        "family=standard alpha=1.0 extra=2",
        "family=banana alpha=1.0",
    ],
)
def test_parse_weight_spec_rejects(text):
    with pytest.raises(DomainError):
        parse_weight_spec(text)


# ---------------------------------------------------------------------------
# concurrency smoke test: memo tables under parallel readers


def test_moment_memo_thread_safety(std1):
    results = []

    def worker():
        results.append([std1.moment(x) for x in (1.0, 2.0, 3.0, 17.0)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(row == results[0] for row in results)
