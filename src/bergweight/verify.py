"""Desk-scale experiments probing the derivative-norm equivalences.

Each experiment samples a ratio that the theory predicts is bounded (or
unbounded) and reports the curve, its bracket [min, max], and a qualitative
verdict.  "Bounded" is operationalized as: the running maximum grew by less
than 5% over the last decade of grid points; divergence verdicts are
likewise qualitative.  No constants are estimated rigorously.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError
from .norms import (_basis_for, _block_energies, _block_k, _parseval_norm, _parseval_order,
                    bergman_norm, block_norm, hardy_norm, integral_mean)
from .cesaro import build_basis
from .series import (TaylorSeries, derivative_moments, frac_deriv_mu, geometric_series,
                     lacunary_series, parse_series_spec, read_series_csv)
from .weights import classify, normal_odd_moments, parse_weight_spec, scaled_weight

DEFAULT_SEED = 20250401
BOUNDED_GROWTH_FACTOR = 1.05
GRID_PER_DECADE = 8  # points per decade of geometric_int_grid
SUMA_TERM_FLOOR = 1e-16  # suma_check drops terms below this share of the sum
SUMA_MAX_TERMS = 200  # most lacunary terms suma_check sums per radius
RANDOM_MEMBERS = 10  # random polynomials in default_family


@dataclass
class ExperimentReport:
    """Tabular experiment record: parameter columns, ratio columns, summary."""

    experiment: str
    params: dict
    columns: dict           # name -> list (parameter and ratio columns)
    ratio_names: list
    verdict: str = ""
    passed: bool | None = None
    skipped: int = 0
    summary: dict = field(default_factory=dict)

    def __post_init__(self):
        sizes = {len(col) for col in self.columns.values()}
        if not self.columns or sizes == {0}:
            raise DomainError(f"experiment {self.experiment} produced no rows")
        if len(sizes) != 1:
            raise DomainError("ragged experiment columns")
        for name in self.ratio_names:
            vals = np.asarray(self.columns[name], dtype=float)
            if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
                raise DomainError(f"ratio column {name} must be positive and finite")
            self.summary[name] = {
                "min": float(np.min(vals)),
                "max": float(np.max(vals)),
                "max_over_min": float(np.max(vals) / np.min(vals)),
            }

    def header(self):
        return list(self.columns)

    def rows(self):
        names = self.header()
        count = len(self.columns[names[0]])
        return [[self.columns[n][i] for n in names] for i in range(count)]

    def to_json_dict(self):
        return {
            "kind": "experiment-report",
            "experiment": self.experiment,
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "columns": {k: [_jsonable(v) for v in vals] for k, vals in self.columns.items()},
            "summary": self.summary,
            "verdict": self.verdict,
            "passed": self.passed,
            "skipped": self.skipped,
        }

    @property
    def verdict_line(self):
        return f"{self.experiment}: {self.verdict}"


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def stability_verdict(values, window=10):
    """('bounded'|'growing', growth of the running max over the last window).

    ``window`` should cover one decade of a geometric grid, or one parameter
    doubling (window=2) when successive entries already double the range.
    """
    vals = np.asarray(values, dtype=float)
    rm = np.maximum.accumulate(vals)
    w = min(window, max(1, vals.size - 1))
    growth = float(rm[-1] / rm[-1 - w])
    return ("bounded" if growth < BOUNDED_GROWTH_FACTOR else "growing"), growth


# ---------------------------------------------------------------------------
# test families


def monomial_family(n_max):
    family = [("monomial:0", TaylorSeries.monomial(0))]
    n = 1
    while n <= n_max:
        family.append((f"monomial:{n}", TaylorSeries.monomial(n)))
        n *= 2
    return family


def default_family(n_max=2048, geometric_degree=1024, random_degree=512, seed=DEFAULT_SEED):
    """The standard suite: dyadic monomials, truncated geometric kernels,
    a lacunary series, and RANDOM_MEMBERS seeded random-coefficient polynomials."""
    family = monomial_family(n_max)
    for lam in (0.5, 0.9, 0.99):
        for s in (1, 2):
            family.append((f"geometric:{lam},{s}", geometric_series(lam, s, geometric_degree)))
    family.append((f"lacunary:2,{geometric_degree}", lacunary_series(2, geometric_degree)))
    rng = np.random.default_rng(seed)
    for i in range(RANDOM_MEMBERS):
        coeffs = rng.standard_normal(random_degree + 1) + 1j * rng.standard_normal(random_degree + 1)
        family.append((f"random:{i}", TaylorSeries(coeffs)))
    return family


def geometric_int_grid(n_max):
    """Distinct integers, GRID_PER_DECADE a decade from 1 to at most ``n_max``."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    count = int(math.ceil(GRID_PER_DECADE * math.log10(n_max))) + 1
    grid = np.unique(np.round(10.0 ** (np.arange(count) / GRID_PER_DECADE)).astype(int))
    return grid[grid <= n_max]


# ---------------------------------------------------------------------------
# experiments


def lp_ratio(f, omega, mu, p, nu=None, check=True):
    """Ratio of the derivative-side weighted norm to the plain weighted norm.

    Numerator: ||D_mu f||^p in the Bergman space of omega * tail_mu^p.
    Denominator: ||f||^p in the Bergman space of omega.
    """
    if f.is_zero:
        raise DomainError("lp_ratio needs a nonzero series")
    if nu is None:
        nu = scaled_weight(omega, mu, p)
    df = frac_deriv_mu(f, mu, check=check)
    num = bergman_norm(df, nu, p) ** p
    den = bergman_norm(f, omega, p) ** p
    if den == 0.0:
        raise DomainError("zero denominator norm in lp_ratio")
    return num / den


def _p2_tables(omega, mu, nu, top, check):
    """The p = 2 sequences for n <= top: omega's and nu's odd-moment tables
    (``odd_moments``), mu's as ``frac_deriv_mu`` divides by them, and the
    monomial ratios R_n = nu_{2n+1} / (mu_{2n+1}^2 omega_{2n+1}).  Refused
    from the first n where omega's or nu's table leaves the normal double
    range (``normal_odd_moments``), before mu's table is read, so that no
    row, extreme or argmin reads a subnormal entry."""
    om, nu_m = normal_odd_moments((omega, nu), top + 1)
    mu_m = derivative_moments(mu, top, check)
    # where mu's square underflows, R_n is not a positive double
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return om, nu_m, mu_m, nu_m / (mu_m**2 * om)


def _extremes(ratios):
    """The exact min and max of the monomial ratios R_n, and the n where each
    occurs, over the n where R_n is a positive double: the sharp p = 2
    constants over polynomials of degree at most the last n."""
    ok = np.flatnonzero((ratios > 0.0) & np.isfinite(ratios))
    if not ok.size:
        return {}
    low, high = int(ok[np.argmin(ratios[ok])]), int(ok[np.argmax(ratios[ok])])
    return {"monomial_ratio_min": float(ratios[low]), "monomial_ratio_argmin": low,
            "monomial_ratio_max": float(ratios[high]), "monomial_ratio_argmax": high}


def equivalence_sweep(family, omega, mu, p, check=True):
    """lp_ratio across a function family; max/min is the empirical constant.

    Boundedness verdicts are read off the monomial rows (the canonical
    witnesses, whose index doubles row to row); the bracket covers the whole
    family.  At p = 2 every row is the quotient of two Parseval sums over
    tables built once for the family's largest degree N (``_p2_tables``),
    and the report's params carry the exact extremes of R_n over n <= N.
    At exponents that take no Parseval's sum of f^(p/2) the monomial rows
    are moment quotients (``_monomial_ratios``).
    """
    if len(family) < 2:
        raise DomainError(f"equivalence_sweep needs at least two functions, got {len(family)}")
    nu = scaled_weight(omega, mu, p)
    labels = [label for label, _ in family]
    extremes = {}
    if p == 2.0:
        if any(f.is_zero for _, f in family):
            raise DomainError("lp_ratio needs a nonzero series")
        top = max(f.degree for _, f in family)
        om, nu_m, mu_m, monomial_ratios = _p2_tables(omega, mu, nu, top, check)
        inverse = 1.0 / mu_m
        ratios = []
        for _, f in family:
            c = f.coeffs[: f.degree + 1]
            # as lp_ratio takes them, from the two norms
            den = _parseval_norm(c, om) ** 2
            if den == 0.0:
                raise DomainError("zero denominator norm in lp_ratio")
            ratios.append(_parseval_norm(c * inverse[: c.size], nu_m) ** 2 / den)
        extremes = _extremes(monomial_ratios)
    else:
        ratios = _monomial_ratios(family, omega, mu, nu, p, check)
        ratios = [lp_ratio(f, omega, mu, p, nu=nu, check=check) if ratio is None else ratio
                  for (_, f), ratio in zip(family, ratios)]
    witness = [r for lab, r in zip(labels, ratios) if lab.startswith("monomial:")]
    if len(witness) < 3:
        witness = ratios
    upper_verdict, upper_growth = stability_verdict(witness, window=2)
    lower_verdict, lower_growth = stability_verdict([1.0 / r for r in witness], window=2)
    report = ExperimentReport(
        experiment="lp-sweep",
        params={"omega": omega.label, "mu": mu.label, "p": p, "family_size": len(family)},
        columns={"f": labels, "ratio": ratios, "inverse_ratio": [1.0 / r for r in ratios]},
        ratio_names=["ratio", "inverse_ratio"],
        verdict=(
            f"upper {upper_verdict} (running-max growth {upper_growth:.4f}), "
            f"lower {lower_verdict} (running-max growth {lower_growth:.4f})"
        ),
    )
    report.params["upper_verdict"] = upper_verdict
    report.params["lower_verdict"] = lower_verdict
    report.params.update(extremes)
    return report


def _monomials(family, p):
    """The degree n of each member c z^n of ``family`` whose norm at p is
    not Parseval's sum of its (p/2)-th power (``_parseval_order``), None for
    the other members."""
    return [f.degree if f.support().size == 1 and not _parseval_order(p, f.degree) else None
            for _, f in family]


def _monomial_ratios(family, omega, mu, nu, p, check):
    """``lp_ratio`` of each monomial member c z^n, None for the others: the
    quotient nu_{np+1} / (mu_{2n+1}^p omega_{np+1}) of ||c z^n||^p =
    2 |c|^p omega_{np+1}, with omega's and nu's moments from one ``moments``
    call each and mu's as ``frac_deriv_mu`` divides by them."""
    degrees = _monomials(family, p)
    n = np.array([d for d in degrees if d is not None])
    if not n.size:
        return degrees
    mu_m = derivative_moments(mu, int(n.max()), check)
    x = n * p + 1.0
    quotients = iter((nu.moments(x) / (mu_m[n] ** p * omega.moments(x))).tolist())
    return [None if d is None else next(quotients) for d in degrees]


def monomial_necessity_curve(omega, mu, p, n_max):
    """The reverse-inequality diagnostic on monomials, from moments alone.

    Row n carries omega_{np+1} * mu_{2n+1}^p / (omega*tail_mu^p)_{np+1};
    the equivalence forces it to stay bounded, and the monomials are the
    canonical witnesses when it fails.  Each weight's moments come from one
    ``moments`` call.  At p = 2 the params also carry the exact extremes of
    R_n (``_p2_tables``, from the same rules) over every n up to the grid's
    last N: the rows are 1 / R_n at the grid's n.
    """
    if n_max < 8:
        raise DomainError(f"n_max must be >= 8, got {n_max}")
    nu = scaled_weight(omega, mu, p)
    grid = geometric_int_grid(n_max)
    rows = (omega.moments(grid * p + 1.0) * mu.moments(2.0 * grid + 1.0) ** p
            / nu.moments(grid * p + 1.0)).tolist()
    extremes = {}
    if p == 2.0:
        extremes = _extremes(_p2_tables(omega, mu, nu, int(grid[-1]), check=False)[3])
    verdict, growth = stability_verdict(rows)
    return ExperimentReport(
        experiment="monomial-curve",
        params={"omega": omega.label, "mu": mu.label, "p": p, "n_max": n_max,
                "bounded_verdict": verdict, **extremes},
        columns={"n": [int(n) for n in grid], "reverse_ratio": rows},
        ratio_names=["reverse_ratio"],
        verdict=f"{verdict} (running-max growth {growth:.4f} over last decade)",
    )


def integral_means_check(family, mu, p, grid=None):
    """Ratio M_p(r, D_mu f) * tail_mu(r/rho) / M_p(rho, f) over pairs r < rho
    of one radius grid (default 0.1, 0.2, ..., 0.9).

    The derivative-means bound predicts a uniform constant; the summary max
    is the empirical one.  Each member takes D_mu f first, then its means in
    two ``integral_mean`` calls: f's at every rho, and D_mu f's at the r of
    the pairs whose rho mean is nonzero.  Rows with a vanishing mean are
    skipped and counted.  The pairs' tails come from one ``mu.tail`` call
    after the first member's means.
    """
    if not family:
        raise DomainError("integral_means_check needs a non-empty family")
    grid = np.linspace(0.1, 0.9, 9) if grid is None else np.asarray(grid, dtype=float)
    if np.any(grid < 0) or np.any(grid >= 1):
        raise DomainError("grid must lie inside [0, 1)")
    # pairs (r, rho) = (grid[i], grid[j]) with r < rho, by j and then by i
    j, i = np.nonzero(grid[None, :] < grid[:, None])
    if not j.size:
        raise DomainError("no pairs with r < rho in the supplied grid")
    rhos = np.unique(j)
    labels, col_r, col_rho, quotients = [], [], [], []
    for member, (label, f) in enumerate(family):
        df = frac_deriv_mu(f, mu)
        means, dmeans = np.zeros(grid.size), np.zeros(grid.size)
        means[rhos] = integral_mean(f, grid[rhos], p)
        rs = np.unique(i[means[j] != 0.0])
        if rs.size:
            dmeans[rs] = integral_mean(df, grid[rs], p)
        if not member:  # after the errors of the first member's means
            tails = mu.tail(grid[i] / grid[j])
        # zero rows carry no bound information
        keep = np.flatnonzero((means[j] != 0.0) & (dmeans[i] != 0.0))
        labels += [label] * keep.size
        col_r += grid[i[keep]].tolist()
        col_rho += grid[j[keep]].tolist()
        quotients += (dmeans[i[keep]] * tails[keep] / means[j[keep]]).tolist()
    if not quotients:
        raise DomainError("all rows were skipped (vanishing means)")
    return ExperimentReport(
        experiment="means-check",
        params={"mu": mu.label, "p": p, "pairs": int(j.size), "family_size": len(family)},
        columns={"f": labels, "r": col_r, "rho": col_rho, "bound_quotient": quotients},
        ratio_names=["bound_quotient"],
        verdict=f"empirical constant {max(quotients):.6g} over {len(quotients)} rows",
        skipped=len(family) * j.size - len(quotients),
    )


def suma_check(mu, gamma, k, depth=25, check=True):
    """Lacunary-sum vs tail-power comparison on the dyadic radii 1 - 2^-i,
    i = 0..depth.

    Row r carries (1 + sum_n r^(k^n) / mu_{k^n}^gamma) * tail_mu(r)^gamma;
    for weights in the doubling intersection the curve stays in a bracket.
    The sum stops at the first term past its peak below SUMA_TERM_FLOOR of
    the running sum, or after SUMA_MAX_TERMS terms.
    """
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise DomainError(f"gamma must be positive, got {gamma!r}")
    if not (k >= 2 and float(k).is_integer()):
        raise DomainError(f"k must be an integer >= 2, got {k!r}")
    if not (1 <= depth <= 53 and float(depth).is_integer()):
        # past 53 the radius 1 - 2^-depth rounds to 1
        raise DomainError(f"depth must be an integer in [1, 53], got {depth!r}")
    k, depth = int(k), int(depth)
    if check and classify(mu).verdicts["d"] == "out":
        raise DomainError(
            f"weight {mu.label} looks outside the doubling intersection; "
            "pass check=False to run the comparison anyway"
        )
    r_grid = np.array([1.0 - 2.0 ** (-i) for i in range(depth + 1)])
    scales = []  # mu_{k^n}^gamma, taken when a radius first reaches n
    sums = []
    try:
        for r in r_grid:
            total = 1.0
            log_r = math.log(r) if r > 0 else -math.inf
            previous = math.inf
            for n in range(SUMA_MAX_TERMS):
                power = float(k) ** n
                if n == len(scales):
                    try:
                        scale = mu.moment(power) ** gamma
                    except OverflowError:
                        scale = math.inf
                    if not 0.0 < scale < math.inf:
                        raise DomainError(
                            f"moment({power:g})^gamma of {mu.label} leaves double precision "
                            f"at gamma = {gamma!r}; use a smaller gamma")
                    scales.append(scale)
                term = math.exp(power * log_r) / scales[n]
                total += term
                if term < previous and term < SUMA_TERM_FLOOR * total:
                    break
                previous = term
            sums.append(total)
    except (ValueError, ArithmeticError):
        if sums:  # a tail refused at an earlier radius comes first
            mu.tail(r_grid[:len(sums)])
        raise
    ratios = [total * tail ** gamma for total, tail in zip(sums, mu.tail(r_grid).tolist())]
    verdict, growth = stability_verdict(ratios)
    return ExperimentReport(
        experiment="suma-check",
        params={"mu": mu.label, "gamma": gamma, "k": k, "depth": depth},
        columns={"r": [float(r) for r in r_grid], "sum_ratio": ratios},
        ratio_names=["sum_ratio"],
        verdict=f"bracket max/min {max(ratios)/min(ratios):.6g}, running-max {verdict}",
    )


def norm_equivalence_check(family, eta, k, p, check=True):
    """Bergman-to-block norm ratio across a family; the bracket is reported.
    At exponents that take no Parseval's sum of f^(p/2) the monomial rows
    come from eta's moments and the block basis (``_monomial_norm_ratios``)."""
    if not family:
        raise DomainError("norm_equivalence_check needs a non-empty family")
    if check and classify(eta).verdicts["d"] == "out":
        raise DomainError(
            f"weight {eta.label} looks outside the doubling intersection; "
            "pass check=False to run the comparison anyway"
        )
    members = [(label, f) for label, f in family if not f.is_zero]
    labels = [label for label, _ in members]
    if p == 2.0 and members:
        ratios = _p2_norm_ratios([f for _, f in members], eta, _block_k(eta, k, check))
    else:
        ratios = _monomial_norm_ratios(members, eta, k, p, check)
        ratios = [bergman_norm(f, eta, p) ** p / block_norm(f, eta, k, p, check=check) ** p
                  if ratio is None else ratio for (_, f), ratio in zip(members, ratios)]
    return ExperimentReport(
        experiment="norm-equiv",
        params={"eta": eta.label, "k": k, "p": p, "family_size": len(labels)},
        columns={"f": labels, "norm_ratio": ratios},
        ratio_names=["norm_ratio"],
        verdict=f"bracket [{min(ratios):.6g}, {max(ratios):.6g}], "
                f"max/min {max(ratios)/min(ratios):.6g}",
    )


def _monomial_norm_ratios(members, eta, k, p, check):
    """The Bergman-to-block ratio of each monomial member c z^n, None for the
    others: 2 eta_{np+1} / sum_m eta_{k^m} |v_m(n)|^p, since block m of
    c z^n is c v_m(n) z^n, with every eta_{k^m} and eta_{np+1} from one
    ``moments`` call."""
    degrees = _monomials(members, p)
    n = [d for d in degrees if d is not None]
    if not n:
        return degrees
    k = _block_k(eta, k, check)
    basis = _basis_for(k, max(n))[0]
    # |v_m(n)|^p, block m by row
    powers = np.abs([[basis.coefficient(m, j) for j in n]
                     for m in range(basis.block_count)]) ** p
    met = np.flatnonzero(np.any(powers > 0.0, axis=1))
    moments = eta.moments(np.append(float(k) ** met, np.array(n) * p + 1.0))
    blocks = moments[: met.size] @ powers[met]
    quotients = iter((2.0 * moments[met.size :] / blocks).tolist())
    return [None if d is None else next(quotients) for d in degrees]


def _p2_norm_ratios(family, eta, k):
    """Bergman-to-block ratios at p = 2 of the nonzero series ``family``, each
    the quotient of two sums over its coefficients' squares: eta's
    odd-moment table for the largest degree N, and eta_{k^n} at every block
    that meets a series from one ``moments`` call whose orders reach the
    table's top order 2N + 1 too, so that at k = 2 both read one rule.  The
    table is read first, and refused past the normal double range
    (``normal_odd_moments``)."""
    top = max(f.degree for f in family)
    [table] = normal_odd_moments((eta,), top + 1)
    energies = [_block_energies(f.coeffs[: f.degree + 1], k) for f in family]
    eta_k = np.zeros(max(e.size for _, e in energies))
    met = np.zeros(eta_k.size, dtype=bool)
    for _, e in energies:
        met[: e.size] |= e > 0.0
    met = np.flatnonzero(met)
    eta_k[met] = eta.moments(np.append(float(k) ** met, 2.0 * top + 1.0))[:-1]
    ratios = []
    for f, (scale, e) in zip(family, energies):
        bergman = _parseval_norm(f.coeffs[: f.degree + 1], table) / scale
        ratios.append(bergman**2 / float(np.dot(eta_k[: e.size], e)))
    return ratios


# ---------------------------------------------------------------------------
# the experiment table: every experiment's inputs, expectation and runner


@dataclass(frozen=True)
class Key:
    """One config key (and CLI flag) an experiment reads."""

    name: str
    kind: str = "text"      # text | weight | int | positive | choice | bool
    floor: int | None = None
    choices: tuple = ()
    required: bool = False
    help: str | None = None
    flag_type: type = str   # how argparse reads the flag before it becomes config text
    default: str | None = None  # the value an unset key stands for
    only: tuple = ()        # (key, values): read only while that key takes one of values

    def convert(self, text):
        """The typed value of ``text``; raises ValueError naming the violation."""
        name = self.name
        if self.kind == "weight":
            return parse_weight_spec(text)
        if self.kind == "positive":
            try:
                num = float(text)
            except ValueError:
                raise ValueError(f"{name} must be a number, got {text!r}") from None
            if not num > 0:
                raise ValueError(f"constraint violated: {name} > 0 (got {num})")
            return num
        if self.kind == "int":
            try:
                num = int(text)
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {text!r}") from None
            if self.floor is not None and num < self.floor:
                raise ValueError(f"{name} must be >= {self.floor}, got {num}")
            return num
        if self.kind == "choice":
            if text not in self.choices:
                raise ValueError(f"{name} must be one of {self.choices}, got {text!r}")
            return text
        if self.kind == "bool":
            if text.lower() not in ("true", "false", "0", "1"):
                raise ValueError(f"{name} must be true/false, got {text!r}")
            return text.lower() in ("true", "1")
        return text


@dataclass
class Experiment:
    """One table entry: name, blurb, the keys read, expectation grammar, runner.

    ``keys`` is given as a tuple of Key and kept as a dict by name.
    ``run(cfg)`` returns a report with a ``verdict_line``.
    ``expect``, when set, maps the text of an ``expect`` key to a predicate
    on that report and raises ValueError for text outside its grammar; the
    ``expect`` key is read exactly when it is set.  ``command`` is the CLI
    spelling, one or two words.
    """

    name: str
    blurb: str
    run: object
    keys: tuple
    expect: object = None
    command: str | None = None

    def __post_init__(self):
        if self.expect:
            self.keys += (Key("expect", help="expected qualitative verdict"),)
        self.keys = {key.name: key for key in self.keys}
        self.command = self.command or self.name


def _required(key):
    return replace(key, required=True)


_P = Key("p", "positive", required=True)
_K = Key("k", "int", floor=2)
_DEPTH = Key("depth", "int", floor=1)
_N_MAX = Key("n_max", "int", floor=1)
_FORCE = Key("force", "bool", help="skip weight-class preconditions")
# --seed has always been read as an int, which normalizes its config text
_SEED = Key("seed", "int", floor=0, help="seed for the random polynomials", flag_type=int)
_REPORT = (Key("out", help="write the report to this path"),
           Key("format", "choice", choices=("csv", "json"), help="report format"))
# the monomial family is fixed by n_max alone
_FAMILY = (Key("family", "choice", choices=("default", "monomials"), default="default"), _N_MAX,
           Key("degree", "int", floor=1, only=("family", ("default",))),
           replace(_SEED, only=("family", ("default",))))


def _weight(name):
    return Key(name, "weight", required=True)


def _family_from_config(cfg):
    if cfg.family == "monomials":
        return monomial_family(cfg.n_max or 2048)
    return default_family(n_max=cfg.n_max or 2048,
                          geometric_degree=cfg.degree or 1024,
                          random_degree=cfg.degree or 512,
                          seed=cfg.seed)


def _class_expectation(text):
    wanted = {}
    for clause in text.split(","):
        key, _, val = clause.partition("=")
        key, val = key.strip(), val.strip()
        if key not in ("dhat", "dcheck", "m", "d") or val not in ("in", "out", "inconclusive"):
            raise ValueError(f"bad classify expectation {clause!r}")
        wanted[key] = val
    return lambda report: all(report.verdicts.get(k) == v for k, v in wanted.items())


def _boundedness_expectation(verdict_of):
    """'bounded' or 'growing', compared with ``verdict_of(report)``."""
    def expectation(text):
        if text not in ("bounded", "growing"):
            raise ValueError("expect must be 'bounded' or 'growing'")
        return lambda report: verdict_of(report) == text
    return expectation


@dataclass(frozen=True)
class NormValue:
    """The result of the ``norm`` experiment: one number, reported on one line."""

    kind: str
    p: float
    value: float

    @property
    def verdict_line(self):
        return f"norm: kind={self.kind} p={self.p} value={self.value!r}"


def _norm(cfg):
    spec = cfg.f
    f = read_series_csv(spec) if os.path.exists(spec) else parse_series_spec(spec)
    if cfg.kind == "hardy":
        value = hardy_norm(f, cfg.p)
    elif cfg.kind == "bergman":
        value = bergman_norm(f, cfg.require("weight"), cfg.p)
    else:
        value = block_norm(f, cfg.require("weight"), cfg.k or 2, cfg.p, check=not cfg.force)
    return NormValue(cfg.kind, cfg.p, float(value))


EXPERIMENTS = {spec.name: spec for spec in (
    Experiment(
        "classify", "sample doubling-ratio curves of one weight and render class verdicts",
        lambda cfg: classify(cfg.weight),
        (_weight("weight"),) + _REPORT,
        expect=_class_expectation,
    ),
    Experiment(
        "lp-sweep", "derivative-norm / plain-norm ratio across a function family",
        lambda cfg: equivalence_sweep(
            _family_from_config(cfg), cfg.omega, cfg.mu, cfg.p, check=not cfg.force),
        (_weight("omega"), _weight("mu"), _P) + _FAMILY + _REPORT + (_FORCE,),
        expect=_boundedness_expectation(lambda report: report.params["upper_verdict"]),
    ),
    Experiment(
        "monomial-curve", "reverse-inequality diagnostic on monomials, from moments",
        lambda cfg: monomial_necessity_curve(cfg.omega, cfg.mu, cfg.p, cfg.n_max or 10_000),
        (_weight("omega"), _weight("mu"), _P, _N_MAX) + _REPORT,
        expect=_boundedness_expectation(lambda report: report.params["bounded_verdict"]),
    ),
    Experiment(
        "means-check", "integral-means bound quotient over radius pairs",
        lambda cfg: integral_means_check(
            _family_from_config(cfg), cfg.mu, cfg.p,
            np.linspace(0.05, 0.95, cfg.depth) if cfg.depth else None),
        (_weight("mu"), _P) + _FAMILY + (_DEPTH,) + _REPORT,
    ),
    Experiment(
        "suma-check", "lacunary sum vs tail power on a dyadic radius grid",
        lambda cfg: suma_check(cfg.mu, cfg.gamma, cfg.k, cfg.depth or 25, check=not cfg.force),
        (_weight("mu"), Key("gamma", "positive", required=True), _required(_K), _DEPTH)
        + _REPORT + (_FORCE,),
        expect=_boundedness_expectation(
            lambda report: "bounded" if "bounded" in report.verdict else "growing"),
    ),
    Experiment(
        "norm-equiv", "Bergman vs block norm bracket across a family",
        lambda cfg: norm_equivalence_check(
            _family_from_config(cfg), cfg.eta, cfg.k, cfg.p, check=not cfg.force),
        (_weight("eta"), _required(_K), _P) + _FAMILY + _REPORT + (_FORCE,),
    ),
    Experiment(
        "norm", "one norm of one series (bergman | hardy | block)",
        _norm,
        (Key("f", required=True, help="series file or series spec"),
         Key("weight", "weight", only=("kind", ("bergman", "block"))), _P,
         Key("kind", "choice", choices=("bergman", "hardy", "block"), default="bergman"),
         replace(_K, only=("kind", ("block",))), replace(_FORCE, only=("kind", ("block",)))),
    ),
    Experiment(
        "cesaro-dump", "dump the block-basis coefficients for one k and N",
        lambda cfg: build_basis(cfg.k, cfg.N),
        (_required(_K), Key("N", "int", floor=1, required=True)) + _REPORT,
        command="cesaro dump",
    ),
)}


def run_experiment(cfg):
    """Run the experiment a parsed RunConfig names, once its required keys are set."""
    spec = EXPERIMENTS.get(cfg.experiment)
    if spec is None:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}", key="experiment")
    for key in spec.keys.values():
        if key.required:
            cfg.require(key.name)
    return spec.run(cfg)
