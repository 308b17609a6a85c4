"""The benchmark's two workloads: inputs from the seed, operations, output checks.

An operation is one experiment-level call into bergweight.  It builds its
weights afresh, so per-instance memo tables start empty as in a CLI run.
The seed fixes only coefficient values and probe points; the kinds, sizes
and order of the operations are the same for every seed, so every run does
comparable work.  Checks run after the timed rounds and never call into the
code under test for their reference values (see ``oracles``).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

STD1 = "standard:1"
SWEEP_OMEGAS = ("standard:1", "log:2", "exp:1,1")
MONOMIAL_TOP = 2048



def rtol_for(spec):
    """Relative tolerance against the oracles for rows computed against ``spec``.

    exp rows get a wider one: bergman_norm of z^n against exp:1,1 and its
    scaled weight drifts from the moment oracle as n grows (about 4e-4 at
    n = 2048, p = 2; see CHANGES.md).
    """
    return 1e-3 if spec.startswith("exp:") else 1e-6


# Brute-force ratios agree with the program to ~5e-6 at p = 1, but at p = 0.5
# bergman_norm itself is off by up to 1.2e-4 on some seeds: its radial rule
# does not resolve the kinks of M_p^p(r) at the moduli of f's zeros (see
# CHANGES.md).  The oracle's own error is below 3e-6 at both exponents.
RTOL_BRUTE = {0.5: 1e-3, 1.0: 1e-4}
RTOL_PROBE = 1e-8


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(got, want, rtol, what):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"{what}: {got.shape} values, wanted {want.shape}")
    if got.size:
        err = np.abs(got - want) / np.abs(want)
        worst = int(np.argmax(err))
        expect(err[worst] <= rtol,
               f"{what}: relative error {float(err[worst]):.3e} > {rtol:g} at entry {worst}")


@dataclass
class Op:
    """One timed call, its output check, and how to compare outputs between rounds."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], Any]
    known_fault: str | None = None  # an operation expected to raise


@dataclass
class Workload:
    name: str
    ops: list
    warm_up: Callable[[], None]
    prepare: Callable[[Any], None]   # builds reference values from the oracles module
    final_checks: list = field(default_factory=list)  # (name, fn) run once after timing


# ---------------------------------------------------------------------------
# seeded inputs (the program receives only these)


def _rng(seed, workload):
    return np.random.default_rng([int(seed), sum(map(ord, workload))])


def monomials(top=MONOMIAL_TOP):
    degrees = [0] + [2**j for j in range(int(math.log2(top)) + 1)]
    out = []
    for n in degrees:
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        out.append((f"monomial:{n}", c))
    return out


def geometric(lam, s, degree):
    n = np.arange(degree + 1, dtype=float)
    logc = np.array([math.lgamma(k + s) - math.lgamma(s) - math.lgamma(k + 1.0) for k in n])
    return (f"geometric:{lam},{s:g}", np.exp(logc + n * math.log(lam)).astype(complex))


def lacunary(top):
    c = np.zeros(top + 1, dtype=complex)
    j = 1
    while j <= top:
        c[j] = 1.0
        j *= 2
    return (f"lacunary:2,{top}", c)


def random_series(rng, label, degree):
    return (label, rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def rotated_series(rng, label, degree, base_seed=12345):
    """A fixed random polynomial g, turned into e^{i phi} g(e^{i psi} z) by seeded angles.

    Every coefficient changes with the seed, but |f| on each circle is g's
    rotated, so the sample-doubling ladder at fractional p does about the
    same work on every seed (independent draws vary it by +-30%).
    """
    _, coeffs = random_series(np.random.default_rng(base_seed), label, degree)
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, 2)
    return (label, coeffs * np.exp(1j * (phi + psi * np.arange(degree + 1))))


def _family(bw, members):
    return [(label, bw.TaylorSeries(c)) for label, c in members]


# ---------------------------------------------------------------------------
# digests: exact comparison of one round's output with the next


def report_digest(report):
    return (report.verdict, tuple(tuple(col) for col in report.columns.values()))


def class_digest(report):
    curves = tuple((name, tuple(np.asarray(v, dtype=float)))
                   for name, (_, v) in sorted(report.curves.items()))
    return (tuple(sorted(report.verdicts.items())), curves)


def plain_digest(out):
    return out


# ---------------------------------------------------------------------------
# oracle pieces shared by the sweeps


def _monomial_degree(label):
    return int(label.split(":")[1]) if label.startswith("monomial:") else None


def _lp_ratio_parseval(coeffs, om_moments, nu_moments, mu_odd):
    """p = 2: ||D_mu f||^2_nu / ||f||^2_omega = sum |c/mu|^2 nu / sum |c|^2 omega."""
    n = len(coeffs)
    c2 = np.abs(coeffs) ** 2
    num = float(np.sum(c2 / mu_odd[:n] ** 2 * nu_moments[:n]))
    den = float(np.sum(c2 * om_moments[:n]))
    return num / den


class MomentTables:
    """Oracle moment tables per weight spec, computed once per run."""

    def __init__(self, oracles):
        self.o = oracles
        self.cache = {}

    def get(self, spec, xs):
        key = (spec, tuple(np.round(np.asarray(xs, dtype=float), 12)))
        if key not in self.cache:
            self.cache[key] = self._compute(spec, np.asarray(xs, dtype=float))
        return self.cache[key]

    def _compute(self, spec, xs):
        o = self.o
        if spec[0] == "standard":
            return np.array([math.exp(o.std_log_moment(spec[1], x)) for x in xs])
        if spec[0] == "nu" and spec[1] == ("standard", 1.0) and spec[2] == 2.0:
            return np.array([o.nu_std1_p2_moment(x) for x in xs])
        return o.rule_moments(spec, xs)


def _monomial_ratios(tables, omega, p, ns):
    """lp ratio of z^n: nu_{np+1} / (mu_{2n+1}^p omega_{np+1}), since ||z^n||^p = 2 omega_{np+1}."""
    om = tables.o.parse_spec(omega)
    ns = np.asarray(ns, dtype=float)
    mu_odd = tables.o.std1_odd_moments(int(max(ns, default=0)))[ns.astype(int)]
    return tables.get(("nu", om, p), ns * p + 1) / (mu_odd**p * tables.get(om, ns * p + 1))


def _verdict_pattern(omega, report):
    up, low = report.params["upper_verdict"], report.params["lower_verdict"]
    if omega == "standard:1":
        expect(up == "bounded" and low == "bounded", f"std1 verdicts {up}/{low}")
    elif omega == "log:2":
        expect(up == "bounded" and low == "growing", f"log:2 verdicts {up}/{low}")
    else:
        expect(up == "growing", f"exp:1,1 upper verdict {up}")


def check_sweep(tables, omega, p, members, report, brute=None):
    """Rows of an lp-sweep against the oracle; ``brute`` maps labels to ratios.

    The theorems' verdict pattern is checked when the monomial rows reach
    n = 2048; below that the running-max growth has too few rows to settle.
    """
    o = tables.o
    labels = [label for label, _ in members]
    expect(list(report.columns["f"]) == labels, "row labels differ from the family")
    ratios = np.asarray(report.columns["ratio"], dtype=float)
    expect(np.all(np.isfinite(ratios)) and np.all(ratios > 0), "non-positive ratio")
    rtol = rtol_for(omega)
    mono = [(i, _monomial_degree(lab)) for i, lab in enumerate(labels)
            if _monomial_degree(lab) is not None]
    close(ratios[[i for i, _ in mono]], _monomial_ratios(tables, omega, p, [n for _, n in mono]),
          rtol, f"lp-sweep {omega} p={p} monomial rows")
    if p == 2.0:
        om = o.parse_spec(omega)
        top = max(len(c) for _, c in members)
        xs = 2.0 * np.arange(top) + 1.0
        om_m, nu_m = tables.get(om, xs), tables.get(("nu", om, p), xs)
        mu_odd = o.std1_odd_moments(top)
        want = [_lp_ratio_parseval(c, om_m, nu_m, mu_odd) for _, c in members]
        close(ratios, want, rtol, f"lp-sweep {omega} p=2 Parseval")
    for label, value in (brute or {}).items():
        close([ratios[labels.index(label)]], [value], max(rtol, RTOL_BRUTE[p]),
              f"lp-sweep {omega} p={p} brute force {label}")
    if max(n for _, n in mono) >= MONOMIAL_TOP:
        _verdict_pattern(omega, report)


def _block_coefficients(bw, top):
    """Block-basis coefficients v_m(j), used as data: rows m, columns j < top."""
    basis = bw.build_basis(2, top)
    table = np.zeros((basis.block_count, top + 1))
    for m, blk in enumerate(basis.blocks):
        k = min(len(blk), top + 1)
        table[m, :k] = blk.coeffs[:k].real
    return table


def check_norm_equiv(tables, bw, eta, p, members, columns):
    """Bergman/block ratio rows: monomials at every p, Parseval at p = 2."""
    o = tables.o
    labels = [label for label, _ in members]
    expect(list(columns["f"]) == labels, "row labels differ from the family")
    ratios = np.asarray(columns["norm_ratio"], dtype=float)
    expect(np.all(np.isfinite(ratios)) and np.all(ratios > 0), "non-positive ratio")
    spec = o.parse_spec(eta)
    top = max(len(c) for _, c in members) - 1
    blocks = _block_coefficients(bw, top)
    eta_k = tables.get(spec, 2.0 ** np.arange(blocks.shape[0]))
    rtol = rtol_for(eta)
    want = []
    rows = []
    for i, (label, c) in enumerate(members):
        n = _monomial_degree(label)
        if n is not None:
            bergman = 2.0 * tables.get(spec, [n * p + 1.0])[0]
            block = float(np.dot(eta_k, np.abs(blocks[:, n]) ** p))
        elif p == 2.0:
            xs = 2.0 * np.arange(len(c)) + 1.0
            bergman = 2.0 * float(np.dot(np.abs(c) ** 2, tables.get(spec, xs)))
            block = float(np.dot(eta_k, (blocks[:, : len(c)] ** 2) @ (np.abs(c) ** 2)))
        else:
            continue
        rows.append(i)
        want.append(bergman / block)
    close(ratios[rows], want, rtol, f"norm-equiv {eta} p={p}")


def _csv_rows(data):
    # labels such as geometric:0.5,1 hold a comma and are written unquoted,
    # so the label is everything left of the numeric columns
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    return header, [line.rsplit(",", len(header) - 1) for line in lines[1:]]


def _run_cli(bw, argv, out_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bw.cli.main(argv)
    with open(out_path, "rb") as fh:
        data = fh.read()
    return code, buf.getvalue(), data


def check_cli_sweep(tables, omega, p, out, n_rows, n_max):
    code, stdout, data = out
    expect(code == 0, f"exit code {code}")
    expect(stdout.startswith("lp-sweep: upper "), f"verdict line {stdout!r}")
    header, rows = _csv_rows(data)
    expect(header == ["f", "ratio", "inverse_ratio"], f"CSV header {header}")
    expect(len(rows) == n_rows, f"{len(rows)} CSV rows, wanted {n_rows}")
    mono = [(_monomial_degree(r[0]), float(r[1])) for r in rows if r[0].startswith("monomial:")]
    expect(len(mono) == int(math.log2(n_max)) + 2, "monomial rows missing")
    close([v for _, v in mono], _monomial_ratios(tables, omega, p, [n for n, _ in mono]),
          rtol_for(omega), f"CLI lp-sweep {omega} p={p}")
    for r in rows:
        expect(float(r[1]) > 0 and math.isclose(float(r[1]) * float(r[2]), 1.0, rel_tol=1e-12),
               f"row {r[0]}: ratio and inverse ratio disagree")


def check_cli_norm_equiv(tables, bw, eta, out, n_rows):
    code, stdout, data = out
    expect(code == 0, f"exit code {code}")
    expect(stdout.startswith("norm-equiv: bracket"), f"verdict line {stdout!r}")
    header, rows = _csv_rows(data)
    expect(header == ["f", "norm_ratio"], f"CSV header {header}")
    expect(len(rows) == n_rows, f"{len(rows)} CSV rows, wanted {n_rows}")
    mono = [(r[0], float(r[1])) for r in rows if r[0].startswith("monomial:")]
    members = [(label, np.eye(1, _monomial_degree(label) + 1, _monomial_degree(label))[0])
               for label, _ in mono]
    columns = {"f": [label for label, _ in mono], "norm_ratio": [v for _, v in mono]}
    check_norm_equiv(tables, bw, eta, 2.0, members, columns)


# ---------------------------------------------------------------------------
# workloads


def _write_config(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _sweep_ops(bw, ref, ps, members, ne_etas, ne_members):
    """lp-sweep per (p, omega) on ``members`` and norm-equiv per (p, eta) on
    ``ne_members``.

    ``ref`` is filled by the workload's ``prepare`` with the moment tables
    and, on ``sweep-frac-p``, the brute-force ratios.
    """
    ops = []
    verify = bw.verify
    weight = bw.parse_weight_spec
    for p in ps:
        for omega in SWEEP_OMEGAS:
            def run(omega=omega, p=p):
                return verify.equivalence_sweep(_family(bw, members), weight(omega),
                                                weight(STD1), p)

            def check(report, omega=omega, p=p):
                brute = ref.get("brute", {}).get((omega, p))
                check_sweep(ref["tables"], omega, p, members, report, brute)

            ops.append(Op(f"lp-sweep {omega} p={p:g}", run, check, report_digest))
        for eta in ne_etas:
            def run(eta=eta, p=p):
                # log:2 and exp:1,1 fail the lower-doubling screen; the block
                # norm is computed regardless to show the bracket opening up
                return verify.norm_equivalence_check(_family(bw, ne_members), weight(eta), 2, p,
                                                     check=(eta == STD1))

            def check(report, eta=eta, p=p):
                check_norm_equiv(ref["tables"], bw, eta, p, ne_members, report.columns)

            ops.append(Op(f"norm-equiv {eta} p={p:g}", run, check, report_digest))
    return ops


def _sweep_warm_up(bw, members, ps):
    """Fill module-level caches: Gauss nodes, block bases per degree bucket, scipy.fft."""
    std1 = bw.parse_weight_spec(STD1)
    for d in sorted({len(c) - 1 for _, c in members}):
        bw.block_norm(bw.TaylorSeries.monomial(max(d, 1)), std1, 2, 2.0, check=False)
    small = bw.TaylorSeries([1.0, 0.5, 0.25j])
    for spec in SWEEP_OMEGAS:
        for p in ps:
            bw.lp_ratio(small, bw.parse_weight_spec(spec), std1, p)
            bw.hardy_norm(small, p)
    with contextlib.redirect_stdout(io.StringIO()):
        bw.cli.main(["--list-experiments"])


def sweep_p2(bw, seed, out_dir):
    rng = _rng(seed, "sweep-p2")
    # Monomials reach n = 2048 so that the verdicts settle; the other series
    # stay at degree 256, so that a round takes a few seconds and a run holds
    # several rounds to take medians over.
    others = ([geometric(0.5, 1, 256), geometric(0.99, 1, 256), lacunary(256)]
              + [random_series(rng, f"random:{i}", 256) for i in range(2)])
    members = monomials() + others
    ref = {}
    ops = _sweep_ops(bw, ref, (2.0,), members, SWEEP_OMEGAS, monomials(256) + others)

    cli_seed = int(rng.integers(0, 2**31))
    ne_cfg = os.path.join(out_dir, "norm-equiv-p2.cfg")
    ne_csv = os.path.join(out_dir, "norm-equiv-p2.csv")
    _write_config(ne_cfg, ["experiment = norm-equiv", "eta = standard:1", "k = 2", "p = 2",
                           "family = default", "n_max = 512", "degree = 256",
                           f"seed = {cli_seed}", f"out = {ne_csv}"])
    # default family: 11 monomials, 6 geometric, 1 lacunary, 10 random
    ops.append(Op("cli run norm-equiv standard:1 p=2",
                  lambda: _run_cli(bw, ["run", "--config", ne_cfg], ne_csv),
                  lambda out: check_cli_norm_equiv(ref["tables"], bw, STD1, out, 28),
                  plain_digest))
    ops += _diagnostic_ops(bw, rng, ref)

    def csv_repeat():
        # the timed rounds left ne_csv behind; one more run of the config must
        # write the same bytes
        again = os.path.join(out_dir, "norm-equiv-p2.again.csv")
        _run_cli(bw, ["run", "--config", ne_cfg, "--out", again], again)
        with open(ne_csv, "rb") as first, open(again, "rb") as second:
            expect(first.read() == second.read(),
                   "two runs of one config wrote different CSV bytes")

    def warm_up():
        _sweep_warm_up(bw, members, (2.0,))
        _diagnostic_warm_up(bw)

    def prepare(oracles):
        ref["oracles"] = oracles
        ref["tables"] = MomentTables(oracles)

    return Workload("sweep-p2", ops, warm_up, prepare, [("csv byte-identical", csv_repeat)])


def sweep_frac_p(bw, seed, out_dir):
    rng = _rng(seed, "sweep-frac-p")
    # the witness is a rotated fixed polynomial, like random:0: a fresh random
    # one moves the ladder's largest batch, and with it peak memory, by seed
    witness = rotated_series(rng, "random:w", 24, base_seed=2024)
    members = (monomials(256) + [geometric(0.9, 2, 256), lacunary(128)]
               + [rotated_series(rng, "random:0", 64), witness])
    ps = (0.5, 1.0)
    ref = {}
    ops = _sweep_ops(bw, ref, ps, members, (STD1,), members)
    cfg = os.path.join(out_dir, "lp-sweep-p05.cfg")
    csv = os.path.join(out_dir, "lp-sweep-p05.csv")
    _write_config(cfg, ["experiment = lp-sweep", "omega = log:2", "mu = standard:1",
                        "p = 0.5", "family = monomials", "n_max = 1024", f"out = {csv}"])
    ops.append(Op("cli run lp-sweep log:2 p=0.5 monomials",
                  lambda: _run_cli(bw, ["run", "--config", cfg], csv),
                  lambda out: check_cli_sweep(ref["tables"], "log:2", 0.5, out, 12, 1024),
                  plain_digest))

    def prepare(oracles):
        ref["tables"] = MomentTables(oracles)
        # brute-force lp ratios of the witness: dense circle grids, own radial rule
        coeffs = witness[1]
        deriv = coeffs / oracles.std1_odd_moments(len(coeffs) - 1)
        ref["brute"] = {}
        for p in ps:
            specs = [oracles.parse_spec(w) for w in SWEEP_OMEGAS]
            den = oracles.brute_bergman_pp(coeffs, specs, p)
            num = oracles.brute_bergman_pp(deriv, [("nu", s, p) for s in specs], p)
            for w, s in zip(SWEEP_OMEGAS, specs):
                ref["brute"][(w, p)] = {witness[0]: num[("nu", s, p)] / den[s]}

    return Workload("sweep-frac-p", ops, lambda: _sweep_warm_up(bw, members, ps), prepare)


# weight diagnostics ----------------------------------------------------------
# classify, tails and moments, monomial curves and suma-check ride along on
# sweep-p2: the weights and quadrature layers without circle sampling.

TABULATED_LABEL = "tabulated:3(1-s^2)^2"

# Five completed operations of 3-40 ms and five of 0.3-1.1 s sit on either
# side of the three norm-equiv calls of about 0.11 s, so that the median
# operation time falls inside that group rather than on a gap between two.
# The tabulated sampler is the standard weight with alpha = 2, so its dhat
# curve is checked against mpmath.betainc; the exp probe checks tails and
# moments against mpmath.quad.
CLASSIFY_SPECS = ("standard:50", "log:2", "exp:1,1", TABULATED_LABEL)
PROBES = {"exp:1,1": 0.95}
CURVES = (("log:2", 2.0),)
SUMS = ((1.0, 1.0, 2),)


def _tabulated(bw):
    return bw.TabulatedWeight(lambda s: 3.0 * (1.0 - s * s) ** 2, label=TABULATED_LABEL)


def _make(bw, spec):
    return _tabulated(bw) if spec == TABULATED_LABEL else bw.parse_weight_spec(spec)


def _oracle_spec(oracles, spec):
    # the tabulated sampler 3(1-s^2)^2 is the standard weight with alpha = 2
    return ("standard", 2.0) if spec == TABULATED_LABEL else oracles.parse_spec(spec)


def check_classify(oracles, spec, report):
    v = report.verdicts
    family = spec.split(":")[0]
    if family in ("standard", "tabulated"):
        alpha = 2.0 if family == "tabulated" else float(spec.split(":")[1])
        if alpha <= 2.0:
            expect(v["d"] == "in", f"{spec} verdicts {v}")
        else:
            # the grids stop where the tail falls below 1e-14 of the mass, which
            # leaves too few dyadic radii to settle the upper-doubling sup
            expect(v["dhat"] != "out" and v["dcheck"] == "in" and v["d"] != "out",
                   f"{spec} verdicts {v}")
        r, vals = report.curves["dhat"]
        r = np.asarray(r)[:6]
        want = [oracles.std_tail(alpha, x) / oracles.std_tail(alpha, (1 + x) / 2) for x in r]
        close(np.asarray(vals)[:6], want, RTOL_PROBE, f"{spec} dhat curve")
    elif family == "log":
        expect(v["dhat"] == "in" and v["dcheck"] == "out" and v["d"] == "out",
               f"{spec} verdicts {v}")
    else:
        expect(v["dhat"] == "out" and v["dcheck"] == "in" and v["d"] == "out",
               f"{spec} verdicts {v}")


def check_probe(tables, spec, radii, orders, out):
    o = tables.o
    tails, moments = out
    ospec = _oracle_spec(o, spec)
    if ospec[0] == "standard":
        want_t = [o.std_tail(ospec[1], r) for r in radii]
    else:
        want_t = [o.mp_tail(ospec, r) for r in radii]
    close(tails, want_t, RTOL_PROBE, f"{spec} tails")
    if ospec[0] == "standard":
        want_m = tables.get(ospec, orders)
    else:
        want_m = [o.mp_moment(ospec, x) for x in orders]
    close(moments, want_m, RTOL_PROBE, f"{spec} moments")


def check_monomial_curve(tables, omega, p, report):
    # the reverse ratio of row n is the monomial lp ratio inverted
    want = 1.0 / _monomial_ratios(tables, omega, p, report.columns["n"])
    close(report.columns["reverse_ratio"], want, rtol_for(omega), f"monomial-curve {omega}")
    verdict = report.params["bounded_verdict"]
    if omega == "standard:1":
        expect(verdict == "bounded", f"std1 monomial curve {verdict}")
    elif omega.startswith("log:"):
        expect(verdict == "growing", f"{omega} monomial curve {verdict}")


def check_suma(oracles, alpha, gamma, k, report):
    rs = np.asarray(report.columns["r"], dtype=float)
    want = []
    for r in rs:
        total = 1.0
        for n in range(200 if r > 0 else 0):
            power = float(k) ** n
            log_term = power * math.log(r) - gamma * oracles.std_log_moment(alpha, power)
            term = math.exp(log_term) if log_term > -745.0 else 0.0
            total += term
            if n > 0 and term < 1e-18 * total:
                break
        want.append(total * oracles.std_tail(alpha, float(r)) ** gamma)
    # scipy's betaln, behind StandardWeight.moment, carries ~1e-10 relative
    # error at orders near 4^9, which the sum at r -> 1 picks up
    close(report.columns["sum_ratio"], want, 1e-8, f"suma-check standard:{alpha:g}")
    expect("running-max bounded" in report.verdict, f"suma verdict {report.verdict}")


def _diagnostic_ops(bw, rng, ref):
    """classify, tails and moments, monomial curves and suma-check.

    ``ref`` is filled by the workload's ``prepare`` with the oracles module
    and the moment tables.
    """
    ops = []
    for spec in CLASSIFY_SPECS:
        known = None
        if spec == "standard:50":
            known = "StandardWeight.log_tail cancels and raises ValueError (math domain error)"
        ops.append(Op(f"classify {spec}", lambda spec=spec: bw.classify(_make(bw, spec)),
                      lambda rep, spec=spec: check_classify(ref["oracles"], spec, rep),
                      class_digest, known))
    for spec, r_top in PROBES.items():
        radii = np.sort(rng.uniform(0.0, r_top, 8))
        orders = np.sort(10.0 ** rng.uniform(0.0, 4.0, 8))

        def run(spec=spec, radii=radii, orders=orders):
            w = _make(bw, spec)
            return (tuple(w.tail(float(r)) for r in radii), tuple(w.moments(orders)))

        ops.append(Op(f"tails+moments {spec}", run,
                      lambda out, spec=spec, radii=radii, orders=orders:
                          check_probe(ref["tables"], spec, radii, orders, out),
                      plain_digest))
    for omega, p in CURVES:
        ops.append(Op(f"monomial-curve {omega} p={p:g}",
                      lambda omega=omega, p=p: bw.verify.monomial_necessity_curve(
                          bw.parse_weight_spec(omega), bw.parse_weight_spec(STD1), p, 10_000),
                      lambda rep, omega=omega, p=p:
                          check_monomial_curve(ref["tables"], omega, p, rep),
                      report_digest))
    for alpha, gamma, k in SUMS:
        ops.append(Op(f"suma-check standard:{alpha:g} gamma={gamma:g} k={k}",
                      lambda alpha=alpha, gamma=gamma, k=k: bw.verify.suma_check(
                          bw.StandardWeight(alpha), gamma, k),
                      lambda rep, alpha=alpha, gamma=gamma, k=k:
                          check_suma(ref["oracles"], alpha, gamma, k, rep),
                      report_digest))
    return ops


def _diagnostic_warm_up(bw):
    bw.classify(bw.StandardWeight(1.0))
    bw.LogWeight(2.0).moment(3.0)
    bw.ExponentialWeight(1.0, 1.0).tail(0.5)
    _tabulated(bw).moment(2.0)


WORKLOADS = {
    "sweep-p2": sweep_p2,
    "sweep-frac-p": sweep_frac_p,
}
