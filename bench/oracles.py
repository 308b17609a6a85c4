"""Reference values for the benchmark's output checks, computed apart from bergweight.

Nothing here imports bergweight.  Three independent sources are used:

* closed forms (standard-weight moments as Beta functions, odd moments
  of mu = standard:1, and the moments of omega * tail_mu^2 when omega and mu
  are both standard:1, which expand into a finite sum of Beta functions);
* ``mpmath`` (``betainc`` for standard tails, ``quad`` for log/exp tails and
  moments), used for the probe checks and to validate the numpy rule below;
* a numpy Gauss-Legendre rule on the axis t = -log(1 - s^2), on which every
  weight in scope becomes smooth; it gives moment tables in bulk and the
  radial integral of the brute-force Bergman norm.

A weight is described by a small tuple: ``("standard", alpha)``,
``("log", alpha)``, ``("exp", c, gamma)``, or ``("nu", omega_spec, p)`` for
omega(s) * tail_{standard:1}(s)^p, the weight on the derivative side of the
Littlewood-Paley ratio.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

T_MAX = 40.0


def parse_spec(text):
    """``standard:1`` / ``log:2`` / ``exp:1,1`` -> weight tuple."""
    family, _, params = text.partition(":")
    args = tuple(float(a) for a in params.split(","))
    if family == "standard":
        return ("standard", args[0])
    if family == "log":
        return ("log", args[0])
    if family == "exp":
        return ("exp", args[0], args[1])
    raise ValueError(f"no oracle for weight {text!r}")


# ---------------------------------------------------------------------------
# closed forms


def std_log_moment(alpha, x):
    """log of int_0^1 s^x (alpha+1)(1-s^2)^alpha ds = (a/2) B((x+1)/2, a).

    Evaluated with mpmath: differences of lgamma at large orders lose digits.
    """
    a = alpha + 1.0
    with mpmath.workdps(30):
        return float(mpmath.log(mpmath.mpf(a) / 2 * mpmath.beta((mpmath.mpf(x) + 1) / 2, a)))


def std1_odd_moments(n_max):
    """mu_{2n+1} for mu = standard:1, n = 0..n_max: 1 / ((n+1)(n+2))."""
    n = np.arange(n_max + 1, dtype=float)
    return 1.0 / ((n + 1.0) * (n + 2.0))


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def nu_std1_p2_moment(x):
    """Moment of 2(1-s^2) * tail_{std1}(s)^2, where tail_{std1} = (2/3)(1-s)^2 (2+s).

    With u = 1 - s the weight is (8/9) u^5 (18 - 21u + 8u^2 - u^3), so the
    moment is a four-term sum of Beta functions B(x+1, k+1).
    """
    total = 0.0
    for coeff, k in ((18.0, 5), (-21.0, 6), (8.0, 7), (-1.0, 8)):
        total += coeff * math.exp(_log_beta(x + 1.0, k + 1.0))
    return 8.0 / 9.0 * total


def std_tail(alpha, r):
    """int_r^1 (alpha+1)(1-s^2)^alpha ds via mpmath.betainc."""
    a = alpha + 1.0
    return float(a / 2.0 * mpmath.betainc(a, 0.5, 0, 1 - mpmath.mpf(r) ** 2))


# ---------------------------------------------------------------------------
# densities


def _std1_tail_of_u(u):
    return (2.0 / 3.0) * u * u * (3.0 - u)


def density(spec, s):
    """omega(s) for use with mpmath (scalar mpf in, mpf out); 0 at s = 1."""
    kind = spec[0]
    u = 1 - s
    if u <= 0:
        return mpmath.mpf(0)
    if kind == "standard":
        return (spec[1] + 1) * (u * (2 - u)) ** spec[1]
    if kind == "log":
        v = u * (2 - u)
        return 1 / v * (1 - mpmath.log(v)) ** (-spec[1])
    if kind == "exp":
        return mpmath.exp(-spec[1] / u ** spec[2])
    if kind == "nu":
        return density(spec[1], s) * _std1_tail_of_u(u) ** spec[2]
    raise ValueError(spec)


def _mp_integral(spec, g, lo=0, x=0.0):
    """int_lo^1 g(s) omega(s) ds by mpmath.quad; g peaks like s^x.

    The log family keeps mass ~ 1/log(1/u) within u of the boundary, which
    no s-grid resolves, so it is integrated over y with s = 1 - e^-y, where
    the integrand decays like y^-alpha.  The other families get breakpoints
    in u = 1 - s: quarter octaves below 1 - lo, and for exp the band around
    the peak of s^x exp(-c/u^gamma), where u^(gamma+1) ~ c gamma / x.
    """
    with mpmath.workdps(20):
        lo = mpmath.mpf(lo)
        if spec[0] == "log":
            al = spec[1]

            def integrand(y):
                e = mpmath.exp(-y)
                s = 1 - e
                return g(s) / (1 + s) * (1 + y - mpmath.log(2 - e)) ** (-al)

            y0 = -mpmath.log(1 - lo)
            return float(mpmath.quad(integrand, [y0, y0 + 1, y0 + 10, y0 + 100, mpmath.inf]))
        u_top = 1 - lo
        us = {u_top * mpmath.mpf(2) ** (-k / 4.0) for k in range(1, 120)}
        base = spec[1] if spec[0] == "nu" else spec
        u_min = 0
        if base[0] == "exp":
            # below u_min the density is under e^-745, zero in doubles
            u_min = (base[1] / 745.0) ** (1.0 / base[2]) / 2
            if x > 0:
                peak = (base[1] * base[2] / x) ** (1.0 / (base[2] + 1.0))
                us.update(mpmath.mpf(peak) * 2 ** (j / 8.0) for j in range(-24, 25))
        pts = sorted({lo, mpmath.mpf(1)} | {1 - u for u in us if u_min < u < u_top})
        return float(mpmath.quad(lambda s: g(s) * density(spec, s), pts))


def mp_moment(spec, x):
    """int_0^1 s^x omega(s) ds by mpmath.quad."""
    return _mp_integral(spec, lambda s: s ** x, x=x)


def mp_tail(spec, r):
    """int_r^1 omega(s) ds by mpmath.quad."""
    return _mp_integral(spec, lambda s: 1, lo=r)


# ---------------------------------------------------------------------------
# numpy rule on t = -log(1 - s^2)


def _gauss_cells(edges, order):
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
    half = 0.5 * (hi - lo)
    nodes = (lo[:, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def t_rule(fine=True):
    """Nodes/weights on [0, T_MAX], graded dyadically toward t = 0."""
    if fine:
        grade = [0.0] + [2.0 ** (-k) for k in range(44, 2, -1)]
        body = list(np.arange(0.125, 12.0, 0.125)) + list(np.arange(12.0, T_MAX + 0.25, 0.5))
        order = 20
    else:
        grade = [0.0] + [2.0 ** (-k) for k in range(24, 0, -1)]
        body = list(np.arange(1.0, 20.0, 0.5)) + list(np.arange(20.0, T_MAX + 1.0, 2.0))
        order = 12
    edges = np.unique(np.asarray(grade + body, dtype=float))
    return _gauss_cells(edges, order)


def _measure(spec, t):
    """Values m(t) with int g(s) omega(s) ds = int g(s(t)) m(t) dt; also s and 1-s.

    ds/dt = e^-t / (2s), 1 - s^2 = e^-t, 1 - s = e^-t / (1 + s).
    """
    s = np.sqrt(-np.expm1(-t))
    et = np.exp(-t)
    u = et / (1.0 + s)
    jac = et / (2.0 * s)
    kind = spec[0]
    if kind == "standard":
        m = (spec[1] + 1.0) * np.exp(-spec[1] * t) * jac
    elif kind == "log":
        m = (1.0 + t) ** (-spec[1]) / (2.0 * s)
    elif kind == "exp":
        with np.errstate(divide="ignore", over="ignore"):
            expo = -spec[1] / u ** spec[2]
        m = np.where(expo < -745.0, 0.0, np.exp(np.maximum(expo, -745.0))) * jac
    elif kind == "nu":
        m, _, _ = _measure(spec[1], t)
        m = m * _std1_tail_of_u(u) ** spec[2]
    else:
        raise ValueError(spec)
    return m, s, u


def boundary_mass(spec):
    """Weight mass beyond t = T_MAX, where s = 1 to double precision."""
    if spec[0] == "log":
        return (1.0 + T_MAX) ** (1.0 - spec[1]) / (2.0 * (spec[1] - 1.0))
    if spec[0] == "standard":
        return 0.5 * math.exp(-(spec[1] + 1.0) * T_MAX)
    return 0.0


def rule_moments(spec, xs, chunk=256):
    """int_0^1 s^x omega(s) ds for every x in ``xs`` (x >= 1), in bulk."""
    t, w = t_rule(fine=True)
    m, s, _ = _measure(spec, t)
    wm = w * m
    log_s = np.log(s)
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.size)
    for i in range(0, xs.size, chunk):
        block = xs[i : i + chunk]
        out[i : i + chunk] = np.exp(block[:, None] * log_s[None, :]) @ wm
    return out + boundary_mass(spec)


# ---------------------------------------------------------------------------
# brute-force norms


def circle_means(coeffs, radii, p, q=4096, chunk=128):
    """mean_j |f(r e^{2 pi i j/q})|^p per radius, by Horner evaluation (numpy polyval)."""
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    coeffs = np.asarray(coeffs, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    out = np.empty(radii.size)
    for i in range(0, radii.size, chunk):
        z = radii[i : i + chunk, None] * roots[None, :]
        vals = np.polynomial.polynomial.polyval(z, coeffs)
        out[i : i + chunk] = np.mean(np.abs(vals) ** p, axis=1)
    return out


def brute_bergman_pp(coeffs, specs, p, q=2048):
    """||f||^p = 2 int_0^1 s M_p^p(s, f) omega(s) ds for each weight in ``specs``.

    The circle means are evaluated once on the radial nodes and shared by
    all weights.
    """
    t, w = t_rule(fine=False)
    s = np.sqrt(-np.expm1(-t))
    means = circle_means(coeffs, s, p, q)
    at_one = circle_means(coeffs, [1.0], p, q)[0]
    out = {}
    for spec in specs:
        m, _, _ = _measure(spec, t)
        out[spec] = 2.0 * float(np.dot(w * m * s, means)) + 2.0 * boundary_mass(spec) * at_one
    return out
