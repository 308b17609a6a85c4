"""Shared brute-force oracles for the test suite.

The oracles integrate on a transformed axis t with s = 1 - 2^-t, which
resolves integrands that concentrate at s = 1, and stay independent of the
package's quadrature code (plain Simpson sums over dense grids, and
``mpmath.quad`` for the sharply peaked exp moments).
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson


def graded_integral(fn, t_max=96.0, n=96_001, lo=0.0):
    """Brute-force integral of fn(s, 1-s) over [lo, 1).

    Uses s = lo + (1-lo)(1 - 2^-t); the callback receives 1-s through the
    exact formula (1-lo) 2^-t so that boundary singularities keep full
    precision far beyond where 1.0 - s would round away.
    """
    t = np.linspace(0.0, t_max, n)
    decay = np.exp(t * (-math.log(2.0)))
    u = (1.0 - lo) * decay
    s = 1.0 - u
    jac = (1.0 - lo) * math.log(2.0) * decay
    return float(simpson(fn(s, u) * jac, x=t))


def left_graded_integral(fn, hi=0.5, t_max=80.0, n=48_001):
    """Brute-force integral of fn(s, 1-s) over [0, hi], graded toward 0.

    Uses s = hi * 2^-t so fractional powers of s stay smooth on the
    transformed axis.
    """
    t = np.linspace(0.0, t_max, n)
    s = hi * np.exp(t * (-math.log(2.0)))
    return float(simpson(fn(s, 1.0 - s) * math.log(2.0) * s, x=t))


def two_sided_integral(fn):
    """Brute-force integral over [0, 1) graded toward both endpoints."""
    return left_graded_integral(fn) + graded_integral(fn, lo=0.5)


def oracle_std_tail(alpha, r):
    return graded_integral(lambda s, u: (alpha + 1.0) * (u * (2.0 - u)) ** alpha, lo=r)


def oracle_std_moment(alpha, x):
    return two_sided_integral(lambda s, u: s**x * (alpha + 1.0) * (u * (2.0 - u)) ** alpha)


def oracle_log_moment(alpha, x, t_max=46.0):
    """Brute-force moment of the log-family weight.

    The graded sum misses the (slowly decaying) mass at 1 - s < 2^-t_max;
    that piece is added analytically: for u -> 0 the weight behaves like
    (2u)^-1 (1 - log(2u))^-alpha whose tail integral is closed-form.
    """

    def density(s, u):
        one_minus_sq = u * (2.0 - u)
        return s**x / one_minus_sq * (1.0 - np.log(one_minus_sq)) ** (-alpha)

    body = graded_integral(density, t_max=t_max, n=96_001)
    u0 = 2.0**-t_max
    correction = ((1.0 - math.log(2.0)) - math.log(u0)) ** (1.0 - alpha) / (2.0 * (alpha - 1.0))
    return body + correction


@functools.lru_cache(maxsize=None)
def oracle_exp_moment(c, gamma, x, std1_tail_power=0):
    """int_0^1 s^x exp(-c/(1-s)^gamma) T(s)^k ds with T the standard:1 tail
    (2/3) u^2 (3 - u), u = 1 - s, and k = ``std1_tail_power``.

    ``mpmath.quad`` over u, with breakpoints every 1/32 octave within 2^4 of
    the peak of (1-u)^x exp(-c/u^gamma) near u = (c gamma / x)^(1/(gamma+1));
    values below double range come back as 0.
    """
    with mpmath.workdps(20):
        c, g, x = mpmath.mpf(c), mpmath.mpf(gamma), mpmath.mpf(x)
        peak = (c * g / x) ** (1 / (g + 1))
        us = {peak * mpmath.mpf(2) ** (mpmath.mpf(j) / 32) for j in range(-128, 129)}
        pts = [mpmath.mpf(0)] + sorted(u for u in us if u < 1) + [mpmath.mpf(1)]

        def integrand(u):
            if not 0 < u < 1:
                return mpmath.mpf(0)
            tail = 2 * u**2 * (3 - u) / 3
            return mpmath.exp(x * mpmath.log1p(-u) - c / u**g) * tail**std1_tail_power

        return float(mpmath.quad(integrand, pts))


def _abs_square_poly(coeffs):
    """t -> sum |c_n|^2 t^n at a float t, from direct powers."""
    weights = np.abs(np.asarray(coeffs, dtype=complex)) ** 2
    n = np.arange(weights.size)
    return lambda t: float(np.dot(weights, float(t) ** n))


def oracle_log_bergman_square(coeffs, alpha):
    """2 sum |c_n|^2 omega_{2n+1} for the log weight of exponent alpha.

    With 1 - s^2 = e^(1 - 1/y), omega_{2n+1} = (1/2) int_0^1
    (1 - e^(1 - 1/y))^n y^(alpha - 2) dy, so the sum is one ``mpmath.quad``
    over y of P(1 - e^(1 - 1/y)) y^(alpha - 2), P(t) = sum |c_n|^2 t^n,
    with breakpoints every quarter octave of y.
    """
    poly = _abs_square_poly(coeffs)

    def integrand(y):
        y = float(y)
        return poly(-math.expm1(1.0 - 1.0 / y)) * y ** (alpha - 2.0) if y > 0.0 else 0.0

    with mpmath.workdps(20):
        return float(mpmath.quad(integrand, [0.0] + [2.0 ** (-j / 4) for j in range(40, -1, -1)]))


def oracle_exp_bergman_square(coeffs, c, gamma):
    """2 sum |c_n|^2 omega_{2n+1} for the weight exp(-c / (1 - s)^gamma): one
    ``mpmath.quad`` over u = 1 - s of 2 (1 - u) P((1 - u)^2) e^(-c / u^gamma),
    P(t) = sum |c_n|^2 t^n, with breakpoints every quarter octave of u."""
    poly = _abs_square_poly(coeffs)

    def integrand(u):
        u = float(u)
        if not 0.0 < u < 1.0:
            return 0.0
        return 2.0 * (1.0 - u) * poly((1.0 - u) ** 2) * math.exp(-c / u**gamma)

    with mpmath.workdps(20):
        return float(mpmath.quad(integrand, [0.0] + [2.0 ** (-j / 4) for j in range(60, -1, -1)]))


def oracle_parseval_mean(coeffs, r):
    """sqrt(sum |c_n|^2 r^(2n)): the p = 2 integral mean of a polynomial."""
    coeffs = np.asarray(coeffs, dtype=complex)
    powers = r ** (2.0 * np.arange(len(coeffs)))
    return math.sqrt(float(np.sum(np.abs(coeffs) ** 2 * powers)))


def oracle_circle_values(coeffs, r, q):
    """Direct Horner evaluation of the polynomial at the q-th roots of unity."""
    angles = 2.0 * np.pi * np.arange(q) / q
    points = r * np.exp(1j * angles)
    return np.polynomial.polynomial.polyval(points, np.asarray(coeffs, dtype=complex))


def oracle_beta_odd_moment(n, beta):
    """mu_{2n+1} for the standard weight of exponent beta, via log-Gamma."""
    return math.exp(
        math.lgamma(n + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(n + beta + 1.0)
    ) / 2.0


@pytest.fixture(scope="session")
def std0():
    from bergweight import StandardWeight

    return StandardWeight(0.0)


@pytest.fixture(scope="session")
def std1():
    from bergweight import StandardWeight

    return StandardWeight(1.0)


@pytest.fixture(scope="session")
def log2w():
    from bergweight import LogWeight

    return LogWeight(2.0)


@pytest.fixture(scope="session")
def exp11():
    from bergweight import ExponentialWeight

    return ExponentialWeight(1.0, 1.0)
