"""Integral means on circles, Hardy norms of polynomials, and weighted norms.

At p = 2 the circle integral is Parseval's sum M_2^2(r) = sum |c_n|^2 r^(2n),
taken from the coefficients without sampling.  Otherwise it is a trapezoid
sum over roots-of-unity samples, which is exact for |f|^p whenever p is an
even integer and the sample count beats the bandwidth; other exponents
double the sample count until the value settles, computing only the new
samples of each doubled grid.  Radial integrals ride on the weight's own
quadrature rule, which carries its unresolved boundary mass as an atom at
r = 1 so that polynomials (whose integral means extend continuously to the
boundary) are integrated without truncation bias; the r = 1 circle is
sampled to the same mass-weighted budget as the nodes.

For 0 < p < 1 the same formulas define quasi-norms; nothing here relies on
a triangle inequality, so the full exponent range is handled uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .series import circle_power_means, parseval_means
from .weights import dcheck_margin
from . import cesaro

CIRCLE_DOUBLING_TOL = 1e-9
CIRCLE_Q_CAP = 1 << 20


@dataclass(frozen=True)
class NormSettings:
    """Sampling and quadrature profile used by the norm computations."""

    q_oversample: int = 4
    gl_order: int = 8
    theta: float = 6.0

    def __post_init__(self):
        if self.q_oversample < 4:
            raise DomainError(f"q_oversample must be >= 4, got {self.q_oversample}")

    def q_for(self, degree):
        """Smallest power of two >= q_oversample * (degree + 1)."""
        target = self.q_oversample * (max(degree, 0) + 1)
        return 1 << max(0, math.ceil(math.log2(target)))


DEFAULT_SETTINGS = NormSettings()


def _is_exact_exponent(p, q, degree):
    # |f|^p is a trig polynomial of bandwidth (p/2)*degree for even integer p
    if p <= 0 or p != int(p) or int(p) % 2:
        return False
    return q > (int(p) // 2) * degree


def _power_means(coeffs, radii, p, degree, settings, masses=None):
    """M_p^p at each radius.

    p = 2 is Parseval's sum over the coefficients and other even p take one
    exact circle pass.  Other exponents double the sample count until the
    value settles.  The first check compares the mean over the q samples
    with the mean over their even-indexed half, which is the q/2 grid; each
    doubling q -> 2q samples only the q new odd points and averages them in,
    so no sample is computed twice.  Unsettled radii keep doubling up to the
    cap.  ``masses`` (same shape as ``radii``), the quadrature mass each
    radius carries, adds a per-radius absolute budget of 1e-11 of the
    mass-weighted total over that mass on top of the relative rule, letting
    a radial quadrature spend samples where its weights actually look.
    """
    if p == 2.0:
        return parseval_means(coeffs, radii)
    q = settings.q_for(degree)
    if _is_exact_exponent(p, q, degree):
        return circle_power_means(coeffs, radii, p, q)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    values, coarse = circle_power_means(coeffs, radii, p, q, even=True)
    # means this far below the batch maximum cannot move the norm, and their
    # circle values sit in denormal territory where relative error is noise
    floor = max(1e-250, 1e-120 * float(np.max(values)))
    if masses is None:
        abs_tols = np.zeros(radii.size)
    else:
        abs_tols = 1e-11 * float(np.dot(masses, values)) / np.maximum(masses, 1e-300)

    def budget(vals, idx):
        return np.maximum(
            CIRCLE_DOUBLING_TOL * np.maximum(np.abs(vals), floor), abs_tols[idx]
        )

    all_idx = np.arange(radii.size)
    active = all_idx[np.abs(values - coarse) > budget(values, all_idx)]
    while q < CIRCLE_Q_CAP and active.size:
        odd = circle_power_means(coeffs, radii[active], p, q, half_step=True)
        q *= 2
        previous = values[active]
        refined = 0.5 * (previous + odd)
        settled = np.abs(refined - previous) <= budget(refined, active)
        values[active] = refined
        active = active[~settled]
    return values


def integral_mean(f, r, p, settings=DEFAULT_SETTINGS):
    """The L^p average of |f| on the circle of radius r."""
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"radius must lie in [0, 1], got {r!r}")
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if f.is_zero:
        return 0.0
    mpp = _power_means(f.coeffs, np.array([r]), p, f.degree, settings)[0]
    return mpp ** (1.0 / p)


def hardy_norm(f, p, settings=DEFAULT_SETTINGS):
    """Hardy norm of a polynomial: the integral mean at r = 1, where the
    nondecreasing means attain their supremum."""
    return integral_mean(f, 1.0, p, settings)


def bergman_norm(f, w, p, settings=DEFAULT_SETTINGS):
    """Weighted Bergman norm (2 int r M_p^p(r, f) w(r) dr)^(1/p)."""
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if f.is_zero:
        return 0.0
    degree = f.degree
    rule = w.radial_rule(p * degree + 2.0, order=settings.gl_order, theta=settings.theta)
    # the boundary atom is one more radius, r = 1, weighted by the mass the
    # rule left unresolved; nodes carrying little mass get a looser budget
    radii = np.append(rule.nodes, 1.0)
    masses = np.append(rule.weights * rule.nodes, rule.boundary_mass)
    mpp = _power_means(f.coeffs, radii, p, degree, settings, masses=masses)
    total = 2.0 * float(np.dot(masses, mpp))
    return total ** (1.0 / p)


def block_norm(f, eta, k, p, settings=DEFAULT_SETTINGS, check=True):
    """Block norm (sum_n eta_{k^n} ||V_{n,k} * f||_{H^p}^p)^(1/p).

    The truncation covers every block that meets deg f; higher blocks vanish
    on polynomials.  ``check`` screens eta for the lower-doubling condition
    at this k (the regime where the block norm is equivalent to the Bergman
    norm); pass check=False to compute it regardless.
    """
    if int(k) != k or k < 2:
        raise DomainError(f"block parameter k must be an integer >= 2, got {k!r}")
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    if check:
        verdict, _ = dcheck_margin(eta, int(k))
        if verdict == "out":
            raise DomainError(
                f"weight {eta.label} fails the lower-doubling screen for k={k}; "
                "pass check=False to compute the block norm anyway"
            )
    if f.is_zero:
        return 0.0
    basis = _basis_for(int(k), f.degree)
    total = 0.0
    for n in range(basis.top_index + 1):
        piece = cesaro.block(f, basis, n)
        if piece.is_zero:
            continue
        hn = hardy_norm(piece, p, settings)
        total += eta.moment(float(k) ** n) * hn**p
    return total ** (1.0 / p)


_BASIS_CACHE = {}


def _basis_for(k, degree):
    n_top = max(degree, 1)
    bucket = 1 << max(0, math.ceil(math.log2(n_top)))
    key = (k, bucket)
    try:
        return _BASIS_CACHE[key]
    except KeyError:
        basis = cesaro.build_basis(k, bucket)
        _BASIS_CACHE[key] = basis
        return basis


def block_sum_compare(a, eta, k, p, settings=DEFAULT_SETTINGS):
    """Both sides of the nonnegative-series block comparison.

    Returns (lhs, rhs) with lhs = int_0^1 (sum a_j s^j)^p eta(s) ds and
    rhs = sum_n eta_{k^n} t_n^p, where t_0 sums a_j below k and t_n sums the
    band k^n <= j < k^(n+1).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("coefficients must form a non-empty 1-d sequence")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise DomainError("block comparison needs nonnegative finite coefficients")
    if int(k) != k or k < 2:
        raise DomainError(f"block parameter k must be an integer >= 2, got {k!r}")
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")
    k = int(k)
    if not np.any(a > 0.0):
        return 0.0, 0.0
    degree = int(np.nonzero(a)[0][-1])
    rule = eta.radial_rule(p * degree + 1.0, order=settings.gl_order, theta=settings.theta)
    poly_at_nodes = np.polynomial.polynomial.polyval(rule.nodes, a)
    lhs = rule.integrate(poly_at_nodes**p, float(np.sum(a)) ** p)
    rhs = float(eta.moment(1.0)) * float(np.sum(a[:k])) ** p
    n = 1
    while k**n <= degree:
        t_n = float(np.sum(a[k**n : k ** (n + 1)]))
        if t_n > 0.0:
            rhs += eta.moment(float(k) ** n) * t_n**p
        n += 1
    return lhs, rhs
