"""Truncated Taylor series on the unit disc and coefficient-multiplier operators.

A series is a finite coefficient vector; every "analytic function" claim in
this package is exercised on polynomials.  Three derivative-type operators
act coefficientwise:

* ``frac_deriv_mu``       c_n -> c_n / mu_{2n+1}   (odd moments of a weight)
* ``frac_deriv_beta``     c_n -> (2 / Gamma(b+1)) * Gamma(n+b+1)/Gamma(n+1) * c_n
* ``multiplier_transform``  c_n -> (n+1)^b * c_n

The first two coincide when mu is the standard weight b*(1-s^2)^(b-1); both
apply the n = 0 term through the same formula even though classical
presentations sometimes start the Gamma-quotient sum at n = 1.  The
Gamma quotients here and the geometric family's binomials are running
products of their term ratios, as a standard weight's odd moments are.  Circle samples are
batched ``numpy.fft`` transforms, done in place in a per-thread workspace,
in blocks of at most BLOCK_ENTRIES samples: the working-set budget that
every batched kernel of the fractional-p means reads.  The workspace also
serves the norms' tables built while no samples are live.  The sampler
keeps no samples past their block and judges none: which circles a zero
search reads is decided by the norms.
"""

from __future__ import annotations

import math
import operator
import threading

import numpy as np

from .errors import DomainError, QuadratureError, ResourceError
from .weights import dhat_verdict, normal_length

DEFAULT_DEGREE = 1024
# the most coefficients a parsed or read series may have (16 MiB of complex
# values); the norms sample such a series on grids of four times its length
MAX_SERIES_LENGTH = 1 << 20


class TaylorSeries:
    """Coefficients c_0..c_N of a polynomial / truncated analytic function."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise DomainError("coefficients must be finite")
        self.coeffs = arr.copy()

    @classmethod
    def monomial(cls, n, c=1.0):
        n = integer(n, "monomial degree")
        if n < 0:
            raise DomainError(f"monomial degree must be >= 0, got {n}")
        arr = np.zeros(n + 1, dtype=complex)
        arr[n] = c
        return cls(arr)

    @classmethod
    def constant(cls, c):
        return cls([c])

    def __len__(self):
        return len(self.coeffs)

    def coeff(self, n):
        return complex(self.coeffs[n]) if 0 <= n < len(self.coeffs) else 0.0j

    @property
    def degree(self):
        """Largest index with a nonzero coefficient; -1 for the zero series."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    @property
    def is_zero(self):
        return self.degree < 0

    def support(self):
        return np.nonzero(self.coeffs)[0]

    def padded(self, n):
        if n < len(self.coeffs):
            return self.coeffs[: n].copy()
        out = np.zeros(n, dtype=complex)
        out[: len(self.coeffs)] = self.coeffs
        return out

    def __add__(self, other):
        n = max(len(self), len(other))
        return TaylorSeries(self.padded(n) + other.padded(n))

    def __mul__(self, scalar):
        return TaylorSeries(self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self):
        return f"<TaylorSeries deg={self.degree} len={len(self)}>"


def integer(value, what):
    """``value`` as an int, refused unless it is a Python or numpy integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


def _multiplied(f, multipliers):
    return TaylorSeries(f.coeffs * np.asarray(multipliers))


def derivative_moments(mu, max_n, check=True):
    """``mu.odd_moments(max_n + 1)``, the divisors of ``frac_deriv_mu``, with its
    checks: ``mu`` must pass the upper-doubling screen (unless ``check`` is
    False) and every moment must be a double in the normal range, which a
    rule's table ends past (``normal_length``); its reciprocal is then a
    double too."""
    if check and dhat_verdict(mu) == "out":
        raise DomainError(
            f"weight {mu.label} looks outside the upper-doubling class; "
            "pass check=False to apply the derivative anyway"
        )
    moments = mu.odd_moments(max_n + 1)
    n = normal_length(moments)
    if n <= max_n:
        raise QuadratureError(
            f"odd moment mu_{{2n+1}} of {mu.label} vanished numerically at n = {n}",
            residual=float(moments[n]),
        )
    return moments


def frac_deriv_mu(f, mu, check=True):
    """Divide coefficient n by the odd moment mu_{2n+1} of the weight ``mu``.

    ``check`` screens ``mu`` against the upper-doubling diagnostic (the
    operator is classically well defined for such weights); pass
    ``check=False`` to override.
    """
    return _multiplied(f, 1.0 / derivative_moments(mu, len(f) - 1, check))


def frac_deriv_beta(f, beta):
    """Gamma-quotient fractional derivative of order ``beta`` > 0."""
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError(f"order must be positive, got {beta!r}")
    # Gamma(n + b + 1) / (Gamma(n + 1) Gamma(b + 1)) = prod_{k <= n} (1 + b / k)
    factors = np.ones(len(f))
    factors[1:] += beta / np.arange(1.0, len(f))
    return _multiplied(f, 2.0 * np.cumprod(factors))


def multiplier_transform(f, beta):
    """Coefficient multiplier (n+1)^beta."""
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError(f"order must be positive, got {beta!r}")
    n = np.arange(len(f), dtype=float)
    return _multiplied(f, (n + 1.0) ** beta)


def hadamard(w, f):
    """Coefficientwise product; the shorter support wins."""
    n = min(len(w), len(f))
    return TaylorSeries(w.coeffs[:n] * f.coeffs[:n])


def evaluate_circle(f, r, q):
    """Values f(r e^{2 pi i j/q}), j = 0..q-1, via an FFT at roots of unity:
    the one row of ``_circle_batches`` times its row maximum, which is also
    a copy out of the thread's workspace."""
    q = integer(q, "sample count")
    if q < 1:
        raise DomainError(f"sample count must be >= 1, got {q}")
    if q > 4 * MAX_SERIES_LENGTH:
        raise ResourceError(f"sample count {q} is past the budget of {4 * MAX_SERIES_LENGTH}")
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"radius must lie in [0, 1], got {r!r}")
    [(_, values, rowmax, _, _)] = _circle_batches(f.coeffs, np.array([r]), q)
    return values[0] * rowmax[0]


#: relative tolerance of the circle means' doubling ladder
CIRCLE_DOUBLING_TOL = 1e-9
#: the working-set budget of every batched kernel behind the fractional-p
#: means: a block holds about this many complex entries (1 MiB, L2-sized) of
#: circle samples, powers or Taylor terms, or a sixteenth as many where each
#: entry takes a dozen or so temporaries (window nodes and masks).  Rows and
#: nodes are independent, so no mean depends on it
BLOCK_ENTRIES = 1 << 16
# a circle whose row maximum max_n r^n |c_n| is below this has mean 0
_FLUSH_BELOW = 1e-290


def _normalised_powers(absc, rr):
    """r^n / rowmax for n = 0..len(absc)-1 and each radius of ``rr``.

    rowmax = max_n r^n |c_n| brings every row to O(1): tiny r^n would
    otherwise square into denormals inside |values|^2 and turn the means into
    noise.  Returns the scaled powers, rowmax and the mask of dead rows.
    """
    scal = np.ones((rr.size, absc.size))
    if absc.size > 1:
        scal[:, 1:] = rr[:, None]
        np.cumprod(scal, axis=1, out=scal)
    rowmax = np.max(scal * absc[None, :], axis=1)
    # below ~1e-290 the cumulative products have already saturated in
    # denormal territory (r^n sticks at 5e-324); those means are not
    # representable and flush to exact zero
    dead = rowmax < _FLUSH_BELOW
    rowmax = np.where(dead, 1.0, rowmax)
    scal /= rowmax[:, None]
    return scal, rowmax, dead


def flushed(coeffs, radii, lead):
    """Radii where lead * max_n r^n |c_n| falls below the means' flush point.

    That row maximum lies between lead |c_0| and lead max |c_n|, so only
    the radii in between are scanned, batched as the means are.
    """
    absc = np.abs(coeffs)
    dead = lead * np.max(absc) < _FLUSH_BELOW
    unsure = np.nonzero(~dead & (lead * absc[0] < _FLUSH_BELOW))[0]
    chunk = max(1, BLOCK_ENTRIES // absc.size)
    for start in range(0, unsure.size, chunk):
        rows = unsure[start : start + chunk]
        _, rowmax, gone = _normalised_powers(absc, radii[rows])
        dead[rows] = gone | (lead[rows] * rowmax < _FLUSH_BELOW)
    return dead


def parseval_means(coeffs, radii):
    """sum_n |c_n|^2 r^(2n) for each radius: the p = 2 circle mean, exactly
    (the p = 2m one of f when c holds f^m's coefficients), inf past doubles.

    Rows are normalised and batched as in ``circle_power_means``, so a mean
    that flushes to zero there flushes to zero here.
    """
    absc = np.abs(np.asarray(coeffs, dtype=complex))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.empty(radii.size, dtype=float)
    chunk = max(1, BLOCK_ENTRIES // absc.size)
    for start in range(0, radii.size, chunk):
        scal, rowmax, dead = _normalised_powers(absc, radii[start : start + chunk])
        terms = np.multiply(scal, absc[None, :], out=scal)
        sums = np.sum(np.square(terms, out=terms), axis=1)
        with np.errstate(over="ignore"):
            out[start : start + chunk] = np.where(dead, 0.0, sums * rowmax**2)
    return out


_WORKSPACE = threading.local()


def _workspace(rows, q):
    """This thread's (rows, q) complex and real scratch arrays.

    Fresh arrays of a batch's size are mapped and page-faulted anew on every
    call, which costs as much CPU time as the FFTs, so each thread keeps one
    pair of BLOCK_ENTRIES entries, grown only for a circle of more samples.
    """
    size = rows * q
    spare = getattr(_WORKSPACE, "arrays", None)
    if spare is None or spare[0].size < size:
        full = max(size, BLOCK_ENTRIES)
        spare = (np.empty(full, dtype=complex), np.empty(full, dtype=float))
        _WORKSPACE.arrays = spare
    return spare[0][:size].reshape(rows, q), spare[1][:size].reshape(rows, q)


def _circle_batches(coeffs, radii, q, half_step=False):
    """Samples f(r e^{2 pi i j/q}) / rowmax in blocks of radii.

    Yields (slice, samples, rowmax, dead, real scratch) per block, with one
    scaled coefficient matrix and one batched FFT each, a block holding at
    most BLOCK_ENTRIES samples or coefficients (one row if a row has more);
    the samples and the scratch array are reused by the next block.
    ``half_step`` turns the grid by half a step, as in ``circle_power_means``.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs)
    powers = np.arange(n)
    absc = np.abs(coeffs)
    if half_step:
        coeffs = coeffs * np.exp((1j * np.pi / q) * powers)
    chunk = max(1, BLOCK_ENTRIES // max(q, n))
    for start in range(0, radii.size, chunk):
        rows = slice(start, start + chunk)
        scal, rowmax, dead = _normalised_powers(absc, radii[rows])
        folded, scratch = _workspace(scal.shape[0], q)
        if n <= q:
            np.multiply(scal, coeffs[None, :], out=folded[:, :n])
            folded[:, n:] = 0.0
        else:
            folded[:] = 0.0
            np.add.at(folded.T, powers % q, (scal * coeffs[None, :]).T)
        # without the 1/q factor the samples are f / rowmax, O(1) for every p
        values = np.fft.ifft(folded, axis=1, norm="forward", out=folded)
        yield rows, values, rowmax, dead, scratch


def circle_power_means(coeffs, radii, p, q, half_step=False, even=False, mask=None):
    """mean_j |f(r e^{2 pi i j/q})|^p for each radius, batched over radii.

    This is the workhorse behind the norm computations: one scaled
    coefficient matrix per radius block, one batched FFT, one power mean.
    ``half_step`` turns the grid by half a step, to r e^{pi i (2j+1)/q}: the
    odd samples of the 2q grid, from the same size-q FFT of c_n e^{pi i n/q}.
    The samples are f / rowmax, rowmax = max_n r^n |c_n|, so a mean
    overflows only when rowmax^p does.  ``even`` serves the doubling
    ladder's first check: it returns (means, coarse, rowmax) for every
    radius, coarse the mean over the even-indexed samples, which are the
    samples of the q/2 grid.  No block's samples outlive it; what to do
    with the two means is the caller's choice.
    ``mask``, a function of a block's slice of the radii that returns
    (rows, columns, weights) for that block, rows counted from the block's
    start, takes the mean of (1 - w_ij) |f_ij|^p instead, w_ij the weight
    given for sample j of radius i and 0 for the samples not listed.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.empty(radii.size, dtype=float)
    if even:
        out_even, peak = np.empty(radii.size), np.empty(radii.size)
    for rows, values, rowmax, dead, scratch in _circle_batches(coeffs, radii, q, half_step):
        powered = _abs_power(values, p, scratch)
        # past the double range the means come out inf or nan; the norms refuse them
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.sum(powered, axis=1)
            if mask is not None:
                row, col, weight = mask(rows)
                sums -= np.bincount(row, weight * powered[row, col], powered.shape[0])
            scale = rowmax**p
            out[rows] = np.where(dead, 0.0, sums * (scale / q))
            if even:
                out_even[rows] = np.where(dead, 0.0, np.mean(powered[:, ::2], axis=1) * scale)
                peak[rows] = rowmax
    return (out, out_even, peak) if even else out


def horner(coeffs, z):
    """f(z) for the coefficients c_0..c_N, exact at every point rather than
    only at roots of unity.

    One pass over the nonzero coefficients, vectorised over the points, so
    a sparse series costs its support: z^g for each distinct gap g between
    them is built once, by squaring (numpy's complex power is slow for most
    integer exponents), and reused.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    support = np.nonzero(coeffs)[0][::-1]
    if not support.size:
        return np.zeros(z.shape, dtype=complex)
    squares, powers = [z], {0: 1.0}

    def power(e):
        if e not in powers:
            while (1 << len(squares)) <= e:
                squares.append(squares[-1] * squares[-1])
            bits = [squares[i] for i in range(len(squares)) if e >> i & 1]
            powers[e] = bits[0]
            for square in bits[1:]:
                powers[e] = powers[e] * square
        return powers[e]

    value = np.full(z.shape, coeffs[support[0]])
    for top, k in zip(support[:-1], support[1:]):
        value = value * power(int(top - k)) + coeffs[k]
    return value * power(int(support[-1]))


def _abs_power(values, p, out=None):
    """|values| ** p, into ``out`` if given, with cheap paths for p = 1 and
    p = 0.5; every step after the modulus works in place."""
    out = np.abs(values, out=out)
    if p == 1.0:
        return out
    if p == 0.5:
        return np.sqrt(out, out=out)
    with np.errstate(over="ignore"):
        return np.power(out, p, out=out)


# ---------------------------------------------------------------------------
# named families and CSV io


def parse_series_spec(text, default_degree=DEFAULT_DEGREE):
    """Named test functions: ``monomial:n``, ``geometric:lam,s``, ``lacunary:k,N``.

    ``geometric:lam,s`` is the binomial series of (1 - lam z)^(-s) truncated
    at ``default_degree``; ``lacunary:k,N`` is the sum of z^(k^j) up to N.
    """
    text = text.strip()
    name, _, params = text.partition(":")
    args = [a for a in params.split(",") if a != ""]
    if name == "monomial" and len(args) == 1:
        try:
            n = int(args[0])
        except ValueError:
            raise DomainError(f"bad monomial degree in {text!r}") from None
        _check_length(n, text)
        return TaylorSeries.monomial(n)
    if name == "geometric" and len(args) == 2:
        try:
            lam, s = float(args[0]), float(args[1])
        except ValueError:
            raise DomainError(f"bad geometric parameters in {text!r}") from None
        if not (0.0 < lam < 1.0) or not (s > 0.0):
            raise DomainError(f"geometric family needs 0 < lam < 1 and s > 0, got {text!r}")
        _check_length(default_degree, text)
        return geometric_series(lam, s, default_degree)
    if name == "lacunary" and len(args) == 2:
        try:
            k, n_max = int(args[0]), int(args[1])
        except ValueError:
            raise DomainError(f"bad lacunary parameters in {text!r}") from None
        if k < 2 or n_max < 1:
            raise DomainError(f"lacunary family needs k >= 2 and N >= 1, got {text!r}")
        _check_length(n_max, text)
        return lacunary_series(k, n_max)
    raise DomainError(f"cannot parse series spec {text!r}")


def _check_length(degree, source):
    if degree + 1 > MAX_SERIES_LENGTH:
        raise ResourceError(
            f"{source}: degree {degree} needs {degree + 1} coefficients, "
            f"more than the budget of {MAX_SERIES_LENGTH}"
        )


def geometric_series(lam, s, degree):
    """Truncated binomial expansion of (1 - lam z)^(-s): c_n = prod_{k <= n}
    (k - 1 + s) lam / k, which rises while that factor exceeds 1 and then
    falls, so the running product underflows only where c_n does."""
    k = np.arange(1.0, degree + 1.0)
    factors = np.ones(degree + 1)
    factors[1:] = (k - 1.0 + s) / k * lam
    return TaylorSeries(np.cumprod(factors).astype(complex))


def lacunary_series(k, n_max):
    """Sum of z^(k^j) over the powers k^j <= n_max."""
    idx = []
    power = 1
    while power <= n_max:
        idx.append(power)
        power *= k
    arr = np.zeros(max(idx) + 1, dtype=complex)
    arr[idx] = 1.0
    return TaylorSeries(arr)


def write_series_csv(f, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,re,im\n")
        for n, c in enumerate(f.coeffs):
            fh.write(f"{n},{float(c.real)!r},{float(c.imag)!r}\n")


def read_series_csv(path):
    """Coefficients from ``n,re,im`` rows; each index n >= 0 at most once."""
    coeffs = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.lower().startswith("n,"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DomainError(f"{path}:{line_no}: expected 'n,re,im', got {line!r}")
            try:
                n = int(parts[0])
                c = complex(float(parts[1]), float(parts[2]))
            except ValueError:
                raise DomainError(f"{path}:{line_no}: non-numeric entry in {line!r}") from None
            if n < 0:
                raise DomainError(f"{path}:{line_no}: negative index {n}")
            if n in coeffs:
                raise DomainError(f"{path}:{line_no}: duplicate index {n}")
            _check_length(n, f"{path}:{line_no}")
            coeffs[n] = c
    if not coeffs:
        raise DomainError(f"{path}: no coefficients found")
    arr = np.zeros(max(coeffs) + 1, dtype=complex)
    for n, c in coeffs.items():
        arr[n] = c
    return TaylorSeries(arr)
