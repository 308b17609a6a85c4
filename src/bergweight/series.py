"""Truncated Taylor series on the unit disc and coefficient-multiplier operators.

A series is a finite coefficient vector; every "analytic function" claim in
this package is exercised on polynomials.  Three derivative-type operators
act coefficientwise:

* ``frac_deriv_mu``       c_n -> c_n / mu_{2n+1}   (odd moments of a weight)
* ``frac_deriv_beta``     c_n -> (2 / Gamma(b+1)) * Gamma(n+b+1)/Gamma(n+1) * c_n
* ``multiplier_transform``  c_n -> (n+1)^b * c_n

The first two coincide when mu is the standard weight b*(1-s^2)^(b-1); both
apply the n = 0 term through the same formula even though classical
presentations sometimes start the Gamma-quotient sum at n = 1.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, QuadratureError, ResourceError
from .weights import StandardWeight, dhat_verdict

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


def _multiplied(f, multipliers):
    return TaylorSeries(f.coeffs * np.asarray(multipliers))


def odd_moments(mu, max_n):
    """mu_{2n+1} for n = 0..max_n, via the Beta identity for standard weights."""
    n = np.arange(max_n + 1)
    if isinstance(mu, StandardWeight):
        a = mu.alpha + 1.0
        return mu.amplitude * (a / 2.0) * np.exp(betaln_vec(n + 1.0, a))
    return np.array([mu.moment(2.0 * k + 1.0) for k in n])


def betaln_vec(a, b):
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def frac_deriv_mu(f, mu, check=True):
    """Divide coefficient n by the odd moment mu_{2n+1} of the weight ``mu``.

    ``check`` screens ``mu`` against the upper-doubling diagnostic (the
    operator is classically well defined for such weights); pass
    ``check=False`` to override.
    """
    if check and dhat_verdict(mu) == "out":
        raise DomainError(
            f"weight {mu.label} looks outside the upper-doubling class; "
            "pass check=False to apply the derivative anyway"
        )
    moments = odd_moments(mu, len(f) - 1)
    bad = np.nonzero(~(moments > 0.0) | ~np.isfinite(moments))[0]
    if bad.size:
        raise QuadratureError(
            f"odd moment mu_{{2n+1}} of {mu.label} vanished numerically at n = {int(bad[0])}",
            residual=float(moments[bad[0]]),
        )
    return _multiplied(f, 1.0 / moments)


def frac_deriv_beta(f, beta):
    """Gamma-quotient fractional derivative of order ``beta`` > 0."""
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError(f"order must be positive, got {beta!r}")
    n = np.arange(len(f), dtype=float)
    log_mult = math.log(2.0) + gammaln(n + beta + 1.0) - gammaln(n + 1.0) - gammaln(beta + 1.0)
    return _multiplied(f, np.exp(log_mult))


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
    """Values f(r e^{2 pi i j/q}), j = 0..q-1, via an FFT at roots of unity."""
    if q < 1:
        raise DomainError(f"sample count must be >= 1, got {q}")
    if not (0.0 <= r <= 1.0):
        raise DomainError(f"radius must lie in [0, 1], got {r!r}")
    scaled = f.coeffs * (r ** np.arange(len(f)))
    folded = np.zeros(q, dtype=complex)
    np.add.at(folded, np.arange(len(f)) % q, scaled)
    return np.fft.ifft(folded) * q


# keep each batch of scaled rows under ~2^18 entries, small enough to stay in
# cache; rows are independent, so no mean depends on the batch size
_BATCH_ENTRIES = 1 << 18
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
    chunk = max(1, _BATCH_ENTRIES // absc.size)
    for start in range(0, unsure.size, chunk):
        rows = unsure[start : start + chunk]
        _, rowmax, gone = _normalised_powers(absc, radii[rows])
        dead[rows] = gone | (lead[rows] * rowmax < _FLUSH_BELOW)
    return dead


def parseval_means(coeffs, radii):
    """sum_n |c_n|^2 r^(2n) for each radius: the p = 2 circle mean, exactly.

    Rows are normalised and batched as in ``circle_power_means``, so a mean
    that flushes to zero there flushes to zero here.
    """
    absc = np.abs(np.asarray(coeffs, dtype=complex))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.empty(radii.size, dtype=float)
    chunk = max(1, _BATCH_ENTRIES // absc.size)
    for start in range(0, radii.size, chunk):
        scal, rowmax, dead = _normalised_powers(absc, radii[start : start + chunk])
        terms = np.multiply(scal, absc[None, :], out=scal)
        sums = np.sum(np.square(terms, out=terms), axis=1)
        out[start : start + chunk] = np.where(dead, 0.0, sums * rowmax**2)
    return out


_WORKSPACE = threading.local()


def _workspace(rows, q):
    """This thread's (rows, q) complex and real scratch arrays.

    The circle batches are megabytes; fresh arrays that size are mapped and
    page-faulted anew on every call, which costs as much CPU time as the
    FFTs, so each thread keeps one pair and grows it when a batch outgrows it.
    """
    size = rows * q
    spare = getattr(_WORKSPACE, "arrays", None)
    if spare is None or spare[0].size < size:
        spare = (np.empty(size, dtype=complex), np.empty(size, dtype=float))
        _WORKSPACE.arrays = spare
    return spare[0][:size].reshape(rows, q), spare[1][:size].reshape(rows, q)


def _circle_batches(coeffs, radii, q, half_step=False):
    """Samples f(r e^{2 pi i j/q}) / rowmax in blocks of radii.

    Yields (slice, samples, rowmax, dead, real scratch) per block, with one
    scaled coefficient matrix and one batched FFT each; the samples and the
    scratch array are reused by the next block.  ``half_step`` turns the
    grid by half a step, as in ``circle_power_means``.
    """
    import scipy.fft

    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs)
    powers = np.arange(n)
    absc = np.abs(coeffs)
    if half_step:
        coeffs = coeffs * np.exp((1j * np.pi / q) * powers)
    chunk = max(1, _BATCH_ENTRIES // max(q, 1))
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
        values = scipy.fft.ifft(folded, axis=1, overwrite_x=True, norm="forward")
        yield rows, values, rowmax, dead, scratch


def circle_power_means(coeffs, radii, p, q, half_step=False, even=False, mask=None):
    """mean_j |f(r e^{2 pi i j/q})|^p for each radius, batched over radii.

    This is the workhorse behind the norm computations: one scaled
    coefficient matrix per radius block, one batched FFT, one power mean.
    ``half_step`` turns the grid by half a step, to r e^{pi i (2j+1)/q}: the
    odd samples of the 2q grid, from the same size-q FFT of c_n e^{pi i n/q}.
    ``even`` also returns the mean over the even-indexed samples, which are
    the samples of the q/2 grid.  The samples are f / rowmax, rowmax =
    max_n r^n |c_n|, so a mean overflows only when rowmax^p does.
    ``mask`` = (rows, columns, weights), rows ascending, takes the mean of
    (1 - w_ij) |f_ij|^p instead, w_ij the weight given for sample j of
    radius i and 0 for the samples not listed.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.empty(radii.size, dtype=float)
    out_even = np.empty(radii.size, dtype=float) if even else None
    for rows, values, rowmax, dead, scratch in _circle_batches(coeffs, radii, q, half_step):
        powered = _abs_power(values, p, scratch)
        sums = np.sum(powered, axis=1)
        if mask is not None:
            lo, hi = np.searchsorted(mask[0], [rows.start, rows.start + powered.shape[0]])
            row, col = mask[0][lo:hi] - rows.start, mask[1][lo:hi]
            sums -= np.bincount(row, mask[2][lo:hi] * powered[row, col], powered.shape[0])
        # past the double range the means come out inf or nan; the norms refuse them
        with np.errstate(over="ignore", invalid="ignore"):
            scale = rowmax**p
            out[rows] = np.where(dead, 0.0, sums * (scale / q))
            if even:
                means = np.mean(powered[:, ::2], axis=1)
                out_even[rows] = np.where(dead, 0.0, means * scale)
    return (out, out_even) if even else out


def grid_dips(coeffs, radii, q):
    """Zeros of f near each circle, roughly, from the dips of |f| on its size-q grid.

    At each local minimum of |f| over the grid, the quartic in the angle
    through f at the minimum and two neighbours on each side has a root t
    near the angle of the zero behind the dip, with Im t the zero's log
    distance from the circle; Newton steps on the quartic, started from the
    root of its quadratic part, find it.  Returns those roots as points
    r e^{i t} and their |Im t|, then each circle's row maximum and dead mask
    as ``_normalised_powers`` gives them; dead circles have no dips.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    step = 2.0 * np.pi / q
    points, depths = [], []
    rowmaxes, deads = np.ones(radii.size), np.zeros(radii.size, dtype=bool)
    for rows, values, rowmax, dead, scratch in _circle_batches(coeffs, radii, q):
        rowmaxes[rows], deads[rows] = rowmax, dead
        mag = np.abs(values, out=scratch)
        row, j = np.nonzero((mag <= np.roll(mag, 1, axis=1))
                            & (mag < np.roll(mag, -1, axis=1)) & ~dead[:, None])
        f = [values[row, (j + k) % q] for k in (-2, -1, 0, 1, 2)]
        # the quartic a0 + a1 t + ... + a4 t^4 through t = -2..2
        a0 = f[2]
        a1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / 12.0
        a2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / 24.0
        a3 = (-f[0] + 2.0 * f[1] - 2.0 * f[3] + f[4]) / 12.0
        a4 = (f[0] - 4.0 * f[1] + 6.0 * f[2] - 4.0 * f[3] + f[4]) / 24.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # the root of a0 + a1 t + a2 t^2 nearer 0, without cancellation
            disc = np.sqrt(a1 * a1 - 4.0 * a2 * a0)
            disc = np.where((np.conj(a1) * disc).real < 0.0, -disc, disc)
            t = -2.0 * a0 / (a1 + disc)
            for _ in range(4):
                t = t - (a0 + t * (a1 + t * (a2 + t * (a3 + t * a4)))) / (
                    a1 + t * (2.0 * a2 + t * (3.0 * a3 + t * 4.0 * a4)))
        found = np.isfinite(t) & (np.abs(t) < 2.0)
        t = np.where(found, t, 0.0)
        points.append(radii[rows][row] * np.exp(1j * step * (j + t)))
        depths.append(np.where(found, step * np.abs(t.imag), np.inf))
    if not points:
        return np.zeros(0, dtype=complex), np.zeros(0), rowmaxes, deads
    return np.concatenate(points), np.concatenate(depths), rowmaxes, deads


def horner(coeffs, z):
    """f(z) for the coefficients c_0..c_N, exact at every point rather than
    only at roots of unity.

    One pass over the nonzero coefficients, vectorised over the points, so
    a sparse series costs its support: O(N) per point at most.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    support = np.nonzero(coeffs)[0][::-1]
    value = np.full(z.shape, coeffs[support[0]] if support.size else 0.0j)
    for top, k in zip(support[:-1], support[1:]):
        value = value * z ** int(top - k) + coeffs[k]
    return value * z ** int(support[-1]) if support.size else value


def _abs_power(values, p, out=None):
    """|values| ** p, into ``out`` if given, with cheap paths for the common
    exponents; every step after the modulus works in place."""
    out = np.abs(values, out=out)
    if p == 1.0:
        return out
    if p == 0.5:
        return np.sqrt(out, out=out)
    if p == 2.0:
        return np.square(out, out=out)
    frac, whole = math.modf(0.5 * p)
    if frac == 0.0 and whole <= 8:
        np.square(out, out=out)
        return out if whole == 1 else np.power(out, int(whole), out=out)
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
    """Truncated binomial expansion of (1 - lam z)^(-s)."""
    n = np.arange(degree + 1, dtype=float)
    log_c = gammaln(n + s) - gammaln(s) - gammaln(n + 1.0)
    return TaylorSeries(np.exp(log_c + n * math.log(lam)).astype(complex))


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
