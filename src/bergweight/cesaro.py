"""Smooth cutoffs and the polynomial block basis they generate.

``make_cutoff(k)`` builds a C-infinity transition that is 1 left of 1 and 0
right of k.  From it, ``build_basis`` assembles polynomial blocks whose
coefficients form a partition of unity over 0..N: block 0 covers indices
below k, block n covers [k^(n-1), k^(n+1)).  Convolving a series against the
blocks (``block``) slices it into frequency bands that reconstruct the
series exactly.

The seminorm's derivative order is a free diagnostic parameter; the basis
itself is built the same way for every integrability exponent it is later
used with (theory couples the two only inside proof constants).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceError
from .series import TaylorSeries, hadamard, integer

MAX_DERIVATIVE_ORDER = 4
_BASIS_COEFF_BUDGET = 50_000_000


def _transition(s):
    """exp(-1/s) glue: 0 at s <= 0, 1 at s >= 1, smooth and increasing."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        g = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        g1 = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return g / (g + g1)


class SmoothCutoff:
    """The canonical bump: 1 on (-inf, 1], 0 on [k, inf), decreasing between."""

    def __init__(self, k):
        if not (k >= 2 and float(k).is_integer()):
            raise DomainError(f"cutoff parameter k must be an integer >= 2, got {k!r}")
        self.k = int(k)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inner = _transition((self.k - t) / (self.k - 1.0))
        return np.where(t <= 1.0, 1.0, np.where(t >= self.k, 0.0, inner))

    def psi(self, t):
        """The band function psi(t) = cutoff(t/k) - cutoff(t)."""
        return self(np.asarray(t, dtype=float) / self.k) - self(t)

    @property
    def support(self):
        return (0.0, float(self.k))

    @property
    def psi_support(self):
        return (1.0, float(self.k * self.k))


def make_cutoff(k):
    return SmoothCutoff(k)


def nth_derivative(fn, m, xs, step):
    """m-fold nested central difference of ``fn`` on the points ``xs``."""
    xs = np.asarray(xs, dtype=float)
    if m == 0:
        return np.asarray(fn(xs), dtype=float)
    lower = nth_derivative(fn, m - 1, xs + step, step)
    upper = nth_derivative(fn, m - 1, xs - step, step)
    return (lower - upper) / (2.0 * step)


def cutoff_seminorm(fn, m, support=None, grid_points=4001):
    """max |fn| + m * max |fn^(m)| over the (slightly padded) support.

    ``fn`` may be a :class:`SmoothCutoff` (its own support is used) or any
    callable together with an explicit ``support`` interval.  Derivatives
    come from nested order-2 central differences with step 1e-3 of the
    support width; m is capped at 4 because the seminorm is diagnostic only.
    """
    if m < 0 or int(m) != m:
        raise DomainError(f"derivative order must be a nonnegative integer, got {m!r}")
    if m > MAX_DERIVATIVE_ORDER:
        raise DomainError(f"derivative order capped at {MAX_DERIVATIVE_ORDER}, got {m}")
    if isinstance(fn, SmoothCutoff):
        lo, hi = fn.support if support is None else support
    elif support is not None:
        lo, hi = support
    else:
        raise DomainError("a plain callable needs an explicit support interval")
    if not hi > lo:
        raise DomainError(f"empty support interval ({lo}, {hi})")
    width = hi - lo
    pad = 0.05 * width
    xs = np.linspace(lo - pad, hi + pad, grid_points)
    value = float(np.max(np.abs(np.asarray(fn(xs), dtype=float))))
    if m == 0:
        return value
    step = 1e-3 * width
    deriv = nth_derivative(fn, m, xs, step)
    return value + m * float(np.max(np.abs(deriv)))


class CesaroBasis:
    """Blocks V_0..V_M for one k; coefficients partition unity up to N."""

    def __init__(self, k, n_top, blocks):
        self.k = k
        self.n_top = n_top
        self.blocks = blocks

    @property
    def block_count(self):
        return len(self.blocks)

    @property
    def top_index(self):
        return len(self.blocks) - 1

    def coefficient(self, n, j):
        """Coefficient j of block n."""
        blk = self.blocks[n]
        return float(blk.coeffs[j].real) if j < len(blk) else 0.0

    def coefficient_sums(self, up_to):
        """Sum over blocks of coefficient j, for j = 0..up_to."""
        out = np.zeros(up_to + 1)
        for blk in self.blocks:
            m = min(up_to + 1, len(blk))
            out[:m] += blk.coeffs[:m].real
        return out

    def rows(self):
        out = []
        for n, blk in enumerate(self.blocks):
            for j in blk.support():
                out.append([n, int(j), float(blk.coeffs[j].real)])
        return out

    def header(self):
        return ["n", "j", "coefficient"]

    def to_json_dict(self):
        return {
            "kind": "cesaro-basis",
            "k": self.k,
            "N": self.n_top,
            "blocks": [
                {"n": n, "j": [int(j) for j in blk.support()],
                 "coefficient": [float(blk.coeffs[j].real) for j in blk.support()]}
                for n, blk in enumerate(self.blocks)
            ],
        }

    @property
    def verdict_line(self):
        return f"cesaro basis k={self.k} N={self.n_top}: {self.block_count} blocks"

    @property
    def passed(self):
        return None


def block_span(k, n_top):
    """Number of blocks M+1 with k^M > N, per M = ceil(log_k N) + 1."""
    if n_top < 1:
        raise DomainError(f"truncation degree must be >= 1, got {n_top}")
    return int(math.ceil(math.log(n_top) / math.log(k) - 1e-12)) + 1


def build_basis(k, n_top):
    """Assemble the blocks for cutoff parameter k and truncation degree N."""
    cut = make_cutoff(k)
    m_top = block_span(k, n_top)
    if k ** (m_top + 1) > _BASIS_COEFF_BUDGET:
        raise ResourceError(
            f"basis for k={k}, N={n_top} needs ~{k ** (m_top + 1)} coefficients"
        )
    blocks = [TaylorSeries(cut(np.arange(k)).astype(complex))]
    for n in range(1, m_top + 1):
        lo = k ** (n - 1)
        hi = k ** (n + 1)  # exclusive
        j = np.arange(lo, hi)
        coeffs = np.zeros(hi, dtype=complex)
        coeffs[lo:] = cut.psi(j / float(lo))
        blocks.append(TaylorSeries(coeffs))
    return CesaroBasis(k, n_top, blocks)


def block(f, basis, n):
    """The n-th band of f: Hadamard product with block n."""
    n = integer(n, "block index")
    if not (0 <= n <= basis.top_index):
        raise DomainError(f"block index {n} outside 0..{basis.top_index}")
    return hadamard(basis.blocks[n], f)
