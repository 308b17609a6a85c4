"""Integral means on circles, Hardy norms of polynomials, and weighted norms.

Every circle mean first factors f = z^a h(z^g) (a the first nonzero index,
g the gcd of the support's gaps); M_p^p(r, f) = r^(ap) M_p^p(r^g, h) is
exact, so only h is sampled, on grids sized by its degree: a monomial is one
coefficient.  At every even p = 2m, |h|^p = |h^m|^2, so the circle integral
is Parseval's sum M_p^p(r, h) = sum |b_n|^2 r^(2n) over the coefficients b
of h^m, taken without sampling while m deg h < CIRCLE_Q_CAP (at p = 2
always).  Otherwise it is a trapezoid sum over roots-of-unity samples,
doubling the sample count until the value settles and computing only the
new samples of each doubled grid.

At other exponents |f|^p is analytic on the circle |z| = r only away
from f's zeros, and the trapezoid rule's error decays like e^(-q d), d the
log distance from the circle to the nearest zero (Trefethen and Weideman,
SIAM Review 56 (2014)).  So after the first pass the zeros of h near each
circle that is unsettled, or whose samples dip toward a zero, are located
(Newton steps from the dips of |h| among the first pass's samples): with a
zero on the circle the q and q/2 means can agree by chance while both are
far off.  Each zero within a fraction of a step gets a window phi, a few
grid steps wide with erf edges: |h|^p = (1 - sum phi) |h|^p + sum phi |h|^p.
The erf is Cody's rational one, taken once per angle and only where it is
not +-1 in doubles.  The first part keeps the FFT trapezoid and its
doubling, which no longer sees the zeros; each window's part is integrated
by Gauss panels graded toward its zeros, with h evaluated directly.  Radii
without a near zero keep the plain doubling, and no circle on the ladder
settles before the grid outruns the nearest zero found outside its
windows, so that the last two grids cannot agree by chance either.

Every batched kernel of these means works in blocks of about
``series.BLOCK_ENTRIES`` entries (1 MiB, L2-sized): the circle samples and
their powers, the coefficient brackets, the Taylor tables, and the windows'
masks, circle-to-zero distances and Gauss nodes.  The brackets' power
tables, built before the first pass, and the Taylor tables' powers of each
center, built after it, go into the sampling workspace, which is idle then;
the Taylor tables' matrix products stay small enough for OpenBLAS to run
them on the calling thread.  No block's samples outlive it: of each circle
the search may need, the first pass keeps only the dips of |h| and the five
samples around each, in single precision.

Radial integrals ride on the weight's own quadrature rule, which carries
its unresolved boundary mass as an atom at r = 1 so that polynomials (whose
integral means extend continuously to the boundary) are integrated without
truncation bias; the r = 1 circle is sampled to the same mass-weighted
budget as the nodes.  Bounds on each mean from the coefficients alone
settle the radii whose mass is too small for the bounds' spread to matter,
without sampling them.

At even p nothing samples a circle or builds an order-GL_ORDER rule either:
a Bergman norm is ||f||^p = 2 sum_n |b_n|^2 m_n over the weight's odd
moments m_n (``RadialWeight.odd_moments``, refused from its first entry
below the normal double range, where a rule's table ends), and at p = 2 a
block norm is sum_n eta_{k^n} sum_j |v_n(j) c_j|^2, with the squares
|v_n(j)|^2 kept next to the cached basis.

For 0 < p < 1 the same formulas define quasi-norms; nothing here relies on
a triangle inequality, so the full exponent range is handled uniformly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .series import (
    CIRCLE_DOUBLING_TOL,
    _abs_power,
    circle_power_means,
    dip_roots,
    flushed,
    horner,
    parseval_means,
)
from .weights import dcheck_margin, normal_odd_moments
from .quadrature import cell_nodes
from . import cesaro, series

CIRCLE_Q_CAP = 1 << 20
#: least circle points per coefficient of h on the base grid of a mean.
Q_OVERSAMPLE = 4
#: Gauss order of the radial rules behind the Bergman and block-sum integrals.
GL_ORDER = 8
#: erf width e of a zero window's edges, in steps 2 pi / q of the base grid;
#: on a grid of Q points the trapezoid rule misses about e^(-(Q e)^2 / 4) of
#: what a window holds, a ratio of 1e-17 from Q = 16 q on
WINDOW_EDGE = 1.0 / 8.0
#: a window stays within erfc(6) / 2 ~ 1e-17 of 1 out to this many edge widths
#: past its outermost zeros, and ends as many edge widths further out; at
#: least ERF_ONE_FROM, so that no angle sits on both of a window's edges
WINDOW_REACH = 6.0
#: zeros whose log modulus lies within this many edge widths of a radius get a
#: window; the ladder resolves farther ones as it did before windows
ZERO_BAND = 0.5
#: grid steps that the first check's three-point estimate of a zero's depth
#: behind a dip may add to it (up to 0.38 seen on random polynomials of degree
#: 1 to 64); circles with a dip within ZERO_BAND edge widths and this many steps
#: are searched for zeros even when their q and q/2 means agree
DIP_SLACK = 0.5
#: a circle on the ladder settles only on grids of q points with q d at least
#: this, d the log distance to the nearest zero found outside its band: the
#: trapezoid error from that zero then shrinks by e^(-q d) <= 3.5e-6 a
#: doubling, so the last two grids cannot agree by chance while it is large
ZERO_CLEARANCE = 4.0 * math.pi
#: Gauss panels toward each zero widen by this ratio, from the zero's depth
#: (at least 1e-15) up to 4 edge widths
PANEL_RATIO = 4.0
PANEL_ORDER = 16
#: terms of the Taylor expansions that evaluate h inside the windows
TAYLOR_TERMS = 24
#: most multiply-adds of a matrix product that OpenBLAS runs on the calling
#: thread alone (its default 65536 times GEMM_MULTITHREAD_THRESHOLD = 4); a
#: larger one wakes its worker threads, whose spinning afterwards costs more
#: process CPU than they save (a fractional-p lp-sweep spent a third of it so)
SINGLE_THREAD_PRODUCT = 1 << 18
#: from this |x| on, erf(x) rounds to +-1 in doubles (erfc(6) ~ 2e-17)
ERF_ONE_FROM = 6.0
# W. J. Cody's rational erf (Math. Comp. 23 (1969)), coefficients in Horner
# order: erf(x) = x P(x^2) / Q(x^2) for |x| <= _ERF_SMALL and 1 - e^(-x^2)
# R(|x|), R = C / D, beyond.  R is made for |x| <= 4, yet stays within 1e-12
# relative of erfc(y) e^(y^2) out to y = 6, where that error is 1e-29 absolute
_ERF_SMALL = 0.46875
_ERF_P = (1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3)
_ERF_Q = (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
          2.84423683343917062e3)
_ERF_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
          6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
          1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3)
_ERF_D = (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
          1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
          3.43936767414372164e3, 1.23033935480374942e3)


class NormSettings:
    """Circle-sampling profile: ``_power_means`` starts h on ``q_for(deg h)``
    points, except at the even p that take Parseval's sum of h^(p/2).

    Every norm passes DEFAULT_SETTINGS; the argument stays because
    ``bench/tracing.py`` reads the base grid from it.
    """

    def q_for(self, degree):
        """Smallest power of two >= Q_OVERSAMPLE * (degree + 1)."""
        target = Q_OVERSAMPLE * (max(degree, 0) + 1)
        return 1 << max(0, math.ceil(math.log2(target)))


DEFAULT_SETTINGS = NormSettings()


def _ratio(y, num, den):
    """num(y) / den(y) for the coefficient tuples num and den, Horner order."""
    top, bottom = np.full(y.shape, num[0]), np.full(y.shape, den[0])
    for a, b in zip(num[1:], den[1:]):
        top *= y
        top += a
        bottom *= y
        bottom += b
    return np.divide(top, bottom, out=top)


def _erf(x):
    """erf at each entry of the array x, within 4e-16 of it, and exactly +-1
    from |x| = ERF_ONE_FROM on.

    Every entry takes the erfc form at min(|x|, ERF_ONE_FROM), where
    1 - erfc rounds to 1, and those with |x| <= _ERF_SMALL are redone in the
    other form: the windows' angles nearly all have |x| < ERF_ONE_FROM, and
    picking out the others would cost more than the rational takes on them.
    """
    y = np.minimum(np.abs(x), ERF_ONE_FROM)
    erfc = _ratio(y, _ERF_C, _ERF_D)
    erfc *= np.exp(-(y * y))
    out = np.copysign(np.subtract(1.0, erfc, out=erfc), x)
    small = np.nonzero(y <= _ERF_SMALL)
    t = x[small]
    out[small] = t * _ratio(t * t, _ERF_P, _ERF_Q)
    return out


def _taylor(h, centers):
    """Taylor coefficients of h about each center c, scaled to deg h = n:
    h(c (1 + w)) = sum_j b_j (n w)^j, j < TAYLOR_TERMS, as (j, center) rows.

    b_j = n^-j sum_k C(k, j) h_k c^k.  Within |n w| <= 1 the dropped terms
    are below (n + 1) max_k |h_k c^k| / TAYLOR_TERMS!, so a point costs
    TAYLOR_TERMS steps instead of n.
    """
    n = h.size - 1
    # C(k, j) n^-j = prod_{i <= j} (k - i + 1) / (i n), zero from j = k + 1 on
    j = np.arange(1, TAYLOR_TERMS)
    binom = np.ones((n + 1, TAYLOR_TERMS))
    binom[:, 1:] = np.maximum(np.arange(n + 1.0)[:, None] - j + 1.0, 0.0) / (j * float(n))
    np.cumprod(binom, axis=1, out=binom)
    out = np.empty((TAYLOR_TERMS, centers.size), dtype=complex)
    # blocks of the working-set budget whose products stay on this thread
    chunk = max(1, min(series.BLOCK_ENTRIES, SINGLE_THREAD_PRODUCT // TAYLOR_TERMS) // (n + 1))
    for start in range(0, centers.size, chunk):
        part = slice(start, start + chunk)
        # the sampling workspace is idle once the first pass is done
        turns, _ = series._workspace(centers[part].size, n + 1)
        turns[:, 0] = 1.0
        turns[:, 1:] = centers[part, None]
        np.cumprod(turns, axis=1, out=turns)
        turns *= h
        # two real products: a complex one has a large fixed cost here
        out[:, part] = (turns.real @ binom + 1j * (turns.imag @ binom)).T
    return out


def _near_zeros(h, rho, circles, dips, q):
    """Zeros of h within ZERO_BAND edge widths (in log modulus) of some
    circle of radius ``rho[circles]``, from ``dips``, pieces (row, j,
    stencils) of the ``series.dip_stencils`` of circles' samples h / rowmax
    on the size-q grid, row an index into ``rho``.

    Circles in one quarter-step cell of log modulus form a cluster, and only
    its middle circle is searched, with the band widened by the cluster's
    half-width.  Each of its dips gives the two roots of ``dip_roots``; the
    roots that may lie in the band, merged when nearby circles give the
    same one, are polished by Newton steps on h's Taylor expansion about
    them.  Zeros the search misses are left to the doubling ladder.
    """
    step = 2.0 * np.pi / q
    band, cell = ZERO_BAND * WINDOW_EDGE * step, 0.25 * step
    log_rho = np.log(rho[circles])
    order = np.argsort(log_rho, kind="stable")
    _, first, count = _groups(np.floor(log_rho[order] / cell))
    last = first + count - 1
    middle = order[(first + last) // 2]
    half = np.maximum(log_rho[order[last]] - log_rho[middle],
                      log_rho[middle] - log_rho[order[first]])
    # the roots of the dips of each cluster's middle circle, piece by piece
    middle = circles[middle]
    cluster = np.full(rho.size, -1)
    cluster[middle] = np.arange(middle.size)
    starts = [np.zeros(0, dtype=complex)]
    for row, j, stencils in dips:
        row = cluster[row]
        mine = row >= 0
        if not mine.any():
            continue
        t = dip_roots(stencils[:, mine])
        row, j = np.tile(row[mine], 2), np.tile(j[mine], 2)
        # the dips overstate depths by up to a quarter step
        keep = (np.isfinite(t) & (np.abs(t) < 2.0)
                & (step * np.abs(t.imag) < band + 0.3 * step + half[row]))
        starts.append(rho[middle][row[keep]] * np.exp(1j * step * (j[keep] + t[keep])))
    starts = np.concatenate(starts)
    # starts from nearby circles fall in the same quarter-step cell
    z = np.exp(np.unique(np.round(np.log(starts) / cell)) * cell)
    if not z.size:
        return z
    n = h.size - 1
    taylor, v = _taylor(h, z), np.zeros(z.size, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(12):
            value, slope = taylor[-1], np.zeros_like(v)
            for b in taylor[-2::-1]:
                slope = slope * v + value
                value = value * v + b
            move = value / slope
            v = v - move
            if not np.any(np.abs(move) > 1e-12 * np.abs(n + v)):
                break
        # a root of the expansion is one of h where the expansion holds, |n w| <= 1
        found = np.isfinite(v) & (np.abs(v) <= 1.0) & (np.abs(move) <= 1e-12 * np.abs(n + v))
    z = z[found] * (1.0 + v[found] / n)
    _, first = np.unique(np.round(np.log(z) * 1e10), return_index=True)
    return z[first]


def _groups(keys):
    """Runs of equal values in the sorted ``keys``: each entry's run, and the
    runs' first indices and lengths."""
    first = np.flatnonzero(np.diff(keys, prepend=np.nan))
    count = np.diff(np.append(first, keys.size))
    return np.repeat(np.arange(first.size), count), first, count


class _ZeroWindows:
    """Windows phi around the zeros of h near the circles the ladder has not
    settled, and the integrals of phi |h|^p over them.

    M_p^p(r) = mean (1 - sum phi) |h|^p + sum mean phi |h|^p.  The first part
    has no near zero left: the FFT trapezoid and its ladder keep it, with the
    window samples masked out.  Each window's part is integrated by Gauss
    panels graded toward its zeros, with h evaluated directly.  Windows are
    erf steps of width WINDOW_EDGE steps of the base grid;
    zeros whose windows would overlap share one.  Means are in units of
    rowmax^p, as ``circle_power_means`` computes them before scaling.
    """

    def __init__(self, h, rho, p, q, search, rowmax, zeros):
        """Windows for the circles ``rho[search]``, of row maxima ``rowmax``,
        around the ``zeros`` of h near them; q is the base grid.  ``clear``
        is each circle's log distance to the nearest of the zeros outside
        its band, inf where there is none."""
        self.h, self.rho, self.p = h, rho, p
        self.rowmax = np.ones(rho.size)
        self.rowmax[search] = rowmax
        self.integral = np.zeros(rho.size)
        self.edge = WINDOW_EDGE * 2.0 * np.pi / q
        band, reach = ZERO_BAND * self.edge, WINDOW_REACH * self.edge
        log_zeros, log_rho = np.log(np.abs(zeros)), np.log(rho[search])
        # (circle, zero) pairs within the band, and each circle's log distance
        # to the nearest zero found outside it, over blocks of circles whose
        # table of distances keeps within the working-set budget
        self.clear = np.full(rho.size, np.inf)
        circle, zero = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        chunk = max(1, series.BLOCK_ENTRIES // max(zeros.size, 1))
        for start in range(0, search.size, chunk):
            depth = np.abs(log_zeros[None, :] - log_rho[start : start + chunk, None])
            near = depth < band
            if zeros.size:
                self.clear[search[start : start + chunk]] = np.min(
                    np.where(near, np.inf, depth), axis=1)
            pair = np.nonzero(near)
            circle.append(pair[0] + start)
            zero.append(pair[1])
        circle, zero = np.concatenate(circle), np.concatenate(zero)
        # by circle and then by angle
        angles = np.mod(np.angle(zeros[zero]), 2.0 * np.pi)
        order = np.lexsort((angles, circle))
        circle, angles = circle[order], angles[order]
        depths = np.abs(log_zeros[zero] - log_rho[circle])[order]
        group, first, count = _groups(circle)
        last = first + count - 1
        gaps = np.append(angles[1:], 0.0) - angles
        gaps[last] = angles[first] + 2.0 * np.pi - angles[last]
        # windows that would cover half the circle: the ladder is cheaper there
        cover = np.bincount(group, np.minimum(gaps, 4.0 * reach), first.size)
        keep = (cover <= np.pi)[group]
        circle, angles, depths, gaps = circle[keep], angles[keep], depths[keep], gaps[keep]
        if not circle.size:
            self.owner = np.zeros(0, dtype=int)
            return
        # open each circle at its widest gap, then cut it wherever windows part
        group, first, count = _groups(circle)
        index = np.arange(circle.size)
        widest = np.maximum.reduceat(gaps, first)[group]
        start = np.minimum.reduceat(np.where(gaps == widest, index, circle.size), first) + 1
        wrapped = index < start[group]
        position = first[group] + np.mod(index - start[group], count[group])
        angles[position] = angles + np.where(wrapped, 2.0 * np.pi, 0.0)
        depths[position] = depths.copy()
        parts = np.diff(angles, prepend=-np.inf) > 4.0 * reach
        parts[first] = True
        self.owner = search[circle[parts]]
        self.lo = angles[parts] - 2.0 * reach
        self.hi = angles[np.append(parts[1:], True)] + 2.0 * reach
        self.scale = np.zeros(rho.size)
        self.scale[self.owner] = self.rowmax[self.owner] ** p
        # a series with fewer terms than an expansion is evaluated as it is
        self.taylor = self._expand() if np.count_nonzero(h) > TAYLOR_TERMS else None
        self.integral = self._integrals(np.cumsum(parts) - 1, angles, depths)

    def __len__(self):
        return self.owner.size

    def _phi(self, k, theta):
        """Windows k at the angles theta: (erf(u) - erf(v)) / 2, u and v the
        angles' offsets in edge widths from the rising and the falling edge.

        The edges lie at least 2 WINDOW_REACH >= 2 ERF_ONE_FROM edge widths
        apart, so at most one of erf(u), erf(v) is not exactly +-1, and the
        window is (1 - erf(max(-u, v))) / 2: one erf per angle."""
        reach = WINDOW_REACH * self.edge
        minus_u = (self.lo[k] - theta + reach) / self.edge
        v = (theta - self.hi[k] + reach) / self.edge
        return 0.5 * (1.0 - _erf(np.maximum(minus_u, v, out=minus_u)))

    def _expand(self):
        """``_taylor`` of h / rowmax about centers 2 / n apart along each
        window (n = deg h), so every window point has |nt| <= 1 about one."""
        n = self.h.size - 1
        self.spacing = 2.0 / n
        counts = np.ceil((self.hi - self.lo) / self.spacing).astype(int)
        self.first_center = np.cumsum(counts) - counts
        k = np.repeat(np.arange(len(self)), counts)
        angle = self.lo[k] + (np.arange(k.size) - self.first_center[k] + 0.5) * self.spacing
        r = self.owner[k]
        return _taylor(self.h, self.rho[r] * np.exp(1j * angle)) / self.rowmax[r]

    def _values(self, k, theta):
        """h / rowmax at the angles theta of windows k."""
        r = self.owner[k]
        if self.taylor is None:
            return horner(self.h, self.rho[r] * np.exp(1j * theta)) / self.rowmax[r]
        last = np.ceil((self.hi[k] - self.lo[k]) / self.spacing).astype(int) - 1
        m = np.clip(((theta - self.lo[k]) / self.spacing).astype(int), 0, last)
        t = theta - self.lo[k] - (m + 0.5) * self.spacing
        # w = e^{it} - 1 without cancellation, in units of 1 / n
        v = (-2.0 * np.sin(0.5 * t) ** 2 + 1j * np.sin(t)) * (self.h.size - 1)
        center = self.first_center[k] + m
        out = self.taylor[-1][center]
        for b in self.taylor[-2::-1]:
            out *= v
            out += b[center]
        return out

    def _integrals(self, zero_of, angles, depths):
        """Per radius, the sum of its windows' (1 / 2 pi) int phi |h / rowmax|^p.

        Panels are at most 4 edge widths long, which order-16 Gauss resolves
        on the erf steps, and are graded by PANEL_RATIO toward each zero from
        4 edge widths down to the zero's depth: each panel then sees the
        zero at least as far off as its own width.
        """
        width = 4.0 * self.edge
        parts = np.ceil((self.hi - self.lo) / width).astype(int)
        k = np.repeat(np.arange(len(self)), parts + 1)
        m = np.arange(k.size) - np.repeat(np.cumsum(parts + 1) - parts - 1, parts + 1)
        cuts = self.lo[k] + (self.hi[k] - self.lo[k]) * m / parts[k]
        inner = np.maximum(depths, 1e-15)
        levels = np.ceil(np.log(width / inner) / np.log(PANEL_RATIO)).astype(int)
        zk = np.repeat(np.arange(angles.size), levels)
        offsets = inner[zk] * PANEL_RATIO ** (np.arange(zk.size)
                                              - np.repeat(np.cumsum(levels) - levels, levels))
        k = np.concatenate([k, zero_of[zk], zero_of[zk]])
        cuts = np.concatenate([cuts, angles[zk] - offsets, angles[zk] + offsets])
        order = np.lexsort((cuts, k))
        k, cuts = k[order], cuts[order]
        panel = (k[1:] == k[:-1]) & (cuts[1:] > cuts[:-1])
        k, lo, hi = k[:-1][panel], cuts[:-1][panel], cuts[1:][panel]
        sums = np.empty(k.size)
        # blocks of panels keep the nodes and the integrand's temporaries, a
        # dozen or so arrays a node, within the working-set budget
        chunk = max(1, (series.BLOCK_ENTRIES >> 4) // PANEL_ORDER)
        for start in range(0, k.size, chunk):
            part = slice(start, start + chunk)
            theta, weights = cell_nodes(lo[part], hi[part], PANEL_ORDER)
            nodes, theta = np.repeat(k[part], PANEL_ORDER), theta.ravel()
            terms = weights.ravel() * self._phi(nodes, theta) * _abs_power(
                self._values(nodes, theta), self.p)
            sums[part] = np.sum(terms.reshape(-1, PANEL_ORDER), axis=1)
        return np.bincount(self.owner[k], weights=sums, minlength=self.rho.size) / (2.0 * np.pi)

    def mask(self, q, rows, half_step=False):
        """The windows of the circles ``rows`` on the size-q grid (or on its
        half-step turn) as a ``circle_power_means`` mask: a function of a
        block's slice of ``rows`` that returns that block's part.  Parts of
        consecutive blocks are built together, at least a sixteenth of
        BLOCK_ENTRIES samples at a time (a sample takes a dozen or so
        arrays), so that blocks asked for in order mostly find theirs built."""
        shift = 0.5 if half_step else 0.0
        step = 2.0 * np.pi / q
        position = np.full(self.rho.size, -1)
        position[rows] = np.arange(rows.size)
        at = position[self.owner]
        # the windows by circle, in their own order within a circle
        windows = np.argsort(at, kind="stable")
        windows = windows[at[windows] >= 0]
        at = at[windows]
        first = np.ceil(self.lo[windows] / step - shift).astype(int)
        count = np.floor(self.hi[windows] / step - shift).astype(int) - first + 1
        offsets = np.append(0, np.cumsum(count))
        built = [0, 0, (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]

        def block(part):
            lo, hi = np.searchsorted(at, [part.start, part.stop])
            if lo < built[0] or hi > built[1]:
                top = max(hi, np.searchsorted(offsets, offsets[lo] + (series.BLOCK_ENTRIES >> 4),
                                              side="right") - 1)
                k = np.repeat(windows[lo:top], count[lo:top])
                j = np.arange(k.size) - np.repeat(offsets[lo:top] - offsets[lo] - first[lo:top],
                                                  count[lo:top])
                built[:] = lo, top, (np.repeat(at[lo:top], count[lo:top]), j % q,
                                     self._phi(k, (j + shift) * step))
            a, b = offsets[lo] - offsets[built[0]], offsets[hi] - offsets[built[0]]
            row, col, weight = built[2]
            return row[a:b] - part.start, col[a:b], weight[a:b]

        return block


def _check_representable(values, radii, p):
    """Refuse means that overflowed: max |f|^p past the double range."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        raise DomainError(
            f"M_p^p at p = {p!r} overflows double precision on the circle of radius "
            f"{float(radii[bad][0])!r}; max |f|^p is beyond 1.8e308"
        )


def _bracket(coeffs, radii, p):
    """Bounds below and above on M_p^p(r, h) from the coefficients of h
    alone: |h_0|^p, since |h|^p is subharmonic, and the Parseval mean to the
    power p/2 for p <= 2 (power means grow with their exponent) or
    (sum_k |h_k| r^k)^p, a bound on max |h|, for p > 2.  Bounds past the
    double range come out inf or nan."""
    absc = np.abs(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        # the upper bound's sum_k w_k s^k, over blocks of radii whose table
        # of powers s^k keeps within the working-set budget
        weights, base = (absc**2, radii**2) if p <= 2.0 else (absc, radii)
        sums = np.empty(radii.size)
        chunk = max(1, series.BLOCK_ENTRIES // absc.size)
        for start in range(0, radii.size, chunk):
            rows = slice(start, start + chunk)
            # in the sampling workspace, idle until the first pass
            _, powers = series._workspace(base[rows].size, absc.size)
            powers[:, 0] = 1.0
            powers[:, 1:] = base[rows, None]
            np.cumprod(powers, axis=1, out=powers)
            sums[rows] = powers @ weights
        return np.full(radii.size, absc[0] ** p), sums ** (0.5 * p if p <= 2.0 else p)


def _settled_by_bracket(lower, upper, masses):
    """The radii that may take their bracket's midpoint.

    A radius of mass m whose bracket has half-width e moves the
    mass-weighted sum by at most m e at its midpoint; the radii with the
    smallest moves take it while those moves add up to at most 1e-11 of the
    sum of mass times the lower bound.  Bounds that overflow settle nothing.
    """
    with np.errstate(invalid="ignore"):
        move = 0.5 * masses * np.abs(upper - lower)
        allowed = 1e-11 * float(np.dot(masses, lower))
    settled = np.zeros(move.size, dtype=bool)
    if math.isfinite(allowed):
        order = np.argsort(move)
        settled[order] = np.cumsum(move[order]) <= allowed
    return settled


def _factored(coeffs, degree):
    """(a, g, h) with f = z^a h(z^g), for f's coefficients up to ``degree``: a
    the first nonzero index and g the gcd of the support's gaps."""
    coeffs = np.asarray(coeffs, dtype=complex)[: degree + 1]
    support = np.nonzero(coeffs)[0]
    g = max(1, int(np.gcd.reduce(support - support[0])))
    return int(support[0]), g, coeffs[support[0] :: g]


def _parseval_order(p, degree):
    """m = p / 2 where p is even and f^m, of degree m ``degree``, has at most
    CIRCLE_Q_CAP terms (at p = 2 always), else 0: |f|^p = |f^m|^2 then."""
    return int(p) // 2 if p % 2 == 0 and (p == 2.0 or p // 2 * degree < CIRCLE_Q_CAP) else 0


def _power(h, m):
    """h^m by binary powering with direct convolution, whose terms keep their
    own scale (an FFT product errs by about eps max |h|^m on every one)."""
    out = h
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the callers
        for bit in bin(m)[3:]:
            out = np.convolve(out, out)
            if bit == "1":
                out = np.convolve(out, h)
    return out


def _power_means(coeffs, radii, p, degree, settings, masses=None):
    """M_p^p at each radius.

    Every path samples h of f = z^a h(z^g) at radii r^g and lifts the means
    by r^(ap): phi = g theta makes h's size-q grid (or its half-step turn)
    f's size-gq grid (or its turn).  The stopping rule and budgets judge the
    lifted means, and a radius flushes to 0 by f's row maximum
    r^a max_k |h_k| r^(gk), as it would unreduced.

    Even p = 2m are Parseval's sum over the coefficients of h^m
    (``_parseval_order``), and ignore ``masses``.  At other exponents
    ``masses`` (same shape as ``radii``), the quadrature mass each radius
    carries, lets a radial quadrature spend samples where its weights
    actually look: the radii that ``_settled_by_bracket`` picks take the
    midpoint of their ``_bracket`` and get no samples, and the others get a
    per-radius absolute budget of 1e-11 of the mass-weighted total over
    their mass on top of the relative rule.  The sample count doubles until
    the value settles.  The first check compares the mean over the q
    samples with the mean over their even-indexed half, which is the q/2
    grid; each doubling q -> 2q samples only the q new odd points and
    averages them in, so no sample is computed twice.  Radii the first
    check leaves unsettled, or (without ``masses``) whose samples dip toward
    a zero, get a ``_ZeroWindows`` from the dips the first pass keeps: the means
    of those with windows become the masked trapezoid means plus the window
    integrals, and they join the unsettled ones on the ladder.  A radius
    cannot settle while what the grid may still miss of its windows exceeds
    1e-2 of its budget, nor (without ``masses``) while q d < ZERO_CLEARANCE,
    d the log distance to the nearest zero found outside its windows.
    Unsettled radii keep doubling up to the cap.
    """
    a, g, coeffs = _factored(coeffs, degree)
    degree = coeffs.size - 1
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    lead, radii = radii**a, radii**g
    lift = np.where(flushed(coeffs, radii, lead), 0.0, lead**p)
    m = _parseval_order(p, degree)
    if m:
        with np.errstate(invalid="ignore"):  # inf or nan past the double range
            values = lift * parseval_means(_power(coeffs, m), radii)
        _check_representable(values, radii ** (1.0 / g), p)
        return values
    values = np.zeros(radii.size)
    sample = np.arange(radii.size)
    if masses is not None:
        lower, upper = _bracket(coeffs, radii, p)
        with np.errstate(invalid="ignore"):
            lower, upper = lift * lower, lift * upper
        settled = _settled_by_bracket(lower, upper, masses)
        values[settled] = 0.5 * (lower[settled] + upper[settled])
        sample = sample[~settled]
        if not sample.size:
            return values
    q = settings.q_for(degree)
    # budgeted means skip the guards against chance agreements near zeros
    # (the dip search and ZERO_CLEARANCE), which would cost a fractional-p
    # Bergman norm about 40% more: their budgets are left to absorb them
    guarded = masses is None
    dip_depth = ZERO_BAND * WINDOW_EDGE + DIP_SLACK if guarded else 0.0
    means, coarse, (kept, rowmax, dips, stencils) = circle_power_means(
        coeffs, radii[sample], p, q, even=True, dip_depth=dip_depth)
    values[sample] = lift[sample] * means
    _check_representable(values, radii ** (1.0 / g), p)
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

    unsettled = np.abs(values[sample] - lift[sample] * coarse) > budget(values[sample], sample)
    active = sample[unsettled]
    windows = None
    # the first pass keeps the dips of every unsettled circle, but for
    # rounding at the margin of its relative test; those keep the ladder.  It
    # also keeps the circles that dip toward a zero: with a zero on the circle
    # the q and q/2 means may agree by chance however far both are off
    search = unsettled[kept] | dips
    if np.any(search) and degree:
        circles = kept[search]
        zeros = _near_zeros(coeffs, radii[sample], circles, stencils, q)
        del stencils  # before the windows, whose arrays are the next peak of a call
        windows = _ZeroWindows(coeffs, radii, p, q, sample[circles], rowmax[search], zeros)
    if windows:
        # the masked pass, not direct values, takes the window samples out: near
        # a zero both hold only rounding, which |h|^p for p < 1 magnifies
        held = np.unique(windows.owner)
        # a circle with a window settles only on the ladder
        active = np.union1d(active, held)
        values[held] = lift[held] * (
            circle_power_means(coeffs, radii[held], p, q, mask=windows.mask(q, held))
            + windows.scale[held] * windows.integral[held])
        content = lift * windows.scale * windows.integral
    while q < CIRCLE_Q_CAP and active.size:
        mask = windows.mask(q, active, half_step=True) if windows else None
        odd = lift[active] * circle_power_means(coeffs, radii[active], p, q, half_step=True,
                                                mask=mask)
        if windows:
            odd += lift[active] * windows.scale[active] * windows.integral[active]
        q *= 2
        previous = values[active]
        refined = 0.5 * (previous + odd)
        settled = np.abs(refined - previous) <= budget(refined, active)
        if windows:
            # a small step proves nothing while the grid leaves the windows'
            # erf edges unresolved: the trapezoid rule misses up to about
            # e^(-(q e)^2 / 4) of what they hold
            unresolved = content[active] * math.exp(-0.25 * (q * windows.edge) ** 2)
            settled &= unresolved <= 1e-2 * budget(refined, active)
        if guarded and windows is not None:
            settled &= q * windows.clear[active] >= ZERO_CLEARANCE
        values[active] = refined
        active = active[~settled]
    return values


def _parseval_norm(coeffs, moments):
    """(2 sum_n |c_n|^2 m_n)^(1/2) for the coefficients c and the moment table
    m (at least as long), scaled by the largest |c_n|, so that no square
    leaves the double range unless the norm's own square does; 0 where every
    |c_n| underflowed."""
    absc = np.abs(coeffs)
    top = float(np.max(absc))
    if top == 0.0:
        return 0.0
    with np.errstate(invalid="ignore"):  # inf / inf, refused below
        norm = top * math.sqrt(2.0 * float(np.dot((absc / top) ** 2, moments[: absc.size])))
    if not math.isfinite(norm * norm):
        raise DomainError("the Bergman integral of |f|^p overflows double precision")
    return norm


def _check_exponent(p):
    """Refuse an exponent p that is not a positive finite number."""
    if not (p > 0.0) or not math.isfinite(p):
        raise DomainError(f"exponent p must be positive, got {p!r}")


def integral_mean(f, r, p):
    """The L^p average of |f| on the circle of radius r, or on each circle of
    an array of radii (in its shape) from one ``_power_means`` call.

    M_p(r, z^a h) = r^a M_p(r, h): r^a is applied after the root, radius by
    radius as a float power, so that a mean whose p-th power underflows stays
    representable, and f's row maximum decides which radii flush to 0.
    """
    radii = np.asarray(r, dtype=float)
    bad = ~((radii >= 0.0) & (radii <= 1.0))
    if bad.any():
        raise DomainError(
            f"radius must lie in [0, 1], got {r if radii.ndim == 0 else float(radii[bad][0])!r}")
    _check_exponent(p)
    out = np.zeros(radii.size)
    if not f.is_zero:
        a = int(f.support()[0])
        h, rs = f.coeffs[a:], radii.ravel()
        lead = np.array([x**a for x in rs.tolist()])
        live = np.flatnonzero(~flushed(h, rs, lead))
        if live.size:
            means = _power_means(h, rs[live], p, f.degree - a, DEFAULT_SETTINGS)
            out[live] = [c * m ** (1.0 / p) for c, m in zip(lead[live].tolist(), means.tolist())]
    return float(out[0]) if radii.ndim == 0 else out.reshape(radii.shape)


def hardy_norm(f, p):
    """Hardy norm of a polynomial: the integral mean at r = 1, where the
    nondecreasing means attain their supremum."""
    return integral_mean(f, 1.0, p)


def bergman_norm(f, w, p):
    """Weighted Bergman norm (2 int r M_p^p(r, f) w(r) dr)^(1/p).

    At even p = 2m (``_parseval_order`` of deg f) nothing samples a circle:
    by Parseval ||f||^p is 2 sum_n |b_n|^2 m_n, b = f^m from h^m in
    f = z^a h(z^g), and m_n the weight's odd moments (``w.odd_moments``):
    closed-form Beta values for a standard weight, else the table kept with
    the rule ``w.moment`` uses for s^(2 m deg f + 1), which every series it
    serves shares, refused where it leaves the normal double range
    (``normal_odd_moments``).  Other exponents integrate ``_power_means`` over the
    weight's order-GL_ORDER radial rule and its boundary atom.
    """
    _check_exponent(p)
    if f.is_zero:
        return 0.0
    degree = f.degree
    m = _parseval_order(p, degree)
    if m:
        a, g, h = _factored(f.coeffs, degree)
        power = np.zeros(m * degree + 1, dtype=complex)
        power[m * a :: g] = _power(h, m)
        [moments] = normal_odd_moments((w,), m * degree + 1)
        return _parseval_norm(power, moments) ** (1.0 / m)
    rule = w.resolved_rule(p * degree + 2.0, order=GL_ORDER)
    # the boundary atom is one more radius, r = 1, weighted by the mass the
    # rule left unresolved; nodes carrying little mass get a looser budget
    radii = np.append(rule.nodes, 1.0)
    masses = np.append(rule.weights * rule.nodes, rule.boundary_mass)
    mpp = _power_means(f.coeffs, radii, p, degree, DEFAULT_SETTINGS, masses=masses)
    total = 2.0 * float(np.dot(masses, mpp))
    if not math.isfinite(total):
        raise DomainError(f"the Bergman integral of |f|^p at p = {p!r} overflows double precision")
    return total ** (1.0 / p)


def block_norm(f, eta, k, p, check=True):
    """Block norm (sum_n eta_{k^n} ||V_{n,k} * f||_{H^p}^p)^(1/p).

    The truncation covers every block that meets deg f; higher blocks vanish
    on polynomials.  ``check`` screens eta for the lower-doubling condition
    at this k (the regime where the block norm is equivalent to the Bergman
    norm); pass check=False to compute it regardless.  The eta_{k^n} of the
    blocks that meet f come from one ``eta.moments`` call.  At p = 2 nothing
    samples a circle: block n's H^2 norm is sum_j |v_n(j) c_j|^2, from the
    squares |v_n(j)|^2 kept with the basis (``_block_energies``).
    """
    _check_exponent(p)
    k = _block_k(eta, k, check)
    if f.is_zero:
        return 0.0
    if p == 2.0:
        top, energies = _block_energies(f.coeffs[: f.degree + 1], k)
        met = np.nonzero(energies)[0]
        return top * math.sqrt(float(np.dot(eta.moments(float(k) ** met), energies[met])))
    basis = _basis_for(k, f.degree)[0]
    met, hardy = [], []
    for n in range(basis.top_index + 1):
        piece = cesaro.block(f, basis, n)
        if not piece.is_zero:
            met.append(float(k) ** n)
            hardy.append(hardy_norm(piece, p) ** p)
    total = 0.0
    for moment, h in zip(eta.moments(met), hardy):
        total += moment * h
    return total ** (1.0 / p)


def _block_k(eta, k, check):
    """The block parameter k as an int, after ``block_norm``'s checks: an
    integer >= 2 and, when ``check``, eta passing the lower-doubling screen."""
    if not (k >= 2 and float(k).is_integer()):
        raise DomainError(f"block parameter k must be an integer >= 2, got {k!r}")
    if check:
        verdict, _ = dcheck_margin(eta, int(k))
        if verdict == "out":
            raise DomainError(
                f"weight {eta.label} fails the lower-doubling screen for k={k}; "
                "pass check=False to compute the block norm anyway"
            )
    return int(k)


def _block_energies(coeffs, k):
    """(top, e) for the coefficients c of a nonzero series: top = max |c_j|
    and e_n = sum_j |v_n(j) c_j / top|^2, the squared H^2 norm of block n of
    the series over top^2 (Parseval at r = 1), for every block of its basis."""
    absc = np.abs(coeffs)
    top = float(np.max(absc))
    basis, (rows, cols, squares) = _basis_for(k, absc.size - 1)
    n = np.searchsorted(cols, absc.size, side="left")
    energies = np.bincount(rows[:n], squares[:n] * (absc / top)[cols[:n]] ** 2,
                           minlength=basis.block_count)
    return top, energies


_BASIS_CACHE = {}


def _basis_for(k, degree):
    """The block basis for k and the power of two at or above ``degree``, and
    next to it the squares |v_n(j)|^2 of its coefficients for j up to that
    bucket, as a sparse matrix (rows n, columns j, squares) sorted by
    column; both are built once per key and cached."""
    n_top = max(degree, 1)
    bucket = 1 << max(0, math.ceil(math.log2(n_top)))
    key = (k, bucket)
    try:
        return _BASIS_CACHE[key]
    except KeyError:
        pass
    basis = cesaro.build_basis(k, bucket)
    cols = [np.flatnonzero(blk.coeffs[: bucket + 1]) for blk in basis.blocks]
    rows = np.repeat(np.arange(len(cols), dtype=np.int32), [c.size for c in cols])
    squares = np.concatenate([blk.coeffs[c].real ** 2 for blk, c in zip(basis.blocks, cols)])
    cols = np.concatenate(cols).astype(np.int32)
    order = np.argsort(cols, kind="stable")
    _BASIS_CACHE[key] = entry = (basis, (rows[order], cols[order], squares[order]))
    return entry


def block_sum_compare(a, eta, k, p):
    """Both sides of the nonnegative-series block comparison.

    Returns (lhs, rhs) with lhs = int_0^1 (sum a_j s^j)^p eta(s) ds and
    rhs = sum_n eta_{k^n} t_n^p, where t_0 sums a_j below k and t_n sums the
    band k^n <= j < k^(n+1); eta_1 and the eta_{k^n} of the nonzero bands
    come from one ``eta.moments`` call.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("coefficients must form a non-empty 1-d sequence")
    if np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise DomainError("block comparison needs nonnegative finite coefficients")
    k = _block_k(eta, k, check=False)
    _check_exponent(p)
    if not np.any(a > 0.0):
        return 0.0, 0.0
    degree = int(np.nonzero(a)[0][-1])
    rule = eta.resolved_rule(p * degree + 1.0, order=GL_ORDER)
    poly_at_nodes = np.polynomial.polynomial.polyval(rule.nodes, a)
    lhs = rule.integrate(poly_at_nodes**p, float(np.sum(a)) ** p)
    bands = [(1.0, float(np.sum(a[:k])))]
    n = 1
    while k**n <= degree:
        t_n = float(np.sum(a[k**n : k ** (n + 1)]))
        if t_n > 0.0:
            bands.append((float(k) ** n, t_n))
        n += 1
    orders, sums = zip(*bands)
    rhs = 0.0
    for moment, t_n in zip(eta.moments(orders).tolist(), sums):
        rhs += moment * t_n**p
    return lhs, rhs
